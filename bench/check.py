"""The benchmark's own check, at a tiny size.

    python3 bench/check.py

1. The input generator is deterministic: the same seed gives the same
   inputs (by digest), another seed gives other inputs.
2. Every reference matches both engines, called directly, within 1e-9, so a
   broken reference cannot pass for a regression of the program.
3. The output check rejects a reference that is off by 1e-6 in one entry.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

import workloads
from run import ATOL, WORK_DIR, Checker, run_op

TINY = {"corpus_random": 20, "chain_inputs": 2, "chain_erased_n": 4, "chain_retained_n": 4}


def main() -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    import pathsum.cli
    from pathsum import oracle, parse_scenario, paths

    failures = 0

    def report(ok: bool, what: str):
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {what}")

    for name in workloads.WORKLOADS:
        a = workloads.digest(workloads.generate(name, 7, **TINY))
        b = workloads.digest(workloads.generate(name, 7, **TINY))
        c = workloads.digest(workloads.generate(name, 8, **TINY))
        report(a == b and a != c, f"{name}: seed 7 repeats its inputs, seed 8 differs")

        inputs = workloads.generate(name, 7, **TINY)
        worst = 0.0
        keys_match = True
        for inp in inputs:
            s = parse_scenario(inp.text)
            for dist in (paths.distribution(s), oracle.distribution(s)):
                keys_match &= set(dist.weights) == set(inp.reference)
                worst = max([worst] + [abs(w - inp.reference.get(k, 2.0))
                                       for k, w in dist.weights.items()])
        report(keys_match and worst <= ATOL,
               f"{name}: {len(inputs)} references match both engines (max error {worst:.2g})")

    inp = workloads.generate("chain_retained", 7, **TINY)[0]
    WORK_DIR.mkdir(exist_ok=True)
    scn = WORK_DIR / "check.scn"
    scn.write_text(inp.text, "utf-8")
    try:
        code, _, out = run_op(pathsum.cli.main, ["run", str(scn), "--format", "json"])
    finally:
        scn.unlink()
        WORK_DIR.rmdir()
    key = next(iter(inp.reference))
    broken = {**inp.reference, key: inp.reference[key] + 1e-6}
    report(Checker().ok(code, out, inp.reference) and not Checker().ok(code, out, broken),
           "output check accepts the reference and rejects it off by 1e-6")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
