"""pathsum benchmark: time to a verified retained-outcome distribution.

Usage, from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One op is what ``pathsum run <file.scn> --engine both --format json`` does
after import: ``cli.main`` reads, parses and validates the file, runs the
path engine and the dilation oracle, applies the 1e-9 agreement gate and
renders JSON (stdout is captured).  Ops run in a closed loop, one client in
this process, cycling through the workload's inputs in order, for
``--seconds`` of wall time and at least 100 ops.  Every op's JSON is checked,
outside its timing, against a reference computed without the program (see
``workloads.py``).

Times are reference seconds (see ``CLOCK`` and ``CAL_REF_S``): CPU seconds of
the thread that runs the op for ops and spans, wall seconds for fresh
processes, each rescaled by the speed of the host at that moment as a fixed
kernel measures it.  The provenance line gives the kernel's times, so raw
seconds can be recovered.

``--trace 0`` reports the end-to-end metrics:

* ``op_p50_s``, ``op_p90_s``: median and 90th percentile op time; a run makes
  at least 100 ops, so at least 10 lie beyond the 90th percentile;
* ``ops_per_s``: ops completed per second spent in ops (checks excluded);
* ``ok_ops_ratio``: 1 - failed/attempted.  An op fails if it raises, exits
  non-zero, or its JSON misses the reference by more than 1e-9 anywhere;
* ``setup_s``: median time of a fresh ``python -m pathsum.cli list``
  process, i.e. the import every ``pathsum run`` pays;
* ``cold_run_s``: median time of a fresh ``python -m pathsum.cli run``
  process on the workload's first input, end to end as a user runs it;
* ``peak_rss_mb``: peak resident set of this process.

``--trace 1`` runs ops in pairs, one plain and one traced, on the same input.
The traced op wraps the module functions the op calls (the program's own
files are untouched) and records a span, with its parent, around each call.
It reports, per layer, the per-op median time and the share of the traced
op's total time; counts taken from the functions' return values over one
pass through the inputs, averaged per op; the worst engine delta and
reference error; and ``trace.overhead_ratio``, the median traced op over the
median plain op minus one.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it records provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import workloads

ATOL = 1e-9
MIN_OPS = 100
SETUP_REPEATS = 11
COLD_REPEATS = 11
WARMUP_OPS = 3
SUBPROCESS_TIMEOUT_S = 60
WORK_DIR = Path(".bench_work")
# Op and span times are CPU seconds of the thread that runs the op.  On a
# shared virtual machine, wall time also counts the time the hypervisor gives
# the vCPU to someone else; on a 2-vCPU guest that share moved op medians by
# 30-45% between runs minutes apart, beyond any useful regression bound.
# OpenBLAS helper threads are not counted: at these sizes they add no work
# (thread time is the same with OPENBLAS_NUM_THREADS=1).
CLOCK = time.thread_time
# CPU time itself still moved 1.4-1.8x within minutes on that guest, in step
# for every workload and for a fixed kernel alike (host load, not the
# program).  So every time is rescaled by HostSpeed to reference seconds: the
# seconds it would take on a host where the kernel takes CAL_REF_S.  That
# cut the spread of op medians over ten runs from up to 0.64 to below 0.08.
CAL_REF_S = 0.0175
CAL_EVERY_S = 1.0


class Tracer:
    """Spans (name, parent index, start, end) and return values of one op."""

    def __init__(self):
        self.spans: list[list] = []
        self.results: list[tuple[str, object]] = []
        self._stack: list[int] = []

    def reset(self):
        self.spans.clear()
        self.results.clear()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self._stack[-1] if self._stack else None,
                               CLOCK(), 0.0])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = CLOCK()
            self.results.append((name, result))
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration, and ``<name>.self`` excluding children."""
        out: dict[str, float] = {}
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + end - start
            out[name + ".self"] = out.get(name + ".self", 0.0) + end - start - inner
        return out


# (module, attribute, span name): the public functions an op calls, at the
# names the callers look them up by
def _trace_points(pathsum):
    cli, paths, oracle = pathsum.cli, pathsum.paths, pathsum.oracle
    return (
        (cli, "parse_scenario", "scenario.parse"),
        (paths, "distribution", "paths.distribution"),
        (paths, "enumerate_paths", "paths.enumerate"),
        (paths, "reduce", "paths.reduce"),
        (oracle, "distribution", "oracle.distribution"),
        (oracle, "dilate", "oracle.dilate"),
        (oracle, "evolve", "oracle.evolve"),
        (cli, "equivalence_delta", "cli.delta"),
        (cli, "render_json", "cli.render"),
    )


@contextlib.contextmanager
def traced(tracer: Tracer, points):
    """Wrap each trace point for the duration; a point the program no longer
    has is skipped, so its layer reads 0."""
    points = [(mod, attr, name) for mod, attr, name in points if hasattr(mod, attr)]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in points]
    try:
        for mod, attr, name in points:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


class HostSpeed:
    """A fixed kernel that mixes interpreter work, small numpy calls and a
    2 MB matrix product, like an op does; it never touches pathsum."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        self._b = rng.normal(size=(6, 20000)) + 0j
        self.kernel_s: list[float] = []

    def _kernel(self):
        d: dict = {}
        for j in range(20000):
            key = (j % 97, "x")
            d[key] = d.get(key, 0.0) + j * 1.5
        for _ in range(400):
            np.vdot(self._a[:, 0], self._a[:, 1])
        for _ in range(10):
            np.linalg.norm(self._a @ self._b)

    def measure(self) -> float:
        """The kernel's CPU seconds now, as the median of 5 runs."""
        times = []
        for _ in range(5):
            t0 = CLOCK()
            self._kernel()
            times.append(CLOCK() - t0)
        self.kernel_s.append(statistics.median(times))
        return self.kernel_s[-1]


class Calibrated:
    """Host-speed factor, measured again once ``CAL_EVERY_S`` of wall time passed."""

    def __init__(self, host: HostSpeed):
        self.host = host
        self._next = 0.0
        self._factor = 1.0

    def factor(self) -> float:
        if time.perf_counter() >= self._next:
            self._factor = CAL_REF_S / self.host.measure()
            self._next = time.perf_counter() + CAL_EVERY_S
        return self._factor


class Checker:
    """Compares op output with the reference; keeps the worst margins."""

    def __init__(self):
        self.ref_error_max = 0.0
        self.delta_max = 0.0

    def ok(self, code: int, out: str, reference: workloads.Reference) -> bool:
        if code != 0:
            return False
        try:
            doc = json.loads(out)
            got = {tuple(map(tuple, row["tuple"])): float(row["p"]) for row in doc["outcomes"]}
            delta = float(doc["delta"])
        except (ValueError, KeyError, TypeError):
            return False
        if set(got) != set(reference):
            return False
        err = max(abs(got[k] - reference[k]) for k in got)
        self.ref_error_max = max(self.ref_error_max, err)
        self.delta_max = max(self.delta_max, delta)
        return err <= ATOL and delta <= ATOL and abs(sum(got.values()) - 1.0) <= ATOL


def run_op(main, argv) -> tuple[int, float, str]:
    """One op: ``main(argv)`` with stdout captured; returns (code, seconds, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = CLOCK()
        code = main(argv)
        elapsed = CLOCK() - t0
    return code, elapsed, buf.getvalue()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def process_seconds(host: HostSpeed, args: list[str],
                    repeats: int) -> tuple[list[float], list[str]]:
    """Wall times, in reference seconds, and stdouts of ``repeats`` fresh
    interpreter processes.

    Wall, not CPU: the process's OpenBLAS helper thread spins for as long as
    the process lives, which doubles its CPU time without delaying anyone.
    One process varies more than the host does, so all of them share one
    factor, from the kernel's median over the whole series.
    """
    walls, kernel_s, outs = [], [], []
    for _ in range(repeats):
        kernel_s.append(host.measure())
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        outs.append(proc.stdout if proc.returncode == 0 else "")
    factor = CAL_REF_S / statistics.median(kernel_s)
    return [w * factor for w in walls], outs


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def blas_info() -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads():
    """Threads of the loaded OpenBLAS, asked through its own API; None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, inputs, host: HostSpeed) -> dict:
    commit = None
    if Path(".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted(Path("src/pathsum").rglob("*")):
        if f.is_file() and f.suffix in (".py", ".scn"):
            src.update(f.as_posix().encode() + b"\0" + f.read_bytes())
    cpu = None
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": len(inputs), "inputs_sha256": workloads.digest(inputs),
        "git_commit": commit, "src_sha256": src.hexdigest(),
        "python": sys.version.split()[0], "executable": sys.executable,
        "numpy": np.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "platform": platform.platform(),
        # raw CPU seconds = reported reference seconds * kernel_s / cal_ref_s
        "host_speed": {"cal_ref_s": CAL_REF_S, "samples": len(host.kernel_s),
                       "kernel_s_median": statistics.median(host.kernel_s),
                       "kernel_s_min": min(host.kernel_s), "kernel_s_max": max(host.kernel_s)},
    }


def end_to_end(host, main, jobs, first_argv, first_ref,
               seconds) -> tuple[dict, int, int, bool]:
    checker = Checker()
    list_times, list_outs = process_seconds(host, ["-m", "pathsum.cli", "list"],
                                            SETUP_REPEATS + 1)
    cold_times, cold_outs = process_seconds(host, ["-m", "pathsum.cli", *first_argv],
                                            COLD_REPEATS + 1)
    correct = all(list_outs) and all(checker.ok(0, out, first_ref) for out in cold_outs)

    for k in range(WARMUP_OPS):
        run_op(main, jobs[k % len(jobs)][0])
    times, failed = [], 0
    speed = Calibrated(host)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(times) < MIN_OPS:
        argv, ref = jobs[len(times) % len(jobs)]
        factor = speed.factor()
        try:
            code, elapsed, out = run_op(main, argv)
        except Exception:  # an op that raises is a failed op; keep measuring
            traceback.print_exc()
            code, elapsed, out = -1, 0.0, ""
        times.append(elapsed * factor)
        failed += not checker.ok(code, out, ref)

    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (percentile(times, 90), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "ok_ops_ratio": (1.0 - failed / len(times), "ratio"),
        # the first process of each kind warms the file cache and is dropped
        "setup_s": (statistics.median(list_times[1:]), "s"),
        "cold_run_s": (statistics.median(cold_times[1:]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, len(times), failed, correct and failed == 0


LAYER_TIMES = (  # metric name, span key
    ("scenario.parse", "scenario.parse"),
    ("paths.distribution", "paths.distribution"),
    ("paths.enumerate", "paths.enumerate"),
    ("paths.reduce", "paths.reduce"),
    ("oracle.dilate", "oracle.dilate"),
    ("oracle.evolve", "oracle.evolve"),
    ("oracle.readout", "oracle.distribution.self"),  # distribution - dilate - evolve
    ("cli.delta", "cli.delta"),
    ("cli.render", "cli.render"),
    ("cli.self", "cli.main.self"),  # argparse, file read, everything unspanned
)


def _counts(results) -> Counter:
    c = Counter()
    for name, r in results:
        if name == "paths.enumerate":
            c["virtual"] += len(r)
            c["zero"] += sum(p.is_zero for p in r)
        elif name == "paths.distribution":
            c["tuples"] += len(r.weights)
        elif name == "oracle.dilate":
            c["amplitudes"] += math.prod(r.dims)
            c["applies"] += sum(1 + 2 * len(plan.consumed_ops) for plan in r.couplings)
    return c


def per_layer(host, pathsum, jobs, seconds) -> tuple[dict, int, int, bool]:
    main = pathsum.cli.main
    tracer = Tracer()
    root = tracer.wrap("cli.main", main)
    points = _trace_points(pathsum)
    checker = Checker()
    plain, traced_ops, layers = [], [], []
    counts = Counter()
    attempted = failed = pairs = 0

    for k in range(WARMUP_OPS):
        run_op(main, jobs[k % len(jobs)][0])
    speed = Calibrated(host)
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or pairs < max(len(jobs), 10):
        argv, ref = jobs[pairs % len(jobs)]
        factor = speed.factor()
        # alternate which of the pair goes first so drift hits both alike
        order = (False, True) if pairs % 2 == 0 else (True, False)
        pairs += 1
        for is_traced in order:
            attempted += 1
            tracer.reset()
            try:
                if is_traced:
                    with traced(tracer, points):
                        code, elapsed, out = run_op(root, argv)
                else:
                    code, elapsed, out = run_op(main, argv)
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc()
                failed += 1
                continue
            failed += not checker.ok(code, out, ref)
            if not is_traced:
                plain.append(elapsed)
                continue
            traced_ops.append(elapsed)
            layers.append({k: v * factor for k, v in tracer.self_times().items()})
            if pairs <= len(jobs):  # counts from exactly one pass
                counts.update(_counts(tracer.results))

    total_op = sum(lay.get("cli.main", 0.0) for lay in layers)
    metrics = {}
    for name, key in LAYER_TIMES:
        per_op = [lay.get(key, 0.0) for lay in layers]
        metrics[name + "_s"] = (statistics.median(per_op), "s")
        metrics[name + "_share"] = (sum(per_op) / total_op, "ratio")
    n = len(jobs)
    metrics.update({
        "paths.virtual_paths": (counts["virtual"] / n, "count"),
        "paths.zero_paths": (counts["zero"] / n, "count"),
        "paths.retained_tuples": (counts["tuples"] / n, "count"),
        # no enumeration means no wasted paths
        "paths.useful_ratio": (counts["tuples"] / counts["virtual"] if counts["virtual"]
                               else 1.0, "ratio"),
        "oracle.amplitudes": (counts["amplitudes"] / n, "count"),
        "oracle.state_bytes": (16 * counts["amplitudes"] / n, "B"),  # computed, complex128
        "oracle.coupling_applies": (counts["applies"] / n, "count"),
        "cli.engine_delta_max": (checker.delta_max, "prob"),
        "cli.ref_error_max": (checker.ref_error_max, "prob"),
        "trace.overhead_ratio": (statistics.median(traced_ops) / statistics.median(plain) - 1.0,
                                 "ratio"),
    })
    return metrics, attempted, failed, failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/pathsum/cli.py").is_file():
        print("error: run from the repository root (src/pathsum not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import pathsum.cli  # noqa: E402  (the checkout's own source, not an installed copy)

    if not Path(pathsum.__file__).resolve().is_relative_to(Path("src").resolve()):
        print(f"error: imported pathsum from {pathsum.__file__}", file=sys.stderr)
        return 2

    inputs = workloads.generate(args.workload, args.seed)
    host = HostSpeed()
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs = []
        for inp in inputs:
            path = work / inp.name
            path.write_text(inp.text, "utf-8")
            jobs.append((["run", str(path), "--engine", "both", "--format", "json"],
                         inp.reference))
        if args.trace:
            metrics, attempted, failed, correct = per_layer(host, pathsum, jobs, args.seconds)
        else:
            metrics, attempted, failed, correct = end_to_end(
                host, pathsum.cli.main, jobs, jobs[0][0], jobs[0][1], args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:28s} {value:.6g} {unit}")
    print(json.dumps({"provenance": provenance(args, inputs, host)}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
