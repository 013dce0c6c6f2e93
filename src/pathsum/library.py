"""Built-in canonical scenarios, as constructors and as shipped .scn files.

Three families:

* ``double_slit``: a two-level system and up to two probes; the first probe
  records the which-way basis, the second measures in a rotated basis.
* ``wfs``: the one-friend/one-observer setup; case I keeps the friend's
  record, case II erases it by measuring the friend's whole laboratory.
* ``two_wigners``: two friends measure a coin and a spin that interact in
  between, then two outside observers measure the laboratories.  The four
  record regimes select which friend records survive.

The shipped ``scenarios/*.scn`` files are reference corpus for the DSL; a
test asserts they parse equal to the constructors' output.
"""

from __future__ import annotations

import enum
import math
from importlib import resources

from .hilbert import Basis, HilbertError, Operator, StateVector
from .scenario import (
    MeasurementEvent,
    Record,
    Scenario,
    SubsystemSpec,
    UnitaryEvent,
    parse_scenario,
)

SQ2 = 1.0 / math.sqrt(2.0)

# generic rotated-basis coefficients used by the shipped double-slit and
# friend scenarios: |fail> = (|up>+|down>)/sqrt(2), |ok> = (|up>-|down>)/sqrt(2)
HADAMARD = (SQ2, SQ2, SQ2, -SQ2)

# generic preparation 0.6|up> + 0.8|down>: summing probabilities over the
# ways (0.5) and summing amplitudes first (0.02) are far apart
GENERIC_S0 = (0.6, 0.8)


class RegimeTag(enum.Enum):
    BOTH_ERASED = "both_erased"
    FBAR_PRESERVED = "fbar_preserved"
    F_PRESERVED = "f_preserved"
    BOTH_PRESERVED = "both_preserved"


def _two_level(name: str, labels=("up", "down")) -> SubsystemSpec:
    return SubsystemSpec(name, 2, tuple(labels))


def _rotated_basis(alpha, beta, gamma, delta, labels=("fail", "ok")) -> Basis:
    coeffs = Operator((2,), [[alpha, beta], [gamma, delta]])
    try:
        coeffs.require_unitary("coefficient matrix")
    except HilbertError as exc:
        raise HilbertError(f"non-unitary coefficient matrix: {exc}") from None
    return Basis((2,), tuple(labels), [[alpha, gamma], [beta, delta]])


def _updown_basis() -> Basis:
    return Basis((2,), ("up", "down"), [[1, 0], [0, 1]])


def double_slit(alpha=HADAMARD[0], beta=HADAMARD[1], gamma=HADAMARD[2],
                delta=HADAMARD[3], s0=GENERIC_S0,
                engage_first_probe: bool = True) -> Scenario:
    """Two-level system; which-way probe optional, rotated readout retained.

    With the probe engaged the readout statistics add probabilities over the
    two ways; without it the ways interfere and amplitudes add first.
    """
    rotated = _rotated_basis(alpha, beta, gamma, delta)
    initial = StateVector((2,), list(s0)).require_normalized("preparation")
    events: list = []
    if engage_first_probe:
        events.append(MeasurementEvent(1, "F", ("sys",), _updown_basis(), Record.RETAINED))
    events.append(MeasurementEvent(2, "W", ("sys",), rotated, Record.RETAINED))
    return Scenario((_two_level("sys"),), initial, tuple(events))


def wfs(case, alpha=HADAMARD[0], beta=HADAMARD[1], gamma=HADAMARD[2],
        delta=HADAMARD[3], s0=GENERIC_S0) -> Scenario:
    """One friend, one observer.

    Case I ("1", 1, "I"): the observer measures only the system, so the
    friend's record survives.  Case II: the observer measures the friend's
    whole laboratory, erasing the record and restoring interference.
    """
    case = str(case).upper()
    if case in ("1", "I"):
        record = Record.RETAINED
    elif case in ("2", "II"):
        record = Record.ERASED
    else:
        raise ValueError(f"case must be I or II, got {case!r}")
    rotated = _rotated_basis(alpha, beta, gamma, delta)
    initial = StateVector((2,), list(s0)).require_normalized("preparation")
    events = (
        MeasurementEvent(1, "F", ("sys",), _updown_basis(), record),
        MeasurementEvent(2, "W", ("sys",), rotated, Record.RETAINED),
    )
    return Scenario((_two_level("sys"),), initial, events)


def _coin_spin_interaction() -> Operator:
    """Coin-controlled spin rotation: identity on heads, on tails the spin
    is rotated by (1 + |up><down| - |down><up|)/sqrt(2).
    """
    u = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, SQ2, SQ2],
        [0, 0, -SQ2, SQ2],
    ]
    return Operator((2, 2), u)


def two_wigners(regime: RegimeTag) -> Scenario:
    """The two-friends/two-observers scenario in one of four record regimes.

    Preparation: coin in (|heads> + sqrt(2)|tails>)/sqrt(3), spin |down>.
    Fbar measures the coin, the coin kicks the spin, F measures the spin,
    then Wbar and W measure the laboratories in half-sum/half-difference
    bases.  The regime decides which friend records the observers preserve.
    """
    regime = RegimeTag(regime)
    fbar_record = (
        Record.RETAINED
        if regime in (RegimeTag.FBAR_PRESERVED, RegimeTag.BOTH_PRESERVED)
        else Record.ERASED
    )
    f_record = (
        Record.RETAINED
        if regime in (RegimeTag.F_PRESERVED, RegimeTag.BOTH_PRESERVED)
        else Record.ERASED
    )
    coin = SubsystemSpec("coin", 2, ("heads", "tails"))
    spin = SubsystemSpec("spin", 2, ("up", "down"))
    sq3 = math.sqrt(3.0)
    initial = StateVector((2, 2), [0.0, 1.0 / sq3, 0.0, math.sqrt(2.0) / sq3])
    coin_basis = Basis((2,), ("heads", "tails"), [[1, 0], [0, 1]])
    wbar_basis = _rotated_basis(SQ2, SQ2, SQ2, -SQ2, labels=("fail_bar", "ok_bar"))
    w_basis = _rotated_basis(SQ2, SQ2, SQ2, -SQ2, labels=("fail", "ok"))
    events = (
        MeasurementEvent(1, "Fbar", ("coin",), coin_basis, fbar_record),
        UnitaryEvent(2, ("coin", "spin"), _coin_spin_interaction()),
        MeasurementEvent(3, "F", ("spin",), _updown_basis(), f_record),
        MeasurementEvent(4, "Wbar", ("coin",), wbar_basis, Record.RETAINED),
        MeasurementEvent(5, "W", ("spin",), w_basis, Record.RETAINED),
    )
    return Scenario((coin, spin), initial, events)


_BUILTINS = {
    "double_slit": lambda: double_slit(),
    "wfs_case1": lambda: wfs("I"),
    "wfs_case2": lambda: wfs("II"),
    "2w2f_both_erased": lambda: two_wigners(RegimeTag.BOTH_ERASED),
    "2w2f_fbar_preserved": lambda: two_wigners(RegimeTag.FBAR_PRESERVED),
    "2w2f_f_preserved": lambda: two_wigners(RegimeTag.F_PRESERVED),
    "2w2f_both_preserved": lambda: two_wigners(RegimeTag.BOTH_PRESERVED),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(name: str, regime: str | RegimeTag | None = None) -> Scenario:
    """Resolve a built-in scenario name, optionally with a 2w2f regime."""
    if name == "2w2f":
        if regime is None:
            raise ValueError("scenario '2w2f' needs a regime (e.g. both_erased)")
        return two_wigners(regime if isinstance(regime, RegimeTag) else RegimeTag(regime))
    if regime is not None:
        raise ValueError(f"scenario {name!r} does not take a regime")
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown built-in scenario {name!r}") from None


def shipped_source(name: str) -> str:
    """Raw text of a shipped .scn file."""
    return (resources.files("pathsum") / "scenarios" / f"{name}.scn").read_text("utf-8")


def load_shipped(name: str) -> Scenario:
    return parse_scenario(shipped_source(name))
