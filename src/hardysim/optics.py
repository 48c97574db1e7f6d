"""Optical elements as exact single-arm linear maps, plus the two composite presets.

A ModeTransform is an isometry given column-wise: each consumed input label
maps to a list of (output label, amplitude) pairs.  Columns must be exactly
unit-norm and pairwise orthogonal, which the constructor verifies, so norm
conservation of the evolution is guaranteed by construction.  Modes of the
state that a transform does not consume pass through unchanged.

The columns also say whether an element acts in place: its outputs are
either exactly its inputs (a phase shift) or all fresh modes (a splitter, a
preset); any other overlap is rejected.  Each preset is written once, as its
columns over mode names in ``PRESETS``; the modes it consumes and produces
(:func:`preset_modes`) are read off those columns.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Mapping, NamedTuple, Tuple

from .amplitude import I, ONE, RadicalComplex, ZERO, inv_sqrt, quarter_phase, sqrt_rational
from .state import Arm, ArmMismatch, ModeLabel, TwoPhotonState

Column = Tuple[Tuple[ModeLabel, RadicalComplex], ...]


class _Transform(NamedTuple):
    arm: Arm
    columns: Mapping[ModeLabel, Column]


class ModeTransform(_Transform):
    """An exact isometry acting on labelled modes of a single arm."""

    __slots__ = ()

    def __new__(cls, arm: Arm, columns: Mapping[ModeLabel, Column]):
        inputs = set(columns)
        outputs: set[ModeLabel] = set()
        for src, pairs in columns.items():
            if src.arm is not arm:
                raise ArmMismatch(f"input {src} is not on arm {arm}")
            seen: set[ModeLabel] = set()
            norm = ZERO
            for out, coef in pairs:
                if out.arm is not arm:
                    raise ArmMismatch(f"output {out} is not on arm {arm}")
                if out in seen:
                    raise ValueError(f"duplicate output {out} in column {src}")
                if coef.is_zero:
                    raise ValueError(f"zero coefficient stored for {src} -> {out}")
                seen.add(out)
                norm = norm + coef.norm_sq()
            if norm != ONE:
                raise ValueError(f"column {src} is not unit-norm (got {norm})")
            outputs |= seen
        for a, b in itertools.combinations(columns, 2):
            col_b = dict(columns[b])
            dot = ZERO
            for out, ca in columns[a]:
                cb = col_b.get(out)
                if cb is not None:
                    dot = dot + ca.conjugate() * cb
            if not dot.is_zero:
                raise ValueError(f"columns {a} and {b} are not orthogonal (got {dot})")
        if inputs & outputs and inputs != outputs:
            raise ValueError("an element must map its modes onto themselves or onto fresh modes")
        return super().__new__(cls, arm, columns)


def beamsplitter(t, in1: ModeLabel, in2: ModeLabel, out1: ModeLabel, out2: ModeLabel) -> ModeTransform:
    """Two-mode splitter: transmitted amplitude sqrt(t), reflected i*sqrt(1-t).

    ``in1`` transmits to ``out1`` and ``in2`` to ``out2``; reflections cross
    over and pick up the factor i.  The transmissivity must be a rational in
    (0,1) such that sqrt(t) and sqrt(1-t) stay inside the radical basis
    (1/2, 1/3, 2/3, 1/4, 3/4, ... work; 1/5 raises UnsupportedRadical).
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError(f"transmissivity must satisfy 0 < t < 1, got {t}")
    arm = in1.arm
    for lbl in (in2, out1, out2):
        if lbl.arm is not arm:
            raise ArmMismatch(f"{lbl} is not on arm {arm}")
    if in1 == in2 or out1 == out2:
        raise ValueError("beam splitter modes must be distinct")
    transmitted = sqrt_rational(t)
    reflected = I * sqrt_rational(1 - t)
    return ModeTransform(
        arm,
        {
            in1: ((out1, transmitted), (out2, reflected)),
            in2: ((out2, transmitted), (out1, reflected)),
        },
    )


def phase_shift(quarter_turns: int, mode: ModeLabel) -> ModeTransform:
    """In-place phase i**k on one mode; only quarter turns are exactly representable."""
    factor = quarter_phase(quarter_turns)
    return ModeTransform(mode.arm, {mode: ((mode, factor),)})


_R2, _R3 = inv_sqrt(2), inv_sqrt(3)

# The composite stages shipped with the circuit format, as input name -> column.
# Column entries are listed so that outputs first appear in the order u v g f.
PRESETS: dict[str, dict[str, tuple[tuple[str, RadicalComplex], ...]]] = {
    "preset_eq2": {
        "a": (("u", I * _R3), ("v", _R3), ("g", -_R3)),
        "b": (("u", -_R3), ("g", I * _R3), ("f", _R3)),
    },
    "preset_eq5": {
        "u": (("c", _R2), ("d", I * _R2)),
        "v": (("d", _R2), ("c", I * _R2)),
    },
}


@functools.cache
def preset_modes(name: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Mode names the preset consumes and produces, in order of first appearance
    in its columns: ``preset_eq2`` gives (a b, u v g f), ``preset_eq5`` (u v, c d)."""
    columns = PRESETS[name]
    return tuple(columns), tuple(dict.fromkeys(out for col in columns.values() for out, _ in col))


def preset(name: str, arm: Arm) -> ModeTransform:
    """Composite stages shipped with the circuit format.

    ``preset_eq2`` is the preparation network (unbalanced splitter, mirror
    and recombiner folded together): each source path a, b splits three ways
    with weight 1/sqrt(3) per branch, into the kept pair u, v and the dump
    ports g, f.  ``preset_eq5`` is the balanced output splitter taking u, v
    onto the detector ports c, d.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return ModeTransform(arm, {
        ModeLabel(src, arm): tuple((ModeLabel(out, arm), amp) for out, amp in column)
        for src, column in PRESETS[name].items()
    })


def apply_transform(state: TwoPhotonState, transform: ModeTransform) -> TwoPhotonState:
    """Linear substitution of the transform's columns on its arm.

    Terms whose label on that arm is not consumed pass through unchanged;
    exactness and (for the state's restriction to consumed modes) the norm
    are preserved because the columns form an isometry.
    """
    entries = []
    on_plus = transform.arm is Arm.PLUS
    for (p, m), amp in state.terms():
        col = transform.columns.get(p if on_plus else m)
        if col is None:
            entries.append(((p, m), amp))
        else:
            for out, coef in col:
                key = (out, m) if on_plus else (p, out)
                entries.append((key, amp * coef))
    return TwoPhotonState(entries)
