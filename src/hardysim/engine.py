"""Evolution pipeline: evolve the source through the stages, post-select on the
discard set, and read exact Born weights out of the result.

This module alone decides where post-selection happens.  The parser makes
every discarded label an exit (no stage consumes it), so post-selecting right
after the last stage that emits into the discard set keeps the same terms and
the same weight as post-selecting at the end.  :func:`boundary` cuts there;
every command continues from the root state it returns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .amplitude import NotRational, RadicalComplex, inv_sqrt
from .circuitdsl import Circuit, Stage
from .optics import apply_transform
from .state import Arm, ModeLabel, PairKey, TwoPhotonState


class ZeroState(ValueError):
    """The operation needs a state with at least one term."""


class ZeroConditioningEvent(ValueError):
    """The conditioning label has zero marginal probability."""


def _row_order(item):
    (p, m), _ = item
    return (p.name, m.name)


class OutcomeTable(NamedTuple):
    """Exact joint probabilities per detector pair; the rows always sum to 1.
    ``kept_weight`` is the post-selection survival probability of their run:
    the surviving weight over the source weight."""

    rows: Mapping[PairKey, Fraction]
    kept_weight: Fraction

    def sorted_rows(self) -> tuple[tuple[PairKey, Fraction], ...]:
        return tuple(sorted(self.rows.items(), key=_row_order))

    def total(self) -> Fraction:
        return sum(self.rows.values(), Fraction(0))

    def marginal(self, arm: Arm) -> dict[ModeLabel, Fraction]:
        out: dict[ModeLabel, Fraction] = {}
        for (p, m), prob in self.sorted_rows():
            label = p if arm is Arm.PLUS else m
            out[label] = out.get(label, Fraction(0)) + prob
        return out


def evolve(state: TwoPhotonState, stages: Iterable[Stage]) -> TwoPhotonState:
    """``state`` pushed through ``stages`` in order (no post-selection)."""
    for stage in stages:
        state = apply_transform(state, stage.transform())
    return state


def postselect(state: TwoPhotonState, discard: Iterable[ModeLabel]) -> tuple[TwoPhotonState, Fraction]:
    """Drop terms that touch a discarded label; also return the surviving weight.

    The surviving weight is the squared norm of the surviving part: for a
    unit-norm ``state``, the probability that the pair escapes the discarded
    exits.  Raises NotRational, naming the discard set, when it is irrational.
    """
    dropped = frozenset(discard)
    kept = TwoPhotonState(
        [((p, m), amp) for (p, m), amp in state.terms() if p not in dropped and m not in dropped]
    )
    where = f" after discarding {' '.join(sorted(map(str, dropped)))}" if dropped else ""
    return kept, _weight("kept weight", kept.norm_sq(), where)


def renormalize(state: TwoPhotonState) -> TwoPhotonState:
    """Scale to unit norm, exactly.  Raises ZeroState on an empty state and
    UnsupportedRadical if 1/sqrt(norm) leaves the radical basis."""
    if state.is_zero:
        raise ZeroState("cannot renormalise a state with no terms")
    norm = state.norm_sq().as_rational()
    return state.scale(inv_sqrt(norm))


def _weight(name: str, weight: RadicalComplex, where: str = "") -> Fraction:
    """``weight`` as a plain rational, or NotRational naming what it weighs."""
    try:
        return weight.as_rational()
    except NotRational:
        raise NotRational(f"{name} {weight}{where} is not a plain rational") from None


def _born_weight(key: PairKey, weight: RadicalComplex) -> Fraction:
    """``weight`` as a plain rational, or NotRational naming the pair it belongs to."""
    try:
        return weight.as_rational()
    except NotRational:
        raise NotRational(f"({key[0]},{key[1]}) has Born weight {weight}, "
                          "which is not a plain rational") from None


def probabilities(state: TwoPhotonState, kept_weight: Fraction) -> OutcomeTable:
    """One row per term: its exact Born weight |amplitude|^2 over the state's own
    squared norm, so rows sum to 1, next to the run's ``kept_weight``."""
    norm = state.norm_sq().as_rational()
    rows = {key: _born_weight(key, amp.norm_sq() / norm) for key, amp in state.terms()}
    return OutcomeTable(rows, kept_weight)


def conditional(state: TwoPhotonState, given: ModeLabel) -> dict[ModeLabel, Fraction]:
    """Distribution of the opposite arm's label given one photon's label.

    Only labels with nonzero conditional probability appear in the result.
    Raises ZeroConditioningEvent when the given label has zero marginal.
    """
    weights: dict[ModeLabel, Fraction] = {}
    for (p, m), amp in state.terms():
        own, other = (p, m) if given.arm is Arm.PLUS else (m, p)
        if own == given:
            weights[other] = weights.get(other, Fraction(0)) + _born_weight((p, m), amp.norm_sq())
    total = sum(weights.values(), Fraction(0))
    if total == 0:
        raise ZeroConditioningEvent(f"{given} has zero marginal probability")
    return {label: w / total for label, w in sorted(weights.items(), key=lambda kv: str(kv[0]))}


def boundary(circuit: Circuit) -> tuple[TwoPhotonState, Fraction, tuple[Stage, ...]]:
    """The post-selected root state, its kept weight and the stages still to apply.

    The cut falls right after the last stage that emits into the discard set
    (at the source when none does).  The kept weight is the surviving weight
    over the source weight, so an unnormalised source still gets a survival
    probability.  Raises ZeroState when no term survives.
    """
    source_weight = _weight("source weight", circuit.source.norm_sq())
    cut = 0
    for index, stage in enumerate(circuit.stages, start=1):
        if any(label in circuit.discard for label in stage.outputs):
            cut = index
    root, survived = postselect(evolve(circuit.source, circuit.stages[:cut]), circuit.discard)
    if root.is_zero:
        raise ZeroState("post-selection removed every term")
    return root, survived / source_weight, circuit.stages[cut:]


def run(circuit: Circuit) -> OutcomeTable:
    """Full pipeline: post-select at the boundary, evolve the rest, tabulate (no square root)."""
    root, kept, rest = boundary(circuit)
    return probabilities(evolve(root, rest), kept_weight=kept)
