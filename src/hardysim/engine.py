"""Evolution pipeline: evolve the source through the stages, post-select on the
discard set, and read exact Born weights out of the result."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .amplitude import inv_sqrt
from .circuitdsl import Circuit
from .optics import apply_transform
from .state import Arm, ModeLabel, PairKey, TwoPhotonState

__all__ = [
    "ZeroState",
    "ZeroConditioningEvent",
    "OutcomeTable",
    "evolve",
    "postselect",
    "renormalize",
    "probabilities",
    "conditional",
    "run",
]


class ZeroState(ValueError):
    """The operation needs a state with at least one term."""


class ZeroConditioningEvent(ValueError):
    """The conditioning label has zero marginal probability."""


def _row_order(item):
    (p, m), _ = item
    return (p.name, m.name)


@dataclass(frozen=True)
class OutcomeTable:
    """Exact joint probabilities per detector pair; the rows always sum to 1.
    ``kept_weight`` is the post-selection survival probability of their run."""

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

    def to_json_obj(self) -> dict:
        return {
            "kept_weight": str(self.kept_weight),
            "rows": [
                {"plus": p.name, "minus": m.name, "p": str(prob)}
                for (p, m), prob in self.sorted_rows()
            ],
        }


def evolve(circuit: Circuit) -> TwoPhotonState:
    """The source pushed through every stage in file order (no post-selection)."""
    state = circuit.source
    for stage in circuit.stages:
        state = apply_transform(state, stage.transform())
    return state


def postselect(state: TwoPhotonState, discard: Iterable[ModeLabel]) -> tuple[TwoPhotonState, Fraction]:
    """Drop terms that touch a discarded label; also return the kept weight.

    The kept weight is the squared norm of the surviving part, i.e. the
    probability that the pair escapes the discarded exits.
    """
    dropped = frozenset(discard)
    kept = TwoPhotonState(
        [((p, m), amp) for (p, m), amp in state.terms() if p not in dropped and m not in dropped]
    )
    return kept, kept.norm_sq().as_rational()


def renormalize(state: TwoPhotonState) -> TwoPhotonState:
    """Scale to unit norm, exactly.  Raises ZeroState on an empty state and
    UnsupportedRadical if 1/sqrt(norm) leaves the radical basis."""
    if state.is_zero:
        raise ZeroState("cannot renormalise a state with no terms")
    norm = state.norm_sq().as_rational()
    return state.scale(inv_sqrt(norm))


def probabilities(state: TwoPhotonState, kept_weight: Fraction | None = None) -> OutcomeTable:
    """One row per term: its exact Born weight |amplitude|^2 over the state's own
    squared norm, so rows sum to 1; ``kept_weight`` defaults to that norm."""
    norm = state.norm_sq().as_rational()
    rows = {key: (amp.norm_sq() / norm).as_rational() for key, amp in state.terms()}
    return OutcomeTable(rows, Fraction(norm if kept_weight is None else kept_weight))


def conditional(state: TwoPhotonState, given: ModeLabel) -> dict[ModeLabel, Fraction]:
    """Distribution of the opposite arm's label given one photon's label.

    Only labels with nonzero conditional probability appear in the result.
    Raises ZeroConditioningEvent when the given label has zero marginal.
    """
    weights: dict[ModeLabel, Fraction] = {}
    for (p, m), amp in state.terms():
        own, other = (p, m) if given.arm is Arm.PLUS else (m, p)
        if own == given:
            weights[other] = weights.get(other, Fraction(0)) + amp.norm_sq().as_rational()
    total = sum(weights.values(), Fraction(0))
    if total == 0:
        raise ZeroConditioningEvent(f"{given} has zero marginal probability")
    return {label: w / total for label, w in sorted(weights.items(), key=lambda kv: str(kv[0]))}


def run(circuit: Circuit) -> OutcomeTable:
    """Full pipeline: evolve, post-select on the discard set, tabulate (no square root)."""
    kept_state, kept = postselect(evolve(circuit), circuit.discard)
    if kept_state.is_zero:
        raise ZeroState("post-selection removed every term")
    return probabilities(kept_state, kept_weight=kept)
