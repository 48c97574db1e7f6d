"""Full-wave trajectory enumeration checked against exact quantum predictions.

Two premises define a trajectory model: each photon carries exactly one full
wave-packet at every stage boundary of its arm, and a full wave follows the
optical tracks (it cannot jump to a disconnected path).  A trajectory of one
arm is therefore a path that steps, stage by stage, from a label to one of
the outputs of that label's column.  The roots sit at the post-selection
boundary that :func:`hardysim.engine.boundary` computes, where the surviving
part of the state fixes which labels can be occupied at all.  One walk over
an arm's stages gives its path table: each root label mapped to all of its
full-wave paths.  The audit evolves on from the root state with
:func:`engine.evolve`: to the fully evolved state always, and to a
single-sided state only when the local rules first read it.

A route (a ``TrajectoryAssignment``) is one path per arm.  Routes are built
only from the joint root pairs the post-selected state occupies, so every
route starts on one.  Two rule sets decide which routes are feasible.  Both
read only a route's root pair and exit pair, never the labels in between, so
the report judges each (root pair, exit pair) class once and every route of
the class shares its verdict and reasons:

* ``LOCAL_COUNTERFACTUAL`` — the route must end on a pair the fully evolved
  wave function supports, and must respect every zero of the two
  single-sided wave functions (evolve one arm only, condition on the other
  photon's root label; an exit with conditional probability exactly zero is
  forbidden).
* ``CONTEXTUAL`` — only the fully evolved wave function constrains the final
  pair; the single-sided zeros are dismissed because they describe detector
  placements other than the actual one.

``CONTEXTUAL`` keeps every route ``LOCAL_COUNTERFACTUAL`` keeps.  An
outcome that quantum mechanics predicts with positive probability but that
no feasible route reaches gets the verdict ``forbidden-but-predicted``:
the trajectory contradiction.  Every other outcome is ``consistent``.  The
reverse mismatch cannot occur: both rule sets reject a route whose exit
pair has amplitude 0 in the fully evolved state, so an outcome with a
feasible route has a nonzero amplitude and a positive Born weight.

``product_test`` covers the complementary argument for circuits without
post-selection: statistics produced by two photons answering independently
would factorise into the product of the marginals, and a witness cell shows
when the quantum table does not.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Mapping, NamedTuple

from . import engine
from .circuitdsl import Circuit
# Unused here, but perfbench/spans.py wraps this attribute by name.
from .optics import apply_transform  # noqa: F401
from .state import Arm, ModeLabel, PairKey, TwoPhotonState

VERDICT_CONSISTENT = "consistent"
VERDICT_FORBIDDEN_BUT_PREDICTED = "forbidden-but-predicted"


class RuleSet(enum.Enum):
    """Which constraints a trajectory assignment must satisfy."""

    LOCAL_COUNTERFACTUAL = "local"
    CONTEXTUAL = "contextual"


# Root label -> every full-wave path of one arm from that root, in walk order.
PathTable = Mapping[ModeLabel, tuple[tuple[ModeLabel, ...], ...]]


class TrajectoryGraph(NamedTuple):
    plus: PathTable
    minus: PathTable
    joint_roots: tuple[PairKey, ...]


class TrajectoryAssignment(NamedTuple):
    """One full-wave path per arm, one label per stage boundary."""

    plus_path: tuple[ModeLabel, ...]
    minus_path: tuple[ModeLabel, ...]

    @property
    def root_pair(self) -> PairKey:
        return (self.plus_path[0], self.minus_path[0])

    @property
    def exit_pair(self) -> PairKey:
        return (self.plus_path[-1], self.minus_path[-1])


class OutcomeVerdict(NamedTuple):
    outcome: PairKey
    qm_probability: Fraction
    feasible: tuple[TrajectoryAssignment, ...]
    rejected: tuple[tuple[TrajectoryAssignment, tuple[str, ...]], ...]
    verdict: str


class ParadoxReport(NamedTuple):
    rules: RuleSet
    kept_weight: Fraction
    outcomes: tuple[OutcomeVerdict, ...]


class ProductVerdict(NamedTuple):
    """Whether a joint table factorises into the product of its own marginals."""

    feasible: bool
    witness: PairKey | None
    joint_p: Fraction | None
    product_p: Fraction | None


class _Conditionals(dict):
    """Single-sided exit distributions by the other photon's root label, each computed on
    first use from a single-sided state also evolved on first use: contextual rules read
    none, and an unread one may have irrational weights."""

    def __init__(self, root: TwoPhotonState, plus_stages, minus_stages):
        super().__init__()
        self._root = root
        self._stages = {Arm.PLUS: plus_stages, Arm.MINUS: minus_stages}
        self._single: dict[Arm, TwoPhotonState] = {}

    def _evolved(self, arm: Arm) -> TwoPhotonState:
        if arm not in self._single:
            self._single[arm] = engine.evolve(self._root, self._stages[arm])
        return self._single[arm]

    def full(self) -> TwoPhotonState:
        # The arms act on separate labels: the plus-only state, evolved on minus, is the full one.
        return engine.evolve(self._evolved(Arm.PLUS), self._stages[Arm.MINUS])

    def __missing__(self, given: ModeLabel) -> dict[ModeLabel, Fraction]:
        other = Arm.MINUS if given.arm is Arm.PLUS else Arm.PLUS
        found = self[given] = engine.conditional(self._evolved(other), given)
        return found


def _path_table(support: tuple[ModeLabel, ...], stages) -> PathTable:
    """Every path from each root label, extended stage by stage along the columns."""
    table = {root: ((root,),) for root in support}
    for stage in stages:
        step = {label: tuple(sorted((out for out, _ in column), key=str))
                for label, column in stage.transform().columns.items()}
        table = {root: tuple(path + (nxt,) for path in paths
                             for nxt in step.get(path[-1], path[-1:]))
                 for root, paths in table.items()}
    return table


def _analyze(circuit: Circuit) -> tuple[TrajectoryGraph, Fraction, _Conditionals]:
    root, kept, region = engine.boundary(circuit)
    plus_stages = tuple(s for s in region if s.arm is Arm.PLUS)
    minus_stages = tuple(s for s in region if s.arm is Arm.MINUS)
    graph = TrajectoryGraph(
        plus=_path_table(root.plus_support(), plus_stages),
        minus=_path_table(root.minus_support(), minus_stages),
        joint_roots=root.keys(),
    )
    return graph, kept, _Conditionals(root, plus_stages, minus_stages)


def build_graph(circuit: Circuit) -> TrajectoryGraph:
    """One path table per arm, rooted at the post-selection boundary.

    The roots are the labels the post-selected state occupies right after
    the last stage that emits into the discard set (the source itself when
    nothing is discarded); a path steps along the entries of each stage's
    columns, and a label no stage consumes passes straight through.
    """
    return _analyze(circuit)[0]


def enumerate_assignments(graph: TrajectoryGraph) -> tuple[TrajectoryAssignment, ...]:
    """Every joint assignment over jointly occupied roots, in deterministic order."""
    return tuple(TrajectoryAssignment(plus_path, minus_path)
                 for p_root, m_root in graph.joint_roots
                 for plus_path in graph.plus[p_root]
                 for minus_path in graph.minus[m_root])


def _judge(given: _Conditionals, full: TwoPhotonState, root_pair: PairKey,
           exit_pair: PairKey, rules: RuleSet) -> tuple[str, ...]:
    """Every rule the routes from ``root_pair`` to ``exit_pair`` break; empty if none."""
    p_root, m_root = root_pair
    p_exit, m_exit = exit_pair
    reasons = []
    if rules is RuleSet.LOCAL_COUNTERFACTUAL:
        if given[m_root].get(p_exit, Fraction(0)) == 0:
            reasons.append(
                f"with only the plus arm evolved: given {m_root}, "
                f"exit {p_exit} has conditional probability 0"
            )
        if given[p_root].get(m_exit, Fraction(0)) == 0:
            reasons.append(
                f"with only the minus arm evolved: given {p_root}, "
                f"exit {m_exit} has conditional probability 0"
            )
    if full.amplitude(p_exit, m_exit).is_zero:
        reasons.append(
            f"the fully evolved wave function gives ({p_exit},{m_exit}) amplitude 0"
        )
    return tuple(reasons)


def paradox_report(circuit: Circuit, rules: RuleSet) -> ParadoxReport:
    """Per detector-pair outcome: exact quantum probability, feasible assignments, verdict.

    ``forbidden-but-predicted`` flags an outcome with positive quantum
    probability that no feasible assignment reaches — the contradiction that
    rules out the rule set; every other outcome is ``consistent``.  Requires
    detectors declared on both arms.
    """
    graph, kept_weight, given = _analyze(circuit)
    plus_detectors = circuit.detectors_on(Arm.PLUS)
    minus_detectors = circuit.detectors_on(Arm.MINUS)
    if not plus_detectors or not minus_detectors:
        raise ValueError("paradox report requires detectors on both arms")
    full = given.full()
    table = engine.probabilities(full, kept_weight)
    by_exit: dict[PairKey, list[TrajectoryAssignment]] = {}
    for assignment in enumerate_assignments(graph):
        by_exit.setdefault(assignment.exit_pair, []).append(assignment)
    rows = []
    for p in plus_detectors:
        for m in minus_detectors:
            kept, rejected = [], []
            judged: dict[PairKey, tuple[str, ...]] = {}
            for assignment in by_exit.get((p, m), ()):
                root = assignment.root_pair
                if root not in judged:
                    judged[root] = _judge(given, full, root, (p, m), rules)
                if judged[root]:
                    rejected.append((assignment, judged[root]))
                else:
                    kept.append(assignment)
            qm_p = table.rows.get((p, m), Fraction(0))
            predicted_only = qm_p > 0 and not kept
            verdict = VERDICT_FORBIDDEN_BUT_PREDICTED if predicted_only else VERDICT_CONSISTENT
            rows.append(OutcomeVerdict((p, m), qm_p, tuple(kept), tuple(rejected), verdict))
    return ParadoxReport(rules, table.kept_weight, tuple(rows))


def product_test(table: engine.OutcomeTable) -> ProductVerdict:
    """Can two independently answering photons reproduce the joint table?

    Feasible iff every cell equals the product of the table's own marginals;
    otherwise the first violating cell (in row order) is returned as a
    witness.  Requires a renormalised table (rows summing to 1).
    """
    if table.total() != 1:
        raise ValueError("product test requires a renormalised table (rows summing to 1)")
    plus_marginal = table.marginal(Arm.PLUS)
    minus_marginal = table.marginal(Arm.MINUS)
    for p in sorted(plus_marginal, key=str):
        for m in sorted(minus_marginal, key=str):
            joint = table.rows.get((p, m), Fraction(0))
            product = plus_marginal[p] * minus_marginal[m]
            if joint != product:
                return ProductVerdict(False, (p, m), joint, product)
    return ProductVerdict(True, None, None, None)
