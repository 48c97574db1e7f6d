"""Full-wave trajectory enumeration checked against exact quantum predictions.

Two premises define a trajectory model: each photon carries exactly one full
wave-packet at every stage boundary of its arm, and a full wave follows the
optical tracks (it cannot jump to a disconnected path).  Trajectories are
therefore root-to-leaf paths through a per-arm staged DAG.  The roots sit at
the post-selection boundary that :func:`hardysim.engine.boundary` computes,
where the surviving part of the state fixes which labels can be occupied at
all; the audit evolves on from that root state with :func:`engine.evolve`.

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


class ArmGraph(NamedTuple):
    """Staged DAG of one arm: layer 0 holds the roots, one layer per stage after."""

    arm: Arm
    layers: tuple[tuple[ModeLabel, ...], ...]
    edges: tuple[Mapping[ModeLabel, tuple[ModeLabel, ...]], ...]

    def paths(self, root: ModeLabel) -> tuple[tuple[ModeLabel, ...], ...]:
        if root not in self.layers[0]:
            raise ValueError(f"{root} is not a root of the {self.arm} arm graph")
        acc = [(root,)]
        for edge_map in self.edges:
            acc = [path + (nxt,) for path in acc for nxt in edge_map[path[-1]]]
        return tuple(acc)


class TrajectoryGraph(NamedTuple):
    plus: ArmGraph
    minus: ArmGraph
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

    def to_json_obj(self) -> dict:
        return {
            "plus": [str(l) for l in self.plus_path],
            "minus": [str(l) for l in self.minus_path],
        }


class OutcomeVerdict(NamedTuple):
    outcome: PairKey
    qm_probability: Fraction
    feasible: tuple[TrajectoryAssignment, ...]
    rejected: tuple[tuple[TrajectoryAssignment, tuple[str, ...]], ...]
    verdict: str

    def to_json_obj(self) -> dict:
        p, m = self.outcome
        return {
            "outcome": [str(p), str(m)],
            "qm_p": str(self.qm_probability),
            "feasible": [a.to_json_obj() for a in self.feasible],
            "rejected": [
                {"assignment": a.to_json_obj(), "reasons": list(reasons)}
                for a, reasons in self.rejected
            ],
            "verdict": self.verdict,
        }


class ParadoxReport(NamedTuple):
    rules: RuleSet
    kept_weight: Fraction
    outcomes: tuple[OutcomeVerdict, ...]

    def by_outcome(self, pair: PairKey) -> OutcomeVerdict:
        for row in self.outcomes:
            if row.outcome == pair:
                return row
        raise KeyError(str(pair))

    def verdicts(self) -> dict[PairKey, str]:
        return {row.outcome: row.verdict for row in self.outcomes}

    def to_json_obj(self) -> dict:
        return {
            "rules": self.rules.value,
            "kept_weight": str(self.kept_weight),
            "outcomes": [row.to_json_obj() for row in self.outcomes],
        }


class ProductVerdict(NamedTuple):
    """Whether a joint table factorises into the product of its own marginals."""

    feasible: bool
    witness: PairKey | None
    joint_p: Fraction | None
    product_p: Fraction | None


class _Conditionals(dict):
    """Single-sided exit distributions by the other photon's root label, each computed on
    first use: contextual rules read none, and an unread one may have irrational weights."""

    def __init__(self, single_plus: TwoPhotonState, single_minus: TwoPhotonState):
        super().__init__()
        self._single = {Arm.MINUS: single_plus, Arm.PLUS: single_minus}

    def __missing__(self, given: ModeLabel) -> dict[ModeLabel, Fraction]:
        found = self[given] = engine.conditional(self._single[given.arm], given)
        return found


class _Context(NamedTuple):
    graph: TrajectoryGraph
    kept_weight: Fraction
    given: _Conditionals
    full: TwoPhotonState


def _arm_graph(arm: Arm, support: tuple[ModeLabel, ...], stages) -> ArmGraph:
    layers = [tuple(sorted(support, key=str))]
    edges = []
    for stage in stages:
        transform = stage.transform()
        edge_map: dict[ModeLabel, tuple[ModeLabel, ...]] = {}
        nxt: set[ModeLabel] = set()
        for label in layers[-1]:
            column = transform.columns.get(label)
            outs = tuple(sorted((o for o, _ in column), key=str)) if column else (label,)
            edge_map[label] = outs
            nxt.update(outs)
        edges.append(edge_map)
        layers.append(tuple(sorted(nxt, key=str)))
    return ArmGraph(arm, tuple(layers), tuple(edges))


def _analyze(circuit: Circuit) -> _Context:
    root, kept, region = engine.boundary(circuit)
    plus_stages = tuple(s for s in region if s.arm is Arm.PLUS)
    minus_stages = tuple(s for s in region if s.arm is Arm.MINUS)
    graph = TrajectoryGraph(
        plus=_arm_graph(Arm.PLUS, root.plus_support(), plus_stages),
        minus=_arm_graph(Arm.MINUS, root.minus_support(), minus_stages),
        joint_roots=root.keys(),
    )
    # The arms act on separate labels: the plus-only state, evolved on minus, is the full one.
    single_plus = engine.evolve(root, plus_stages)
    return _Context(
        graph=graph,
        kept_weight=kept,
        given=_Conditionals(single_plus, engine.evolve(root, minus_stages)),
        full=engine.evolve(single_plus, minus_stages),
    )


def build_graph(circuit: Circuit) -> TrajectoryGraph:
    """Per-arm staged DAG rooted at the post-selection boundary.

    The roots are the labels the post-selected state occupies right after
    the last stage that emits into the discard set (the source itself when
    nothing is discarded); edges follow the nonzero entries of each stage's
    columns, with untouched labels passing straight through.
    """
    return _analyze(circuit).graph


def enumerate_assignments(graph: TrajectoryGraph) -> tuple[TrajectoryAssignment, ...]:
    """Every joint assignment over jointly occupied roots, in deterministic order."""
    out = []
    for p_root, m_root in graph.joint_roots:
        for plus_path in graph.plus.paths(p_root):
            for minus_path in graph.minus.paths(m_root):
                out.append(TrajectoryAssignment(plus_path, minus_path))
    return tuple(out)


def _judge(context: _Context, root_pair: PairKey, exit_pair: PairKey,
           rules: RuleSet) -> tuple[str, ...]:
    """Every rule the routes from ``root_pair`` to ``exit_pair`` break; empty if none."""
    p_root, m_root = root_pair
    p_exit, m_exit = exit_pair
    reasons = []
    if rules is RuleSet.LOCAL_COUNTERFACTUAL:
        if context.given[m_root].get(p_exit, Fraction(0)) == 0:
            reasons.append(
                f"with only the plus arm evolved: given {m_root}, "
                f"exit {p_exit} has conditional probability 0"
            )
        if context.given[p_root].get(m_exit, Fraction(0)) == 0:
            reasons.append(
                f"with only the minus arm evolved: given {p_root}, "
                f"exit {m_exit} has conditional probability 0"
            )
    if context.full.amplitude(p_exit, m_exit).is_zero:
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
    context = _analyze(circuit)
    plus_detectors = circuit.detectors_on(Arm.PLUS)
    minus_detectors = circuit.detectors_on(Arm.MINUS)
    if not plus_detectors or not minus_detectors:
        raise ValueError("paradox report requires detectors on both arms")
    table = engine.probabilities(context.full, context.kept_weight)
    by_exit: dict[PairKey, list[TrajectoryAssignment]] = {}
    for assignment in enumerate_assignments(context.graph):
        by_exit.setdefault(assignment.exit_pair, []).append(assignment)
    rows = []
    for p in plus_detectors:
        for m in minus_detectors:
            kept, rejected = [], []
            judged: dict[PairKey, tuple[str, ...]] = {}
            for assignment in by_exit.get((p, m), ()):
                root = assignment.root_pair
                if root not in judged:
                    judged[root] = _judge(context, root, (p, m), rules)
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
