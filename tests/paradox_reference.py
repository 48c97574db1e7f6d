"""The paradox audit as first written, kept as a differential reference.

It evolves the circuit four times over (the post-selection root, the plus
arm alone, the minus arm alone and both arms), computes the single-sided
conditional afresh for every assignment, and reads the quantum table from
:func:`table`, which post-selects only after every stage, as ``engine.run``
did when this reference was written.  Only the result types come from
:mod:`hardysim.paradox`, so :func:`report` can be compared with
``paradox_report`` field by field, and :func:`table` with ``engine.run``.
"""

from fractions import Fraction

from hardysim import engine
from hardysim.optics import apply_transform
from hardysim.paradox import (
    VERDICT_CONSISTENT,
    VERDICT_FORBIDDEN_BUT_PREDICTED,
    OutcomeVerdict,
    ParadoxReport,
    RuleSet,
    TrajectoryAssignment,
)
from hardysim.state import Arm

# The audit dropped this verdict because it cannot fire; the reference still
# computes it, and the differential tests assert that it never does.
VERDICT_ALLOWED_BUT_IMPOSSIBLE = "allowed-but-impossible"


def _fold(state, stages):
    for stage in stages:
        state = apply_transform(state, stage.transform())
    return state


def _arm_edges(support, stages):
    layer = sorted(support, key=str)
    edges = []
    for stage in stages:
        transform = stage.transform()
        edge_map, nxt = {}, set()
        for label in layer:
            column = transform.columns.get(label)
            outs = tuple(sorted((o for o, _ in column), key=str)) if column else (label,)
            edge_map[label] = outs
            nxt.update(outs)
        edges.append(edge_map)
        layer = sorted(nxt, key=str)
    return edges


def _paths(root, edges):
    acc = [(root,)]
    for edge_map in edges:
        acc = [path + (nxt,) for path in acc for nxt in edge_map[path[-1]]]
    return acc


def _analyze(circuit):
    cut = 0
    for index, stage in enumerate(circuit.stages, start=1):
        if any(label in circuit.discard for label in stage.outputs):
            cut = index
    prep, region = circuit.stages[:cut], circuit.stages[cut:]
    root, _ = engine.postselect(_fold(circuit.source, prep), circuit.discard)
    if root.is_zero:
        raise engine.ZeroState("post-selection removed every source trajectory")
    for stage in region:
        if any(label in circuit.discard for label in stage.inputs):
            raise ValueError(
                f"stage consumes discarded mode after the post-selection boundary: {stage}"
            )
    plus_stages = tuple(s for s in region if s.arm is Arm.PLUS)
    minus_stages = tuple(s for s in region if s.arm is Arm.MINUS)
    plus_edges = _arm_edges(root.plus_support(), plus_stages)
    minus_edges = _arm_edges(root.minus_support(), minus_stages)
    assignments = [
        TrajectoryAssignment(plus_path, minus_path)
        for p_root, m_root in root.keys()
        for plus_path in _paths(p_root, plus_edges)
        for minus_path in _paths(m_root, minus_edges)
    ]
    return {
        "root": root,
        "assignments": assignments,
        "single_plus": _fold(root, plus_stages),
        "single_minus": _fold(root, minus_stages),
        "full": _fold(root, region),
    }


def table(circuit):
    """The outcome table with post-selection after the last stage.  Its kept
    weight is the surviving weight over the source weight, as in ``engine.run``."""
    kept_state, survived = engine.postselect(engine.evolve(circuit.source, circuit.stages),
                                             circuit.discard)
    if kept_state.is_zero:
        raise engine.ZeroState("post-selection removed every term")
    return engine.probabilities(kept_state, survived / circuit.source.norm_sq().as_rational())


def _reasons(context, assignment, rules):
    p_root, m_root = assignment.root_pair
    p_exit, m_exit = assignment.exit_pair
    reasons = []
    if rules is RuleSet.LOCAL_COUNTERFACTUAL:
        if context["root"].amplitude(p_root, m_root).is_zero:
            reasons.append(f"joint start ({p_root},{m_root}) has amplitude 0 after post-selection")
        plus_given_m = engine.conditional(context["single_plus"], m_root)
        if plus_given_m.get(p_exit, Fraction(0)) == 0:
            reasons.append(
                f"with only the plus arm evolved: given {m_root}, "
                f"exit {p_exit} has conditional probability 0"
            )
        minus_given_p = engine.conditional(context["single_minus"], p_root)
        if minus_given_p.get(m_exit, Fraction(0)) == 0:
            reasons.append(
                f"with only the minus arm evolved: given {p_root}, "
                f"exit {m_exit} has conditional probability 0"
            )
    if context["full"].amplitude(p_exit, m_exit).is_zero:
        reasons.append(
            f"the fully evolved wave function gives ({p_exit},{m_exit}) amplitude 0"
        )
    return tuple(reasons)


def report(circuit, rules: RuleSet) -> ParadoxReport:
    context = _analyze(circuit)
    plus_detectors = circuit.detectors_on(Arm.PLUS)
    minus_detectors = circuit.detectors_on(Arm.MINUS)
    if not plus_detectors or not minus_detectors:
        raise ValueError("paradox report requires detectors on both arms")
    outcomes = table(circuit)
    rows = []
    for p in plus_detectors:
        for m in minus_detectors:
            kept, rejected = [], []
            for assignment in context["assignments"]:
                if assignment.exit_pair != (p, m):
                    continue
                reasons = _reasons(context, assignment, rules)
                if reasons:
                    rejected.append((assignment, reasons))
                else:
                    kept.append(assignment)
            qm_p = outcomes.rows.get((p, m), Fraction(0))
            if qm_p > 0 and not kept:
                verdict = VERDICT_FORBIDDEN_BUT_PREDICTED
            elif qm_p == 0 and kept:
                verdict = VERDICT_ALLOWED_BUT_IMPOSSIBLE
            else:
                verdict = VERDICT_CONSISTENT
            rows.append(OutcomeVerdict((p, m), qm_p, tuple(kept), tuple(rejected), verdict))
    return ParadoxReport(rules, outcomes.kept_weight, tuple(rows))
