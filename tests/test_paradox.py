from fractions import Fraction

import pytest

import support
from hardysim import engine
from hardysim.circuitdsl import CircuitError, parse
from hardysim.paradox import (
    RuleSet,
    TrajectoryAssignment,
    VERDICT_CONSISTENT,
    VERDICT_FORBIDDEN_BUT_PREDICTED,
    enumerate_assignments,
    build_graph,
    paradox_report,
    product_test,
)
from hardysim.state import minus, plus


def assignment(p_root, p_exit, m_root, m_exit) -> TrajectoryAssignment:
    return TrajectoryAssignment(
        (plus(p_root), plus(p_exit)), (minus(m_root), minus(m_exit))
    )


# ------------------------------------------------------------------ the graph

def test_graph_roots_sit_at_postselection_boundary(hardy_full):
    graph = build_graph(hardy_full)
    assert graph.joint_roots == (
        (plus("u"), minus("v")),
        (plus("v"), minus("u")),
        (plus("v"), minus("v")),
    )
    # Each arm's path table has one entry per root label, and every path
    # starts on its root and ends on an exit of the preset.
    assert list(graph.plus) == [plus("u"), plus("v")]
    assert list(graph.minus) == [minus("u"), minus("v")]
    for table, exits in ((graph.plus, {plus("c"), plus("d")}),
                         (graph.minus, {minus("c"), minus("d")})):
        for root, paths in table.items():
            assert {path[0] for path in paths} == {root}
            assert {path[-1] for path in paths} == exits


def test_paths_follow_the_tracks(hardy_full):
    graph = build_graph(hardy_full)
    assert graph.plus[plus("u")] == (
        (plus("u"), plus("c")),
        (plus("u"), plus("d")),
    )
    # Only root labels have paths: an exit is not a root.
    with pytest.raises(KeyError):
        graph.plus[plus("c")]


def test_assignment_enumeration_is_complete(hardy_full):
    assignments = enumerate_assignments(build_graph(hardy_full))
    assert len(assignments) == 12
    assert len(set(assignments)) == 12
    assert all(a.root_pair in build_graph(hardy_full).joint_roots for a in assignments)


def test_pass_through_labels_get_identity_edges(hardy_partial_plus):
    graph = build_graph(hardy_partial_plus)
    # No stage acts on the minus arm after post-selection: one-node paths.
    assert graph.minus == {minus("u"): ((minus("u"),),), minus("v"): ((minus("v"),),)}


# -------------------------------------------------------------- feasibility

def test_joint_detection_is_forbidden_under_counterfactual_rules(hardy_full):
    report = paradox_report(hardy_full, RuleSet.LOCAL_COUNTERFACTUAL)
    dd = support.by_outcome(report, (plus("d"), minus("d")))
    assert dd.feasible == ()
    assert len(dd.rejected) == 3
    for _, reasons in dd.rejected:
        assert any("conditional probability 0" in reason for reason in reasons)


def test_joint_detection_is_allowed_under_contextual_rules(hardy_full):
    dd = support.by_outcome(paradox_report(hardy_full, RuleSet.CONTEXTUAL), (plus("d"), minus("d")))
    assert dd.rejected == ()
    assert set(dd.feasible) == {assignment(p_root, "d", m_root, "d")
                                for p_root, m_root in (("v", "v"), ("v", "u"), ("u", "v"))}


def test_contextual_rules_keep_everything_local_rules_keep(hardy_full, hardy_reduced):
    for circuit in (hardy_full, hardy_reduced):
        local = paradox_report(circuit, RuleSet.LOCAL_COUNTERFACTUAL)
        contextual = paradox_report(circuit, RuleSet.CONTEXTUAL)
        assert [r.outcome for r in local.outcomes] == [r.outcome for r in contextual.outcomes]
        for local_row, contextual_row in zip(local.outcomes, contextual.outcomes):
            assert set(local_row.feasible) <= set(contextual_row.feasible)


# ------------------------------------------------------------------- reports

def test_full_circuit_report_under_counterfactual_rules(hardy_full):
    report = paradox_report(hardy_full, RuleSet.LOCAL_COUNTERFACTUAL)
    assert report.kept_weight == Fraction(1, 6)
    dd = support.by_outcome(report, (plus("d"), minus("d")))
    assert dd.verdict == VERDICT_FORBIDDEN_BUT_PREDICTED
    assert dd.qm_probability == Fraction(1, 12)
    assert dd.feasible == ()
    assert len(dd.rejected) == 3
    others = [row for row in report.outcomes if row.outcome != dd.outcome]
    assert all(row.verdict == VERDICT_CONSISTENT for row in others)
    assert [len(row.feasible) for row in report.outcomes] == [3, 1, 1, 0]


def test_full_circuit_report_under_contextual_rules(hardy_full):
    report = paradox_report(hardy_full, RuleSet.CONTEXTUAL)
    assert all(row.verdict == VERDICT_CONSISTENT for row in report.outcomes)
    assert [len(row.feasible) for row in report.outcomes] == [3, 3, 3, 3]


def test_reduced_circuit_is_consistent_under_both_rules(hardy_reduced):
    for rules in RuleSet:
        report = paradox_report(hardy_reduced, rules)
        assert all(row.verdict == VERDICT_CONSISTENT for row in report.outcomes)


def test_partial_placements_are_consistent(hardy_partial_plus, hardy_partial_minus):
    for circuit in (hardy_partial_plus, hardy_partial_minus):
        for rules in RuleSet:
            report = paradox_report(circuit, rules)
            assert all(row.verdict == VERDICT_CONSISTENT for row in report.outcomes)


def test_report_requires_detectors_on_both_arms():
    circuit = parse(
        "modes + u v c d\nmodes - u v\n"
        "source (u+,u-) (1/1)/sqrt(2); (v+,v-) (1/1)/sqrt(2)\n"
        "stage preset_eq5 +\n"
        "detect c+ d+\n"
    )
    with pytest.raises(ValueError):
        paradox_report(circuit, RuleSet.CONTEXTUAL)


def test_region_consuming_discarded_mode_is_rejected():
    # u+ is discarded, yet the splitter still consumes it: the parser rejects
    # the discard at its token, so no audit ever sees such a circuit.
    with pytest.raises(CircuitError) as excinfo:
        parse(
            "modes + u v c d\nmodes - u v\n"
            "source (u+,u-) (1/1)/sqrt(2); (v+,v-) (1/1)/sqrt(2)\n"
            "stage preset_eq5 +\n"
            "discard u+\n"
            "detect c+ d+\n"
        )
    error = excinfo.value
    assert (error.line, error.column, error.code) == (5, 9, "dead-mode")


def test_fully_discarded_source_raises():
    circuit = parse("modes + u\nmodes - u\nsource (u+,u-) (1/1)\ndiscard u+\n")
    with pytest.raises(engine.ZeroState):
        build_graph(circuit)


# -------------------------------------------------------------- product test

def test_anticorrelated_table_is_not_a_product(hardy_reduced):
    verdict = product_test(engine.run(hardy_reduced))
    assert not verdict.feasible
    assert verdict.witness == (plus("c"), minus("c"))
    assert verdict.joint_p == 0
    assert verdict.product_p == Fraction(1, 4)


def test_full_table_is_not_a_product_either(hardy_full):
    verdict = product_test(engine.run(hardy_full))
    assert not verdict.feasible
    assert verdict.witness == (plus("c"), minus("c"))


def test_true_product_table_passes():
    rows = {
        (plus(p), minus(m)): Fraction(1, 4)
        for p in ("c", "d")
        for m in ("c", "d")
    }
    verdict = product_test(engine.OutcomeTable(rows, Fraction(1)))
    assert verdict.feasible
    assert verdict.witness is None


def test_product_test_requires_normalised_table():
    rows = {(plus("c"), minus("c")): Fraction(1, 2)}
    with pytest.raises(ValueError):
        product_test(engine.OutcomeTable(rows, Fraction(1, 2)))
