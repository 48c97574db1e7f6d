"""How much work a parse and a paradox audit do, counted at the layer boundaries.

Parsing builds no transform: every stage, of every kind, builds and
verifies its transform once, the first time the pipeline asks, and keeps
it.  The audit folds each stage into the state once per evolution it
needs, evolves a single-sided state only for the local rules, never re-runs
the whole pipeline through ``engine.run``, and computes each single-sided
conditional at most once per root label.  A route's verdict reads only its
root pair and exit pair, so the report judges each such class once, not
each route.  ``engine.run`` post-selects once, at the boundary, so no stage
after it carries a discarded term.
"""

import importlib.util
import sys
from collections import Counter

from conftest import CIRCUITS
from hardysim import engine, optics
from hardysim.circuitdsl import BeamSplitterStage, PhaseStage, PresetStage, Stage, parse
from hardysim.paradox import RuleSet, build_graph, enumerate_assignments, paradox_report
from hardysim.state import TwoPhotonState

# A post-selected ladder, two modes per arm: 1/3 splitters merge s0,s1 and
# s2,s3 into the kept r0, r1 and the discarded x0, x1, then two layers of
# balanced splitters with a phase in between lead to the detectors.  Local
# rules reject half of its 32 assignments on single-sided zeros.
LADDER = """\
modes + s0 s1 s2 s3 r0 r1 x0 x1 k0 k1 e0 e1
modes - s0 s1 s2 s3 r0 r1 x0 x1 k0 k1 e0 e1
source (s0+,s0-) (1/2); (s1+,s1-) (1/2); (s2+,s2-) (1/2); (s3+,s3-) (1/2)
stage bs 1/3 s0+ s1+ -> r0+ x0+
stage bs 1/3 s2+ s3+ -> r1+ x1+
stage bs 1/3 s0- s1- -> r0- x0-
stage bs 1/3 s2- s3- -> r1- x1-
stage bs 1/2 r0+ r1+ -> k0+ k1+
stage phase 2 k1+
stage bs 1/2 r0- r1- -> k0- k1-
stage bs 1/2 k1+ k0+ -> e1+ e0+
stage phase 3 k0-
stage bs 1/2 k1- k0- -> e1- e0-
discard x0+ x1+ x0- x1-
detect e0+ e1+ e0- e1-
"""


def _count_calls(monkeypatch, module, name, counter, key=None):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        counter[name if key is None else key(*args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def _perfbench_ladder(monkeypatch, *shape) -> str:
    """The text of ``perfbench/ladder.py``'s ladder of this shape, loaded
    without writing bytecode into the benchmark's tree."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_ladder", CIRCUITS.parent / "perfbench" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    # Its dataclass needs the module registered while it runs.
    monkeypatch.setitem(sys.modules, spec.name, ladder)
    spec.loader.exec_module(ladder)
    return ladder.generate(*shape).text()


def _count_builds(monkeypatch):
    """Counters of the builders' calls by name, of ``Stage.transform`` calls, and
    of ``_build`` calls per stage object."""
    built, asked, per_stage = Counter(), Counter(), Counter()
    for name in ("beamsplitter", "phase_shift", "preset"):
        _count_calls(monkeypatch, optics, name, built)
    _count_calls(monkeypatch, Stage, "transform", asked)
    for kind in (BeamSplitterStage, PhaseStage, PresetStage):
        _count_calls(monkeypatch, kind, "_build", per_stage, key=id)
    return built, asked, per_stage


def test_parsing_builds_no_transform(monkeypatch):
    built, asked, per_stage = _count_builds(monkeypatch)
    checked = Counter()
    _count_calls(monkeypatch, optics, "splitter_amplitudes", checked)
    # 8 x 12, post-selected and unbalanced: 1/3 and 2/3 splitters and phases.
    ladder_text = _perfbench_ladder(monkeypatch, 8, 12, True, False, "work-counts")
    full_text = (CIRCUITS / "hardy_full.circ").read_text(encoding="utf-8")
    for text in (full_text, LADDER, ladder_text):
        checked.clear()
        circuit = parse(text)
        assert not built and not asked and not per_stage
        # The radical check runs once per distinct transmissivity, not per splitter.
        splitters = [s for s in circuit.stages if isinstance(s, BeamSplitterStage)]
        assert checked["splitter_amplitudes"] == len({s.param for s in splitters})
    assert len(circuit.stages) > 100
    # Asked twice, each stage builds once.
    for stage in circuit.stages + circuit.stages:
        stage.transform()
    assert sum(built.values()) == len(circuit.stages) == len(per_stage)
    assert set(per_stage.values()) == {1}


def test_each_stage_transform_is_built_once_and_the_audit_never_reruns(monkeypatch):
    built, _, per_stage = _count_builds(monkeypatch)
    runs, given = Counter(), Counter()
    _count_calls(monkeypatch, engine, "run", runs)
    _count_calls(monkeypatch, engine, "conditional", given, key=lambda state, label: label)
    full_text = (CIRCUITS / "hardy_full.circ").read_text(encoding="utf-8")
    for text, kinds in ((full_text, {"preset": 4}),
                        (LADDER, {"beamsplitter": 8, "phase_shift": 2})):
        built.clear()
        per_stage.clear()
        circuit = parse(text)
        assert not built
        graph = build_graph(circuit)
        roots = {label for pair in graph.joint_roots for label in pair}
        for rules in RuleSet:
            given.clear()
            report = paradox_report(circuit, rules)
            assert report.kept_weight > 0
            assert set(given) <= roots
            assert all(count == 1 for count in given.values()), given
            if rules is RuleSet.LOCAL_COUNTERFACTUAL:
                assert any(row.rejected for row in report.outcomes)
            else:
                assert not given
        assert built == Counter(kinds)
        assert sum(built.values()) == len(circuit.stages)
        assert set(per_stage) == {id(stage) for stage in circuit.stages}
        assert set(per_stage.values()) == {1}
    assert runs["run"] == 0


def test_the_report_judges_each_root_and_exit_class_once(monkeypatch):
    # Judging a class reads the fully evolved amplitude of its exit pair, and
    # nothing else in the audit reads a single amplitude.
    reads = Counter()
    _count_calls(monkeypatch, TwoPhotonState, "amplitude", reads)
    full_text = (CIRCUITS / "hardy_full.circ").read_text(encoding="utf-8")
    for text in (full_text, LADDER):
        circuit = parse(text)
        routes = enumerate_assignments(build_graph(circuit))
        classes = {(a.root_pair, a.exit_pair) for a in routes}
        for rules in RuleSet:
            reads.clear()
            report = paradox_report(circuit, rules)
            judged = sum(len(row.feasible) + len(row.rejected) for row in report.outcomes)
            assert judged == len(routes)
            assert 0 < reads["amplitude"] <= len(classes), (rules, len(routes))
    # LADDER has more routes than classes: judging per route reads too often.
    assert len(routes) == 32 > len(classes)


def test_the_audit_evolves_only_the_states_its_rules_read(monkeypatch):
    # The boundary evolves once; the fully evolved state takes two folds, the
    # plus arm and then the minus arm.  Only local rules read the single-sided
    # states, and the plus-only one is the first fold of the full state.
    evolves = Counter()
    _count_calls(monkeypatch, engine, "evolve", evolves)
    full_text = (CIRCUITS / "hardy_full.circ").read_text(encoding="utf-8")
    for text in (full_text, LADDER):
        circuit = parse(text)
        for audit, expected in ((lambda: paradox_report(circuit, RuleSet.CONTEXTUAL), 3),
                                (lambda: paradox_report(circuit, RuleSet.LOCAL_COUNTERFACTUAL), 4),
                                (lambda: build_graph(circuit), 1)):
            evolves.clear()
            audit()
            assert evolves["evolve"] == expected


def test_run_postselects_once_and_carries_no_discarded_term_past_the_boundary(monkeypatch):
    full_text = (CIRCUITS / "hardy_full.circ").read_text(encoding="utf-8")
    for text in (full_text, LADDER):
        circuit = parse(text)
        cut = max(index for index, stage in enumerate(circuit.stages, start=1)
                  if set(stage.outputs) & circuit.discard)
        after = {id(stage.transform()) for stage in circuit.stages[cut:]}
        assert after
        calls, carried = Counter(), []
        _count_calls(monkeypatch, engine, "postselect", calls)
        original = engine.apply_transform

        def watching(state, transform):
            if id(transform) in after and any(
                    label in circuit.discard for key in state.keys() for label in key):
                carried.append(transform)
            return original(state, transform)

        monkeypatch.setattr(engine, "apply_transform", watching)
        engine.run(circuit)
        monkeypatch.undo()
        assert calls["postselect"] == 1
        assert not carried


def test_transform_returns_the_stored_object():
    circuit = parse(LADDER)
    for stage in circuit.stages:
        assert stage.transform() is stage.transform()
    # The stored transform plays no part in equality.
    assert parse(LADDER) == circuit
