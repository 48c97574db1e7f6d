"""``paradox_report`` against the audit as first written (``paradox_reference``).

Both run on the shipped circuits, on seeded random circuits with
post-selection and detectors appended, and on post-selected ladders from
``perfbench/ladder.py`` two and three splitter layers deep; the reports must
be identical, or both must raise the same exception class.  The same loop
checks two properties of every report: contextual rules keep every
assignment local rules keep, and the kept weight lies in (0, 1].  Random
sources are not normalised, and the parser accepts them, so the bound holds
only because the kept weight is the surviving weight over the source
weight.  On the random circuits the loop also checks that ``engine.run``,
which post-selects at the boundary, gives the table of post-selecting after
the last stage.
"""

import importlib.util
import pathlib
import random
import sys

import pytest

import paradox_reference
import support
from conftest import load_circuit
from hardysim import engine
from hardysim.amplitude import NotRational
from hardysim.circuitdsl import parse
from hardysim.paradox import RuleSet, paradox_report
from hardysim.state import Arm

_spec = importlib.util.spec_from_file_location(
    "perfbench_ladder", pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "ladder.py")
ladder = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)  # a dataclass module must be in sys.modules

SHIPPED = ("hardy_full.circ", "hardy_reduced.circ",
           "hardy_partial_plus.circ", "hardy_partial_minus.circ")
RANDOM_SEEDS = range(80)
# (width, depth, balanced, seed) of post-selected ladders with 32 to 256
# routes; each rule set rejects some routes of at least one of them.
LADDERS = ((2, 2, False, 2), (4, 2, True, 2), (2, 3, False, 1), (4, 3, True, 3))


def _exits(text: str, rng: random.Random) -> str:
    """``text`` plus discard and detect lines drawn from the modes live at the end.

    Each arm discards fewer than all of its live modes and detects a
    nonempty subset of the rest, so both arms always have a detector.
    """
    circuit = parse(text)
    live = {label for key, _ in circuit.source.terms() for label in key}
    for stage in circuit.stages:
        live = (live - set(stage.inputs())) | set(stage.outputs())
    discard, detect = [], []
    for arm in Arm:
        labels = sorted((label for label in live if label.arm is arm), key=str)
        rng.shuffle(labels)
        cut = rng.randint(0, len(labels) - 1)
        discard += labels[:cut]
        rest = labels[cut:]
        detect += rest[:rng.randint(1, len(rest))]
    lines = [text]
    if discard:
        lines.append("discard " + " ".join(map(str, discard)) + "\n")
    lines.append("detect " + " ".join(map(str, detect)) + "\n")
    return "".join(lines)


def _random_circuits():
    for seed in RANDOM_SEEDS:
        rng = random.Random(seed)
        yield seed, parse(_exits(support.random_circuit_text(rng), rng))


def _outcome(audit, *args):
    try:
        return audit(*args), None
    except Exception as exc:  # compared by class against the reference
        return None, type(exc)


def _compare(circuit, label):
    """Reports per rule set that both audits produce (after asserting they agree)."""
    reports = {}
    for rules in RuleSet:
        new, new_error = _outcome(paradox_report, circuit, rules)
        old, old_error = _outcome(paradox_reference.report, circuit, rules)
        assert new_error is old_error, (label, rules)
        if old is not None:
            assert paradox_reference.VERDICT_ALLOWED_BUT_IMPOSSIBLE not in (
                row.verdict for row in old.outcomes), (label, rules)
        if new is not None:
            assert new == old, (label, rules)
            reports[rules] = new
    for report in reports.values():
        assert 0 < report.kept_weight <= 1, label
    if len(reports) == 2:
        local, contextual = reports[RuleSet.LOCAL_COUNTERFACTUAL], reports[RuleSet.CONTEXTUAL]
        for local_row, contextual_row in zip(local.outcomes, contextual.outcomes):
            assert set(local_row.feasible) <= set(contextual_row.feasible), label
    return reports


@pytest.mark.parametrize("name", SHIPPED)
def test_matches_reference_on_shipped_circuits(name):
    assert len(_compare(load_circuit(name), name)) == 2


@pytest.mark.parametrize("width, depth, balanced, seed", LADDERS)
def test_matches_reference_on_ladders(width, depth, balanced, seed):
    shape = ladder.generate(width, depth, True, balanced, seed)
    assert len(_compare(parse(shape.text()), shape.name)) == 2


def test_matches_reference_on_random_circuits():
    audited = []
    for seed, circuit in _random_circuits():
        assert _outcome(engine.run, circuit) == _outcome(paradox_reference.table, circuit), seed
        if _compare(circuit, seed):
            audited.append(seed)
    # Most draws must reach a report, or the comparison says little.
    assert len(audited) >= len(RANDOM_SEEDS) // 2


def test_contextual_audit_needs_no_single_sided_weights():
    # Evolved alone, the plus arm gives (c+,m-) the irrational weight
    # (1/4) - (1/6)*sqrt(2); the minus splitter cancels the sqrt(2) in the
    # joint table.  Local rules need that weight and fail, contextual rules
    # never read it.
    circuit = parse(
        "modes + a b c d\nmodes - m n z w\n"
        "source (a+,m-) (1/2); (b+,m-) (1/2)*i; (a+,n-) (1/2); (b+,n-) (-1/2)*i\n"
        "stage bs 1/3 a+ b+ -> c+ d+\n"
        "stage bs 1/2 m- n- -> z- w-\n"
        "detect c+ d+ z- w-\n"
    )
    assert list(_compare(circuit, "irrational single-sided")) == [RuleSet.CONTEXTUAL]
    with pytest.raises(NotRational):
        paradox_report(circuit, RuleSet.LOCAL_COUNTERFACTUAL)
