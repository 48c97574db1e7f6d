import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import support
from conftest import CIRCUITS, load_circuit
from hardysim import optics
from hardysim.circuitdsl import BeamSplitterStage, CircuitError, PhaseStage, PresetStage, parse, render
from hardysim.state import Arm, ModeLabel, minus, plus


def err(text: str) -> CircuitError:
    with pytest.raises(CircuitError) as excinfo:
        parse(text)
    return excinfo.value


def col_of(text: str, line: int, token: str) -> int:
    return text.split("\n")[line - 1].index(token) + 1


VALID_HEAD = (
    "modes + u v c d w x\n"
    "modes - u v c d w x\n"
    "source (u+,u-) (1/1)/sqrt(2); (v+,v-) (1/1)/sqrt(2)\n"
)


# ----------------------------------------------------------------- structure

def test_parse_full_circuit_structure(hardy_full):
    assert hardy_full.plus_modes == ("a", "b", "u", "v", "g", "f", "c", "d")
    assert hardy_full.minus_modes == hardy_full.plus_modes
    assert [type(s) for s in hardy_full.stages] == [PresetStage] * 4
    assert [s.arm for s in hardy_full.stages] == [Arm.PLUS, Arm.MINUS, Arm.PLUS, Arm.MINUS]
    assert hardy_full.discard == frozenset({plus("g"), minus("g"), plus("f"), minus("f")})
    assert hardy_full.detectors == frozenset({plus("c"), plus("d"), minus("c"), minus("d")})
    assert hardy_full.detectors_on(Arm.PLUS) == (plus("c"), plus("d"))
    assert hardy_full.declared(plus("a")) and not hardy_full.declared(plus("q"))


def test_source_amplitudes(hardy_full):
    from hardysim.amplitude import inv_sqrt
    assert hardy_full.source.amplitude(plus("a"), minus("a")) == inv_sqrt(2)
    assert hardy_full.source.amplitude(plus("b"), minus("b")) == inv_sqrt(2)
    assert len(hardy_full.source.keys()) == 2


def test_generic_stages_parse():
    circuit = parse(VALID_HEAD + "stage bs 1/3 u+ v+ -> c+ d+\nstage phase 3 c+\n")
    bs, ph = circuit.stages
    assert bs == BeamSplitterStage(Arm.PLUS, Fraction(1, 3), (plus("u"), plus("v")), (plus("c"), plus("d")))
    assert ph == PhaseStage(Arm.PLUS, 3, (plus("c"),), (plus("c"),))


def test_records_are_immutable(hardy_full):
    circuit = parse(VALID_HEAD + "stage bs 1/3 u+ v+ -> c+ d+\nstage phase 3 c+\n")
    stages = circuit.stages + hardy_full.stages
    records = [circuit, plus("u")] + [s for stage in stages for s in (stage, stage.transform())]
    for record in records:
        for attr in ("arm", "stages", "_transform", "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, None)


def test_bare_modes_with_trailing_arm_marker():
    circuit = parse(VALID_HEAD + "stage bs 1/2 u v -> c d -\n")
    assert circuit.stages[0].inputs[0] == minus("u")
    assert circuit.stages[0].outputs[1] == minus("d")


@settings(deadline=None)
@given(ratio=st.sampled_from(support.SPLIT_RATIOS), names=st.permutations(support.MODE_POOL),
       arm=st.sampled_from(Arm), bare=st.booleans())
def test_splitter_orientation_survives_parsing(ratio, names, arm, bare):
    # in1 transmits to out1 and in2 to out2, whatever the labels and spelling.
    in1, in2, out1, out2 = names[:4]
    modes = " ".join(support.MODE_POOL)
    text = (f"modes + {modes}\nmodes - {modes}\n"
            f"source ({in1}+,{in1}-) (1/1)/sqrt(2); ({in2}+,{in2}-) (1/1)/sqrt(2)\n")
    t = f"{ratio.numerator}/{ratio.denominator}"
    armed = f"stage bs {t} {in1}{arm} {in2}{arm} -> {out1}{arm} {out2}{arm}"
    circuit = parse(text + (f"stage bs {t} {in1} {in2} -> {out1} {out2} {arm}" if bare else armed))
    (stage,) = circuit.stages
    labels = [ModeLabel(name, arm) for name in (in1, in2, out1, out2)]
    assert stage.transform() == optics.beamsplitter(ratio, *labels)
    assert stage.render() == armed
    assert parse(render(circuit)) == circuit


def test_comments_and_blank_lines():
    text = "# heading\n\n" + VALID_HEAD + "  # indented comment\ndetect c+ d+  # trailing\n"
    circuit = parse(text)
    assert circuit.detectors == frozenset({plus("c"), plus("d")})


# --------------------------------------------------------------- diagnostics

def test_undeclared_mode_in_discard_file():
    text = (CIRCUITS / "bad_mode.circ").read_text(encoding="utf-8")
    error = err(text)
    assert (error.line, error.column) == (4, 10)
    assert error.code == "undeclared-mode"
    assert error.message == "q+"
    assert str(error) == "4:10: undeclared-mode: q+"


def test_undeclared_bare_mode_beats_missing_arm_marker():
    text = VALID_HEAD + "stage bs 1/2 q -> c d\n"
    error = err(text)
    assert error.code == "undeclared-mode"
    assert (error.line, error.column) == (4, col_of(text, 4, "q "))


def test_declared_bare_mode_needs_arm_marker():
    text = VALID_HEAD + "stage bs 1/2 u v -> c d\n"
    error = err(text)
    assert error.code == "syntax"
    assert "arm marker" in error.message


def test_dead_mode():
    text = VALID_HEAD + "stage bs 1/2 w+ v+ -> c+ d+\n"
    error = err(text)
    assert error.code == "dead-mode"
    assert (error.line, error.column) == (4, col_of(text, 4, "w+"))


@pytest.mark.parametrize("exit_line", ["discard c+ v+\n", "detect v+ c+\n"])
def test_consumed_mode_is_not_an_exit(exit_line):
    # v+ is consumed by the splitter, so it can be neither discarded nor detected.
    text = VALID_HEAD + "stage bs 1/2 u+ v+ -> c+ d+\n" + exit_line
    error = err(text)
    assert error.code == "dead-mode"
    assert (error.line, error.column) == (5, col_of(text, 5, "v+"))
    assert error.message == "v+ is consumed by a stage, not an exit"


def test_double_consume():
    text = VALID_HEAD + "stage bs 1/2 u+ v+ -> c+ d+\nstage bs 1/2 u+ c+ -> w+ x+\n"
    error = err(text)
    assert error.code == "double-consume"
    assert error.line == 5


def test_double_produce():
    text = VALID_HEAD + "stage bs 1/2 u+ v+ -> c+ u-\n"
    # u- names a minus label: arm mixing is caught first
    assert err(text).code == "arm-mismatch"
    text = VALID_HEAD + "stage bs 1/2 u+ v+ -> c+ v+\n"
    error = err(text)
    assert error.code == "double-produce"
    assert (error.line, error.column) == (4, text.split("\n")[3].rindex("v+") + 1)


def test_duplicate_mode_declaration():
    error = err("modes + u u\n")
    assert error.code == "duplicate-mode"
    error = err(VALID_HEAD + "detect c+ c+\n")
    assert error.code == "duplicate-mode"


def test_source_slot_arm_mismatch():
    error = err("modes + u\nmodes - u\nsource (u-,u+) (1/1)\n")
    assert error.code == "arm-mismatch"
    assert (error.line, error.column) == (3, 9)


def test_stage_arm_mismatch():
    text = VALID_HEAD + "stage bs 1/2 u+ v- -> c+ d+\n"
    error = err(text)
    assert error.code == "arm-mismatch"
    assert (error.line, error.column) == (4, col_of(text, 4, "v-"))


def test_bad_transmissivity():
    for ratio in ("3/2", "0/1", "1/1"):
        error = err(VALID_HEAD + f"stage bs {ratio} u+ v+ -> c+ d+\n")
        assert error.code == "bad-transmissivity"
        assert (error.line, error.column) == (4, len("stage bs ") + 1)


def test_unsupported_radical_transmissivity():
    text = VALID_HEAD + "stage bs 1/5 u+ v+ -> c+ d+\n"
    error = err(text)
    assert error.code == "unsupported-radical"
    assert (error.line, error.column) == (4, col_of(text, 4, "1/5"))


def test_unknown_preset():
    text = VALID_HEAD + "stage preset_nope +\n"
    error = err(text)
    assert error.code == "unknown-preset"
    assert error.message == "preset_nope"


def test_preset_requires_declared_modes():
    text = VALID_HEAD + "stage preset_eq2 +\n"
    error = err(text)
    assert error.code == "undeclared-mode"
    assert error.message == "a+"


def test_discard_detect_overlap():
    text = VALID_HEAD + "discard u+\ndetect u+ c-\n"
    error = err(text)
    assert error.code == "discard-detect-overlap"
    assert error.line == 5


def test_unknown_directive():
    error = err("modez + u\n")
    assert error.code == "syntax"
    assert (error.line, error.column) == (1, 1)


def test_section_order_enforced():
    error = err(VALID_HEAD + "detect c+\ndiscard v+\n")
    assert error.code == "syntax"
    assert "later section" in error.message
    error = err(VALID_HEAD + "modes + y\n")
    assert error.code == "syntax"
    assert "later section" in error.message


def test_missing_source():
    error = err("modes + u v\nmodes - u v\n")
    assert error.code == "syntax"
    assert "source" in error.message


def test_duplicate_source_line():
    error = err(VALID_HEAD + "source (u+,u-) (1/1)\n")
    assert error.code == "syntax"
    assert "duplicate" in error.message


def test_missing_arrow():
    error = err(VALID_HEAD + "stage bs 1/2 u+ v+ c+ d+\n")
    assert error.code == "syntax"
    assert "->" in error.message


def test_amplitude_error_position_maps_into_line():
    text = "modes + u\nmodes - u\nsource (u+,u-) (1/0)\n"
    error = err(text)
    assert error.code == "syntax"
    assert (error.line, error.column) == (3, col_of(text, 3, "(1/0)"))
    assert "denominator" in error.message


def test_empty_source_entry():
    error = err("modes + u\nmodes - u\nsource (u+,u-) (1/1);;\n")
    assert error.code == "syntax"


# ---------------------------------------------------------------- round trip

def test_render_parse_round_trip_on_shipped_circuits():
    for name in ("hardy_full.circ", "hardy_reduced.circ",
                 "hardy_partial_plus.circ", "hardy_partial_minus.circ"):
        circuit = load_circuit(name)
        assert parse(render(circuit)) == circuit


def test_render_is_stable():
    circuit = load_circuit("hardy_full.circ")
    assert render(parse(render(circuit))) == render(circuit)


def test_render_rejects_cancelled_source():
    circuit = parse("modes + u\nmodes - u\nsource (u+,u-) (1/1); (u+,u-) (-1/1)\n")
    assert circuit.source.is_zero
    with pytest.raises(ValueError):
        render(circuit)


def test_random_circuits_round_trip():
    rng = random.Random(21)
    for _ in range(50):
        text = support.random_circuit_text(rng)
        circuit = parse(text)
        assert parse(render(circuit)) == circuit
