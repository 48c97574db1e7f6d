from fractions import Fraction

import pytest

import golden
import oracle
from hardysim import engine
from hardysim.amplitude import rational
from hardysim.circuitdsl import parse
from hardysim.state import Arm, TwoPhotonState, minus, plus

PREP_ONLY = (
    "modes + a b u v g f\n"
    "modes - a b u v g f\n"
    "source (a+,a-) (1/1)/sqrt(2); (b+,b-) (1/1)/sqrt(2)\n"
    "stage preset_eq2 +\n"
    "stage preset_eq2 -\n"
    "discard g+ g- f+ f-\n"
)


# ----------------------------------------------------------------- evolution

def test_evolution_through_preparation_matches_expansion():
    circuit = parse(PREP_ONLY)
    assert engine.evolve(circuit.source, circuit.stages) == golden.prep_expanded


def test_postselection_weight_and_state():
    circuit = parse(PREP_ONLY)
    kept, weight = engine.postselect(engine.evolve(circuit.source, circuit.stages), circuit.discard)
    assert weight == Fraction(1, 6)
    assert engine.renormalize(kept) == golden.kept_state


def test_full_pipeline_final_state(hardy_full):
    state = engine.evolve(hardy_full.source, hardy_full.stages)
    state, weight = engine.postselect(state, hardy_full.discard)
    assert weight == Fraction(1, 6)
    assert engine.renormalize(state) == golden.both_measured


def test_reduced_pipeline_final_state(hardy_reduced):
    assert engine.evolve(hardy_reduced.source, hardy_reduced.stages) == golden.reduced_final


def test_partial_pipelines_reproduce_single_sided_states(
    hardy_partial_plus, hardy_partial_minus
):
    for circuit, expected in (
        (hardy_partial_plus, golden.plus_measured),
        (hardy_partial_minus, golden.minus_measured),
    ):
        state, weight = engine.postselect(engine.evolve(circuit.source, circuit.stages), circuit.discard)
        assert weight == Fraction(1, 6)
        assert engine.renormalize(state) == expected


# ------------------------------------------------------------- normalisation

def test_renormalize_zero_state_raises():
    with pytest.raises(engine.ZeroState):
        engine.renormalize(TwoPhotonState())


def test_renormalize_scales_to_unit_norm():
    state = TwoPhotonState({(plus("u"), minus("u")): rational(3)})
    assert engine.renormalize(state).norm_sq() == rational(1)


# ------------------------------------------------------------- probabilities

def test_run_produces_expected_table(hardy_full):
    table = engine.run(hardy_full)
    assert table.kept_weight == Fraction(1, 6)
    assert dict(table.rows) == {
        (plus("c"), minus("c")): Fraction(3, 4),
        (plus("c"), minus("d")): Fraction(1, 12),
        (plus("d"), minus("c")): Fraction(1, 12),
        (plus("d"), minus("d")): Fraction(1, 12),
    }
    assert table.total() == 1


def test_marginals(hardy_full):
    table = engine.run(hardy_full)
    assert table.marginal(Arm.PLUS) == {plus("c"): Fraction(5, 6), plus("d"): Fraction(1, 6)}
    assert table.marginal(Arm.MINUS) == {minus("c"): Fraction(5, 6), minus("d"): Fraction(1, 6)}


def test_probabilities_explicit_weight():
    state = TwoPhotonState({(plus("u"), minus("u")): rational(1)})
    table = engine.probabilities(state, kept_weight=Fraction(1, 3))
    assert table.kept_weight == Fraction(1, 3)
    assert table.rows[(plus("u"), minus("u"))] == 1


def test_run_raises_on_fully_discarded_source():
    circuit = parse("modes + u\nmodes - u\nsource (u+,u-) (1/1)\ndiscard u+\n")
    with pytest.raises(engine.ZeroState):
        engine.run(circuit)


# -------------------------------------------------------------- conditionals

def test_conditional_structural_zeros():
    assert engine.conditional(golden.plus_measured, minus("v")) == {plus("c"): Fraction(1)}
    assert engine.conditional(golden.minus_measured, plus("v")) == {minus("c"): Fraction(1)}


def test_conditional_balanced_branch():
    assert engine.conditional(golden.plus_measured, minus("u")) == {
        plus("c"): Fraction(1, 2),
        plus("d"): Fraction(1, 2),
    }


def test_conditional_on_zero_event_raises():
    with pytest.raises(engine.ZeroConditioningEvent):
        engine.conditional(golden.plus_measured, minus("g"))


# -------------------------------------------------- oracle cross-verification

def test_kept_weight_against_oracle():
    circuit = parse(PREP_ONLY)
    _, weight = engine.postselect(engine.evolve(circuit.source, circuit.stages), circuit.discard)
    assert abs(float(weight) - oracle.KEPT_WEIGHT) <= 1e-12


def test_midpoint_amplitudes_against_oracle():
    circuit = parse(PREP_ONLY)
    evolved = engine.evolve(circuit.source, circuit.stages)
    state = engine.renormalize(engine.postselect(evolved, circuit.discard)[0])
    for p in ("u", "v"):
        for m in ("u", "v"):
            exact = oracle.to_complex(state.amplitude(plus(p), minus(m)))
            assert abs(exact - oracle.amplitude(oracle.MIDPOINT, p, m)) <= 1e-12


def test_final_probabilities_against_oracle(hardy_full):
    table = engine.run(hardy_full)
    for (p, m), probability in table.sorted_rows():
        assert abs(float(probability) - oracle.PROBABILITIES[(p.name, m.name)]) <= 1e-12


def test_final_amplitudes_against_oracle(hardy_full):
    evolved = engine.evolve(hardy_full.source, hardy_full.stages)
    state = engine.renormalize(engine.postselect(evolved, hardy_full.discard)[0])
    for p in ("c", "d"):
        for m in ("c", "d"):
            exact = oracle.to_complex(state.amplitude(plus(p), minus(m)))
            assert abs(exact - oracle.amplitude(oracle.FINAL, p, m)) <= 1e-12


def test_reduced_amplitudes_against_oracle(hardy_reduced):
    state = engine.evolve(hardy_reduced.source, hardy_reduced.stages)
    for p in ("c", "d"):
        for m in ("c", "d"):
            exact = oracle.to_complex(state.amplitude(plus(p), minus(m)))
            assert abs(exact - oracle.amplitude(oracle.REDUCED, p, m)) <= 1e-12


def test_single_sided_conditionals_against_oracle():
    exact = engine.conditional(golden.plus_measured, minus("u"))
    approx = oracle.conditional(oracle.PLUS_ONLY, given_minus="u")
    assert set(label.name for label in exact) == set(approx)
    for label, probability in exact.items():
        assert abs(float(probability) - approx[label.name]) <= 1e-12
