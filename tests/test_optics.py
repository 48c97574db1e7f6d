import random
from fractions import Fraction

import pytest

import support
from hardysim.amplitude import I, ONE, ZERO, inv_sqrt, rational
from hardysim.optics import (
    PRESETS,
    ModeTransform,
    apply_transform,
    beamsplitter,
    phase_shift,
    preset,
    preset_modes,
)
from hardysim.state import Arm, ArmMismatch, TwoPhotonState, minus, plus


def one_photon_plus(name: str, partner="x") -> TwoPhotonState:
    """A single plus-arm excitation against a fixed spectator on the minus arm."""
    return TwoPhotonState({(plus(name), minus(partner)): rational(1)})


# ------------------------------------------------------------- beam splitter

def test_beamsplitter_transmitted_and_reflected():
    bs = beamsplitter(Fraction(1, 3), plus("a"), plus("b"), plus("u"), plus("g"))
    a_col = dict(bs.columns[plus("a")])
    b_col = dict(bs.columns[plus("b")])
    assert a_col[plus("u")] == inv_sqrt(3)
    assert a_col[plus("g")] == I * inv_sqrt(Fraction(3, 2))
    assert b_col[plus("g")] == inv_sqrt(3)
    assert b_col[plus("u")] == I * inv_sqrt(Fraction(3, 2))


def test_beamsplitter_rejects_bad_ratios():
    args = (plus("a"), plus("b"), plus("u"), plus("g"))
    for t in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            beamsplitter(t, *args)


def test_balanced_splitter_twice_swaps_with_phase():
    # Two balanced splitters in a row: u ends up at the *second* exit with
    # an i phase, the hallmark of constructive/destructive recombination.
    state = one_photon_plus("u")
    first = beamsplitter(Fraction(1, 2), plus("u"), plus("v"), plus("w"), plus("x"))
    second = beamsplitter(Fraction(1, 2), plus("w"), plus("x"), plus("y"), plus("z"))
    out = apply_transform(apply_transform(state, first), second)
    assert out == TwoPhotonState({(plus("z"), minus("x")): I})


def test_mixed_arm_ports_rejected():
    with pytest.raises(ArmMismatch):
        beamsplitter(Fraction(1, 2), plus("u"), minus("v"), plus("c"), plus("d"))


# ------------------------------------------------------------------- presets

def test_preset_names():
    assert tuple(PRESETS) == ("preset_eq2", "preset_eq5")
    assert preset_modes("preset_eq2") == (("a", "b"), ("u", "v", "g", "f"))
    assert preset_modes("preset_eq5") == (("u", "v"), ("c", "d"))


def test_three_way_preset_columns():
    tr = preset("preset_eq2", Arm.PLUS)
    a_col = dict(tr.columns[plus("a")])
    b_col = dict(tr.columns[plus("b")])
    r3 = inv_sqrt(3)
    assert a_col == {plus("v"): r3, plus("u"): I * r3, plus("g"): -r3}
    assert b_col == {plus("f"): r3, plus("u"): -r3, plus("g"): I * r3}


def test_recombiner_preset_is_a_balanced_splitter():
    assert preset("preset_eq5", Arm.MINUS) == beamsplitter(
        Fraction(1, 2), minus("u"), minus("v"), minus("c"), minus("d")
    )


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset("preset_nope", Arm.PLUS)


# -------------------------------------------------------------- phase shifts

def test_phase_shift_quarter_turns():
    state = one_photon_plus("u")
    assert apply_transform(state, phase_shift(1, plus("u"))) == state.scale(I)
    assert apply_transform(state, phase_shift(2, plus("u"))) == state.scale(-ONE)
    assert apply_transform(state, phase_shift(0, plus("u"))) == state
    assert apply_transform(state, phase_shift(4, plus("u"))) == state


def test_phase_shift_is_in_place():
    tr = phase_shift(3, minus("g"))
    assert tr.columns == {minus("g"): ((minus("g"), -I),)}


# ----------------------------------------------------------------- validator

def test_non_unit_column_rejected():
    with pytest.raises(ValueError):
        ModeTransform(Arm.PLUS, {plus("a"): ((plus("b"), rational(1, 2)),)})


def test_non_orthogonal_columns_rejected():
    with pytest.raises(ValueError):
        ModeTransform(Arm.PLUS, {
            plus("a"): ((plus("c"), rational(1)),),
            plus("b"): ((plus("c"), I),),
        })


def test_zero_entry_rejected():
    with pytest.raises(ValueError):
        ModeTransform(Arm.PLUS, {plus("a"): ((plus("b"), ZERO), (plus("c"), rational(1)))})


def test_output_overlapping_input_rejected():
    # a+ maps onto itself and onto the fresh b+: neither in place nor onto fresh modes.
    r2 = inv_sqrt(2)
    with pytest.raises(ValueError, match="onto fresh modes"):
        ModeTransform(Arm.PLUS, {plus("a"): ((plus("a"), r2), (plus("b"), I * r2))})


def test_modes_mapped_onto_themselves_are_in_place():
    assert ModeTransform(Arm.PLUS, {plus("a"): ((plus("a"), I),)}) == phase_shift(1, plus("a"))
    swap = ModeTransform(Arm.PLUS, {plus("a"): ((plus("b"), ONE),), plus("b"): ((plus("a"), ONE),)})
    assert apply_transform(one_photon_plus("a"), swap) == one_photon_plus("b")


# ------------------------------------------------------------------ applying

def test_pass_through_of_untouched_labels():
    state = TwoPhotonState({
        (plus("u"), minus("g")): rational(1, 2),
        (plus("g"), minus("u")): rational(1, 2),
    })
    tr = beamsplitter(Fraction(1, 2), plus("u"), plus("v"), plus("c"), plus("d"))
    out = apply_transform(state, tr)
    # g+ is not consumed: its term survives unchanged.
    assert out.amplitude(plus("g"), minus("u")) == rational(1, 2)
    assert out.amplitude(plus("c"), minus("g")) == rational(1, 2) * inv_sqrt(2)


def test_apply_transform_is_linear():
    rng = random.Random(11)
    tr = beamsplitter(Fraction(1, 3), plus("m0"), plus("m1"), plus("m3"), plus("m4"))
    for _ in range(30):
        a = support.random_state(rng)
        b = support.random_state(rng)
        factor = support.random_amplitude(rng)
        left = apply_transform(a.scale(factor) + b, tr)
        right = apply_transform(a, tr).scale(factor) + apply_transform(b, tr)
        assert left == right


def test_apply_transform_conserves_norm():
    rng = random.Random(12)
    tr = preset("preset_eq5", Arm.PLUS)
    for _ in range(30):
        state = support.random_state(rng, names=("u", "v", "w"))
        assert apply_transform(state, tr).norm_sq() == state.norm_sq()
