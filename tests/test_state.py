import random

import pytest

import support
from hardysim.amplitude import I, ZERO, inv_sqrt, rational
from hardysim.state import Arm, ArmMismatch, ModeLabel, TwoPhotonState, minus, plus


# -------------------------------------------------------------------- labels

def test_label_parse_and_str():
    label = ModeLabel.parse("u+")
    assert label == plus("u")
    assert str(label) == "u+"
    assert str(minus("d")) == "d-"
    assert ModeLabel.parse("m_2-") == minus("m_2")


def test_label_validation():
    with pytest.raises(ValueError):
        ModeLabel.parse("q")
    with pytest.raises(ValueError):
        ModeLabel("Q", Arm.PLUS)
    with pytest.raises(ValueError):
        ModeLabel("9x", Arm.MINUS)


def test_arm_other():
    assert str(Arm.PLUS) == "+"


# -------------------------------------------------------------------- states

def test_slot_arms_are_enforced():
    with pytest.raises(ArmMismatch):
        TwoPhotonState({(minus("u"), minus("v")): rational(1)})
    with pytest.raises(ArmMismatch):
        TwoPhotonState({(plus("u"), plus("v")): rational(1)})


def test_duplicates_sum_and_zeros_drop():
    state = TwoPhotonState([
        ((plus("u"), minus("v")), rational(1, 2)),
        ((plus("u"), minus("v")), rational(1, 2)),
        ((plus("v"), minus("v")), rational(1)),
        ((plus("v"), minus("v")), rational(-1)),
    ])
    assert state.amplitude(plus("u"), minus("v")) == rational(1)
    assert state.amplitude(plus("v"), minus("v")) == ZERO
    assert state.keys() == ((plus("u"), minus("v")),)


def test_terms_are_sorted_by_name():
    state = TwoPhotonState({
        (plus("v"), minus("u")): rational(1),
        (plus("u"), minus("v")): rational(1),
        (plus("u"), minus("a")): rational(1),
    })
    assert state.keys() == (
        (plus("u"), minus("a")),
        (plus("u"), minus("v")),
        (plus("v"), minus("u")),
    )


def test_int_amplitudes_are_coerced():
    state = TwoPhotonState({(plus("u"), minus("u")): 2})
    assert state.amplitude(plus("u"), minus("u")) == rational(2)


def test_norm_and_scale():
    state = TwoPhotonState({
        (plus("u"), minus("u")): inv_sqrt(2),
        (plus("v"), minus("v")): inv_sqrt(2) * I,
    })
    assert state.norm_sq() == rational(1)
    doubled = state.scale(rational(2))
    assert doubled.norm_sq() == rational(4)
    assert state.scale(ZERO).is_zero


def test_addition_merges_terms():
    a = TwoPhotonState({(plus("u"), minus("u")): rational(1)})
    b = TwoPhotonState({
        (plus("u"), minus("u")): rational(-1),
        (plus("v"), minus("v")): I,
    })
    assert a + b == TwoPhotonState({(plus("v"), minus("v")): I})


def test_supports_sorted():
    state = TwoPhotonState({
        (plus("v"), minus("u")): rational(1),
        (plus("c"), minus("d")): rational(1),
    })
    assert state.plus_support() == (plus("c"), plus("v"))
    assert state.minus_support() == (minus("d"), minus("u"))


def test_equality_and_hash():
    a = TwoPhotonState({(plus("u"), minus("u")): inv_sqrt(2)})
    b = TwoPhotonState([((plus("u"), minus("u")), inv_sqrt(2))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != TwoPhotonState()


def test_random_states_addition_commutes():
    rng = random.Random(4)
    for _ in range(50):
        a = support.random_state(rng)
        b = support.random_state(rng)
        assert a + b == b + a
        key = (a + b).keys() and (a + b).keys()[0]
        if key:
            p, m = key
            assert (a + b).amplitude(p, m) == a.amplitude(p, m) + b.amplitude(p, m)
