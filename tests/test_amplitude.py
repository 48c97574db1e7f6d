from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import kernel_oracle
from amplitude_reference import parse_amplitude_reference
from kernel_oracle import same

from hardysim.amplitude import (
    I,
    ONE,
    SQRT2,
    SQRT3,
    SQRT6,
    ZERO,
    AmplitudeParseError,
    NotRational,
    RadicalComplex,
    UnsupportedRadical,
    inv_sqrt,
    parse_amplitude,
    quarter_phase,
    rational,
    sqrt_rational,
)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def build(re4, im4) -> RadicalComplex:
    return RadicalComplex(tuple(re4), tuple(im4))


values = st.builds(
    build,
    st.tuples(coeffs, coeffs, coeffs, coeffs),
    st.tuples(coeffs, coeffs, coeffs, coeffs),
)

small = st.integers(min_value=0, max_value=13)
spaces = st.sampled_from(("", " ", "  "))
# Grammar pieces, some of them malformed on purpose (zero denominators,
# radicals outside the basis), plus junk characters the tokenizer rejects.
pieces = st.one_of(
    st.builds("{1}({0}{2}/{3}{1})".format, st.sampled_from(("", "-", "+")), spaces, small, small),
    small.map(str),
    st.builds("sqrt({0})".format, small),
    st.builds("sqrt({0}{2}/{1}{0})".format, spaces, small, small),
    st.sampled_from(("i", "+", "-", "*", "/", " ", "*i", "/i", "@", "(", ")", "x", "sqrt(", ".")),
)
amplitude_texts = st.lists(pieces, max_size=12).map("".join)

# Well-formed amplitude text: every radicand has no prime factor but 2 and
# 3, and no divisor is zero or i.
smooth = st.sampled_from((1, 2, 3, 4, 6, 8, 9, 12, 18, 24))
divisors = st.one_of(
    st.builds("({}{}/{})".format, st.sampled_from(("", "-", "+")), st.integers(1, 9), st.integers(1, 6)),
    st.integers(1, 9).map(str),
    st.builds("sqrt({})".format, smooth),
    st.builds("sqrt({}/{})".format, smooth, smooth),
)
factors = st.one_of(divisors, st.sampled_from(("i", "(0/1)", "0")))
products = st.builds(
    lambda first, rest: first + "".join(f" {op} {factor}" for op, factor in rest),
    factors,
    st.lists(st.one_of(st.tuples(st.just("*"), factors), st.tuples(st.just("/"), divisors)), max_size=3),
)
valid_texts = st.builds(
    lambda sign, first, rest: sign + first + "".join(f" {op} {term}" for op, term in rest),
    st.sampled_from(("", "-", "+")),
    products,
    st.lists(st.tuples(st.sampled_from("+-"), products), max_size=3),
)
# Rationals, Gaussian rationals and real norms next to general values, so
# as_rational meets both of its outcomes and each way of missing the first.
mixed_values = st.one_of(values, coeffs.map(rational), values.map(lambda z: z.norm_sq()),
                         st.builds(lambda a, b: rational(a) + I * b, coeffs, coeffs.filter(bool)))
# q = r*r*k: sqrt(q) lies in the basis exactly when k does.
radicands = st.one_of(
    st.builds(lambda r, k: r * r * k, coeffs, st.sampled_from((1, 2, 3, 5, 6, 7, 10, 15))),
    st.fractions(min_value=-2, max_value=60, max_denominator=60),
)


# ---------------------------------------------------------------- arithmetic

def test_radical_closure():
    assert SQRT2 * SQRT2 == rational(2)
    assert SQRT3 * SQRT3 == rational(3)
    assert SQRT6 * SQRT6 == rational(6)
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == SQRT3 * rational(2)
    assert SQRT3 * SQRT6 == SQRT2 * rational(3)
    assert I * I == -ONE


def test_mixed_number_arithmetic():
    x = rational(1, 2) + SQRT2 * Fraction(3, 4)
    assert x - SQRT2 * Fraction(3, 4) == rational(1, 2)
    assert x * 2 == rational(1) + SQRT2 * Fraction(3, 2)
    assert x / 2 == rational(1, 4) + SQRT2 * Fraction(3, 8)
    assert -(-x) == x


def test_division_helpers():
    assert inv_sqrt(2) * inv_sqrt(2) == rational(1, 2)
    assert (SQRT3 * I).div_sqrt(3) == I
    assert rational(1).div_sqrt(Fraction(1, 2)) == SQRT2
    with pytest.raises(ZeroDivisionError):
        ONE / 0
    with pytest.raises(UnsupportedRadical):
        ONE.div_sqrt(0)


def test_sqrt_rational_domain():
    assert sqrt_rational(0) == ZERO
    assert sqrt_rational(4) == rational(2)
    assert sqrt_rational(12) == SQRT3 * 2
    assert sqrt_rational(Fraction(1, 2)) == SQRT2 / 2
    assert sqrt_rational(Fraction(8, 9)) == SQRT2 * Fraction(2, 3)
    with pytest.raises(UnsupportedRadical):
        sqrt_rational(5)
    with pytest.raises(UnsupportedRadical):
        sqrt_rational(-1)
    with pytest.raises(UnsupportedRadical):
        sqrt_rational(Fraction(5, 6))


def test_conjugate_and_norm():
    z = rational(1, 2) + SQRT2 * I
    assert z.conjugate() == rational(1, 2) - SQRT2 * I
    assert z.conjugate().conjugate() == z
    assert z.norm_sq() == rational(9, 4)
    assert z.norm_sq().as_rational() == Fraction(9, 4)


def test_as_rational_rejects_irrationals():
    assert rational(7, 3).as_rational() == Fraction(7, 3)
    with pytest.raises(NotRational):
        SQRT2.as_rational()
    with pytest.raises(NotRational):
        I.as_rational()


def test_quarter_phase_cycle():
    assert [quarter_phase(k) for k in range(4)] == [ONE, I, -ONE, -I]
    assert quarter_phase(5) == I
    assert quarter_phase(-1) == -I


def test_zero_and_truthiness():
    assert not ZERO
    assert ONE
    assert ONE - ONE == ZERO
    assert str(ZERO) == "(0/1)"


def test_hash_consistency():
    a = SQRT2 / 2
    b = inv_sqrt(2)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


# ------------------------------------------------------------------- parsing

def test_parse_normalizes_nested_radicals():
    assert str(parse_amplitude("(-3/1)*sqrt(1)/sqrt(12)")) == "(-1/2)*sqrt(3)"


def test_parse_basic_forms():
    assert parse_amplitude("i") == I
    assert parse_amplitude("-i") == -I
    assert parse_amplitude("(1/1)/sqrt(2)") == inv_sqrt(2)
    assert parse_amplitude("(1/2)*sqrt(2)*i") == SQRT2 * I / 2
    assert parse_amplitude("(1/2) + (1/2)*i") == rational(1, 2) + rational(1, 2) * I
    assert parse_amplitude(" (2/3) - i ") == rational(2, 3) - I
    assert parse_amplitude("2*sqrt(3)") == SQRT3 * 2


def test_parse_error_positions():
    with pytest.raises(AmplitudeParseError) as excinfo:
        parse_amplitude("(1/2) @")
    assert excinfo.value.pos == 6
    with pytest.raises(AmplitudeParseError) as excinfo:
        parse_amplitude("(1/2) + ")
    assert excinfo.value.pos == 8
    with pytest.raises(AmplitudeParseError) as excinfo:
        parse_amplitude("(1/0)")
    assert excinfo.value.pos == 0
    with pytest.raises(AmplitudeParseError):
        parse_amplitude("")


def test_parse_rejects_unsupported_radical():
    with pytest.raises(AmplitudeParseError) as excinfo:
        parse_amplitude("sqrt(5)")
    assert "sqrt" in str(excinfo.value)


def test_parse_rejects_division_by_i():
    with pytest.raises(AmplitudeParseError) as excinfo:
        parse_amplitude("(1/2)/i")
    assert "divide by i" in str(excinfo.value)


def test_repr_round_trip():
    z = rational(1, 2) - SQRT6 * I / 3
    assert eval(repr(z), {"RadicalComplex": RadicalComplex}) == z


# ---------------------------------------------------------------- properties

@given(values)
def test_str_parse_round_trip(z):
    assert parse_amplitude(str(z)) == z


@given(values, values)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(values, values)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(values)
def test_norm_is_real_and_nonnegative(z):
    # |z|^2 stays inside the real subfield — irrational in general (e.g.
    # |1+sqrt(2)|^2 = 3+2*sqrt(2)) but always real and nonnegative.
    norm = z.norm_sq()
    assert norm.imag_coeffs == (0, 0, 0, 0)
    assert kernel_oracle.value(norm).is_nonnegative
    assert (norm == ZERO) == (z == ZERO)


# ------------------------------------------------------ exact sympy oracle
# Every kernel result equals sympy's value of the same expression, read from
# the operands' public coefficients (tests/kernel_oracle.py).

value = kernel_oracle.value


@settings(max_examples=60)
@given(values, values)
def test_sum_difference_and_product_match_sympy(a, b):
    x, y = value(a), value(b)
    assert same(value(a + b), x + y)
    assert same(value(a - b), x - y)
    assert same(value(a * b), x * y)


@settings(max_examples=60)
@given(values)
def test_conjugate_and_norm_match_sympy(z):
    x = value(z)
    assert same(value(z.conjugate()), sympy.conjugate(x))
    assert same(value(z.norm_sq()), x * sympy.conjugate(x))


@settings(max_examples=60)
@given(values, coeffs.filter(bool))
def test_division_by_a_rational_matches_sympy(z, q):
    assert same(value(z / q), value(z) / kernel_oracle.rational(q))


@settings(max_examples=60)
@given(mixed_values)
def test_as_rational_raises_exactly_on_irrationals(z):
    x = value(z)
    if x.is_rational:
        assert kernel_oracle.rational(z.as_rational()) == x
    else:
        with pytest.raises(NotRational):
            z.as_rational()


@settings(max_examples=60)
@given(radicands)
def test_sqrt_rational_and_inv_sqrt_match_sympy(q):
    exact = kernel_oracle.rational(q)
    in_basis = q == 0 or (q > 0 and kernel_oracle.squarefree_part(q) in (1, 2, 3, 6))
    if in_basis:
        assert same(value(sqrt_rational(q)), sympy.sqrt(exact))
    else:
        with pytest.raises(UnsupportedRadical):
            sqrt_rational(q)
    if in_basis and q:
        assert same(value(inv_sqrt(q)), 1 / sympy.sqrt(exact))
    else:
        with pytest.raises(UnsupportedRadical):
            inv_sqrt(q)


@settings(max_examples=60)
@given(valid_texts)
def test_parse_amplitude_matches_sympy(text):
    assert same(value(parse_amplitude(text)), kernel_oracle.text(text))


@settings(max_examples=60)
@given(values)
def test_str_matches_sympy(z):
    assert same(kernel_oracle.text(str(z)), value(z))


def _outcome(parser, text):
    try:
        return parser(text)
    except AmplitudeParseError as exc:
        return (str(exc), exc.pos)


@settings(max_examples=400)
@given(amplitude_texts)
def test_parse_matches_the_recursive_descent_reference(text):
    # Same value, or the same message at the same 0-based offset.
    assert _outcome(parse_amplitude, text) == _outcome(parse_amplitude_reference, text)
