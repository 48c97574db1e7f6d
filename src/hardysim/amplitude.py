"""Exact complex amplitudes over the radical basis {1, sqrt(2), sqrt(3), sqrt(6)}.

Beam splitters with rational transmissivity such as 1/2 or 1/3 and
quarter-turn phase shifts only ever produce amplitudes whose real and
imaginary parts are rational combinations of 1, sqrt(2), sqrt(3) and
sqrt(6).  A value is stored as eight rational coefficients (real and
imaginary part per basis radical) in canonical form, so equality is exact
and Born weights come out as plain rationals.

The textual grammar used by circuit files, the CLI and golden files writes
rationals as `(<num>/<den>)`, radicals as `sqrt(<k>)`, the imaginary unit
as `i`, combined with `*`, `/`, `+` and `-`.  For example
`(-3/1)*sqrt(1)/sqrt(12)` parses and renders back as `(-1/2)*sqrt(3)`.
:func:`parse_amplitude` reads the tokens in one pass, a product loop inside a
sum loop, and every factor goes through one helper that multiplies or
divides; a syntax error carries its 0-based offset into the text.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

RADICANDS = (1, 2, 3, 6)

_F0 = Fraction(0)
_F1 = Fraction(1)
_ZERO4 = (_F0,) * 4

# sqrt(RADICANDS[i]) * sqrt(RADICANDS[j]) == factor * sqrt(RADICANDS[k]),
# stored as (i, j) -> (factor, k) for i <= j.
_MUL_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 1): (2, 0), (1, 2): (1, 3), (1, 3): (2, 2),
    (2, 2): (3, 0), (2, 3): (3, 1),
    (3, 3): (6, 0),
}

_SQRT_FLOAT = {k: math.sqrt(k) for k in RADICANDS}


class NotRational(ArithmeticError):
    """A radical or imaginary part survives where a plain rational is required."""


class UnsupportedRadical(ArithmeticError):
    """A square root falls outside the span of {1, sqrt(2), sqrt(3), sqrt(6)}."""


class AmplitudeParseError(ValueError):
    """Syntax error in the amplitude grammar; ``pos`` is a 0-based offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


def _vadd(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])


def _vneg(x):
    return (-x[0], -x[1], -x[2], -x[3])


def _vmul(x, y):
    out = [_F0, _F0, _F0, _F0]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            factor, k = _MUL_TABLE[(i, j) if i <= j else (j, i)]
            out[k] += xi * yj * factor
    return tuple(out)


def _square_split(m: int) -> tuple[int, int]:
    # m == s*s*k with k squarefree
    s, k, f = 1, 1, 2
    while f * f <= m:
        ff = f * f
        while m % ff == 0:
            m //= ff
            s *= f
        if m % f == 0:
            m //= f
            k *= f
        f += 1
    if m > 1:
        k *= m
    return s, k


class RadicalComplex:
    """A value a0 + a1*sqrt(2) + a2*sqrt(3) + a3*sqrt(6) + i*(b0 + b1*sqrt(2) + ...).

    All coefficients are rational.  The set is closed under addition,
    multiplication and conjugation: sqrt(2)*sqrt(3) reduces to sqrt(6),
    sqrt(2)*sqrt(6) to 2*sqrt(3), sqrt(3)*sqrt(6) to 3*sqrt(2).  Instances
    are immutable and hashable, and equality is coefficient-wise, i.e. two
    equal values always compare equal regardless of how they were built.
    """

    __slots__ = ("_re", "_im")

    def __init__(self, re: Sequence = _ZERO4, im: Sequence = _ZERO4):
        re = tuple(Fraction(x) for x in re)
        im = tuple(Fraction(x) for x in im)
        if len(re) != 4 or len(im) != 4:
            raise ValueError("expected four rational coefficients per part")
        self._re = re
        self._im = im

    @property
    def real_coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self._re

    @property
    def imag_coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self._im

    @property
    def is_zero(self) -> bool:
        return not any(self._re) and not any(self._im)

    def __bool__(self) -> bool:
        return not self.is_zero

    @staticmethod
    def _coerce(other) -> "RadicalComplex | None":
        if isinstance(other, RadicalComplex):
            return other
        if isinstance(other, (int, Fraction)):
            return RadicalComplex((Fraction(other), _F0, _F0, _F0))
        return None

    def __add__(self, other) -> "RadicalComplex":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RadicalComplex(_vadd(self._re, other._re), _vadd(self._im, other._im))

    __radd__ = __add__

    def __neg__(self) -> "RadicalComplex":
        return RadicalComplex(_vneg(self._re), _vneg(self._im))

    def __sub__(self, other) -> "RadicalComplex":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RadicalComplex":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RadicalComplex":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        re = _vadd(_vmul(self._re, other._re), _vneg(_vmul(self._im, other._im)))
        im = _vadd(_vmul(self._re, other._im), _vmul(self._im, other._re))
        return RadicalComplex(re, im)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalComplex":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = Fraction(other)
        if q == 0:
            raise ZeroDivisionError("division of an amplitude by zero")
        return self * RadicalComplex((1 / q, _F0, _F0, _F0))

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        return hash((self._re, self._im))

    def conjugate(self) -> "RadicalComplex":
        return RadicalComplex(self._re, _vneg(self._im))

    def norm_sq(self) -> "RadicalComplex":
        """Born weight |z|^2 = z * conj(z); always real, not always rational."""
        return self * self.conjugate()

    def as_rational(self) -> Fraction:
        """The value as a plain rational, or raise NotRational."""
        if any(self._re[1:]) or any(self._im):
            raise NotRational(f"{self} is not a plain rational")
        return self._re[0]

    def div_sqrt(self, q) -> "RadicalComplex":
        """Exact division by sqrt(q) for positive rational q with sqrt(q) in the basis span."""
        q = Fraction(q)
        if q <= 0:
            raise UnsupportedRadical(f"sqrt of non-positive {q} is outside the basis")
        return self * sqrt_rational(1 / q)

    def to_complex(self) -> complex:
        """Floating-point evaluation, correctly rounded coefficients (for oracles/display)."""
        re = sum(float(c) * _SQRT_FLOAT[k] for c, k in zip(self._re, RADICANDS))
        im = sum(float(c) * _SQRT_FLOAT[k] for c, k in zip(self._im, RADICANDS))
        return complex(re, im)

    def __str__(self) -> str:
        parts = []
        for imag, vec in ((False, self._re), (True, self._im)):
            for idx, c in enumerate(vec):
                if c:
                    parts.append((c, RADICANDS[idx], imag))
        if not parts:
            return "(0/1)"
        out = []
        for j, (c, k, imag) in enumerate(parts):
            mag = c
            if j:
                out.append(" + " if c > 0 else " - ")
                mag = abs(c)
            piece = f"({mag.numerator}/{mag.denominator})"
            if k != 1:
                piece += f"*sqrt({k})"
            if imag:
                piece += "*i"
            out.append(piece)
        return "".join(out)

    def __repr__(self) -> str:
        return f"RadicalComplex.parse({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "RadicalComplex":
        return parse_amplitude(text)


def rational(num, den=1) -> RadicalComplex:
    return RadicalComplex((Fraction(num, den) if den != 1 else Fraction(num), _F0, _F0, _F0))


def sqrt_rational(q) -> RadicalComplex:
    """Exact sqrt(q) for rational q >= 0, or raise UnsupportedRadical.

    Writes q = (s/d)^2 * k with k squarefree; representable iff k is one of
    1, 2, 3, 6.  Examples: sqrt(1/2) = (1/2)*sqrt(2), sqrt(2/3) = (1/3)*sqrt(6).
    """
    q = Fraction(q)
    if q < 0:
        raise UnsupportedRadical(f"sqrt of negative {q} is outside the basis")
    if q == 0:
        return ZERO
    s, k = _square_split(q.numerator * q.denominator)
    if k not in RADICANDS:
        raise UnsupportedRadical(f"sqrt({q}) needs sqrt({k}), outside the basis")
    coeffs = [_F0, _F0, _F0, _F0]
    coeffs[RADICANDS.index(k)] = Fraction(s, q.denominator)
    return RadicalComplex(coeffs)


def inv_sqrt(q) -> RadicalComplex:
    """Exact 1/sqrt(q) for positive rational q, e.g. inv_sqrt(3) = (1/3)*sqrt(3)."""
    q = Fraction(q)
    if q <= 0:
        raise UnsupportedRadical(f"1/sqrt({q}) is undefined")
    return sqrt_rational(1 / q)


def quarter_phase(quarter_turns: int) -> RadicalComplex:
    """The unit phase i**k; only quarter turns keep amplitudes in the basis."""
    return (ONE, I, -ONE, -I)[quarter_turns % 4]


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<rat>\(\s*[+-]?\d+\s*/\s*\d+\s*\))
      | (?P<sqrt>sqrt\(\s*\d+(?:\s*/\s*\d+)?\s*\))
      | (?P<int>\d+)
      | (?P<imag>i)
      | (?P<op>[+\-*/])
    """,
    re.VERBOSE,
)

_NUMBER_RE = re.compile(r"[+-]?\d+")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise AmplitudeParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(0), m.start()))
        pos = m.end()
    return tokens


def _factor(value: RadicalComplex | None, op: str, token) -> RadicalComplex:
    """``value`` multiplied (``op`` ``*``) or divided (``op`` ``/``) by the factor
    ``token``; the factor itself when ``value`` is None (the first one of a term)."""
    kind, text, pos = token
    if kind == "end":
        raise AmplitudeParseError("expected a factor", pos)
    if kind == "op":
        raise AmplitudeParseError(f"expected a factor, found {text!r}", pos)
    if kind == "imag":
        if op == "/":
            raise AmplitudeParseError("cannot divide by i; multiply by -i instead", pos)
        factor = I
    else:
        numbers = _NUMBER_RE.findall(text) + ["1"]  # an integer or sqrt(n) has denominator 1
        num, den = int(numbers[0]), int(numbers[1])
        if den == 0:
            raise AmplitudeParseError("zero denominator under sqrt" if kind == "sqrt"
                                      else "zero denominator", pos)
        q = Fraction(num, den)
        if kind == "sqrt":
            try:
                if op == "/":
                    return value.div_sqrt(q)
                factor = sqrt_rational(q)
            except UnsupportedRadical as exc:
                raise AmplitudeParseError(str(exc), pos) from exc
        elif op == "/":
            if not q:
                raise AmplitudeParseError("division by zero", pos)
            return value / q
        else:
            factor = rational(q)
    return factor if value is None else value * factor


def parse_amplitude(text: str) -> RadicalComplex:
    """Parse the amplitude grammar; raises AmplitudeParseError with a 0-based offset.

    One pass over the tokens: an optional leading sign, then terms joined by
    ``+`` or ``-``, each a product of factors joined by ``*`` or ``/``.
    """
    tokens = _tokenize(text) + [("end", "", len(text))]
    total, sign, i = None, "+", 0
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign, i = tokens[0][1], 1
    while True:
        term = _factor(None, "*", tokens[i])
        i += 1
        while tokens[i][0] == "op" and tokens[i][1] in "*/":
            term = _factor(term, tokens[i][1], tokens[i + 1])
            i += 2
        if sign == "-":
            term = -term
        total = term if total is None else total + term
        kind, found, pos = tokens[i]
        if kind == "end":
            return total
        if kind != "op":
            raise AmplitudeParseError(f"unexpected {found!r}", pos)
        sign, i = found, i + 1


ZERO = RadicalComplex()
ONE = rational(1)
I = RadicalComplex(im=(_F1, _F0, _F0, _F0))
SQRT2 = sqrt_rational(2)
SQRT3 = sqrt_rational(3)
SQRT6 = sqrt_rational(6)
