"""The recursive-descent amplitude parser that ``parse_amplitude`` replaced, kept
unchanged as a differential reference for the one-pass parser.

It carries its own tokenizer and shares only the value type and its
arithmetic with :mod:`hardysim.amplitude`.
"""

import re
from fractions import Fraction

from hardysim.amplitude import (
    AmplitudeParseError,
    I,
    RadicalComplex,
    UnsupportedRadical,
    rational,
    sqrt_rational,
)

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

_RAT_INNER = re.compile(r"\(\s*([+-]?\d+)\s*/\s*(\d+)\s*\)")
_SQRT_INNER = re.compile(r"sqrt\(\s*(\d+)(?:\s*/\s*(\d+))?\s*\)")


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


class _AmpParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.end = len(text)
        self.i = 0

    def _peek_op(self):
        if self.i < len(self.tokens) and self.tokens[self.i][0] == "op":
            return self.tokens[self.i][1]
        return None

    def parse(self) -> RadicalComplex:
        value = self._expr()
        if self.i < len(self.tokens):
            _, text, pos = self.tokens[self.i]
            raise AmplitudeParseError(f"unexpected {text!r}", pos)
        return value

    def _expr(self) -> RadicalComplex:
        negate = False
        if self._peek_op() in ("+", "-"):
            negate = self.tokens[self.i][1] == "-"
            self.i += 1
        value = self._term()
        if negate:
            value = -value
        while self._peek_op() in ("+", "-"):
            op = self.tokens[self.i][1]
            self.i += 1
            term = self._term()
            value = value + term if op == "+" else value - term
        return value

    def _term(self) -> RadicalComplex:
        value = self._factor_value()
        while self._peek_op() in ("*", "/"):
            op = self.tokens[self.i][1]
            self.i += 1
            kind, payload, pos = self._factor_raw()
            if op == "*":
                value = value * self._to_value(kind, payload, pos)
            elif kind == "num":
                if payload == 0:
                    raise AmplitudeParseError("division by zero", pos)
                value = value / payload
            elif kind == "sqrt":
                try:
                    value = value.div_sqrt(payload)
                except UnsupportedRadical as exc:
                    raise AmplitudeParseError(str(exc), pos) from exc
            else:
                raise AmplitudeParseError("cannot divide by i; multiply by -i instead", pos)
        return value

    def _factor_value(self) -> RadicalComplex:
        kind, payload, pos = self._factor_raw()
        return self._to_value(kind, payload, pos)

    @staticmethod
    def _to_value(kind, payload, pos) -> RadicalComplex:
        if kind == "num":
            return rational(payload)
        if kind == "sqrt":
            try:
                return sqrt_rational(payload)
            except UnsupportedRadical as exc:
                raise AmplitudeParseError(str(exc), pos) from exc
        return I

    def _factor_raw(self):
        if self.i >= len(self.tokens):
            raise AmplitudeParseError("expected a factor", self.end)
        kind, text, pos = self.tokens[self.i]
        self.i += 1
        if kind == "rat":
            m = _RAT_INNER.fullmatch(text)
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                raise AmplitudeParseError("zero denominator", pos)
            return "num", Fraction(num, den), pos
        if kind == "int":
            return "num", Fraction(int(text)), pos
        if kind == "sqrt":
            m = _SQRT_INNER.fullmatch(text)
            num, den = int(m.group(1)), int(m.group(2) or 1)
            if den == 0:
                raise AmplitudeParseError("zero denominator under sqrt", pos)
            return "sqrt", Fraction(num, den), pos
        if kind == "imag":
            return "i", None, pos
        raise AmplitudeParseError(f"expected a factor, found {text!r}", pos)


def parse_amplitude_reference(text: str) -> RadicalComplex:
    return _AmpParser(text).parse()
