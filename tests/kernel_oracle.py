"""Exact sympy readings of amplitude-kernel values and of amplitude text.

The kernel's own tests compare it with itself; this module gives them a
reading that shares no code with it, and imports nothing from ``hardysim``.
:func:`value` reads a kernel value through its public ``real_coeffs`` and
``imag_coeffs``.  :func:`text` reads amplitude-grammar text with its own
tokenizer and lets sympy evaluate it.  :func:`same` compares two readings
exactly, after ``sympy.expand``.
"""

import re
from fractions import Fraction

import sympy

# The radicals an exact amplitude's four coefficients multiply, in order.
BASIS = (sympy.Integer(1), sympy.sqrt(2), sympy.sqrt(3), sympy.sqrt(6))


def rational(q) -> sympy.Rational:
    q = Fraction(q)
    return sympy.Rational(q.numerator, q.denominator)


def value(x) -> sympy.Expr:
    """A kernel value as a sympy number, from its public coefficients."""
    real = sum((rational(c) * b for c, b in zip(x.real_coeffs, BASIS)), sympy.Integer(0))
    imag = sum((rational(c) * b for c, b in zip(x.imag_coeffs, BASIS)), sympy.Integer(0))
    return sympy.expand(real + sympy.I * imag)


_TOKENS = re.compile(r"""\s*(?:
      \(\s*(?P<num>[+-]?\d+)\s*/\s*(?P<den>\d+)\s*\)
    | sqrt\(\s*(?P<rad>\d+)(?:\s*/\s*(?P<radden>\d+))?\s*\)
    | (?P<int>\d+)
    | (?P<imag>i)
    | (?P<op>[+\-*/])
    )""", re.VERBOSE)


def text(source: str) -> sympy.Expr:
    """Valid amplitude text as a sympy number.

    Each token becomes a sympy object and the operators stay as they are,
    so Python's precedence of ``*``, ``/`` over ``+``, ``-`` and of a
    leading sign evaluates the sum of products.  Only well-formed text is
    read; the kernel's own tests pin its diagnostics.
    """
    names, pieces, pos = {}, [], 0
    while source[pos:].strip():
        m = _TOKENS.match(source, pos)
        if m is None:
            raise ValueError(f"not amplitude text at {pos}: {source!r}")
        pos = m.end()
        if m["op"]:
            pieces.append(m["op"])
            continue
        if m["num"]:
            factor = sympy.Rational(int(m["num"]), int(m["den"]))
        elif m["rad"]:
            factor = sympy.sqrt(sympy.Rational(int(m["rad"]), int(m["radden"] or 1)))
        elif m["int"]:
            factor = sympy.Integer(int(m["int"]))
        else:
            factor = sympy.I
        names[f"t{len(names)}"] = factor
        pieces.append(f"t{len(names) - 1}")
    return sympy.expand(eval(" ".join(pieces), {"__builtins__": {}}, names))


def same(a: sympy.Expr, b: sympy.Expr) -> bool:
    """Exact equality of two readings."""
    return sympy.expand(a - b) == 0


def squarefree_part(q) -> int:
    """The squarefree k with sqrt(q) = r*sqrt(k), r rational, for rational q > 0."""
    q = Fraction(q)
    k = 1
    for prime, power in sympy.factorint(q.numerator * q.denominator).items():
        if power % 2:
            k *= prime
    return k
