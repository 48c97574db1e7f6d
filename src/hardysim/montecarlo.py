"""Reproducible sampling from an exact outcome table, with a chi-square check.

The generator is SplitMix64 — the exact reference mixer, so a seed produces
the same draw sequence on every platform.  Each draw takes the top 53 bits
of the mixed state as an integer ``u`` in ``[0, 2**53)`` and selects the
outcome ``k`` with the smallest exact cumulative threshold above ``u``.  The
thresholds are ``ceil(c_k * 2**53)`` computed in integer arithmetic from the
exact cumulative probabilities ``c_k``, so selection never touches floats
and regression counts are bit-stable.

``sample`` generates the draws in blocks of up to ``_BLOCK``.  A block is
one Python integer with one draw per 128-bit lane: lane ``i`` holds the
64-bit generator state of draw ``i`` in its low half, and the mixer runs on
every lane at once as big-integer shift, xor and multiply steps, masked so
that no bit crosses from one lane's draw into another's.  The draws are
read out of the integer's bytes and each is mapped to its row by
``bisect_right`` over the thresholds, so no Python bytecode runs per draw.
The plain per-draw generator that the block kernel must agree with lives
in the tests, as ``SplitMix64`` in ``tests/splitmix64_reference.py``.

``chi_square_test`` compares observed counts against the exact expected
counts.  The statistic is accumulated as a ``Fraction`` and only converted
to float at the end.  One rule judges it for every number of degrees of
freedom: it passes at 95% when :func:`chi_square_tail`, the chance of a
statistic at least as large, is at least 0.05, and at 99% when it is at
least 0.01.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import repeat
from typing import Mapping, NamedTuple

from .engine import OutcomeTable
from .state import PairKey

DEFAULT_SEED = 0x5EED

_MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws per block of ``sample``: 16 KiB per packed integer, so the working
# memory is fixed however many draws are asked for.  2048 ran no faster and
# doubled the peak.
_BLOCK = 1024

# Position of a lane's low 64-bit word among the two native-order words the
# lane fills in ``int.to_bytes(..., sys.byteorder)``.
_LOW_WORD = 1 if sys.byteorder == "big" else 0


class RunRecord(NamedTuple):
    """One sampling run plus its goodness-of-fit summary."""

    seed: int
    n: int
    counts: Mapping[PairKey, int]
    chi_square: float
    df: int
    pass_95: bool
    pass_99: bool


def _thresholds(table: OutcomeTable) -> tuple[list[PairKey], list[int]]:
    keys, cuts = [], []
    cumulative = Fraction(0)
    total = table.total()
    for key, probability in table.sorted_rows():
        cumulative += probability / total
        scaled = cumulative * (1 << 53)
        threshold = scaled.numerator // scaled.denominator
        if scaled.numerator % scaled.denominator:
            threshold += 1
        keys.append(key)
        cuts.append(threshold)
    cuts[-1] = 1 << 53
    return keys, cuts


def _lanes(b: int) -> tuple[int, int]:
    """``(ones, index)`` packed in ``b`` 128-bit lanes: 1 in every lane, and
    ``i`` in lane ``i``."""
    ones, index, width = 1, 0, 1
    while width < b:
        index |= (index + width * ones) << (128 * width)
        ones |= ones << (128 * width)
        width *= 2
    keep = (1 << (128 * b)) - 1
    return ones & keep, index & keep


def sample(table: OutcomeTable, n: int, seed: int) -> dict[PairKey, int]:
    """Draw ``n`` outcomes; returns counts for every row, including zeros.

    The counts are those of ``n`` calls of ``SplitMix64(seed).next_u53()``,
    each counted on the first row whose threshold lies above it.
    """
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if not table.rows:
        raise ValueError("cannot sample from an empty table")
    keys, cuts = _thresholds(table)
    b = min(n, _BLOCK)
    ones, index = _lanes(b)
    mask = ones * _MASK64
    # Lane i holds the state after i + 1 steps; each block moves every lane b steps.
    lanes = ((index + ones) * _GOLDEN + ones * (seed & _MASK64)) & mask
    step = ones * ((b * _GOLDEN) & _MASK64)
    del ones, index
    hits: Counter[int] = Counter()
    for start in range(0, n, _BLOCK):
        k = min(b, n - start)
        z = lanes if k == b else lanes & ((1 << (128 * k)) - 1)
        # ``>>`` pulls the next lane's low bits into the top of this lane's
        # high half.  The mask clears them before a multiply could carry them
        # into the low half; after the last xor, ``>> 11`` leaves them above it.
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (z ^ (z >> 31)) >> 11
        draws = memoryview(z.to_bytes(16 * k, sys.byteorder)).cast("Q")[_LOW_WORD::2]
        hits.update(map(bisect_right, repeat(cuts, k), draws))
        lanes = (lanes + step) & mask
    return {key: hits[row] for row, key in enumerate(keys)}


def chi_square_tail(statistic: float, df: int) -> float:
    """The chance that a chi-square variable with ``df >= 1`` degrees of
    freedom is at least ``statistic``: the regularised upper gamma
    ``Q(df/2, h)`` with ``h = statistic/2``, in closed form.

    ``Q(a, h) = Q(a - 1, h) + h**(a - 1) * exp(-h) / gamma(a)``, so the tail
    is ``Q(1/2, h) = erfc(sqrt(h))`` for odd ``df`` (0 for even) plus one
    term for each ``a`` from 3/2 (or 1) up to ``df/2``.  Each term is taken
    through its logarithm, so no power of ``h`` overflows.
    """
    h = statistic / 2
    if h <= 0:
        return 1.0
    log_h = math.log(h)
    first, head = (1.5, math.erfc(math.sqrt(h))) if df % 2 else (1, 0.0)
    return head + sum(
        math.exp((a - 1) * log_h - h - math.lgamma(a))
        for a in (first + i for i in range(df // 2))
    )


def chi_square_test(
    counts: Mapping[PairKey, int], table: OutcomeTable
) -> tuple[float, int, bool, bool]:
    """Exact-arithmetic Pearson statistic against the table's expectations.

    Returns ``(statistic, df, pass_95, pass_99)`` where ``df`` is one less
    than the number of table rows.  A zero-degree table passes trivially;
    any other passes at a level when :func:`chi_square_tail` of its
    statistic is at least 0.05 (95%) or 0.01 (99%).
    """
    n = sum(counts.get(key, 0) for key, _ in table.sorted_rows())
    total = table.total()
    df = len(table.rows) - 1
    if df == 0:
        return 0.0, 0, True, True
    statistic = Fraction(0)
    for key, probability in table.sorted_rows():
        expected = n * probability / total
        if expected == 0:
            raise ValueError(f"expected count for {key} is zero")
        deviation = counts.get(key, 0) - expected
        statistic += deviation * deviation / expected
    value = float(statistic)
    tail = chi_square_tail(value, df)
    return value, df, tail >= 0.05, tail >= 0.01


def run(table: OutcomeTable, n: int, seed: int = DEFAULT_SEED) -> RunRecord:
    """Sample, test, and bundle the result."""
    counts = sample(table, n, seed)
    statistic, df, pass_95, pass_99 = chi_square_test(counts, table)
    return RunRecord(seed, n, counts, statistic, df, pass_95, pass_99)

