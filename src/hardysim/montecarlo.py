"""Reproducible sampling from an exact outcome table, with a chi-square check.

The generator is SplitMix64 — the exact reference mixer, so a seed produces
the same draw sequence on every platform.  Each draw takes the top 53 bits
of the mixed state as an integer ``u`` in ``[0, 2**53)`` and selects the
outcome ``k`` with the smallest exact cumulative threshold above ``u``.  The
thresholds are ``ceil(c_k * 2**53)`` computed in integer arithmetic from the
exact cumulative probabilities ``c_k``, so selection never touches floats
and regression counts are bit-stable.  ``sample`` advances the generator
state inline, through the same mixer as :class:`SplitMix64`, and counts hits
per row index; the counts keyed by outcome pair are built once, after the
last draw.

``chi_square_test`` compares observed counts against the exact expected
counts.  The statistic is accumulated as a ``Fraction`` and only converted
to float at the end; it is judged against stored critical values for 1 to 8
degrees of freedom at the 95% and 99% levels, which covers every outcome
table this package produces.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Mapping, NamedTuple

from .engine import OutcomeTable
from .state import PairKey

DEFAULT_SEED = 0x5EED

_MASK64 = (1 << 64) - 1

CRITICAL_95 = {
    1: 3.841, 2: 5.991, 3: 7.815, 4: 9.488,
    5: 11.070, 6: 12.592, 7: 14.067, 8: 15.507,
}
CRITICAL_99 = {
    1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277,
    5: 15.086, 6: 16.812, 7: 18.475, 8: 20.090,
}


class DegreesOfFreedomOutOfRange(ValueError):
    """Raised when a table needs more degrees of freedom than the stored rows cover."""


_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """The SplitMix64 output mixer, applied to the advanced state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 with the reference constants; ``next_u53`` feeds sampling."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def next_u53(self) -> int:
        return self.next_u64() >> 11


class RunRecord(NamedTuple):
    """One sampling run plus its goodness-of-fit summary."""

    seed: int
    n: int
    counts: Mapping[PairKey, int]
    chi_square: float
    df: int
    pass_95: bool
    pass_99: bool

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "n": self.n,
            "counts": [
                {"plus": str(p), "minus": str(m), "count": c}
                for (p, m), c in sorted(
                    self.counts.items(), key=lambda kv: (kv[0][0].name, kv[0][1].name)
                )
            ],
            "chi_square": self.chi_square,
            "df": self.df,
            "pass_95": self.pass_95,
            "pass_99": self.pass_99,
        }


def _thresholds(table: OutcomeTable) -> tuple[list[PairKey], list[int]]:
    keys, cuts = [], []
    cumulative = Fraction(0)
    total = table.total()
    for (p, m), probability in table.sorted_rows():
        cumulative += probability / total
        scaled = cumulative * (1 << 53)
        threshold = scaled.numerator // scaled.denominator
        if scaled.numerator % scaled.denominator:
            threshold += 1
        keys.append((p, m))
        cuts.append(threshold)
    cuts[-1] = 1 << 53
    return keys, cuts


def sample(table: OutcomeTable, n: int, seed: int) -> dict[PairKey, int]:
    """Draw ``n`` outcomes; returns counts for every row, including zeros."""
    if n < 0:
        raise ValueError("sample size must be nonnegative")
    if not table.rows:
        raise ValueError("cannot sample from an empty table")
    keys, cuts = _thresholds(table)
    # SplitMix64.next_u53 inlined: no method call and no key hashed per draw.
    hits = [0] * len(keys)
    state = seed & _MASK64
    for _ in range(n):
        state = (state + _GOLDEN) & _MASK64
        hits[bisect_right(cuts, _mix(state) >> 11)] += 1
    return dict(zip(keys, hits))


def chi_square_test(
    counts: Mapping[PairKey, int], table: OutcomeTable
) -> tuple[float, int, bool, bool]:
    """Exact-arithmetic Pearson statistic against the table's expectations.

    Returns ``(statistic, df, pass_95, pass_99)`` where ``df`` is one less
    than the number of table rows.  A zero-degree table passes trivially;
    more than eight degrees of freedom raises
    :class:`DegreesOfFreedomOutOfRange`.
    """
    n = sum(counts.get(key, 0) for key, _ in table.sorted_rows())
    total = table.total()
    df = len(table.rows) - 1
    if df == 0:
        return 0.0, 0, True, True
    if df > max(CRITICAL_95):
        raise DegreesOfFreedomOutOfRange(
            f"{df} degrees of freedom; critical values stored up to {max(CRITICAL_95)}"
        )
    statistic = Fraction(0)
    for key, probability in table.sorted_rows():
        expected = n * probability / total
        if expected == 0:
            raise ValueError(f"expected count for {key} is zero")
        deviation = counts.get(key, 0) - expected
        statistic += deviation * deviation / expected
    value = float(statistic)
    return value, df, value <= CRITICAL_95[df], value <= CRITICAL_99[df]


def run(table: OutcomeTable, n: int, seed: int = DEFAULT_SEED) -> RunRecord:
    """Sample, test, and bundle the result."""
    counts = sample(table, n, seed)
    statistic, df, pass_95, pass_99 = chi_square_test(counts, table)
    return RunRecord(seed, n, counts, statistic, df, pass_95, pass_99)


def to_csv(record: RunRecord, table: OutcomeTable) -> str:
    """Counts next to exact expectations, one row per outcome, summary in a comment."""
    total = table.total()
    lines = ["outcome_plus,outcome_minus,count,expected"]
    for (p, m), probability in table.sorted_rows():
        expected = record.n * probability / total
        lines.append(f"{p},{m},{record.counts.get((p, m), 0)},{str(expected)}")
    lines.append(
        f"# seed={record.seed} n={record.n} chi_square={record.chi_square:.6f}"
        f" df={record.df} pass_95={record.pass_95} pass_99={record.pass_99}"
    )
    return "\n".join(lines) + "\n"
