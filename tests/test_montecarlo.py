import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitmix64_reference import SplitMix64

from hardysim import engine, montecarlo
from hardysim.montecarlo import (
    DEFAULT_SEED,
    chi_square_tail,
    chi_square_test,
    sample,
)
from hardysim.state import minus, plus


def table_of(rows: dict, kept=Fraction(1)) -> engine.OutcomeTable:
    return engine.OutcomeTable(
        {(plus(p), minus(m)): q for (p, m), q in rows.items()}, kept
    )


HARDY_ROWS = {
    ("c", "c"): Fraction(3, 4),
    ("c", "d"): Fraction(1, 12),
    ("d", "c"): Fraction(1, 12),
    ("d", "d"): Fraction(1, 12),
}


# ----------------------------------------------------------------- generator

def test_splitmix64_reference_vector():
    # First five outputs for seed 1234567, as published with the reference
    # implementation and reused by several other libraries' test suites.
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_seed_zero_vector():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix64_u53_range():
    rng = SplitMix64(99)
    for _ in range(1000):
        value = rng.next_u53()
        assert 0 <= value < 1 << 53


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


# ------------------------------------------------------------------ sampling

def test_sample_is_deterministic():
    table = table_of(HARDY_ROWS)
    a = sample(table, 500, seed=42)
    b = sample(table, 500, seed=42)
    assert a == b
    assert sum(a.values()) == 500
    assert set(a) == set(table.rows)


def test_sample_counts_cover_all_rows():
    table = table_of(HARDY_ROWS)
    counts = sample(table, 3, seed=1)
    assert len(counts) == 4
    assert sum(counts.values()) == 3


def test_sample_respects_certain_outcome():
    table = table_of({("c", "c"): Fraction(1)})
    counts = sample(table, 250, seed=5)
    assert counts == {(plus("c"), minus("c")): 250}


def test_sample_rejects_bad_input():
    table = table_of(HARDY_ROWS)
    with pytest.raises(ValueError):
        sample(table, -1, seed=0)
    with pytest.raises(ValueError):
        sample(engine.OutcomeTable({}, Fraction(1)), 10, seed=0)


def test_unnormalised_table_is_rescaled():
    # Rows carrying the pre-selection weight sample identically to the
    # renormalised table.
    kept = table_of(HARDY_ROWS)
    raw = table_of(
        {key: q * Fraction(1, 6) for key, q in HARDY_ROWS.items()}, Fraction(1, 6)
    )
    assert sample(kept, 200, seed=9) == sample(raw, 200, seed=9)


SIXTEEN_ROWS = {
    (f"p{i}", f"m{j}"): Fraction(4 * i + j + 1, 136) for i in range(4) for j in range(4)
}
SIXTY_FOUR_ROWS = {(f"p{i:02}", "m"): Fraction(i + 1, 2080) for i in range(64)}
# 2**53 / 3 is not an integer and adding 2**-60 * 2**53 does not cross the
# next integer, so the "b" row gets the same threshold as the "a" row.
TINY_ROW = {
    ("a", "m"): Fraction(1, 3),
    ("b", "m"): Fraction(1, 2**60),
    ("c", "m"): Fraction(2, 3) - Fraction(1, 2**60),
}
ONE_ROW = {("c", "c"): Fraction(1)}
B = montecarlo._BLOCK


def per_draw_counts(table, n, seed):
    # The plain form of the sampler: one next_u53 per draw, the first row
    # whose exact threshold ceil(c_k * 2**53) lies above it, counts keyed by row.
    rows = table.sorted_rows()
    total = table.total()
    cuts, cumulative = [], Fraction(0)
    for _, probability in rows:
        cumulative += probability / total
        cuts.append(math.ceil(cumulative * (1 << 53)))
    rng = SplitMix64(seed)
    expected = {key: 0 for key, _ in rows}
    for _ in range(n):
        u = rng.next_u53()
        expected[next(key for (key, _), cut in zip(rows, cuts) if u < cut)] += 1
    return expected, cuts


@pytest.mark.parametrize(
    "rows",
    [SIXTEEN_ROWS, ONE_ROW, SIXTY_FOUR_ROWS, TINY_ROW],
    ids=["16-row", "1-row", "64-row", "tiny-row"],
)
@pytest.mark.parametrize("seed", [0, 1, DEFAULT_SEED, (1 << 64) - 1, 1 << 64, (5 << 64) + 77])
@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 17])
def test_sample_matches_a_per_draw_generator_loop(rows, seed, n):
    table = table_of(rows)
    expected, cuts = per_draw_counts(table, n, seed)
    if rows is TINY_ROW:
        assert cuts[0] == cuts[1]
    assert list(sample(table, n, seed).items()) == list(expected.items())


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1, (3 << 64) + 11])
@pytest.mark.parametrize("draw", [0, B - 1, B, 2 * B + 16])
def test_a_threshold_beside_a_draw_splits_it_exactly(seed, draw):
    # Typical thresholds leave a draw's low bits unread: the mixer's last
    # ``z ^ (z >> 31)`` changes only the low 22 bits of u, and without it no
    # count in the tests above changes.  Thresholds at u and u + 1 for the
    # draw's exact value u move the draw to another row if any bit is wrong.
    rng = SplitMix64(seed)
    for _ in range(draw):
        rng.next_u53()
    u = rng.next_u53()
    for cut, row in ((u, "b"), (u + 1, "a")):
        first = Fraction(cut, 1 << 53)
        table = table_of({("a", "m"): first, ("b", "m"): 1 - first})
        before, after = sample(table, draw, seed), sample(table, draw + 1, seed)
        assert [key[0].name for key in after if after[key] > before[key]] == [row]


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.integers(1, 1000), min_size=1, max_size=40),
    seed=st.integers(0, 1 << 70),
    n=st.integers(0, 3 * B),
)
def test_sample_matches_the_per_draw_loop_on_random_tables(weights, seed, n):
    table = table_of(
        {(f"p{i:02}", "m"): Fraction(w, sum(weights)) for i, w in enumerate(weights)}
    )
    expected, _ = per_draw_counts(table, n, seed)
    assert list(sample(table, n, seed).items()) == list(expected.items())


def test_sample_memory_does_not_grow_with_n():
    # A sampler that packed all n draws at once would need 16 MB here.
    table = table_of(SIXTEEN_ROWS)
    sample(table, 10, seed=1)

    def peak(n):
        tracemalloc.start()
        try:
            sample(table, n, seed=DEFAULT_SEED)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**5), peak(10**6)
    assert large <= small
    assert large < 256 * 1024


def test_pinned_default_seed_regression():
    counts = sample(table_of(HARDY_ROWS), 12000, seed=DEFAULT_SEED)
    assert counts == {
        (plus("c"), minus("c")): 8976,
        (plus("c"), minus("d")): 1014,
        (plus("d"), minus("c")): 980,
        (plus("d"), minus("d")): 1030,
    }


# ---------------------------------------------------------------- chi-square

def test_chi_square_exact_on_pinned_counts():
    table = table_of(HARDY_ROWS)
    counts = sample(table, 12000, seed=DEFAULT_SEED)
    statistic, df, pass_95, pass_99 = chi_square_test(counts, table)
    # (-24)^2/9000 + 14^2/1000 + (-20)^2/1000 + 30^2/1000 = 1.56 exactly
    assert statistic == 1.56
    assert df == 3
    assert pass_95 and pass_99


def test_chi_square_uniform_mismatch_statistic():
    table = table_of(HARDY_ROWS)
    counts = {key: 3000 for key in table.rows}
    statistic, df, pass_95, pass_99 = chi_square_test(counts, table)
    assert statistic == 16000.0
    assert df == 3
    assert not pass_95 and not pass_99


def test_chi_square_single_row_is_trivial():
    table = table_of({("c", "c"): Fraction(1)})
    assert chi_square_test({(plus("c"), minus("c")): 7}, table) == (0.0, 0, True, True)


def oracle_tail(statistic, df):
    """1 - P(df/2, statistic/2), with the regularised lower gamma from its
    power series P(a, x) = sum_n x**(a+n) e**-x / gamma(a+n+1).  Each term
    is carried as a logarithm, so no term over- or underflows on the way."""
    a, x = df / 2, statistic / 2
    if x == 0:
        return 1.0
    log_term, n, terms = a * math.log(x) - x - math.lgamma(a + 1), 0, []
    while True:
        terms.append(math.exp(log_term))
        n += 1
        ratio = x / (a + n)
        # Past the peak the terms fall at least geometrically by ``ratio``.
        if ratio < 1 and terms[-1] * ratio / (1 - ratio) < 1e-18:
            return 1 - math.fsum(terms)
        log_term += math.log(ratio)


TAIL_GRID = (0.01, 0.5, 1, 2, 3.5, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377)


def test_chi_square_tail_matches_the_series_oracle():
    for df in range(1, 201):
        for statistic in (*TAIL_GRID, *(df * f for f in (0.5, 0.8, 1, 1.2, 1.5, 2, 3))):
            assert chi_square_tail(statistic, df) == pytest.approx(
                oracle_tail(statistic, df), rel=0, abs=1e-12), (statistic, df)


# The critical values the rule replaced, for 1 to 8 degrees of freedom.
OLD_CRITICAL = {
    0.05: (3.841, 5.991, 7.815, 9.488, 11.070, 12.592, 14.067, 15.507),
    0.01: (6.635, 9.210, 11.345, 13.277, 15.086, 16.812, 18.475, 20.090),
}
# Published quantiles to six decimals: (df, 95% point, 99% point).
TEXTBOOK = (
    (10, 18.307038, 23.209251),
    (15, 24.995790, 30.577914),
    (30, 43.772972, 50.892181),
    (100, 124.342113, 135.806723),
)


@pytest.mark.parametrize("level", sorted(OLD_CRITICAL))
def test_old_critical_values_are_the_exact_quantiles_to_three_decimals(level):
    # The quantile lies within half a unit of the third decimal of the
    # stored value: the tail crosses the level between its two neighbours.
    for df, value in enumerate(OLD_CRITICAL[level], start=1):
        assert chi_square_tail(value - 0.0005, df) > level > chi_square_tail(value + 0.0005, df)


def test_textbook_quantiles():
    for df, q95, q99 in TEXTBOOK:
        assert abs(chi_square_tail(q95, df) - 0.05) < 1e-8
        assert abs(chi_square_tail(q99, df) - 0.01) < 1e-8


def test_chi_square_tail_edges():
    assert all(chi_square_tail(0, df) == 1.0 for df in (1, 2, 15, 4001))
    assert chi_square_tail(5000, 3) == 0.0
    # 2000 terms whose powers of h = 2000 would overflow outside logarithms.
    wide = chi_square_tail(4000, 4001)
    assert wide == pytest.approx(oracle_tail(4000, 4001), abs=1e-9)
    assert 0.50 < wide < 0.51


def test_chi_square_judges_wide_tables():
    rows = {("c", f"m{i}"): Fraction(1, 10) for i in range(10)}
    table = table_of(rows)
    counts = {key: 10 for key in table.rows}
    assert chi_square_test(counts, table) == (0.0, 9, True, True)
    counts[(plus("c"), minus("m0"))] = 40
    statistic, df, pass_95, pass_99 = chi_square_test(counts, table)
    # 130 draws, 13 expected per row: (40 - 13)**2/13 + 9 * (10 - 13)**2/13
    assert (statistic, df) == (810 / 13, 9)
    assert not pass_95 and not pass_99


HALVES = table_of({("c", "c"): Fraction(1, 2), ("c", "d"): Fraction(1, 2)})


@pytest.mark.parametrize("cc, cd, passes", [
    # A perfect fit: the statistic is 0 and its tail is 1.
    (50, 50, (True, True)),
    # 242/63 = 3.84127 lies between the old 3.841 and the exact 95% point
    # 3.841459, so it now passes where the table failed it; 3.841537 fails.
    (74, 52, (True, True)),
    (873, 793, (False, True)),
    # 6.634907 lies between the exact 99% point 6.634897 and the old 6.635,
    # so it now fails where the table passed it; 6.634895 passes.
    (1888, 1733, (False, False)),
    (984, 873, (False, True)),
])
def test_verdicts_beside_the_exact_quantiles(cc, cd, passes):
    statistic, df, *verdicts = chi_square_test(
        {(plus("c"), minus("c")): cc, (plus("c"), minus("d")): cd}, HALVES)
    assert df == 1 and statistic == (cc - cd) ** 2 / (cc + cd)
    assert tuple(verdicts) == passes


# --------------------------------------------------------------- run records

def test_run_record_fields():
    record = montecarlo.run(table_of(HARDY_ROWS), 12000)
    assert record.seed == DEFAULT_SEED
    assert record.n == 12000
    assert record.df == 3
    assert record.pass_95 and record.pass_99
    assert sum(record.counts.values()) == 12000


def test_empirical_frequencies_converge():
    table = table_of(HARDY_ROWS)
    n = 100_000
    counts = sample(table, n, seed=DEFAULT_SEED)
    worst = max(
        abs(count / n - float(table.rows[key])) for key, count in counts.items()
    )
    assert worst < 0.01
