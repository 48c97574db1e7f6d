"""Acceptance gate: one test per criterion, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.  Exact claims are checked with exact equality (Fraction /
RadicalComplex); the post-selection weight is additionally cross-checked
against the frozen output of the independent float oracle in
``tests/oracle.py``.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import golden
import oracle
import support
from conftest import CIRCUITS, load_circuit
from hardysim import engine, montecarlo, paradox
from hardysim.amplitude import ONE, ZERO
from hardysim.circuitdsl import parse, render
from hardysim.optics import apply_transform, beamsplitter
from hardysim.paradox import RuleSet, VERDICT_CONSISTENT, VERDICT_FORBIDDEN_BUT_PREDICTED
from hardysim.state import minus, plus

# Frozen values of the independent numpy oracle (tests/oracle.py), recorded
# from its output before the exact pipeline was tested against it.
ORACLE_KEPT_WEIGHT = 0.16666666666666669
ORACLE_PROBABILITIES = {
    ("c", "c"): 0.7499999999999996,
    ("c", "d"): 0.08333333333333329,
    ("d", "c"): 0.08333333333333329,
    ("d", "d"): 0.08333333333333329,
}

PREP_ONLY = (
    "modes + a b u v g f\n"
    "modes - a b u v g f\n"
    "source (a+,a-) (1/1)/sqrt(2); (b+,b-) (1/1)/sqrt(2)\n"
    "stage preset_eq2 +\n"
    "stage preset_eq2 -\n"
    "discard g+ g- f+ f-\n"
)


@contextmanager
def reported(number: int):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL")
        raise
    print(f"[acceptance] criterion {number}: PASS")


def prep_midpoint():
    circuit = parse(PREP_ONLY)
    kept, weight = engine.postselect(engine.evolve(circuit.source, circuit.stages), circuit.discard)
    return engine.renormalize(kept), weight


def test_criterion_1_exact_postselected_state():
    with reported(1):
        start = time.perf_counter()
        state, _ = prep_midpoint()
        assert state == golden.kept_state
        assert time.perf_counter() - start < 1.0


def test_criterion_2_postselection_weight():
    with reported(2):
        _, weight = prep_midpoint()
        # Independent float oracle first (frozen and live), then exactness.
        assert abs(oracle.KEPT_WEIGHT - ORACLE_KEPT_WEIGHT) == 0.0
        assert abs(float(weight) - ORACLE_KEPT_WEIGHT) <= 1e-12
        assert weight == Fraction(1, 6)


def test_criterion_3_single_sided_structural_zeros():
    with reported(3):
        for name, given, expected in (
            ("hardy_partial_plus.circ", minus("v"), plus("c")),
            ("hardy_partial_minus.circ", plus("v"), minus("c")),
        ):
            circuit = load_circuit(name)
            state = engine.renormalize(
                engine.postselect(engine.evolve(circuit.source, circuit.stages), circuit.discard)[0]
            )
            assert engine.conditional(state, given) == {expected: Fraction(1)}
        assert engine.conditional(golden.plus_measured, minus("v")) == {plus("c"): Fraction(1)}
        assert engine.conditional(golden.minus_measured, plus("v")) == {minus("c"): Fraction(1)}


def test_criterion_4_exact_outcome_table():
    with reported(4):
        table = engine.run(load_circuit("hardy_full.circ"))
        assert dict(table.rows) == {
            (plus("c"), minus("c")): Fraction(3, 4),
            (plus("c"), minus("d")): Fraction(1, 12),
            (plus("d"), minus("c")): Fraction(1, 12),
            (plus("d"), minus("d")): Fraction(1, 12),
        }
        assert table.total() == 1
        for (p, m), probability in table.sorted_rows():
            assert abs(float(probability) - ORACLE_PROBABILITIES[(p.name, m.name)]) <= 1e-12


def test_criterion_5_trajectory_verdicts():
    with reported(5):
        start = time.perf_counter()
        circuit = load_circuit("hardy_full.circ")
        local = paradox.paradox_report(circuit, RuleSet.LOCAL_COUNTERFACTUAL)
        assert support.verdicts(local) == {
            (plus("c"), minus("c")): VERDICT_CONSISTENT,
            (plus("c"), minus("d")): VERDICT_CONSISTENT,
            (plus("d"), minus("c")): VERDICT_CONSISTENT,
            (plus("d"), minus("d")): VERDICT_FORBIDDEN_BUT_PREDICTED,
        }
        assert support.by_outcome(local, (plus("d"), minus("d"))).qm_probability == Fraction(1, 12)
        contextual = paradox.paradox_report(circuit, RuleSet.CONTEXTUAL)
        assert all(row.verdict == VERDICT_CONSISTENT for row in contextual.outcomes)
        assert time.perf_counter() - start < 1.0


def test_criterion_6_reduced_circuit_and_product_test():
    with reported(6):
        circuit = load_circuit("hardy_reduced.circ")
        assert engine.evolve(circuit.source, circuit.stages) == golden.reduced_final
        verdict = paradox.product_test(engine.run(circuit))
        assert not verdict.feasible
        assert verdict.witness == (plus("c"), minus("c"))


def test_criterion_7_property_suites():
    with reported(7):
        rng = random.Random(20260814)

        # Exact norm conservation through 100 random stage pipelines.
        for _ in range(100):
            circuit = parse(support.random_circuit_text(rng))
            assert engine.evolve(circuit.source, circuit.stages).norm_sq() == circuit.source.norm_sq()

        # Linearity of the per-stage substitution.
        transform = beamsplitter(
            Fraction(1, 3), plus("m0"), plus("m1"), plus("m3"), plus("m4")
        )
        for _ in range(100):
            a, b = support.random_state(rng), support.random_state(rng)
            factor = support.random_amplitude(rng)
            assert apply_transform(a.scale(factor) + b, transform) == (
                apply_transform(a, transform).scale(factor) + apply_transform(b, transform)
            )

        # Field axioms on 1000 random amplitude triples; the multiplicative
        # inverse is exercised through 1/z = conj(z)/|z|^2 whenever |z|^2
        # lands in the rationals.
        inverses = 0
        for i in range(1000):
            a = (support.random_simple_amplitude(rng) if i % 3 == 0
                 else support.random_amplitude(rng))
            b = support.random_amplitude(rng)
            c = support.random_amplitude(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + ZERO == a and a * ONE == a
            assert a + (-a) == ZERO
            norm = a.norm_sq()
            if a != ZERO and norm.imag_coeffs == (0, 0, 0, 0) and not any(
                norm.real_coeffs[1:]
            ):
                assert a * a.conjugate() / norm.as_rational() == ONE
                inverses += 1
        assert inverses > 0

        # Canonical text round-trip on the shipped circuit corpus.
        for path in sorted(CIRCUITS.glob("*.circ")):
            if path.name == "bad_mode.circ":
                continue
            circuit = parse(path.read_text(encoding="utf-8"))
            assert parse(render(circuit)) == circuit


def test_criterion_8_seeded_statistics():
    with reported(8):
        start = time.perf_counter()
        table = engine.run(load_circuit("hardy_full.circ"))
        record = montecarlo.run(table, 12000, montecarlo.DEFAULT_SEED)
        assert record.pass_95
        uniform = {key: 3000 for key in table.rows}
        statistic, df, pass_95, pass_99 = montecarlo.chi_square_test(uniform, table)
        assert statistic == 16000.0
        assert df == 3
        assert not pass_95 and not pass_99
        assert time.perf_counter() - start < 1.0
