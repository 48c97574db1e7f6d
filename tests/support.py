"""Seeded generators for property tests (random amplitudes, states, circuits),
and lookups into a paradox report's rows.

Circuits are generated as text so the property suites exercise the parser
on every run.  The construction keeps track of which labels are live per
arm, so every generated file is valid by construction: splitters only
consume live labels and only produce fresh ones, staying within six mode
names per arm.
"""

import random
from fractions import Fraction

from hardysim.amplitude import RadicalComplex
from hardysim.state import TwoPhotonState, minus, plus

MODE_POOL = ("m0", "m1", "m2", "m3", "m4", "m5")

# Transmissivities whose sqrt(t) and sqrt(1-t) both stay inside the
# supported radical basis.
SPLIT_RATIOS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
                Fraction(1, 4), Fraction(3, 4), Fraction(1, 9), Fraction(8, 9))

AMP_TEXTS = (
    "(1/1)",
    "(-1/2)",
    "(2/3)*i",
    "(1/1)/sqrt(2)",
    "(1/2)*sqrt(2)*i",
    "(-1/3)*sqrt(3)",
    "(1/6)*sqrt(6)",
    "(1/2) + (1/2)*i",
    "(1/4)*sqrt(2) - (1/3)*i",
)


def random_amplitude(rng: random.Random) -> RadicalComplex:
    """A random exact amplitude with small rational coefficients."""
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(8)]
    text_parts = []
    for coeff, radical in zip(coeffs[:4], (1, 2, 3, 6)):
        text_parts.append(f"({coeff.numerator}/{coeff.denominator})*sqrt({radical})")
    for coeff, radical in zip(coeffs[4:], (1, 2, 3, 6)):
        text_parts.append(f"({coeff.numerator}/{coeff.denominator})*sqrt({radical})*i")
    return RadicalComplex.parse(" + ".join(text_parts))


def random_simple_amplitude(rng: random.Random) -> RadicalComplex:
    """A nonzero amplitude of the form (q + r*i)*sqrt(k): its squared
    modulus (q^2 + r^2)*k is rational, so it has an exact inverse."""
    k = rng.choice((1, 2, 3, 6))
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    r = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    if q == 0 and r == 0:
        q = Fraction(1)
    return RadicalComplex.parse(
        f"({q.numerator}/{q.denominator})*sqrt({k})"
        f" + ({r.numerator}/{r.denominator})*sqrt({k})*i"
    )


def random_state(rng: random.Random, names=MODE_POOL[:3]) -> TwoPhotonState:
    entries = []
    for _ in range(rng.randint(1, 4)):
        entries.append((
            (plus(rng.choice(names)), minus(rng.choice(names))),
            random_amplitude(rng),
        ))
    return TwoPhotonState(entries)


def _arm_stages(rng: random.Random, arm: str, live: set) -> list:
    lines = []
    fresh = [name for name in MODE_POOL if name not in live]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("bs", "bs", "phase"))
        if kind == "bs" and len(live) >= 2 and len(fresh) >= 2:
            in1, in2 = rng.sample(sorted(live), 2)
            out1, out2 = fresh[0], fresh[1]
            ratio = rng.choice(SPLIT_RATIOS)
            lines.append(
                f"stage bs {ratio.numerator}/{ratio.denominator}"
                f" {in1}{arm} {in2}{arm} -> {out1}{arm} {out2}{arm}"
            )
            live -= {in1, in2}
            live |= {out1, out2}
            fresh = fresh[2:]
        elif kind == "phase" and live:
            target = rng.choice(sorted(live))
            lines.append(f"stage phase {rng.randint(0, 3)} {target}{arm}")
    return lines


def random_circuit_text(rng: random.Random) -> str:
    """Valid circuit text over at most six modes per arm, no post-selection."""
    plus_sources = sorted(rng.sample(MODE_POOL[:3], rng.randint(1, 2)))
    minus_sources = sorted(rng.sample(MODE_POOL[:3], rng.randint(1, 2)))
    entries = {
        (p, m): rng.choice(AMP_TEXTS)
        for p in plus_sources
        for m in minus_sources
    }
    lines = [
        "modes + " + " ".join(MODE_POOL),
        "modes - " + " ".join(MODE_POOL),
        "source " + "; ".join(f"({p}+,{m}-) {amp}" for (p, m), amp in entries.items()),
    ]
    plus_stages = _arm_stages(rng, "+", set(plus_sources))
    minus_stages = _arm_stages(rng, "-", set(minus_sources))
    # Interleave the arms randomly but keep each arm's own order, so every
    # stage still consumes only labels that are live at that point.
    while plus_stages or minus_stages:
        take_plus = plus_stages and (not minus_stages or rng.random() < 0.5)
        lines.append(plus_stages.pop(0) if take_plus else minus_stages.pop(0))
    return "\n".join(lines) + "\n"


def by_outcome(report, pair):
    """The report's row for one detector pair."""
    for row in report.outcomes:
        if row.outcome == pair:
            return row
    raise KeyError(str(pair))


def verdicts(report) -> dict:
    """Detector pair -> verdict, in row order."""
    return {row.outcome: row.verdict for row in report.outcomes}
