"""Seeded "ladder" circuits: brick layers of splitters with random quarter-turn phases.

A ladder of width W and depth L carries W live modes per arm through L
layers.  Every layer pairs all W modes on splitters (layers alternate
between the pairings (0,1)(2,3)... and (1,2)(3,4)...(W-1,0)), so every
path crosses the same number of splitters.  Between layers each mode gets a
random phase of 1 to 3 quarter turns with probability 1/2.

The source is a correlated pair state over W modes with amplitudes
i**k / sqrt(W).  A post-selected ladder instead starts from 2W source modes
and a layer of 1/3 splitters that merges modes 2j and 2j+1 into the kept
mode r_j and the discarded mode x_j; both modes of a merged pair carry the
same source phase, so the kept weight is exactly 1/18.

A balanced ladder uses 1/2 splitters in its layers and has rational Born
weights.  An unbalanced one draws 1/3 or 2/3 per splitter; its Born
weights involve sqrt(2), which hardysim cannot tabulate (it raises
NotRational).  W must be even so that each layer pairs every mode.

The same (shape, seed) always gives identical text.  ``Ladder`` keeps the
structure as plain data so that ``oracle.py`` can rebuild the physics
without reading the circuit text.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

ARMS = ("+", "-")


@dataclass(frozen=True)
class Ladder:
    width: int
    depth: int
    postselect: bool
    balanced: bool
    # (mode name, quarter turns) per source pair; every pair has amplitude
    # i**k / sqrt(len(source)) and puts the same mode on both arms.
    source: tuple[tuple[str, int], ...]
    # ("bs", arm, t, in1, in2, out1, out2) or ("phase", arm, k, mode)
    stages: tuple[tuple, ...]
    modes: tuple[str, ...]
    discard: tuple[str, ...]
    detect: tuple[str, ...]

    @property
    def name(self) -> str:
        return (f"w{self.width}d{self.depth}{'p' if self.postselect else 'n'}"
                f"{'b' if self.balanced else 'u'}")

    def text(self) -> str:
        lines = [f"# ladder {self.name}"]
        lines += [f"modes {arm} " + " ".join(self.modes) for arm in ARMS]
        amp = _inv_sqrt_text(len(self.source))
        lines.append("source " + "; ".join(
            f"({mode}+,{mode}-) {_phase_text(amp, k)}" for mode, k in self.source))
        for stage in self.stages:
            if stage[0] == "bs":
                _, arm, t, in1, in2, out1, out2 = stage
                lines.append(f"stage bs {t.numerator}/{t.denominator}"
                             f" {in1}{arm} {in2}{arm} -> {out1}{arm} {out2}{arm}")
            else:
                _, arm, k, mode = stage
                lines.append(f"stage phase {k} {mode}{arm}")
        if self.discard:
            lines.append("discard " + " ".join(f"{m}{arm}" for arm in ARMS for m in self.discard))
        lines.append("detect " + " ".join(f"{m}{arm}" for arm in ARMS for m in self.detect))
        return "\n".join(lines) + "\n"


def _inv_sqrt_text(n: int) -> tuple[int, int, int]:
    """1/sqrt(n) = (s/n)*sqrt(k) with n = s*s*k, k squarefree."""
    s, k = 1, n
    f = 2
    while f * f <= k:
        while k % (f * f) == 0:
            k //= f * f
            s *= f
        f += 1
    g = math.gcd(s, n)
    return s // g, n // g, k


def _phase_text(amp: tuple[int, int, int], quarter_turns: int) -> str:
    num, den, k = amp
    if quarter_turns >= 2:
        num = -num
    text = f"({num}/{den})"
    if k != 1:
        text += f"*sqrt({k})"
    if quarter_turns % 2:
        text += "*i"
    return text


def generate(width: int, depth: int, postselect: bool, balanced: bool, seed) -> Ladder:
    """The ladder of this shape for ``seed`` (any value ``random.Random`` accepts)."""
    if width < 2 or width % 2:
        raise ValueError(f"ladder width must be even and at least 2, got {width}")
    rng = random.Random(f"ladder:{width}:{depth}:{postselect}:{balanced}:{seed}")
    stages: list[tuple] = []
    modes: list[str] = []
    live = {arm: [f"r{i}" for i in range(width)] for arm in ARMS}
    if postselect:
        phases = [rng.randrange(4) for _ in range(width)]
        source = tuple((f"s{i}", phases[i // 2]) for i in range(2 * width))
        modes += [m for m, _ in source]
        for arm in ARMS:
            for j in range(width):
                stages.append(("bs", arm, Fraction(1, 3), f"s{2 * j}", f"s{2 * j + 1}",
                               f"r{j}", f"x{j}"))
        discard = tuple(f"x{j}" for j in range(width))
        modes += live["+"] + list(discard)
    else:
        source = tuple((f"r{i}", rng.randrange(4)) for i in range(width))
        discard = ()
        modes += live["+"]
    for layer in range(1, depth + 1):
        outs = [f"k{layer}_{i}" for i in range(width)]
        modes += outs
        offset = (layer - 1) % 2
        for arm in ARMS:
            for i in range(width):
                if rng.random() < 0.5:
                    stages.append(("phase", arm, rng.randint(1, 3), live[arm][i]))
            for j in range(width // 2):
                a, b = (offset + 2 * j) % width, (offset + 2 * j + 1) % width
                t = Fraction(1, 2) if balanced else rng.choice((Fraction(1, 3), Fraction(2, 3)))
                stages.append(("bs", arm, t, live[arm][a], live[arm][b], outs[a], outs[b]))
            live[arm] = outs
    return Ladder(width, depth, postselect, balanced, source, tuple(stages), tuple(modes),
                  discard, tuple(live["+"]))
