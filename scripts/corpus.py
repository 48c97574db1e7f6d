"""The fixed, seeded corpus of CLI runs that ``unreached.py`` and ``diff_parent.py`` share.

    paths = corpus.write(directory, quick=False)   # circuit name -> file written there
    runs = corpus.runs(paths)                      # every argv the corpus runs
    results = corpus.run_in_process(runs)          # [stdout, stderr, exit code] per argv

The circuits, in this order:

* the shipped ``circuits/*.circ``;
* 48 ``perfbench/ladder.py`` ladders: widths 2 and 4, depths 1-3,
  post-selected or not, balanced or not, on two seeds;
* 80 ``tests/support.random_circuit_text`` circuits, each detecting its
  exits, every third one discarding one exit;
* named edge circuits: the local audit's irrational single-sided weights,
  the ``discard c+`` source, the 16-outcome table, an ``unsupported-radical``
  splitter, a source whose terms cancel, an amplitude syntax error, a
  duplicate mode, and a 5,000-digit integer in a source rational, a ``sqrt``
  radicand, a splitter denominator and a phase count.  Each overlong literal
  has more digits than ``int()`` converts, so the parser never tries to
  factor it.

Each circuit runs ``check``; ``evolve``, ``probs`` and ``sample`` in every
format; ``paradox`` under both rule sets in every format; and ``sample
--n 3000 --seed 5``.  ``quick`` keeps the shipped and edge circuits with
two ladders and four random circuits: a slice that enters the same
functions as the whole corpus.

Nothing here imports ``hardysim`` at import time, so a child interpreter can
load this module next to another tree's ``src`` and run the same corpus
there.  Building the circuits reads ``tests/support.py``, which imports this
tree's ``hardysim``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import re
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LADDER_SHAPES = [(width, depth, postselect, balanced)
                 for width in (2, 4) for depth in (1, 2, 3)
                 for postselect in (False, True) for balanced in (False, True)]
LADDER_SEEDS = ("corpus-a", "corpus-b")
RANDOM_SEEDS = range(33000, 33080)

_HEAD = ("modes + u v c d w x\nmodes - u v c d w x\n"
         "source (u+,u-) (1/1)/sqrt(2); (v+,v-) (1/1)/sqrt(2)\n")
_ONE_MODE = "modes + u\nmodes - u\n"
_LONG = "1" + "0" * 4999

EDGE = {
    # Contextual rules tabulate it; local rules meet an irrational single-sided weight.
    "local_irrational": (
        "modes + a b c d\nmodes - a b c d\n"
        "source (a+,a-) (1/3)*sqrt(3); (a+,b-) (1/2)*i; (b+,a-) (1/3)*sqrt(3); (b+,b-) (-1/2)*i\n"
        "stage bs 1/2 a+ b+ -> c+ d+\nstage bs 2/3 a- b- -> c- d-\ndetect c+ d+ c- d-\n"),
    # Rational Born weights, but 1/sqrt(kept weight) leaves the basis.
    "discard_c": ("modes + a b c\nmodes - a b c\n"
                  "source (a+,a-) (1/1); (b+,a-) (2/1); (c+,a-) (1/1)\n"
                  "discard c+\ndetect a+ b+ a-\n"),
    "unsupported_radical": _HEAD + "stage bs 1/5 u+ v+ -> c+ d+\n",
    "cancelled_source": _ONE_MODE + "source (u+,u-) (1/2) - (1/2)\n",
    "amplitude_syntax": _ONE_MODE + "source (u+,u-) (1/2) @\n",
    "duplicate_mode": "modes + u v u\nmodes - u\nsource (u+,u-) (1/1)\n",
    "long_rational": _ONE_MODE + f"source (u+,u-) (1/{_LONG})\n",
    "long_radicand": _ONE_MODE + f"source (u+,u-) (1/2)*sqrt({_LONG})\n",
    "long_splitter": _HEAD + f"stage bs 1/{_LONG} u+ v+ -> c+ d+\n",
    "long_phase": _HEAD + f"stage phase {_LONG} u+\n",
}

FORMATS = ("table", "json", "csv")


def _support():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import support
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return support


def _ladder_module():
    """``perfbench/ladder.py``, loaded without writing bytecode into the benchmark's tree."""
    spec = importlib.util.spec_from_file_location("corpus_ladder", ROOT / "perfbench" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass needs the module registered
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
        del sys.modules[spec.name]
    return module


_BS_RE = re.compile(r"stage bs \S+ (\w+)([+-]) (\w+)[+-] -> (\w+)[+-] (\w+)[+-]")


def _with_exits(text: str, rng: random.Random, discard: bool) -> str:
    """``text`` plus a ``detect`` line naming every exit, one of them discarded
    instead when ``discard`` is set."""
    live = {"+": set(), "-": set()}
    for p, m in re.findall(r"\((\w+)\+,(\w+)-\)", text):
        live["+"].add(p)
        live["-"].add(m)
    for in1, arm, in2, out1, out2 in _BS_RE.findall(text):
        live[arm] -= {in1, in2}
        live[arm] |= {out1, out2}
    exits = [f"{name}{arm}" for arm in "+-" for name in sorted(live[arm])]
    lines = []
    if discard:
        dropped = rng.choice(exits)
        exits.remove(dropped)
        lines.append(f"discard {dropped}")
    lines.append("detect " + " ".join(exits))
    return text + "\n".join(lines) + "\n"


def circuits(quick: bool = False) -> dict[str, str]:
    """Circuit name -> text, in corpus order."""
    texts = {path.stem: path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "circuits").glob("*.circ"))}
    ladder = _ladder_module()
    shapes = [(LADDER_SHAPES[3], "corpus-a"), (LADDER_SHAPES[8], "corpus-b")] if quick else [
        (shape, seed) for seed in LADDER_SEEDS for shape in LADDER_SHAPES]
    for shape, seed in shapes:
        built = ladder.generate(*shape, seed)
        texts[f"ladder_{built.name}_{seed}"] = built.text()
    support = _support()
    for seed in RANDOM_SEEDS[:4] if quick else RANDOM_SEEDS:
        rng = random.Random(seed)
        texts[f"random_{seed}"] = _with_exits(support.random_circuit_text(rng), rng, seed % 3 == 0)
    texts["sixteen_outcomes"] = support.SIXTEEN_OUTCOMES
    texts.update(EDGE)
    return texts


def write(directory: Path, quick: bool = False) -> dict[str, Path]:
    """Write every corpus circuit into ``directory``; circuit name -> path."""
    paths = {}
    for name, text in circuits(quick).items():
        paths[name] = directory / f"{name}.circ"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def runs(paths: dict[str, Path]) -> list[list[str]]:
    """Every argv the corpus runs, circuit by circuit."""
    out = []
    for path in map(str, paths.values()):
        out.append(["check", path])
        for command in ("evolve", "probs", "sample"):
            out += [[command, path, "--format", fmt] for fmt in FORMATS]
        out += [["paradox", path, "--rules", rules, "--format", fmt]
                for rules in ("local", "contextual") for fmt in FORMATS]
        out.append(["sample", path, "--n", "3000", "--seed", "5"])
    return out


def run_in_process(argvs: list[list[str]]) -> list[list]:
    """``[stdout, stderr, exit code]`` of ``hardysim.cli.main`` on each argv.  An
    exception that escapes ``main`` is recorded as exit code ``None`` with its
    last traceback line on stderr."""
    from hardysim import cli

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a result to compare, not a reason to stop
                code = None
                err.write(traceback.format_exc().splitlines()[-1] + "\n")
        results.append([out.getvalue(), err.getvalue(), code])
    return results
