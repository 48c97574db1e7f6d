"""The four workloads: their inputs, one op, and the check of every op's output.

Each workload runs in rounds.  A round is a fixed multiset of ops whose
order comes from the workload seed, so every run, whatever its seed, does
the same mix of work, and the share of ops that fail at a known defect is
exact at every round boundary.

Known defects at the seed commit stay in the mix and count as failed ops:

* ``ladder-probs``: unbalanced ladders raise NotRational (their Born
  weights lie in Q(sqrt2, sqrt3) but are not rational);
* ``sample-heavy``: tables with 10 or more rows raise
  DegreesOfFreedomOutOfRange in the chi-square test.

A fix shows as a lower failed count; its output is then checked like any
other op's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import resource
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import ladder
from hardysim import circuitdsl, cli, engine, montecarlo, paradox

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).resolve().parent / "expected"
FORMATS = ("table", "json", "csv")
SHIPPED = ("hardy_full", "hardy_partial_plus", "hardy_partial_minus", "hardy_reduced")
RULES = ("local", "contextual")

OK, KNOWN, FAILED = "ok", "known", "failed"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], workdir: Path) -> tuple[int, bytes, bytes, int]:
    """Run one child to completion: (exit code, stdout, stderr, its peak RSS in KiB)."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ])
    _, status, usage = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status), out_path.read_bytes(), err_path.read_bytes(),
            usage.ru_maxrss)


def capture_main(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    label: str
    args: tuple


@dataclass
class Result:
    op: Op
    seconds: float
    value: object = None
    error: str | None = None  # class name of the exception the op raised
    kernel: float = 0.0  # reference-kernel seconds measured around the op
    status: str = ""
    detail: str = ""


class Workload:
    name = ""
    # Rounds every run makes, however long they take: enough for 100 ops
    # completed at the seed, so the latency p90 has 10 samples beyond it.
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def _rng(self, *key) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + key)))

    def setup(self):
        """Make and parse the workload's inputs; ``setup_s`` times this in a fresh process."""

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, tracer=None):
        raise NotImplementedError

    def check(self, op: Op, value, error: str | None) -> tuple[str, str]:
        """(OK, "") or (KNOWN, error class) or (FAILED, why)."""
        raise NotImplementedError

    def finish(self, results) -> list[str]:
        """Checks across ops; returns problems."""
        return []

    def peak_rss_kib(self, results) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra_metrics(self, results, wall: float) -> dict[str, tuple[float, str]]:
        return {}


# --------------------------------------------------------------- cli-shipped

def cli_mix() -> list[list[str]]:
    """Every subcommand x every --format x both --rules on the valid shipped
    circuits, plus ``check`` on the circuit with a positioned diagnostic."""
    mix = []
    for name in SHIPPED:
        path = f"circuits/{name}.circ"
        mix.append(["check", path])
        for command in ("evolve", "probs", "sample"):
            mix += [[command, "--format", fmt, path] for fmt in FORMATS]
        for rules in RULES:
            mix += [["paradox", "--rules", rules, "--format", fmt, path] for fmt in FORMATS]
    mix.append(["check", "circuits/bad_mode.circ"])
    return mix


class CliShipped(Workload):
    name = "cli-shipped"
    min_rounds = 2

    def setup(self):
        self.expected = json.loads((EXPECTED / "cli_shipped.json").read_text())
        self.mix = cli_mix()
        for name in SHIPPED:
            circuitdsl.parse((ROOT / "circuits" / f"{name}.circ").read_text())
        try:
            circuitdsl.parse((ROOT / "circuits" / "bad_mode.circ").read_text())
        except circuitdsl.CircuitError:
            pass
        else:
            raise RuntimeError("bad_mode.circ parsed without a diagnostic")

    def round(self, index):
        order = list(self.mix)
        self._rng(index).shuffle(order)
        return [Op(" ".join(argv), tuple(argv)) for argv in order]

    def run(self, op, tracer=None):
        if tracer is None:
            return spawn([sys.executable, "-m", "hardysim", *op.args], self.workdir)
        spans_path = self.workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        result = spawn([sys.executable, str(Path(__file__).parent / "traced_cli.py"),
                        str(spans_path), *op.args], self.workdir)
        tracer.extend(json.loads(spans_path.read_text()))
        return result

    def check(self, op, value, error):
        if error:
            return FAILED, error
        code, out, err, _ = value
        want = self.expected[op.label]
        if (code, out.decode(), err.decode()) != (want["code"], want["stdout"], want["stderr"]):
            return FAILED, f"output differs from the recorded bytes (exit {code})"
        return OK, ""

    def peak_rss_kib(self, results):
        return max(r.value[3] for r in results if r.value is not None)


# -------------------------------------------------------------- ladder-probs

# One round: (width, depth, post-selected, balanced).  Widths 4-8 and depths
# 4-12, about half post-selected; two of the fifteen are unbalanced.  With
# 13 completed ops per round, the median and the 90th percentile fall inside
# one shape's ops rather than on the edge between two, where they would be
# the extreme of a handful of samples.
PROBS_ROUND = (
    (4, 4, False, True), (4, 6, False, True), (4, 8, False, True),
    (4, 12, False, True), (6, 4, False, True), (6, 6, False, True),
    (8, 4, False, True), (6, 4, False, False),
    (4, 4, True, True), (4, 5, True, True), (4, 6, True, True),
    (4, 8, True, True), (4, 10, True, True), (6, 4, True, True),
    (4, 4, True, False),
)

_NOT_RATIONAL = re.compile(r"error: .* is not a plain rational\n\Z")
_PROBS_ROW = re.compile(r"\(([a-z0-9_]+)\+,([a-z0-9_]+)-\) (-?\d+(?:/\d+)?)\Z")


class LadderProbs(Workload):
    name = "ladder-probs"
    min_rounds = 8

    def _ladder(self, index: int, slot: int) -> ladder.Ladder:
        width, depth, post, balanced = PROBS_ROUND[slot]
        return ladder.generate(width, depth, post, balanced, f"{self.seed}:{index}:{slot}")

    def _write(self, lad: ladder.Ladder, index: int, slot: int) -> str:
        path = self.workdir / f"probs-{index}-{slot}.circ"
        path.write_text(lad.text())
        return str(path)

    def setup(self):
        # Round -1 is never run, so no op reuses a circuit parsed here.
        for slot in range(len(PROBS_ROUND)):
            circuitdsl.parse(self._ladder(-1, slot).text())

    def round(self, index):
        slots = list(range(len(PROBS_ROUND)))
        self._rng(index).shuffle(slots)
        ops = []
        for slot in slots:
            lad = self._ladder(index, slot)
            ops.append(Op(f"{lad.name}@{index}", (lad, self._write(lad, index, slot))))
        return ops

    def run(self, op, tracer=None):
        return capture_main(["probs", op.args[1]])

    def check(self, op, value, error):
        import oracle  # numpy loads only after the timed loop has read peak RSS

        if error:
            return FAILED, error
        lad = op.args[0]
        code, out, err = value
        if code == 1 and not lad.balanced and _NOT_RATIONAL.match(err):
            return KNOWN, "NotRational"
        lines = out.splitlines()
        if code != 0 or err or not lines or not lines[0].startswith("kept_weight "):
            return FAILED, f"exit {code}: {err.strip() or out[:80]!r}"
        kept = Fraction(lines[0].split()[1])
        if not 0 < kept <= 1:
            return FAILED, f"kept_weight {kept} outside (0,1]"
        rows = {}
        for line in lines[1:]:
            match = _PROBS_ROW.match(line)
            if match is None:
                return FAILED, f"unreadable row {line!r}"
            rows[(match.group(1), match.group(2))] = float(Fraction(match.group(3)))
        problem = oracle.mismatch(lad, float(kept), rows)
        return (FAILED, problem) if problem else (OK, "")


# ------------------------------------------------------------ ladder-paradox

# Post-selected balanced ladders (width, depth) with 64 to 2048 joint
# assignments, generated once from a fixed family seed so their verdicts can
# be recorded; the workload seed only orders them.  A round audits each
# ladder under both rule sets and hardy_full under one, alternating between
# rounds: 15 ops, for the same reason as PROBS_ROUND has 13 that complete.
PARADOX_SHAPES = ((4, 2), (4, 2), (2, 3), (2, 3), (4, 3), (2, 4), (2, 5))
PARADOX_FAMILY_SEED = "paradox-set"
_PARADOX_ROW = re.compile(r"([a-z-]+): \(([a-z0-9_]+[+-]),([a-z0-9_]+[+-])\) qm=\S+ feasible=(\d+)\Z")


def paradox_circuits() -> dict[str, str]:
    """Circuit name -> text for the audited set."""
    out = {}
    for i, (width, depth) in enumerate(PARADOX_SHAPES):
        lad = ladder.generate(width, depth, True, True, f"{PARADOX_FAMILY_SEED}:{i}")
        out[f"{lad.name}-{i}"] = lad.text()
    out["hardy_full"] = (ROOT / "circuits" / "hardy_full.circ").read_text()
    return out


def parse_paradox_table(out: str):
    """[(plus, minus, verdict, feasible count)] from ``paradox --format table`` output."""
    rows = []
    for line in out.splitlines()[1:]:
        match = _PARADOX_ROW.match(line)
        if match is None:
            raise ValueError(f"unreadable paradox row {line!r}")
        rows.append((match.group(2), match.group(3), match.group(1), int(match.group(4))))
    return rows


class LadderParadox(Workload):
    name = "ladder-paradox"
    min_rounds = 7

    def setup(self):
        self.expected = json.loads((EXPECTED / "ladder_paradox.json").read_text())
        self.paths = {}
        for name, text in paradox_circuits().items():
            path = self.workdir / f"{name}.circ"
            path.write_text(text)
            circuitdsl.parse(text)
            self.paths[name] = str(path)

    def round(self, index):
        names = sorted(self.paths)
        self._rng(index).shuffle(names)
        pairs = [(name, rules) for name in names
                 for rules in ((RULES[index % 2],) if name == "hardy_full" else RULES)]
        return [Op(f"{name} {rules}", (name, rules)) for name, rules in pairs]

    def run(self, op, tracer=None):
        name, rules = op.args
        return capture_main(["paradox", "--rules", rules, self.paths[name]])

    def check(self, op, value, error):
        if error:
            return FAILED, error
        name, rules = op.args
        code, out, err = value
        if code != 0 or err or out.splitlines()[:1] != [f"rules {rules}"]:
            return FAILED, f"exit {code}: {err.strip()!r}"
        try:
            rows = parse_paradox_table(out)
        except ValueError as exc:
            return FAILED, str(exc)
        verdicts = [[p, m, verdict] for p, m, verdict, _ in rows]
        if verdicts != self.expected[name][rules]:
            return FAILED, "verdicts differ from the recorded ones"
        if name == "hardy_full":
            want = "forbidden-but-predicted" if rules == "local" else "consistent"
            if ["d+", "d-", want] not in verdicts:
                return FAILED, f"(d+,d-) is not {want} under {rules} rules"
        return OK, ""

    def finish(self, results):
        feasible: dict[tuple[str, str], dict] = {}
        for r in results:
            if r.status == OK:
                name, rules = r.op.args
                for p, m, _, count in parse_paradox_table(r.value[1]):
                    feasible.setdefault((name, rules), {})[(p, m)] = count
        problems = []
        for name in self.paths:
            local, contextual = feasible.get((name, "local")), feasible.get((name, "contextual"))
            if local and contextual:
                for pair, count in local.items():
                    if contextual.get(pair, 0) < count:
                        problems.append(f"{name} {pair}: contextual feasible < local feasible")
        return problems

    def extra_metrics(self, results, wall):
        judged = {}
        for name, path in self.paths.items():
            graph = paradox.build_graph(circuitdsl.parse(Path(path).read_text()))
            judged[name] = len(paradox.enumerate_assignments(graph))
        done = sum(judged[r.op.args[0]] for r in results if r.status == OK)
        return {"assignments_per_s": (done / wall, "1/s")}


# -------------------------------------------------------------- sample-heavy

SAMPLE_N = 50_000
# Width-4 ladders give 12 to 16 rows, past the 8 degrees of freedom the
# stored chi-square critical values cover.
SAMPLE_LADDERS = ((4, 8, False, True), (4, 4, True, True))
PIN = ("hardy_full", 12000, 0x5EED, "1.560000")
_MASK64 = (1 << 64) - 1


def reference_counts(rows, n: int, seed: int) -> list[int]:
    """SplitMix64 draws mapped to rows by exact ceil(cumulative * 2**53) cuts,
    written from the documented algorithm without hardysim code."""
    total = sum(p for _, p in rows)
    cuts, cumulative = [], Fraction(0)
    for _, p in rows:
        cumulative += p / total
        scaled = cumulative * (1 << 53)
        cuts.append(-(-scaled.numerator // scaled.denominator))
    cuts[-1] = 1 << 53
    counts = [0] * len(rows)
    state = seed & _MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        counts[bisect_right(cuts, (z ^ (z >> 31)) >> 11)] += 1
    return counts


class SampleHeavy(Workload):
    name = "sample-heavy"
    min_rounds = 25

    def setup(self):
        self.tables = {}
        for name in SHIPPED:
            circuit = circuitdsl.parse((ROOT / "circuits" / f"{name}.circ").read_text())
            self.tables[name] = engine.run(circuit)
        for shape in SAMPLE_LADDERS:
            lad = ladder.generate(*shape, f"{self.name}:{self.seed}")
            self.tables[lad.name] = engine.run(circuitdsl.parse(lad.text()))

    def round(self, index):
        names = sorted(self.tables)
        rng = self._rng(index)
        rng.shuffle(names)
        return [Op(name, (name, rng.getrandbits(64))) for name in names]

    def run(self, op, tracer=None):
        name, seed = op.args
        return montecarlo.run(self.tables[name], SAMPLE_N, seed)

    def check(self, op, value, error):
        rows = len(self.tables[op.args[0]].rows)
        if error == "DegreesOfFreedomOutOfRange" and rows >= 10:
            return KNOWN, error
        if error:
            return FAILED, error
        if sum(value.counts.values()) != SAMPLE_N or value.n != SAMPLE_N:
            return FAILED, "counts do not sum to n"
        return OK, ""

    def finish(self, results):
        problems = []
        seen = set()
        for r in results:
            name, seed = r.op.args
            if r.status != OK or name in seen:
                continue
            seen.add(name)
            rows = self.tables[name].sorted_rows()
            if [r.value.counts[key] for key, _ in rows] != reference_counts(rows, SAMPLE_N, seed):
                problems.append(f"{name} seed {seed:#x}: counts differ from the reference sampler")
        name, n, seed, want = PIN
        got = f"{montecarlo.run(self.tables[name], n, seed).chi_square:.6f}"
        if got != want:
            problems.append(f"{name} n={n} seed={seed:#x}: chi_square {got}, expected {want}")
        return problems

    def extra_metrics(self, results, wall):
        done = sum(1 for r in results if r.status == OK)
        return {"draws_per_s": (done * SAMPLE_N / wall, "1/s")}


WORKLOADS = {w.name: w for w in (CliShipped, LadderProbs, LadderParadox, SampleHeavy)}
