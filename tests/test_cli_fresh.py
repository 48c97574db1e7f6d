"""The command line in fresh interpreters, where lazy imports actually happen.

In-process tests run after pytest has imported every hardysim module, so
they cannot see a subcommand that forgets to import what it runs.  Here each
command starts its own ``python -m hardysim``, and must print the bytes
recorded in ``perfbench/expected/cli_shipped.json`` (only read) or the same
output, ``error: …`` line and exit code as ``cli.main`` gives in-process.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import support
from hardysim import cli
from hardysim.montecarlo import chi_square_tail

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDED = json.loads(
    (ROOT / "perfbench" / "expected" / "cli_shipped.json").read_text(encoding="utf-8"))
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def fresh(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=ENV,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def test_importing_the_cli_loads_only_what_every_command_needs():
    code, out, err = fresh("-c", "import sys; before = set(sys.modules); import hardysim.cli; "
                                 "print(' '.join(sorted(set(sys.modules) - before)))")
    assert (code, err) == (0, "")
    loaded = set(out.split())
    assert "hardysim.circuitdsl" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "hardysim.paradox",
                         "hardysim.montecarlo"}


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_fresh_process_reproduces_recorded_bytes(command):
    expected = RECORDED[command]
    assert fresh("-m", "hardysim", *command.split()) == (
        expected["code"], expected["stdout"], expected["stderr"])


# A one-rung unbalanced ladder: 1/3 splitters turn each photon's a + ib into
# outcomes with weights 1/2 -+ sqrt(2)/3.
UNBALANCED_LADDER = """\
modes + a b c d
modes - a b c d
source (a+,a-) (1/2); (a+,b-) (1/2)*i; (b+,a-) (1/2)*i; (b+,b-) (-1/2)
stage bs 1/3 a+ b+ -> c+ d+
stage bs 1/3 a- b- -> c- d-
detect c+ d+ c- d-
"""

NO_DETECTORS = "modes + a\nmodes - a\nsource (a+,a-) 1\n"

# A 1/3 splitter sends weight 1/2 - sqrt(2)/3 to the kept c+: the kept
# weight itself is irrational, so no row is reached.
IRRATIONAL_KEPT = """\
modes + a b c d
modes - a
source (a+,a-) (1/1)/sqrt(2); (b+,a-) (1/1)/sqrt(2)*i
stage bs 1/3 a+ b+ -> c+ d+
discard d+
detect c+ a-
"""
KEPT_NOT_RATIONAL = "kept weight (1/2) - (1/3)*sqrt(2) after discarding d+ is not a plain rational\n"

# The kept weight is relative to the source weight, which must be rational.
IRRATIONAL_SOURCE = "modes + a\nmodes - a\nsource (a+,a-) (1/2) + (1/2)*sqrt(2)\ndetect a+ a-\n"
SOURCE_NOT_RATIONAL = "source weight (3/4) + (1/2)*sqrt(2) is not a plain rational\n"

# The first irrational row, named by its outcome pair.  perfbench's ladder-probs
# counts an op as a known failure only when stderr matches
# ``error: .* is not a plain rational\n\Z``, so the line keeps that ending.
NOT_RATIONAL = "(c+,c-) has Born weight (17/36) - (1/3)*sqrt(2), which is not a plain rational\n"


@pytest.mark.parametrize("text, argv, message", [
    (UNBALANCED_LADDER, ["probs"], NOT_RATIONAL),
    (UNBALANCED_LADDER, ["sample", "--n", "10"], NOT_RATIONAL),
    (UNBALANCED_LADDER, ["paradox"], NOT_RATIONAL),
    (UNBALANCED_LADDER, ["paradox", "--rules", "contextual", "--format", "json"], NOT_RATIONAL),
    (NO_DETECTORS, ["paradox"], "requires detectors on both arms"),
    (IRRATIONAL_KEPT, ["probs"], KEPT_NOT_RATIONAL),
    (IRRATIONAL_KEPT, ["evolve", "--format", "csv"], KEPT_NOT_RATIONAL),
    (IRRATIONAL_KEPT, ["paradox", "--rules", "contextual"], KEPT_NOT_RATIONAL),
    (IRRATIONAL_SOURCE, ["probs", "--format", "json"], SOURCE_NOT_RATIONAL),
])
def test_fresh_process_error_paths_match_in_process(text, argv, message, tmp_path, capsys):
    path = tmp_path / "circuit.circ"
    path.write_text(text)
    code = cli.main([*argv, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and message in captured.err
    assert fresh("-m", "hardysim", *argv, str(path)) == (code, captured.out, captured.err)


def test_not_rational_line_keeps_the_pattern_the_benchmark_counts():
    for message in (NOT_RATIONAL, KEPT_NOT_RATIONAL, SOURCE_NOT_RATIONAL):
        assert re.match(r"error: .* is not a plain rational\n\Z", "error: " + message)


# The verdict line of each format; every table, however wide, gets one.
VERDICT = {
    "table": r"chi_square (\S+) df (\d+) pass_95 (\w+) pass_99 (\w+)$",
    "csv": r"# seed=\d+ n=\d+ chi_square=(\S+) df=(\d+) pass_95=(\w+) pass_99=(\w+)$",
    "json": r'"chi_square": (\S+),\s+"df": (\d+),\s+"pass_95": (\w+),\s+"pass_99": (\w+)',
}


def sample_verdict(out, fmt):
    """``(df, pass_95, pass_99)`` as printed, checked against the tail of the
    printed statistic."""
    statistic, df, *flags = re.search(VERDICT[fmt], out, re.M).groups()
    tail = chi_square_tail(float(statistic), int(df))
    passes = [flag in ("True", "true") for flag in flags]
    assert passes == [tail >= 0.05, tail >= 0.01]
    return int(df), *passes


@pytest.mark.parametrize("fmt", sorted(VERDICT))
def test_sixteen_outcomes_sample_in_a_fresh_process(fmt, tmp_path, capsys):
    path = tmp_path / "sixteen.circ"
    path.write_text(support.SIXTEEN_OUTCOMES)
    code = cli.main(["sample", "--format", fmt, str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert sample_verdict(captured.out, fmt) == (15, True, True)
    assert fresh("-m", "hardysim", "sample", "--format", fmt, str(path)) == (
        0, captured.out, "")


def test_sample_on_a_width_4_ladder(tmp_path, capsys, monkeypatch):
    # sample-heavy's shapes: 12 to 16 outcomes, so 11 to 15 degrees of freedom.
    path = tmp_path / "ladder.circ"
    path.write_text(support.perfbench_ladder(monkeypatch, 4, 8, False, True, "cli-fresh"))
    argv = ["sample", "--n", "50000", str(path)]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    rows = out.splitlines()[:-1]
    assert err == "" and 12 <= len(rows) <= 16
    assert sum(int(row.split()[1]) for row in rows) == 50000
    assert sample_verdict(out, "table")[0] == len(rows) - 1
    assert fresh("-m", "hardysim", *argv) == (0, out, "")
