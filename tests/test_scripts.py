"""The scripts in ``scripts/`` run to completion, each in a fresh interpreter.

They call the library directly (``engine.probabilities``,
``OutcomeTable.total``, ``montecarlo.run``), so a change to those names
must keep them working.  Each script puts ``src`` on its own path.
"""

import pathlib
import subprocess
import sys

import pytest

import support

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPTS = {
    "hardy_walkthrough": ([], "forbidden-but-predicted: (d+,d-) qm=1/12 feasible=0",
                          "Post-selection on g/f keeps weight 1/6 of all runs."),
    "convergence_sweep": (["--sizes", "100", "--seeds", "2"],
                          "n,seeds,worst_abs_deviation,mean_chi_square,pass_95_rate"),
    "code_lines": ([], "total"),
}


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_exits_0(name):
    args, *expected = SCRIPTS[name]
    out = run_script(name, *args)
    for line in expected:
        assert line in out, line


def test_convergence_sweep_on_a_sixteen_row_table(tmp_path):
    path = tmp_path / "sixteen.circ"
    path.write_text(support.SIXTEEN_OUTCOMES)
    out = run_script("convergence_sweep", "--circuit", str(path), "--sizes", "100", "--seeds", "2")
    assert out.startswith(SCRIPTS["convergence_sweep"][1] + "\n100,2,")
