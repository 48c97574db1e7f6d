"""The scripts in ``scripts/`` run to completion, each in a fresh interpreter.

They call the library directly (``engine.probabilities``,
``OutcomeTable.total``, ``montecarlo.run``), so a change to those names
must keep them working.  Each script puts ``src`` on its own path.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPTS = {
    "hardy_walkthrough": ([], "forbidden-but-predicted: (d+,d-) qm=1/12 feasible=0"),
    "convergence_sweep": (["--sizes", "100", "--seeds", "2"],
                          "n,seeds,worst_abs_deviation,mean_chi_square,pass_95_rate"),
    "code_lines": ([], "total"),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_exits_0(name):
    args, expected = SCRIPTS[name]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / f"{name}.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert expected in proc.stdout
