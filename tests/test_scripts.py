"""The scripts in ``scripts/`` run to completion, each in a fresh interpreter.

They call the library directly (``engine.probabilities``,
``OutcomeTable.total``, ``montecarlo.run``), so a change to those names
must keep them working.  Each script puts ``src`` on its own path.

``unreached.py --quick`` is the gate that keeps ``src`` to what a command
runs plus the declared library API: it exits 1 on any disagreement.
"""

import importlib.util
import json
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
    "unreached": (["--quick"], "functions in src/hardysim\n", "library API   circuitdsl.render"),
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


def test_unreached_names_each_kind_of_fault(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("unreached", ROOT / "scripts" / "unreached.py")
    unreached = importlib.util.module_from_spec(spec)
    # The script puts src and scripts on the path; restore it afterwards.
    monkeypatch.setattr(sys, "path", [str(ROOT / "scripts"), *sys.path])
    spec.loader.exec_module(unreached)
    existing = {"m.f", "m.g", "m.h"}
    assert unreached.problems({"m.f"}, ("m.f",), existing, ["m.f"]) == []
    assert unreached.problems({"m.f", "m.g"}, ("m.f",), existing, ["m.f"]) == [
        "m.g: no command reaches it and LIBRARY_API does not list it"]
    assert unreached.problems({"m.f"}, ("m.f", "m.h"), existing, ["m.f", "m.h"]) == [
        "m.h: listed in LIBRARY_API, but a command reaches it"]
    assert unreached.problems({"m.f"}, ("m.f", "m.gone"), existing, ["m.f", "m.gone"]) == [
        "m.gone: listed in LIBRARY_API, but no such function exists"]
    assert unreached.problems({"m.f"}, ("m.f",), existing, []) == [
        "the README's Library API list differs from LIBRARY_API"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unreached.readme_api(readme) == list(unreached.LIBRARY_API)


def test_diff_parent_finds_no_difference_between_a_tree_and_itself():
    report = json.loads(run_script("diff_parent", str(ROOT), str(ROOT), "--quick"))
    assert report["runs"] == report["identical"] > 0
    assert (report["differing"], report["groups"]) == (0, [])
