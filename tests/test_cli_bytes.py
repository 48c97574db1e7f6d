"""Byte gate for the command line, plus smoke tests of the benchmark's tracer and workloads.

``perfbench/expected/cli_shipped.json`` records stdout, stderr and exit
code of every subcommand, format and rule set on the shipped circuits.
Each command is replayed here through ``cli.main`` from the repository
root and must reproduce those bytes exactly.  The file is only read.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from hardysim import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
RECORDED = json.loads((PERFBENCH / "expected" / "cli_shipped.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_cli_reproduces_recorded_bytes(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(command.split())
    captured = capsys.readouterr()
    expected = RECORDED[command]
    assert (captured.out, captured.err, code) == (
        expected["stdout"], expected["stderr"], expected["code"])


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_uninstalls(capsys, monkeypatch):
    spans, run = _load("spans"), _load("run")
    monkeypatch.chdir(ROOT)
    before = cli.main
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.main is not before
        with tracer.op(0):
            assert cli.main(["paradox", "circuits/hardy_full.circ"]) == 0
        # The probe a traced benchmark run falls back on for layers its
        # workload never reaches: it must reach every layer.
        for i, argv in enumerate(run.PROBE):
            with tracer.op(f"probe-{i}"):
                assert cli.main(argv + ["circuits/hardy_full.circ"]) == 0, argv
    finally:
        tracer.uninstall()
    assert cli.main is before
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "circuitdsl.parse", "optics.transform",
            "paradox.paradox_report", "engine.probabilities"} <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["paradox.report_ms.local"] > 0
    assert [name for name, value in metrics.items() if value is None] == []


def test_ladder_paradox_extra_metrics_reach_the_audit(tmp_path, monkeypatch):
    # ladder-paradox's extra metric builds each circuit's graph and counts its
    # routes through ``paradox.build_graph`` and ``enumerate_assignments``.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # workloads.py imports its sibling ladder.py by name, and its dataclasses
    # need the module registered while it runs.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workload = workloads.LadderParadox(1, tmp_path)
    workload.setup()
    assert workload.extra_metrics([], 1.0) == {"assignments_per_s": (0.0, "1/s")}
