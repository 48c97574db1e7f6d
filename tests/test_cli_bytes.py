"""Byte gate for the command line, plus a smoke test of the benchmark's tracer.

``perfbench/expected/cli_shipped.json`` records stdout, stderr and exit
code of every subcommand, format and rule set on the shipped circuits.
Each command is replayed here through ``cli.main`` from the repository
root and must reproduce those bytes exactly.  The file is only read.
"""

import importlib.util
import json
import pathlib

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
