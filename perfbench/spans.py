"""Spans around the calls into each hardysim layer, and the per-layer metrics they give.

Only a traced run calls ``Tracer.install``; it replaces public functions at
the module attributes the layers call through and restores them in
``uninstall``.  An untraced run imports this module but installs nothing.

A span is ``[name, start, end, parent index, op id, info]``.  Spans stay in
memory; ``dump`` writes them out when the run ends.  A layer's self time is
its span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# Per-layer metric name -> unit; every traced run reports all of them.
UNITS = {name: spec["unit"] for name, spec in json.loads(
    (Path(__file__).parent / "metrics.json").read_text())["per_layer"].items()}


def _stages(args, result):
    return {"stages": len(result.stages)}


def _command(args, result):
    argv = args[0] if args else None
    return {"command": argv[0] if argv else None}


def _postselect(args, result):
    return {"terms_in": len(args[0].terms()), "terms_out": len(result[0].terms())}


def _rows(args, result):
    return {"rows": len(result.rows)}


def _conditional(args, result):
    return {"key": [id(args[0]), str(args[1])]}


def _report(args, result):
    feasible = sum(len(row.feasible) for row in result.outcomes)
    judged = feasible + sum(len(row.rejected) for row in result.outcomes)
    return {"rules": result.rules.value, "feasible": feasible, "judged": judged}


def _count(args, result):
    return {"count": len(result)}


def _draws(args, result):
    return {"n": args[1]}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._op = None

    def _wrap(self, owner, attr: str, name: str, info=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self._op, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def install(self):
        from hardysim import circuitdsl, cli, engine, montecarlo, paradox

        self._wrap(cli, "main", "cli.main", _command)
        self._wrap(circuitdsl, "parse", "circuitdsl.parse", _stages)
        for stage_class in (circuitdsl.BeamSplitterStage, circuitdsl.PhaseStage,
                            circuitdsl.PresetStage):
            self._wrap(stage_class, "transform", "optics.transform")
        self._wrap(engine, "apply_transform", "optics.apply_transform")
        self._wrap(paradox, "apply_transform", "optics.apply_transform")
        self._wrap(engine, "evolve", "engine.evolve")
        self._wrap(engine, "postselect", "engine.postselect", _postselect)
        self._wrap(engine, "renormalize", "engine.renormalize")
        self._wrap(engine, "probabilities", "engine.probabilities", _rows)
        self._wrap(engine, "run", "engine.run")
        self._wrap(engine, "conditional", "engine.conditional", _conditional)
        self._wrap(paradox, "build_graph", "paradox.build_graph")
        self._wrap(paradox, "enumerate_assignments", "paradox.enumerate_assignments", _count)
        self._wrap(paradox, "paradox_report", "paradox.paradox_report", _report)
        self._wrap(montecarlo, "sample", "montecarlo.sample", _draws)
        self._wrap(montecarlo, "chi_square_test", "montecarlo.chi_square_test")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id):
        """Attribute the spans recorded inside to one op, under an ``op`` root span."""
        self._op = op_id
        span = ["op", time.perf_counter(), None, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._op = None

    def extend(self, spans: list[list]):
        """Append spans recorded in another process under the current op's span."""
        base, top = len(self.spans), self._stack[-1] if self._stack else None
        for name, start, end, parent, _, info in spans:
            self.spans.append([name, start, end, top if parent is None else parent + base,
                               self._op, info])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans: list[list]) -> dict[str, float | None]:
    """Per-layer metrics from spans; None where no span of that layer exists.

    Times per op are the op's total inclusive time in that layer, and the
    metric is their median over the ops that reach the layer.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    per_op: dict[str, dict] = {}
    by_name: dict[str, list[int]] = {}
    for index, (name, start, end, _, op, _) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        totals = per_op.setdefault(name, {})
        totals[op] = totals.get(op, 0.0) + end - start
        if name.startswith("paradox."):
            own = per_op.setdefault("paradox.self", {})
            own[op] = own.get(op, 0.0) + end - start - child_time[index]

    def durations(name, **match):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())
                if all((spans[i][5] or {}).get(k) == v for k, v in match.items())]

    def infos(name):
        return [spans[i][5] for i in by_name.get(name, ()) if spans[i][5] is not None]

    def op_ms(name):
        totals = per_op.get(name)
        return _median([1e3 * t for t in totals.values()]) if totals else None

    def ms(values):
        return _median([1e3 * v for v in values])

    out: dict[str, float | None] = {}
    for command in ("check", "evolve", "probs", "paradox", "sample"):
        out[f"cli.main_ms.{command}"] = ms(durations("cli.main", command=command))
    out["cli.self_ms"] = ms([spans[i][2] - spans[i][1] - child_time[i]
                             for i in by_name.get("cli.main", ())])

    parses = [i for i in by_name.get("circuitdsl.parse", ()) if spans[i][5] is not None]
    out["circuitdsl.parse_ms"] = ms(durations("circuitdsl.parse"))
    stages = sum(spans[i][5]["stages"] for i in parses)
    out["circuitdsl.parse_us_per_stage"] = (
        1e6 * sum(durations("circuitdsl.parse")) / stages if stages else None)

    out["optics.transform_us"] = _median([1e6 * d for d in durations("optics.transform")])
    stages_per_op = {spans[i][4]: spans[i][5]["stages"] for i in parses}
    calls_per_op: dict = {}
    for i in by_name.get("optics.transform", ()):
        calls_per_op[spans[i][4]] = calls_per_op.get(spans[i][4], 0) + 1
    out["optics.transform_calls_per_stage"] = _median(
        [calls_per_op.get(op, 0) / n for op, n in stages_per_op.items() if n])
    out["optics.apply_ms"] = op_ms("optics.apply_transform")

    for layer in ("evolve", "postselect", "renormalize", "probabilities", "run"):
        out[f"engine.{layer}_ms"] = op_ms(f"engine.{layer}")
    out["engine.final_terms"] = _median([info["rows"] for info in infos("engine.probabilities")])
    posts = infos("engine.postselect")
    terms_in = sum(info["terms_in"] for info in posts)
    out["engine.kept_term_ratio"] = (
        sum(info["terms_out"] for info in posts) / terms_in if terms_in else None)
    calls: dict = {}
    for i in by_name.get("engine.conditional", ()):
        calls[spans[i][4]] = calls.get(spans[i][4], 0) + 1
    out["engine.conditional_calls"] = _median(list(calls.values()))
    out["engine.conditional_ms"] = op_ms("engine.conditional")

    for rules in ("local", "contextual"):
        out[f"paradox.report_ms.{rules}"] = ms(durations("paradox.paradox_report", rules=rules))
    out["paradox.self_ms"] = op_ms("paradox.self")
    out["paradox.assignments"] = _median(
        [info["count"] for info in infos("paradox.enumerate_assignments")])
    reports = infos("paradox.paradox_report")
    judged = sum(info["judged"] for info in reports)
    out["paradox.feasible_ratio"] = (
        sum(info["feasible"] for info in reports) / judged if judged else None)
    distinct: dict = {}
    for i in by_name.get("engine.conditional", ()):
        if spans[i][5] is not None:
            distinct.setdefault(spans[i][4], set()).add(tuple(spans[i][5]["key"]))
    total_calls = sum(calls.values())
    out["paradox.conditional_reuse_ratio"] = (
        sum(len(keys) for keys in distinct.values()) / total_calls if total_calls else None)

    sample_time = sum(durations("montecarlo.sample"))
    out["montecarlo.sample_ms"] = ms(durations("montecarlo.sample"))
    out["montecarlo.draws_per_s"] = (
        sum(info["n"] for info in infos("montecarlo.sample")) / sample_time
        if sample_time else None)
    out["montecarlo.chi_square_ms"] = ms(durations("montecarlo.chi_square_test"))
    return out
