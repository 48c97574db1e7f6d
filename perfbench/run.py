"""Run one hardysim benchmark workload, check every output, print its metrics.

    python3 perfbench/run.py --workload ladder-probs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the root of a hardysim source tree.  Each workload is a closed
loop with one client: the next op starts when the previous one has ended.
The loop runs whole rounds (see ``workloads.py``) until ``--seconds`` have
passed.  Lines starting with ``#`` are a readable summary; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half of
the time untraced and half with spans around every layer call, and reports
the per-layer metrics (see ``spans.py``).  Layers the workload itself never
reaches are reported from a traced probe of every subcommand on
``hardy_full.circ``; the summary names them.

Times are reported at reference speed.  The CPUs of a shared machine run
slower whenever neighbours are busy: on a 2-vCPU virtual machine the same
op took up to 70% longer for minutes at a time, which no amount of
repetition averages out.  So a
fixed pure-Python kernel (``reference_kernel``) runs before every op and
around every timed child, and each time is multiplied by
``REF_KERNEL_S / (kernel time measured around it)``: the time the op would
take on a core where the kernel takes ``REF_KERNEL_S``.  Rates are divided
by the same factor.  The summary prints the raw wall times as well.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
# About the kernel's time on an uncontended core of a 2-vCPU Intel Xeon
# virtual machine with Python 3.11.7 (1.85 ms to 2 ms); it sets the scale
# of every reported time.
REF_KERNEL_S = 0.002
PROBE = [
    ["check"], ["evolve"], ["probs"], ["paradox", "--rules", "local"],
    ["paradox", "--rules", "contextual"], ["sample"],
]
TIME_UNITS = {"s", "ms", "us"}


def reference_kernel() -> float:
    """Wall seconds of a fixed loop in the style of hardysim's hot path:
    Fraction arithmetic accumulated in a dict under tuple keys."""
    start = time.perf_counter()
    acc: dict = {}
    step, zero = Fraction(1, 3), Fraction(0)
    for i in range(500):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, zero) + step * Fraction(i % 7 + 1, 9)
    return time.perf_counter() - start


def kernel_median(repeats: int = 3) -> float:
    return statistics.median(reference_kernel() for _ in range(repeats))


def at_reference(value: float, unit: str, kernel_s: float) -> float:
    """A time or rate measured while the kernel took ``kernel_s``, at reference speed."""
    factor = REF_KERNEL_S / kernel_s
    if unit in TIME_UNITS:
        return value * factor
    return value / factor if unit == "1/s" else value


def _timed_spawn(argv, workdir) -> tuple[float, float]:
    """(wall seconds of one child, kernel seconds around it)."""
    from workloads import spawn

    before = kernel_median()
    start = time.perf_counter()
    code, _, err, _ = spawn(argv, workdir)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {code}: {err.decode()[-400:]}")
    return elapsed, (before + kernel_median()) / 2


def measure_setup(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(raw, reference-speed) median seconds for a fresh interpreter to set the workload up."""
    argv = [sys.executable, str(HERE / "setup_child.py"), name, str(seed)]
    runs = [_timed_spawn(argv, workdir) for _ in range(SETUP_REPEATS)]
    return (statistics.median(t for t, _ in runs),
            statistics.median(at_reference(t, "s", k) for t, k in runs))


def measure_import(workdir: Path) -> tuple[float, float]:
    """Reference-speed median seconds of bare interpreter start-up, and of
    start-up plus ``import hardysim.cli``."""
    bare, imported = [], []
    for _ in range(IMPORT_REPEATS):
        for code, into in (("pass", bare), ("import hardysim.cli", imported)):
            elapsed, kernel = _timed_spawn([sys.executable, "-c", code], workdir)
            into.append(at_reference(elapsed, "s", kernel))
    return statistics.median(bare), statistics.median(imported)


def loop(workload, seconds: float, first_round: int, min_rounds: int, tracer=None):
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds`` ran:
    (results, wall seconds, kernel seconds, next round)."""
    from workloads import Result

    results, kernel = [], []
    start = time.perf_counter()
    index = first_round
    while time.perf_counter() - start < seconds or index - first_round < min_rounds:
        for op in workload.round(index):
            kernel.append(reference_kernel())
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    value = workload.run(op)
                else:
                    with tracer.op(len(results)):
                        value = workload.run(op, tracer)
                result = Result(op, 0.0, value)
            except Exception as exc:  # the op failed; its class is the failure record
                result = Result(op, 0.0, error=type(exc).__name__, detail=str(exc))
            result.seconds = time.perf_counter() - t0
            results.append(result)
        index += 1
    wall = time.perf_counter() - start
    kernel.append(reference_kernel())
    for i, r in enumerate(results):
        r.kernel = (kernel[i] + kernel[i + 1]) / 2
    # One kernel time for the whole loop, weighting each op's by its duration.
    loop_kernel = sum(r.seconds for r in results) / sum(r.seconds / r.kernel for r in results)
    return results, wall, loop_kernel, index


def check_all(workload, results) -> list[str]:
    """Set each result's status; return the problems found across ops."""
    from workloads import FAILED

    for r in results:
        try:
            r.status, why = workload.check(r.op, r.value, r.error)
        except Exception as exc:  # an unreadable output is a failed op, not a crash
            r.status, why = FAILED, f"{type(exc).__name__}: {exc}"
        r.detail = why or r.detail
    return workload.finish(results)


def latency(results, scaled: bool = True) -> tuple[float, float, int]:
    """(p50 ms, p90 ms, sample count) over completed ops."""
    from workloads import OK

    ms = [1e3 * (at_reference(r.seconds, "s", r.kernel) if scaled else r.seconds)
          for r in results if r.status == OK]
    if len(ms) < 2:
        raise RuntimeError(f"only {len(ms)} ops completed; no latency to report")
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[-1], len(ms)


def git_head() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def run_workload(name: str, seed: int, seconds: int, trace: bool, workdir: Path):
    import workloads
    from workloads import FAILED, KNOWN, OK

    summary = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}",
               f"env python {sys.version.split()[0]} nproc {os.cpu_count()} head {git_head()}"]
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        raw_setup, setup_s = measure_setup(name, seed, workdir)
        metrics["setup_s"] = (setup_s, "s")
        summary.append(f"setup raw median {raw_setup:.4f} s over {SETUP_REPEATS} fresh processes")

    import hardysim.cli  # noqa: F401  -- imported before the loop, like any caller

    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    budget = seconds / 2 if trace else seconds
    results, wall, kernel_s, next_round = loop(
        workload, budget, 0, 1 if trace else workload.min_rounds)
    peak_kib = workload.peak_rss_kib(results)
    if trace:
        from spans import Tracer

        traced = Tracer()
        traced.install()
        try:
            traced_results, _, traced_kernel_s, _ = loop(workload, budget, next_round, 1, traced)
        finally:
            traced.uninstall()
        probe = Tracer()
        probe.install()
        try:
            for i, argv in enumerate(PROBE):
                with probe.op(f"probe-{i}"):
                    workloads.capture_main(argv + ["circuits/hardy_full.circ"])
        finally:
            probe.uninstall()
        probe_kernel_s = kernel_median()

    problems = check_all(workload, results)
    everything = list(results)
    if trace:
        problems += check_all(workload, traced_results)
        everything += traced_results
    statuses = collections.Counter(r.status for r in everything)
    classes = collections.Counter(r.detail for r in everything if r.status == KNOWN)
    failed = statuses[KNOWN] + statuses[FAILED]
    summary.append(
        f"ops attempted {len(everything)} completed {statuses[OK]} failed {failed}"
        f" (known {statuses[KNOWN]}: {dict(classes)}; unexpected {statuses[FAILED]})"
        f" fail_ratio {failed / len(everything):.4f}")
    for r in everything:
        if r.status == FAILED:
            problems.append(f"{r.op.label}: {r.detail}")
    p50, p90, count = latency(results)
    raw_p50, raw_p90, _ = latency(results, scaled=False)
    summary.append(f"untraced rounds {next_round} wall {wall:.2f} s completed ops {count};"
                   f" raw p50 {raw_p50:.2f} ms p90 {raw_p90:.2f} ms"
                   f" ops/s {count / wall:.3f}; kernel {1e3 * kernel_s:.3f} ms")
    for key, (value, unit) in workload.extra_metrics(results, wall).items():
        summary.append(f"{key} {at_reference(value, unit, kernel_s):.6g} {unit}"
                       f" (raw {value:.6g})")

    if trace:
        import spans

        traced_p50, _, _ = latency(traced_results)
        bare, imported = measure_import(workdir)
        summary.append(f"startup bare {1e3 * bare:.1f} ms, with import hardysim.cli"
                       f" {1e3 * imported:.1f} ms")
        layers = spans.layer_metrics(traced.spans)
        fallback = spans.layer_metrics(probe.spans)
        from_probe = sorted(k for k, v in layers.items() if v is None)
        for key, value in layers.items():
            unit = spans.UNITS[key]
            if value is None:
                layers[key] = at_reference(fallback[key], unit, probe_kernel_s)
            else:
                layers[key] = at_reference(value, unit, traced_kernel_s)
        layers["cli.import_ms"] = 1e3 * (imported - bare)
        layers["trace.overhead_ratio"] = traced_p50 / p50
        if from_probe:
            summary.append("from the hardy_full probe: " + " ".join(from_probe))
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        traced.dump(out_dir / f"spans-{name}-{seed}.json")
        metrics = {k: (layers[k], unit) for k, unit in spans.UNITS.items()}
    else:
        metrics["op_ms_p50"] = (p50, "ms")
        metrics["op_ms_p90"] = (p90, "ms")
        metrics["ops_per_s"] = (at_reference(count / wall, "1/s", kernel_s), "1/s")
        metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    summary += problems[:20]
    return {
        "correct": not problems,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, summary


def run_all(args) -> int:
    """Every workload in its own process, one after another, then one table."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"# {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
            print(f"# {name:15s} {key:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hardysim" / "cli.py").is_file() or not (ROOT / "circuits").is_dir():
        print(f"perfbench: no hardysim sources (src/hardysim, circuits/) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        result, summary = run_workload(args.workload, args.seed, args.seconds,
                                       bool(args.trace), Path(tmp))
    for line in summary:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
