"""Command-line front end: validate, evolve, tabulate, judge, and sample circuits.

Exit codes follow the usual scripting contract: 0 on success, 1 on a
diagnostic (bad circuit file, empty post-selected state, …) printed to
stderr, 2 on a usage error.  Circuit diagnostics are prefixed with the
file's basename, so editors and test harnesses can jump straight to
``file:line:column``.

Every output format is written here, from the fields of the records the
library returns.  ``evolve`` and ``probs`` JSON name labels bare (``"c"``),
while ``paradox`` and ``sample`` JSON give them with their arm (``"c+"``).

Each subcommand imports only the modules it runs: ``check`` needs the
parser alone, ``paradox`` and ``sample`` load :mod:`~hardysim.paradox` and
:mod:`~hardysim.montecarlo` when they run, and ``json`` loads only for
``--format json``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import circuitdsl
from .amplitude import NotRational, UnsupportedRadical
from .circuitdsl import Circuit, CircuitError

# The values of paradox.RuleSet and montecarlo.DEFAULT_SEED, spelled out so
# that building the parser imports neither module (a test pins them).
_RULES = ("local", "contextual")
_DEFAULT_SEED = 0x5EED


class _CliError(Exception):
    """Message already formatted for stderr; always exits 1."""


def _u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardysim",
        description="Exact two-photon interferometer simulator and trajectory checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, help_text: str, formats: tuple[str, ...] = ()):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("circuit", help="path to a circuit file")
        if formats:
            p.add_argument(
                "--format", choices=formats, default="table",
                help="output rendering (default: table)",
            )
        return p

    command("check", "parse and validate a circuit file")
    command("evolve", "print the final post-selected state", ("table", "json", "csv"))
    command("probs", "print exact outcome probabilities", ("table", "json", "csv"))
    p_paradox = command(
        "paradox", "judge each detector pair against a trajectory rule set",
        ("table", "json", "csv"),
    )
    p_paradox.add_argument(
        "--rules", choices=_RULES, default=_RULES[0],
        help="feasibility rule set (default: local)",
    )
    p_sample = command(
        "sample", "draw outcomes with a seeded generator and run a chi-square check",
        ("table", "json", "csv"),
    )
    p_sample.add_argument("--n", type=_positive, default=12000, help="number of draws")
    p_sample.add_argument(
        "--seed", type=_u64, default=_DEFAULT_SEED,
        help=f"64-bit generator seed (default: {_DEFAULT_SEED})",
    )
    return parser


def _load(path: str) -> Circuit:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _CliError(f"error: {exc}") from exc
    try:
        return circuitdsl.parse(text)
    except CircuitError as exc:
        raise _CliError(f"{os.path.basename(path)}:{exc}") from exc


def _print_json(obj):
    import json

    print(json.dumps(obj, indent=2))


def _print_evolve(circuit: Circuit, fmt: str):
    from . import engine

    root, _, rest = engine.boundary(circuit)
    state = engine.evolve(root, rest)
    if circuit.discard:
        state = engine.renormalize(state)
    if fmt == "json":
        _print_json({"terms": [{"plus": p.name, "minus": m.name, "amp": str(amp)}
                               for (p, m), amp in state.terms()]})
    elif fmt == "csv":
        print("plus,minus,amp")
        for (p, m), amp in state.terms():
            print(f"{p},{m},{amp}")
    else:
        for (p, m), amp in state.terms():
            print(f"({p},{m}) {amp}")


def _print_probs(circuit: Circuit, fmt: str):
    from . import engine

    table = engine.run(circuit)
    rows = table.sorted_rows()
    if fmt == "json":
        _print_json({"kept_weight": str(table.kept_weight),
                     "rows": [{"plus": p.name, "minus": m.name, "p": str(probability)}
                              for (p, m), probability in rows]})
    elif fmt == "csv":
        print("outcome_plus,outcome_minus,p")
        for (p, m), probability in rows:
            print(f"{p},{m},{probability}")
        print(f"# kept_weight={table.kept_weight}")
    else:
        print(f"kept_weight {table.kept_weight}")
        for (p, m), probability in rows:
            print(f"({p},{m}) {probability}")


def _route(assignment) -> dict:
    return {"plus": [str(label) for label in assignment.plus_path],
            "minus": [str(label) for label in assignment.minus_path]}


def _print_paradox(circuit: Circuit, rules: str, fmt: str):
    from . import paradox

    report = paradox.paradox_report(circuit, paradox.RuleSet(rules))
    if fmt == "json":
        _print_json({
            "rules": report.rules.value,
            "kept_weight": str(report.kept_weight),
            "outcomes": [{
                "outcome": [str(label) for label in row.outcome],
                "qm_p": str(row.qm_probability),
                "feasible": [_route(a) for a in row.feasible],
                "rejected": [{"assignment": _route(a), "reasons": reasons}
                             for a, reasons in row.rejected],
                "verdict": row.verdict,
            } for row in report.outcomes],
        })
    elif fmt == "csv":
        print("outcome_plus,outcome_minus,qm_p,feasible,verdict")
        for row in report.outcomes:
            p, m = row.outcome
            print(f"{p},{m},{row.qm_probability},{len(row.feasible)},{row.verdict}")
        print(f"# rules={report.rules.value} kept_weight={report.kept_weight}")
    else:
        print(f"rules {report.rules.value}")
        for row in report.outcomes:
            p, m = row.outcome
            print(
                f"{row.verdict}: ({p},{m}) qm={row.qm_probability}"
                f" feasible={len(row.feasible)}"
            )


def _print_sample(circuit: Circuit, n: int, seed: int, fmt: str):
    from . import engine, montecarlo

    table = engine.run(circuit)
    record = montecarlo.run(table, n, seed)
    rows = table.sorted_rows()
    if fmt == "json":
        # The record's fields in their order, with the counts as a list of rows.
        _print_json({**record._asdict(), "counts": [
            {"plus": str(p), "minus": str(m), "count": record.counts[(p, m)]}
            for (p, m), _ in rows]})
    elif fmt == "csv":
        # engine.run's rows sum to 1, so n * p is a row's expected count.
        print("outcome_plus,outcome_minus,count,expected")
        for (p, m), probability in rows:
            print(f"{p},{m},{record.counts[(p, m)]},{record.n * probability}")
        print(
            f"# seed={record.seed} n={record.n} chi_square={record.chi_square:.6f}"
            f" df={record.df} pass_95={record.pass_95} pass_99={record.pass_99}"
        )
    else:
        for (p, m), _ in rows:
            print(f"({p},{m}) {record.counts[(p, m)]}")
        print(
            f"chi_square {record.chi_square:.6f} df {record.df}"
            f" pass_95 {record.pass_95} pass_99 {record.pass_99}"
        )


def _dispatch(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    if args.command == "check":
        print("ok")
    elif args.command == "evolve":
        _print_evolve(circuit, args.format)
    elif args.command == "probs":
        _print_probs(circuit, args.format)
    elif args.command == "paradox":
        _print_paradox(circuit, args.rules, args.format)
    else:
        _print_sample(circuit, args.n, args.seed, args.format)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return 1
    # Every other error class of the package subclasses ValueError.
    except (NotRational, UnsupportedRadical, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
