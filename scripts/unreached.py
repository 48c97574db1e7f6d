#!/usr/bin/env python3
"""List every function of ``src/hardysim`` that no CLI command enters.

Runs the corpus of ``corpus.py`` in this process through ``hardysim.cli.main``
under a call-only ``sys.settrace`` hook, then prints each function of
``src/hardysim`` that no run entered, next to ``LIBRARY_API``: the functions
kept for callers other than the commands.  It exits 1, naming the fault,
when

* an unreached function is not in ``LIBRARY_API``;
* a name in ``LIBRARY_API`` is reached by a command, or names no function;
* ``LIBRARY_API`` and the README's "Library API" list differ.

    python3 scripts/unreached.py            # the whole corpus, about a minute
    python3 scripts/unreached.py --quick    # the slice that enters the same functions
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hardysim"
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402  (scripts/ is this script's own directory)

# Functions no command runs, kept as library API; the README lists the same names.
LIBRARY_API = (
    "amplitude.RadicalComplex.__hash__",
    "amplitude.RadicalComplex.__repr__",
    "amplitude.RadicalComplex.__rsub__",
    "amplitude.RadicalComplex.__sub__",
    "amplitude.RadicalComplex.imag_coeffs",
    "amplitude.RadicalComplex.parse",
    "amplitude.RadicalComplex.real_coeffs",
    "circuitdsl.BeamSplitterStage.render",
    "circuitdsl.PhaseStage.render",
    "circuitdsl.PresetStage.render",
    "circuitdsl.Stage.__setattr__",
    "circuitdsl.render",
    "engine.OutcomeTable.marginal",
    "paradox.build_graph",
    "paradox.product_test",
    "state.TwoPhotonState.__add__",
    "state.TwoPhotonState.__eq__",
    "state.TwoPhotonState.__hash__",
    "state.TwoPhotonState.__repr__",
    "state.minus",
    "state.plus",
)


def functions(src: Path = SRC) -> dict[tuple[str, int], str]:
    """``(file, first line) -> module.qualified.name`` for every ``def`` under ``src``.

    The first line is the one a code object reports: the first decorator's,
    if there is one."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, first)] = name
                visit(child, name, path)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, str(path.resolve()))
    return found


def entered(argvs: list[list[str]]) -> set[tuple[str, int]]:
    """``(file, first line)`` of every code object a frame ran while the corpus ran."""
    calls: set[tuple[str, int]] = set()

    def on_call(frame, event, arg):
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        # No local tracer: the hook sees calls only, never lines.

    sys.settrace(on_call)
    try:
        corpus.run_in_process(argvs)
    finally:
        sys.settrace(None)
    return {(str(Path(name).resolve()), line) for name, line in calls}


def readme_api(readme: str) -> list[str]:
    """The names listed in the README's "Library API" section, in order."""
    block = re.search(r"^## Library API\n.*?^```\n(.*?)^```", readme, re.S | re.M)
    return [line.split()[0] for line in block.group(1).splitlines() if line.strip()] if block else []


def problems(unreached: set[str], listed: tuple[str, ...], existing: set[str],
             in_readme: list[str]) -> list[str]:
    """Every way the unreached set, the allow-list and the README disagree."""
    found = [f"{name}: no command reaches it and LIBRARY_API does not list it"
             for name in sorted(unreached - set(listed))]
    for name in listed:
        if name not in existing:
            found.append(f"{name}: listed in LIBRARY_API, but no such function exists")
        elif name not in unreached:
            found.append(f"{name}: listed in LIBRARY_API, but a command reaches it")
    if sorted(in_readme) != sorted(listed):
        found.append("the README's Library API list differs from LIBRARY_API")
    return found


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="run the quick slice of the corpus")
    args = parser.parse_args(argv)
    by_code = functions()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = corpus.runs(corpus.write(Path(tmp), args.quick))
        reached = entered(argvs)
    unreached = {name for key, name in by_code.items() if key not in reached}
    print(f"{len(argvs)} runs entered {len(by_code) - len(unreached)} of "
          f"{len(by_code)} functions in src/hardysim")
    for name in sorted(unreached):
        print(f"  {'library API' if name in LIBRARY_API else 'NOT LISTED':12}  {name}")
    found = problems(unreached, LIBRARY_API, set(by_code.values()),
                     readme_api((ROOT / "README.md").read_text(encoding="utf-8")))
    for line in found:
        print(f"error: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
