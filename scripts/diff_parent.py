#!/usr/bin/env python3
"""Compare the CLI output of two source trees over the fixed corpus of ``corpus.py``.

    python3 scripts/diff_parent.py PARENT_TREE [CHANGE_TREE] [--quick]

``CHANGE_TREE`` defaults to the tree this script lives in.  The corpus is
built once, from this tree, into a temporary directory.  Each tree then runs
every corpus argv in one child interpreter of its own, through its own
``src/hardysim`` ``cli.main``, with ``PYTHONHASHSEED=0``.  The stdout,
stderr and exit code of each run are compared, and one JSON summary is
printed: the runs compared and identical, and the differing runs grouped by
subcommand, the two exit codes and the first line that differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
# corpus.py builds the random circuits with tests/support.py, which imports hardysim.
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402  (scripts/ is this script's own directory)

# Runs the corpus argvs in ``sys.argv[3]`` with the tree ``sys.argv[1]`` first on the path.
CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[2]]
import corpus
with open(sys.argv[3], encoding="utf-8") as handle:
    argvs = json.load(handle)
json.dump(corpus.run_in_process(argvs), sys.stdout)
"""


def run_tree(tree: Path, manifest: Path, cwd: Path) -> list[list]:
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree.resolve()), str(HERE), str(manifest)],
        cwd=cwd, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: the corpus run failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def lines(result: list) -> list[str]:
    out, err, code = result
    return out.splitlines() + ["[stderr]"] + err.splitlines() + [f"[exit {code}]"]


def summary(argvs: list[list[str]], parent: list[list], change: list[list]) -> dict:
    groups: dict[tuple, dict] = {}
    identical = 0
    for argv, old, new in zip(argvs, parent, change):
        if old == new:
            identical += 1
            continue
        old_lines, new_lines = lines(old), lines(new)
        at = next(i for i, pair in enumerate(zip(old_lines + [""], new_lines + [""]))
                  if pair[0] != pair[1])
        first = (old_lines[at] if at < len(old_lines) else "",
                 new_lines[at] if at < len(new_lines) else "")
        key = (argv[0], old[2], new[2]) + first
        group = groups.setdefault(key, {
            "command": argv[0], "exit": [old[2], new[2]],
            "first_differing_line": {"parent": first[0], "change": first[1]},
            "runs": 0, "circuits": []})
        group["runs"] += 1
        circuit = Path(argv[1]).stem
        if circuit not in group["circuits"]:
            group["circuits"].append(circuit)
    return {"runs": len(argvs), "identical": identical, "differing": len(argvs) - identical,
            "groups": list(groups.values())}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=HERE.parent)
    parser.add_argument("--quick", action="store_true", help="run the quick slice of the corpus")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = corpus.write(tmp, args.quick)
        argvs = corpus.runs(paths)
        manifest = tmp / "argvs.json"
        manifest.write_text(json.dumps(argvs), encoding="utf-8")
        parent = run_tree(args.parent, manifest, tmp)
        change = run_tree(args.change, manifest, tmp)
    report = {"parent": str(args.parent), "change": str(args.change),
              "circuits": len(paths), **summary(argvs, parent, change)}
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
