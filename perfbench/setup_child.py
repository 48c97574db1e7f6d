"""Set one workload up in a fresh interpreter; ``run.py`` times this as ``setup_s``.

    PYTHONPATH=src python3 perfbench/setup_child.py <workload> <seed>

``setup_s`` covers interpreter start-up, ``import hardysim.cli`` and the
workload's ``setup``: generating and parsing its circuits, and for
``sample-heavy`` building its outcome tables.
"""

import sys
import tempfile
from pathlib import Path

import hardysim.cli  # noqa: F401  -- part of what setup_s measures

import workloads


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as tmp:
        workloads.WORKLOADS[name](seed, Path(tmp)).setup()


if __name__ == "__main__":
    main()
