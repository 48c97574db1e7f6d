"""Run one hardysim command with spans recorded, for traced ``cli-shipped`` ops.

    PYTHONPATH=src python3 perfbench/traced_cli.py <spans.json> <hardysim arguments...>

Stdout, stderr and the exit code are the command's own; the spans go to
``spans.json`` for the parent run to attribute to the op.
"""

import sys

from spans import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from hardysim import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
