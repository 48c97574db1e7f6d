"""Record the outputs the benchmark checks ops against.

    python3 perfbench/record.py

Run from the root of the source tree the benchmark was defined on.  It
writes ``expected/cli_shipped.json`` (stdout, stderr and exit code of every
``cli-shipped`` command) and ``expected/ladder_paradox.json`` (the verdicts
of every audited circuit under both rule sets).  Re-recording on a later
commit would hide any change in those outputs, so do it only when the
workloads themselves change.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    os.chdir(workloads.ROOT)
    workloads.EXPECTED.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as tmp:
        workdir = Path(tmp)
        cli = {}
        for argv in workloads.cli_mix():
            code, out, err, _ = workloads.spawn([sys.executable, "-m", "hardysim", *argv], workdir)
            cli[" ".join(argv)] = {"code": code, "stdout": out.decode(), "stderr": err.decode()}
        verdicts = {}
        for name, text in workloads.paradox_circuits().items():
            path = workdir / f"{name}.circ"
            path.write_text(text)
            verdicts[name] = {}
            for rules in workloads.RULES:
                code, out, err = workloads.capture_main(["paradox", "--rules", rules, str(path)])
                if code != 0:
                    raise SystemExit(f"{name} {rules}: exit {code}: {err}")
                verdicts[name][rules] = [
                    [p, m, verdict] for p, m, verdict, _ in workloads.parse_paradox_table(out)]
    for filename, data in (("cli_shipped.json", cli), ("ladder_paradox.json", verdicts)):
        (workloads.EXPECTED / filename).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
