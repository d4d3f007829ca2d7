"""Record the reference values the benchmark's checks compare against.

    python3 perfbench/record_expected.py

Writes ``perfbench/expected.json``.  The shipped file was recorded from the
commit that introduced the benchmark (git 14772f9), before any optimisation;
re-recording it at a later commit would let that commit's defects pass, so
do it only when a change of output is intended and reviewed.

* ``sym2d_swap``: for each of the 70 four-port subsets of the 8-port
  butterfly, the row count, both aggregates at 4 clicks and the histogram of
  ``state_class`` labels.  Pair signs are a local phase on each atom, so they
  change none of these.
* ``cli_session``: exit code and SHA-256 of stdout and of the output file
  of every command.

Both come from the same code the timed ops run (``workloads.swap_table`` and
``CliSession``), so the checks compare like with like.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record_sym2d(herald, u) -> dict:
    out = {}
    for ports in itertools.combinations(range(1, 9), 4):
        table = workloads.swap_table(herald, u, None, list(ports))
        out[workloads.port_key(ports)] = {
            "rows": len(table["rows"]),
            "threshold_distinct": table["threshold_distinct"],
            "number_resolved": table["number_resolved"],
            "classes": dict(Counter(table["classes"])),
        }
    return out


def record_cli() -> list[dict]:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        results = workloads.CliSession(0, Path(tmp), env)._process_op()
    return [{"argv": list(cmd), "exit": code, "stdout_sha256": workloads.sha256(stdout),
             "output_sha256": workloads.sha256(data)}
            for cmd, (code, stdout, data) in zip(workloads.CLI_COMMANDS, results)]


def main() -> None:
    herald = workloads.entnet_module("herald")
    u = workloads.entnet_module("interferometers").symmetric_multiport(3)
    doc = {"cli_session": record_cli(), "sym2d_swap": record_sym2d(herald, u)}
    (HERE / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
