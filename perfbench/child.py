"""Fresh processes started by the benchmark.

    python3 perfbench/child.py setup <workload> <seed>
        Import entnet and build the workload's multiports and first input,
        then print ``ready``; the parent times spawn-to-ready as ``setup_s``.
    python3 perfbench/child.py reach <seed> <trace 0|1>
        The eraser probe ``wpe_herald(wpe_state(n, p), sym2d(3), 3)`` for
        n = 7 and 8; prints one JSON line per n with whether it finished,
        its check failures and its time.  With trace 1 the 7-node probe,
        which always finishes, is traced and its line also holds the
        tracer's summary under ``layers``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402  (after the path to the checkout's sources)


def setup(workload: str, seed: int) -> None:
    workloads.WORKLOADS[workload](seed).setup()
    print("ready", flush=True)


def reach(seed: int, trace: bool) -> None:
    herald = workloads.entnet_module("herald")
    interferometers = workloads.entnet_module("interferometers")
    p = workloads.reach_p(seed)
    for n in workloads.REACH_SIZES:
        tracer = tracing.Tracer() if trace and n == min(workloads.REACH_SIZES) else None
        if tracer is not None:
            tracing.instrument(tracer)
        start = perf_counter()
        try:
            rows = herald.wpe_herald(herald.wpe_state(n, p),
                                     interferometers.symmetric_multiport(3), 3)
        except Exception as exc:  # the probe reports any failure as "not reached"
            result = {"finished": False, "elapsed_s": perf_counter() - start,
                      "error": f"{type(exc).__name__}: {exc}"}
        else:
            result = {"finished": True, "elapsed_s": perf_counter() - start,
                      "rows": len(rows), "problems": workloads.check_eraser_rows(rows, 3)[:5]}
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            result["layers"] = tracer.summary(result["elapsed_s"])
        print(json.dumps({"nodes": n, **result}), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    else:
        reach(int(sys.argv[2]), sys.argv[3] == "1")
