"""entnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sym2d_swap --seed 1 --seconds 50 --trace 0

Runs the workload's ops back to back (a closed loop, one client) for
``--seconds``, checks every op's outputs, times set-up in fresh processes
spread between the ops, and then probes the eraser at 7 and 8 nodes.  A
summary with units and sample counts goes to stderr; the last line of
stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  With
``--trace 1`` ops alternate between untraced and traced, and the spans of
the traced ops are written to ``.perfbench_out/`` at exit.  Everything the
run reads or writes stays inside the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"
SETUP_MIN_SAMPLES = 9
PROBE_TIMEOUT_S = 60   # keeps a whole run well under three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"op_s_p50": "s", "op_s_p90": "s", "rows_per_s": "1/s", "setup_s": "s",
             "peak_rss_mb": "MB", "success_rate": "ratio", "reach_nodes": "nodes"}
RATIOS = ("herald.kept_ratio", "states.calls_per_row", "trace.overhead_ratio")
# Per-layer metrics read from the eraser probe rather than from the traced ops:
# the 7-node probe traced in its child, and the untraced 8-node probe's time.
PROBE_LAYERS = ("herald.wpe_select_s", "herald.kept_rows", "herald.probe_rows",
                "herald.kept_ratio", "herald.reach_s")


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("trace.op_s_"):
        return "s"
    if name == "tables.bytes_out":
        return "bytes"
    return "ratio" if name in RATIOS else "count"


def child_env() -> dict:
    """Environment of every process the benchmark starts, and of its own."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        cur = env.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            env[var] = str(nproc)
    return env


def measure_setup(workload: str, seed: int, env: dict) -> float:
    """Wall seconds from spawning a fresh process until its set-up is done."""
    cmd = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process failed with exit code {proc.returncode}")
    return elapsed


class SetupSampler:
    """Set-up times spread evenly over the run, between ops, so that their
    median sees the same machine as the ops.  The first process fills the
    bytecode and page caches and is discarded."""

    def __init__(self, workload: str, seed: int, env: dict, spacing: float):
        self.args = (workload, seed, env)
        self.spacing = spacing
        self.samples: list[float] = []
        self.last = perf_counter()
        measure_setup(*self.args)

    def __call__(self, force: bool = False) -> None:
        if force or perf_counter() - self.last >= self.spacing:
            self.last = perf_counter()
            self.samples.append(measure_setup(*self.args))


def reach_probe(seed: int, env: dict, trace: bool) -> dict[int, dict]:
    """Per node count of the eraser probe: finished, check failures, seconds."""
    cmd = [sys.executable, str(HERE / "child.py"), "reach", str(seed), str(int(trace))]
    try:
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             timeout=PROBE_TIMEOUT_S).stdout
    except subprocess.TimeoutExpired as exc:  # sizes not reported in time count as not reached
        out = exc.stdout or b""
    results = [json.loads(line) for line in out.decode().splitlines()]
    return {r["nodes"]: r for r in results}


def run_ops(wl, seconds: float, trace: bool, between=None) -> list[dict]:
    """Closed loop of ops until ``seconds`` have passed; traced ops alternate.

    ``between()``, when given, runs after each op, outside its timing.
    """
    ops = []
    deadline = perf_counter() + seconds
    while not ops or perf_counter() < deadline or (trace and len(ops) < 2):
        tracer = tracing.Tracer() if trace and len(ops) % 2 else None
        if tracer is not None and not getattr(wl, "instruments_itself", False):
            tracing.instrument(tracer)
        start = perf_counter()
        try:
            out = wl.op(tracer)
            elapsed = perf_counter() - start
        except Exception as exc:  # a failed op is counted, the loop goes on
            elapsed, out = perf_counter() - start, exc
        finally:
            if tracer is not None:
                tracer.restore()
        if isinstance(out, Exception):
            rows, problems = 0, [f"{type(out).__name__}: {out}"]
        else:
            try:
                rows, problems = wl.check(out)
            except Exception as exc:  # a check that cannot run fails the op
                rows, problems = 0, [f"check raised {type(exc).__name__}: {exc}"]
        del out  # the next op must not run beside this op's outputs
        for msg in problems[:5]:
            print(f"{wl.name} op {len(ops)}: {msg}", file=sys.stderr)
        ops.append({"seconds": elapsed, "rows": rows, "ok": not problems, "tracer": tracer})
        if between is not None:
            between()
    return ops


def reached(probe: dict[int, dict]) -> int:
    """Largest probed node count that finished and passed its checks."""
    passed = [n for n, r in probe.items() if r["finished"] and not r["problems"]]
    return max(passed, default=min(workloads.REACH_SIZES) - 1)


def end_to_end(ops: list[dict], setup: list[float], peak_rss_mb: float,
               reach_nodes: int) -> tuple[dict, dict]:
    """Metric values and their sample counts."""
    times = [op["seconds"] for op in ops]
    good = [op for op in ops if op["ok"]]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    values = {
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90,
        "rows_per_s": (sum(op["rows"] for op in good) / sum(op["seconds"] for op in good)
                       if good else 0.0),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": len(good) / len(ops),
        "reach_nodes": reach_nodes,
    }
    n = len(ops)
    samples = {"op_s_p50": n, "op_s_p90": n, "rows_per_s": len(good), "setup_s": len(setup),
               "peak_rss_mb": 1, "success_rate": n, "reach_nodes": 1}
    return values, samples


def per_layer(ops: list[dict], probe: dict[int, dict]) -> tuple[dict, dict]:
    """Per traced op means of self times and counts, trace ratios, and the
    eraser probe's layers."""
    traced = [op for op in ops if op["tracer"] is not None]
    plain = [op for op in ops if op["tracer"] is None]
    summaries = [op["tracer"].summary(op["seconds"]) for op in traced]
    values = {key: statistics.fmean(s[key] for s in summaries) for key in summaries[0]}
    rows = values["herald.rows"]
    values["states.calls_per_row"] = ((values["states.classify_calls"]
                                       + values["states.genuine_calls"]) / rows if rows else 0.0)
    traced_p50 = statistics.median(op["seconds"] for op in traced)
    values["trace.op_s_p50"] = traced_p50
    values["trace.op_s_mean"] = statistics.fmean(op["seconds"] for op in traced)
    values["trace.overhead_ratio"] = traced_p50 / statistics.median(op["seconds"] for op in plain)
    values["trace.ops"] = float(len(traced))
    values.update(probe_layers(probe))
    samples = {key: len(traced) for key in values}
    samples["trace.overhead_ratio"] = len(ops)
    samples.update({key: 1 for key in PROBE_LAYERS})
    return values, samples


def probe_layers(probe: dict[int, dict]) -> dict[str, float]:
    """``wpe_herald`` self time and kept rows over enumerated rows of the
    traced 7-node probe, and the 8-node probe's time to result or error."""
    layers = probe.get(min(workloads.REACH_SIZES), {}).get("layers", {})
    kept, rows = layers.get("herald.kept_rows", 0.0), layers.get("herald.rows", 0.0)
    largest = probe.get(max(workloads.REACH_SIZES))
    return {"herald.wpe_select_s": layers.get("herald.wpe_select_s", 0.0),
            "herald.kept_rows": kept, "herald.probe_rows": rows,
            "herald.kept_ratio": kept / rows if rows else 0.0,
            "herald.reach_s": largest["elapsed_s"] if largest else float(PROBE_TIMEOUT_S)}


def write_spans(workload: str, seed: int, ops: list[dict]) -> None:
    TRACE_OUT.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed,
           "ops": [{"seconds": op["seconds"], "spans": op["tracer"].dump(),
                    "counts": dict(op["tracer"].counts)}
                   for op in ops if op["tracer"] is not None]}
    (TRACE_OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(doc))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "entnet" / "__init__.py").is_file():
        print(f"error: no entnet sources under {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    os.environ.update({var: env[var] for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work, env)
        wl.setup()
        sampler = None if args.trace else SetupSampler(
            args.workload, args.seed, env, args.seconds / SETUP_MIN_SAMPLES)
        ops = run_ops(wl, args.seconds, bool(args.trace), sampler)
        while sampler and len(sampler.samples) < SETUP_MIN_SAMPLES:
            sampler(force=True)
        peak_rss_mb = wl.peak_rss_mb()
        probe = reach_probe(args.seed, env, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for n, r in sorted(probe.items()):
        print(f"{args.workload} {n}-node eraser probe: "
              f"{r.get('error') or r['problems'] or 'passed'} after {r['elapsed_s']:.3f} s",
              file=sys.stderr)
    if args.trace:
        values, samples = per_layer(ops, probe)
        units = {name: layer_unit(name) for name in values}
        write_spans(args.workload, args.seed, ops)
    else:
        values, samples = end_to_end(ops, sampler.samples, peak_rss_mb, reached(probe))
        units = E2E_UNITS
    print(f"{args.workload} op seconds: " + " ".join(f"{op['seconds']:.3f}" for op in ops),
          file=sys.stderr)
    for name in sorted(values):
        print(f"{args.workload:13s} {name:30s} {values[name]:14.6g} {units[name]:6s} "
              f"(n={samples[name]})", file=sys.stderr)
    failed = sum(not op["ok"] for op in ops)
    wrong_probe = any(r["finished"] and r["problems"] for r in probe.values())
    print(json.dumps({"correct": failed == 0 and not wrong_probe, "attempted": len(ops),
                      "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in values}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
