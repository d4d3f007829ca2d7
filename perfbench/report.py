"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py [--seeds 10] [--trace] [--record LABEL]

For every workload in ``BENCHMARK.json`` and seeds 1..N it runs ``run.py``
once for ``run_seconds``, then prints each
end-to-end metric with its unit, median, quartiles, spread (quartile
distance over median, from ``statistics.quantiles(n=4)``), the bound from
``BENCHMARK.json`` and the per-run sample count.  ``--trace`` adds one traced
run per workload and prints its per-layer metrics.  ``--record`` appends the
figures to ``perfbench/results.json`` under the given label.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results.json"
SUMMARY = re.compile(r"^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s+\(n=(\d+)\)$")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Final JSON object and ``{metric: sample count}`` of one run."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    samples = {m[2]: int(m[5]) for m in map(SUMMARY.match, proc.stderr.splitlines()) if m}
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result, samples


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def host() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    import numpy
    return {"cpu": cpu, "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", default=None, metavar="LABEL")
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    seeds = range(1, args.seeds + 1)
    entry = {"label": args.record, "date": datetime.date.today().isoformat(), "host": host(),
             "seconds": seconds, "seeds": list(seeds), "workloads": {}}
    print(f"{'workload':13s} {'metric':22s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s} samples/run")
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        out = entry["workloads"][workload] = {"end_to_end": {}, "failed": 0, "attempted": 0}
        for result, _ in runs:
            out["failed"] += result["failed"]
            out["attempted"] += result["attempted"]
        out["error_rate"] = out["failed"] / out["attempted"]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [result["metrics"][name]["value"] for result, _ in runs]
            med, q1, q3, rel = spread(values)
            n = statistics.median(samples[name] for _, samples in runs)
            flag = "" if rel < metric["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"{workload:13s} {name:22s} {metric['unit']:6s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {rel:7.3f} {metric['bound']:6.2f} {n:g}{flag}")
            out["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                       "unit": metric["unit"], "samples_per_run": n,
                                       "values": values}
        if args.trace:
            result, samples = run_once(workload, seeds[0], seconds, 1)
            out["per_layer"] = {}
            for metric in bench["per_layer"]:
                name = metric["name"]
                value = result["metrics"][name]["value"]
                print(f"{workload:13s} {name:28s} {metric['unit']:6s} {value:12.6g} "
                      f"(n={samples.get(name, 0)})")
                out["per_layer"][name] = {"value": value, "unit": metric["unit"],
                                          "samples": samples.get(name, 0)}
            layer = {name: v["value"] for name, v in out["per_layer"].items()}
            accounted = sum(v for name, v in layer.items()
                            if name.endswith("_s") and name not in run.PROBE_LAYERS)
            print(f"{workload:13s} self times + trace.unspanned_s = {accounted:.6g} s; "
                  f"trace.op_s_mean = {layer['trace.op_s_mean']:.6g} s; "
                  f"trace.op_s_p50 = {layer['trace.op_s_p50']:.6g} s")
    if args.record:
        entry["reach_8node"] = {w: int(out["end_to_end"]["reach_nodes"]["median"] >= 8)
                                for w, out in entry["workloads"].items()}
        cli = entry["workloads"].get("cli_session", {})
        if "per_layer" in cli:  # one `python -c "import numpy"` per CLI process
            entry["process_floor_s"] = (cli["per_layer"]["cli.floor_s"]["value"]
                                        / len(workloads.CLI_COMMANDS))
        history = json.loads(RESULTS.read_text()) if RESULTS.exists() else []
        RESULTS.write_text(json.dumps(history + [entry], indent=1) + "\n")


if __name__ == "__main__":
    main()
