"""Tests of the benchmark harness itself (not part of entnet's test suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def declared(kind: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_same_seed_same_inputs():
    def draws(seed):
        rng = workloads.rng_for("sym2d_swap", seed)
        return [workloads.draw_swap(rng) for _ in range(20)], workloads.reach_p(seed)

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)
    a, b = workloads.CliSession(1, Path("w")), workloads.CliSession(2, Path("w"))
    assert a.argvs == b.argvs


def test_recorded_cli_commands_match():
    assert [e["argv"] for e in workloads.expected()["cli_session"]] == \
        [list(cmd) for cmd in workloads.CLI_COMMANDS]
    assert [e["exit"] for e in workloads.expected()["cli_session"]][2] == 4  # tritter defect


def test_perturbed_probability_fails_and_counts():
    wl = workloads.Sym2dSwap(seed=0)
    wl.setup()
    out = wl.op()
    rows, problems = wl.check(out)
    assert rows == len(out["rows"]) and problems == []

    bad = list(out["rows"])
    bad[17] = dataclasses.replace(bad[17], probability=bad[17].probability + 1e-9)
    bad_out = dict(out, rows=bad)
    assert workloads.check_probability_sum(bad)
    assert wl.check(bad_out)[1]

    class Perturbed:
        name = "perturbed"
        op = staticmethod(lambda tracer=None: bad_out)
        check = staticmethod(wl.check)

    ops = run.run_ops(Perturbed(), seconds=1e-6, trace=False)
    values, _ = run.end_to_end(ops, [0.3], 50.0, reach_nodes=7)
    assert len(ops) == 1 and not ops[0]["ok"]
    assert values["success_rate"] == 0.0


def test_printed_metrics_are_declared():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("cli_session", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert set(result["metrics"]) == declared(kind)
        units = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if trace:   # the traced 7-node eraser probe feeds the wpe_herald layer
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            assert 0 < metrics["herald.kept_rows"] < metrics["herald.probe_rows"]
            assert metrics["herald.wpe_select_s"] > 0


def test_child_rss_is_per_process(tmp_path):
    big = [sys.executable, "-c", "x = bytearray(100 * 2**20); x[::4096] = b'1' * len(x[::4096])"]
    small = [sys.executable, "-c", "pass"]
    _, _, big_mb = workloads.run_child(big, None, tmp_path, 30)
    code, out, small_mb = workloads.run_child(small, None, tmp_path, 30)
    assert code == 0 and out == b""
    assert big_mb > 100 > small_mb


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("sym2d_swap", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
