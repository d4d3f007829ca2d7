"""Workloads of the entnet benchmark: seeded inputs, timed operations, checks.

Each workload object has three steps:

* ``setup()`` builds what the first operation needs (multiports, inputs);
* ``op(tracer)`` is one timed operation and returns its raw outputs;
* ``check(outputs)`` verifies those outputs outside the timed region and
  returns ``(rows, problems)``: the detection-table rows produced or written,
  and a list of human-readable failures (empty when the op is correct);
* ``peak_rss_mb()`` is the peak resident memory of the process doing the work.

The program only ever sees generated inputs; the seed stays in the harness.
Modules of ``entnet`` are looked up at call time (``sys.modules``), so the
tracer's wrappers and a fresh re-import both take effect.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Node counts of the which-path eraser probe: 7 runs at the seed commit, 8 does not.
REACH_SIZES = (7, 8)
EPS = sys.float_info.epsilon

# One cli_session op: the CLI runs that ROADMAP calls the end-to-end path.
# ``{work}`` is the run's scratch directory inside the checkout.
CLI_COMMANDS = (
    ("swap-table", "--n", "4", "--output", "{work}/quarter.csv"),
    ("swap-table", "--n", "4", "--golden"),
    ("swap-table", "--n", "3", "--golden"),
    ("swap-table", "--n", "3", "--format", "json", "--output", "{work}/tritter.json"),
    ("wpe", "--n", "4", "--m", "1..3", "--p", "0.06", "--simulate"),
    ("compare", "--eta-grid", "0:1:101", "--r-t", "1e6"),
    ("analytics", "itinerant-ghz-sim", "--n", "8", "--f-pa", "0.95"),
)

CLI_TIMEOUT_S = 30   # one command normally takes under a second

_expected = None


def expected() -> dict:
    """Values recorded from the seed commit by ``record_expected.py``."""
    global _expected
    if _expected is None:
        _expected = json.loads((HERE / "expected.json").read_text())
    return _expected


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def draw_swap(rng: random.Random) -> tuple[list[int], list[int]]:
    """Pair signs and 4 of the 8 butterfly input ports (sorted)."""
    ports = sorted(rng.sample(range(1, 9), 4))
    signs = [rng.choice((1, -1)) for _ in range(4)]
    return signs, ports


def reach_p(seed: int) -> float:
    """Excitation probability of the eraser probe."""
    return rng_for("reach", seed).uniform(0.02, 0.3)


def entnet_module(name: str):
    """``entnet.<name>`` from the checkout's ``src`` (imported on first use)."""
    module = importlib.import_module(f"entnet.{name}")
    if not Path(module.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"entnet was imported from {module.__file__}, not {SRC}")
    return module


def port_key(ports) -> str:
    return ",".join(str(p) for p in sorted(ports))


# ---------------------------------------------------------------- checks

def table_tolerance(n_rows: int) -> float:
    """Summation tolerance for ``n_rows`` probabilities of magnitude <= 1."""
    return 4 * EPS * max(1, n_rows)


def check_probability_sum(rows) -> list[str]:
    got = math.fsum(row.probability for row in rows)
    if abs(got - 1) > table_tolerance(len(rows)):
        return [f"sum of {len(rows)} probabilities is {got!r}, not 1"]
    return []


def check_polarisation_conservation(rows) -> list[str]:
    """Every projected component keeps one H photon per 0 bit, one V per 1 bit."""
    problems = []
    for row in rows:
        n_h = sum(k for m, k in row.pattern.key if m.pol == "H")
        n_v = sum(k for m, k in row.pattern.key if m.pol == "V")
        for bits in row.state.amplitudes:
            ones = bits.count("1")
            if ones != n_v or len(bits) - ones != n_h:
                problems.append(f"pattern {row.pattern.label()}: component {bits} "
                                f"does not match {n_h}H{n_v}V")
                break
    return problems


def check_eraser_rows(rows, m: int) -> list[str]:
    """Invariants of one threshold ``m``-click eraser herald (number encoding)."""
    problems = []
    for row in rows:
        if any(bits.count("1") != row.n_photons for bits in row.state.amplitudes):
            problems.append(f"pattern {row.pattern.label()}: excitations differ from photons")
        if row.n_detectors != m:
            problems.append(f"pattern {row.pattern.label()}: {row.n_detectors} detectors, not {m}")
        if not 0 < row.probability <= 1:
            problems.append(f"pattern {row.pattern.label()}: probability {row.probability!r}")
        if not -EPS <= row.dicke_fidelity <= 1 + table_tolerance(len(row.state.amplitudes)):
            problems.append(f"pattern {row.pattern.label()}: fidelity {row.dicke_fidelity!r}")
    total = math.fsum(row.probability for row in rows)
    if total > 1 + table_tolerance(len(rows)):
        problems.append(f"kept probability {total!r} exceeds 1")
    return problems


def close(a: float, b: float) -> bool:
    """Agreement of two values of magnitude <= 1 computed by different routes."""
    return abs(a - b) <= 64 * EPS


def sha256(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- workloads

def swap_table(herald, u, signs, ports) -> dict:
    """One 4-node swap table, its row classes and both aggregates at 4 clicks."""
    rows = herald.run_gbsa(herald.prepare_swap_input(4, signs, ports), u)
    classes = [row.state_class() for row in rows]
    thr = herald.aggregate_heralding(
        rows, herald.THRESHOLD, herald.HeraldRule(4, distinct_detectors_only=True))
    nr = herald.aggregate_heralding(rows, herald.NUMBER_RESOLVED, herald.HeraldRule(4))
    return {"ports": ports, "rows": rows, "classes": classes,
            "threshold_distinct": thr, "number_resolved": nr}


def run_child(cmd, env: dict, cwd: Path, timeout: float) -> tuple[int, bytes, float]:
    """Exit code, stdout and peak resident MB of one child process.

    The child is reaped with ``wait4`` so its own peak memory is read, not
    the largest of every child the harness has waited on.
    """
    with tempfile.TemporaryFile(dir=cwd) as out:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), usage.ru_maxrss / 1024


class Sym2dSwap:
    """4-node swap table through the 8-port butterfly, classified and aggregated."""

    name = "sym2d_swap"

    def __init__(self, seed: int, work: Path | None = None, env: dict | None = None):
        self.seed = seed
        self.rng = rng_for(self.name, seed)

    def setup(self) -> None:
        interferometers, herald = entnet_module("interferometers"), entnet_module("herald")
        self.u = interferometers.symmetric_multiport(3)
        signs, ports = draw_swap(rng_for(self.name, self.seed))
        herald.prepare_swap_input(4, signs, ports)

    def op(self, tracer=None) -> dict:
        signs, ports = draw_swap(self.rng)
        return swap_table(sys.modules["entnet.herald"], self.u, signs, ports)

    def check(self, out: dict) -> tuple[int, list[str]]:
        rows = out["rows"]
        want = expected()["sym2d_swap"][port_key(out["ports"])]
        problems = check_probability_sum(rows) + check_polarisation_conservation(rows)
        if len(rows) != want["rows"]:
            problems.append(f"{len(rows)} rows, recorded {want['rows']}")
        for key in ("threshold_distinct", "number_resolved"):
            if not close(out[key], want[key]):
                problems.append(f"{key} {out[key]!r}, recorded {want[key]!r}")
        if dict(Counter(out["classes"])) != want["classes"]:
            problems.append(f"classes {dict(Counter(out['classes']))}, recorded {want['classes']}")
        return len(rows), problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class CliSession:
    """The fixed CLI sequence, each command a fresh ``python -m entnet.cli`` process.

    A traced op runs the same commands in-process through ``entnet.cli.main``
    and models each process as its floor (``python -c "import numpy"`` in a
    subprocess), a fresh import of ``entnet.cli`` and the handler.
    """

    name = "cli_session"
    instruments_itself = True   # wrappers go onto each fresh import

    def __init__(self, seed: int, work: Path | None = None, env: dict | None = None):
        self.work = work
        self.env = env
        self.argvs = [[arg.format(work=work) for arg in cmd] for cmd in CLI_COMMANDS]
        self.child_rss_mb = 0.0

    def setup(self) -> None:
        entnet_module("cli")

    def _clear(self, argv) -> Path | None:
        """The command's ``--output`` file, removed so a stale one cannot pass."""
        if "--output" not in argv:
            return None
        path = Path(argv[argv.index("--output") + 1])
        path.unlink(missing_ok=True)
        return path

    def op(self, tracer=None) -> list[tuple]:
        return self._traced_op(tracer) if tracer is not None else self._process_op()

    def _process_op(self) -> list[tuple]:
        results = []
        for argv in self.argvs:
            path = self._clear(argv)
            code, stdout, rss_mb = run_child([sys.executable, "-m", "entnet.cli", *argv],
                                             self.env, self.work, CLI_TIMEOUT_S)
            self.child_rss_mb = max(self.child_rss_mb, rss_mb)
            results.append((code, stdout, path.read_bytes() if path and path.exists() else None))
        return results

    def _traced_op(self, tracer) -> list[tuple]:
        results = []
        for argv in self.argvs:
            path = self._clear(argv)
            with tracer.span("cli.floor"):
                subprocess.run([sys.executable, "-c", "import numpy"], env=self.env,
                               cwd=self.work, check=True, timeout=CLI_TIMEOUT_S)
            with tracer.span("cli.import"):
                cli = fresh_import_cli()
            tracing.instrument(tracer)
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr), tracer.span("cli.handler"):
                    code = cli.main(argv)
            finally:
                tracer.restore()
            data = path.read_bytes() if path and path.exists() else None
            out = stdout.getvalue().encode()
            tracer.counts["tables.bytes_out"] += len(out) + len(data or b"")
            results.append((code, out, data))
        return results

    def check(self, out: list[tuple]) -> tuple[int, list[str]]:
        problems, n_rows = [], 0
        for argv, (code, stdout, data), want in zip(self.argvs, out, expected()["cli_session"]):
            label = " ".join(argv[:3])
            if code != want["exit"]:
                problems.append(f"{label}: exit {code}, expected {want['exit']}")
            if sha256(stdout) != want["stdout_sha256"]:
                problems.append(f"{label}: stdout differs from the recorded bytes")
            if sha256(data) != want["output_sha256"]:
                problems.append(f"{label}: output file differs from the recorded bytes")
            if data is not None:
                n_rows += table_rows_written(data)
        return n_rows, problems

    def peak_rss_mb(self) -> float:
        """Largest peak of the CLI processes; set-up and probe children are left out."""
        return self.child_rss_mb


def table_rows_written(data: bytes) -> int:
    """Detection-table rows in a swap-table CSV or JSON output file."""
    text = data.decode()
    if text.startswith("{"):
        doc = json.loads(text)
        return len(doc["rows"]) + len(doc["suppressed"])
    return max(0, text.count("\n") - 1)


def fresh_import_cli():
    """Drop every ``entnet`` module and import ``entnet.cli`` again."""
    for name in [m for m in sys.modules if m == "entnet" or m.startswith("entnet.")]:
        del sys.modules[name]
    return entnet_module("cli")


WORKLOADS = {cls.name: cls for cls in (CliSession, Sym2dSwap)}
