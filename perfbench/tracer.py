"""In-memory spans around calls into entnet's modules, and their per-op summary.

The benchmark wraps public callables of the package in its own process; no
source file of ``entnet`` changes.  A span records its name, start, end and
the span that was open when it started.  Self time is a span's duration
minus the durations of its direct children, so the self times of all spans
plus the un-spanned remainder add up to the op's wall time.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute, counter) for every wrapped callable.  The
# attribute is the name the *caller* looks up: herald imports the photonics
# and states functions into its own namespace, so those are wrapped there.
LAYERS = (
    ("photonics.transform", "herald", "apply_mode_transform", "photonics.terms_out"),
    ("photonics.expand", "herald", "expand_to_fock", None),
    ("herald.assemble", "herald", "run_gbsa", "herald.rows"),
    ("herald.suppressed", "herald", "suppressed_patterns", None),
    ("herald.aggregate", "herald", "aggregate_heralding", None),
    ("herald.prepare", "herald", "prepare_swap_input", None),
    ("herald.prepare", "herald", "wpe_state", None),
    ("herald.wpe_select", "herald", "wpe_herald", "herald.kept_rows"),
    ("herald.wpe_sim", "herald", "wpe_fidelity_sim", None),
    ("herald.wpe_sim", "herald", "wpe_rate_sim", None),
    ("states.genuine", "herald", "genuinely_entangled", None),
    ("interferometers.build", "herald", "inverse", None),
    ("analytics.itinerant", "analytics", "itinerant_ghz_fidelity_sim", None),
    ("analytics.closed_form", "analytics", "itinerant_ghz_fidelity_formula", None),
    ("analytics.closed_form", "analytics", "wpe_fidelity", None),
    ("analytics.closed_form", "analytics", "wpe_rate", None),
    ("analytics.closed_form", "analytics", "wpe_fidelity_sweep", None),
    ("analytics.closed_form", "analytics", "compare_4node", None),
    ("analytics.closed_form", "analytics", "evaluate_formula", None),
    ("tables.serialize", "tables", "rows_to_records", None),
    ("tables.serialize", "tables", "records_to_csv", None),
    ("tables.serialize", "tables", "state_to_doc", None),
    ("tables.serialize", "cli", "_emit_doc", None),
    ("golden.load", "cli", "load_golden", None),
    ("golden.diff", "cli", "diff_against_golden", "golden.mismatches"),
)

# Spans opened by the harness itself rather than by a wrapper.
HARNESS_SPANS = ("cli.floor", "cli.import", "cli.handler")

SPAN_NAMES = tuple(dict.fromkeys([name for name, *_ in LAYERS] + ["states.classify"]
                                 + list(HARNESS_SPANS)))
COUNT_NAMES = ("photonics.terms_out", "herald.enumerations", "herald.rows",
               "herald.kept_rows", "states.classify_calls", "states.genuine_calls",
               "tables.bytes_out", "golden.mismatches")
# Spans whose number of calls is itself a per-layer count.
CALL_COUNTS = {"herald.assemble": "herald.enumerations",
               "states.classify": "states.classify_calls",
               "states.genuine": "states.genuine_calls"}


def _size(result) -> int:
    return len(result.terms) if hasattr(result, "terms") else len(result)


class Tracer:
    """Spans and counts of one traced op."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id or -1, name, start, end)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1] if self._stack else -1, name, perf_counter(), None))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = self.spans[sid][:4] + (end,)

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, owner, attr: str, name: str, counter: str | None = None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]``) with a span-recording wrapper."""
        is_map = isinstance(owner, dict)
        original = owner[attr] if is_map else getattr(owner, attr)
        calls = CALL_COUNTS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sid)
            if calls:
                self.counts[calls] += 1
            if counter:
                self.counts[counter] += _size(result)
            return result

        if is_map:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original, is_map))

    def restore(self) -> None:
        for owner, attr, original, is_map in reversed(self._patches):
            if is_map:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def summary(self, op_seconds: float) -> dict[str, float]:
        """Self seconds per span name, counts, and the un-spanned remainder."""
        child = defaultdict(float)
        spanned = 0.0
        for _, parent, _, start, end in self.spans:
            if parent < 0:
                spanned += end - start
            else:
                child[parent] += end - start
        out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        for sid, _, name, start, end in self.spans:
            out[f"{name}_s"] += end - start - child[sid]
        out.update({name: float(self.counts[name]) for name in COUNT_NAMES})
        out["trace.unspanned_s"] = op_seconds - spanned
        return out

    def dump(self) -> list[list]:
        """Spans as ``[id, parent, name, start, end]`` relative to the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return [[sid, parent, name, start - t0, end - t0]
                for sid, parent, name, start, end in self.spans]


def instrument(tracer: Tracer) -> None:
    """Wrap the callables in ``LAYERS`` on the currently imported entnet modules."""
    modules = {name: importlib.import_module(f"entnet.{name}")
               for name in ("herald", "analytics", "tables", "cli")}
    for name, module, attr, counter in LAYERS:
        tracer.wrap(modules[module], attr, name, counter)
    tracer.wrap(modules["herald"].ProjectionRow, "state_class", "states.classify")
    devices = modules["cli"]._DEVICES   # the CLI keeps its own references to the builders
    for n in list(devices):
        tracer.wrap(devices, n, "interferometers.build")
