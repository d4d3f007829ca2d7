"""Command-line front end.

Subcommands build interferometers, regenerate heralding tables (optionally
diffing them against the shipped golden data), evaluate the which-path
erasing trade-off, compare four-node strategies, and dispatch any registered
closed-form expression by name.

Exit codes: 0 success, 2 usage or validation error, 3 I/O failure,
4 golden-table mismatch.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys

from . import analytics, herald, interferometers, tables
from .golden import diff_against_golden, load_golden

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_GOLDEN = 4

_DEVICES = {
    2: interferometers.beam_splitter,
    3: interferometers.tritter,
    4: interferometers.quarter,
}
_GOLDEN_NAMES = {3: "tritter", 4: "quarter"}
_KIND_NODES = {"bs": 2, "tritter": 3, "quarter": 4}


def _fail(msg: str, code: int = EXIT_USAGE) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _emit(text: str, output: str | None) -> int:
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w", newline="") as fp:
            fp.write(text)
    except OSError as exc:
        return _fail(f"cannot write {output}: {exc}", EXIT_IO)
    return EXIT_OK


def _round12(value):
    """Recursively pin floats to the 12-significant-digit contract."""
    if isinstance(value, float):
        return float(tables.fmt(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _emit_doc(doc: dict, fmt: str, output: str | None, csv_records=None,
              csv_fields=None) -> int:
    if fmt == "json":
        return _emit(json.dumps(_round12(doc), indent=1) + "\n", output)
    return _emit(tables.records_to_csv(csv_records, csv_fields), output)


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            start, stop, num = float(parts[0]), float(parts[1]), 50
        elif len(parts) == 3:
            start, stop, num = float(parts[0]), float(parts[1]), int(parts[2])
        else:
            raise ValueError(f"bad grid {text!r}; use start:stop[:num]")
        if num < 1:
            raise ValueError("grid needs at least one point")
        if num == 1:
            return [start]
        step = (stop - start) / (num - 1)
        return [start + k * step for k in range(num)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_m_list(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        m_list = list(range(int(lo), int(hi) + 1))
    else:
        m_list = [int(tok) for tok in text.split(",") if tok.strip()]
    if not m_list:
        raise ValueError(f"--m {text!r} selects no excitation number")
    return m_list


# ------------------------------------------------------------------ multiport

def cmd_multiport(args) -> int:
    if args.kind == "sym2d":
        if args.d is None:
            return _fail("sym2d requires --d")
        try:
            u = interferometers.symmetric_multiport(args.d)
        except ValueError as exc:
            return _fail(str(exc))
    else:
        u = _DEVICES[_KIND_NODES[args.kind]]()
    inv = interferometers.inverse(u)
    if args.verify:
        print(f"unitarity residual: {tables.fmt(interferometers.unitarity_residual(u.entries))}")
        print(f"symmetry residual:  {tables.fmt(interferometers.symmetry_residual(u))}")
    doc = {"matrix": tables.matrix_to_doc(u), "inverse": tables.matrix_to_doc(inv)}
    records = []
    for name, m in (("matrix", u), ("inverse", inv)):
        for j in range(m.dim):
            for k in range(m.dim):
                z = m.entries[j, k]
                records.append({"part": name, "row": j + 1, "col": k + 1,
                                "re": tables.fmt(z.real), "im": tables.fmt(z.imag)})
    return _emit_doc(doc, args.format, args.output, records,
                     ("part", "row", "col", "re", "im"))


# ------------------------------------------------------------------ swap-table

def cmd_swap_table(args) -> int:
    if args.n not in _DEVICES:
        return _fail(f"--n must be one of {sorted(_DEVICES)}")
    if args.max_clicks_per_detector is not None and args.max_clicks_per_detector < 0:
        return _fail("--max-clicks-per-detector must be >= 0")
    u = _DEVICES[args.n]()
    state = herald.prepare_swap_input(args.n)
    rows = herald.run_gbsa(state, u)
    suppressed = herald._suppressed(state, u.dim, rows, args.n)
    if args.golden:
        name = _GOLDEN_NAMES.get(args.n)
        if name is None:
            return _fail("no golden table ships for --n 2")
        try:
            golden = load_golden(name)
        except OSError as exc:
            return _fail(f"cannot read golden table: {exc}", EXIT_IO)
        problems = diff_against_golden(rows, suppressed, golden)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            print(f"golden diff: {len(problems)} mismatches against "
                  f"{name}.json", file=sys.stderr)
            return EXIT_GOLDEN
        print(f"golden diff: {name}.json reproduced "
              f"({len(golden.rows)} rows, {len(golden.suppressed)} suppressed)")
        return EXIT_OK
    shown = rows if args.max_clicks_per_detector is None else [
        r for r in rows if r.max_per_detector <= args.max_clicks_per_detector]
    agg_thr = herald.aggregate_heralding(
        rows, herald.THRESHOLD,
        herald.HeraldRule(args.n, distinct_detectors_only=True))
    agg_nr = herald.aggregate_heralding(
        rows, herald.NUMBER_RESOLVED, herald.HeraldRule(args.n))
    print(f"p_BSA threshold/distinct: {tables.fmt(agg_thr)}"
          f" ({tables.rational_label(agg_thr) or 'no small rational'})")
    print(f"p_BSA number-resolved:    {tables.fmt(agg_nr)}"
          f" ({tables.rational_label(agg_nr) or 'no small rational'})")
    doc = {
        "device": u.label,
        "n_nodes": args.n,
        "aggregate": {"threshold_distinct": agg_thr, "number_resolved": agg_nr},
        "rows": [{"pattern": r.pattern.label(),
                  "state": tables.state_to_doc(r.state),
                  "probability": r.probability,
                  "probability_rational": tables.rational_label(r.probability),
                  "class": r.state_class()} for r in shown],
        "suppressed": [p.label() for p in suppressed],
    }
    return _emit_doc(doc, args.format, args.output,
                     tables.rows_to_records(shown, suppressed), tables.ROW_FIELDS)


# ------------------------------------------------------------------ wpe

def cmd_wpe(args) -> int:
    try:
        m_list = _parse_m_list(args.m)
        p_grid = _parse_grid(args.sweep) if args.sweep else [args.p]
    except ValueError as exc:
        return _fail(str(exc))
    if args.p is None and not args.sweep:
        return _fail("need --p or --sweep")
    try:
        points = analytics.wpe_fidelity_sweep(args.n, m_list, p_grid, args.eta)
    except ValueError as exc:
        return _fail(str(exc))
    if args.simulate:
        if args.n > 8:
            return _fail("--simulate supports up to 8 nodes")
        dev_f = dev_r = 0.0
        for pt in points:
            dev_f = max(dev_f, abs(pt.fidelity - herald.wpe_fidelity_sim(args.n, pt.p, pt.m)))
            dev_r = max(dev_r, abs(pt.rate - herald.wpe_rate_sim(args.n, pt.p, pt.m, args.eta)))
        print(f"max |analytic - simulated| fidelity: {tables.fmt(dev_f)}")
        print(f"max |analytic - simulated| rate:     {tables.fmt(dev_r)}")
    records = [{"p": tables.fmt(pt.p), "m": str(pt.m),
                "fidelity": tables.fmt(pt.fidelity), "rate": tables.fmt(pt.rate)}
               for pt in points]
    doc = {"n_nodes": args.n, "eta_det": args.eta,
           "points": [{"p": pt.p, "m": pt.m, "fidelity": pt.fidelity,
                       "rate": pt.rate} for pt in points]}
    return _emit_doc(doc, args.format, args.output, records,
                     ("p", "m", "fidelity", "rate"))


# ------------------------------------------------------------------ compare

def cmd_compare(args) -> int:
    try:
        grid = _parse_grid(args.eta_grid)
    except ValueError as exc:
        return _fail(str(exc))
    if not grid:
        return _fail("empty efficiency grid")
    rows = []
    crossover = None
    for eta in grid:
        try:
            cmp4 = analytics.compare_4node(eta, args.r_t)
        except ValueError as exc:
            return _fail(str(exc))
        crossover = cmp4.crossover_eta
        rows.append((eta, cmp4.r_bell_chain4, cmp4.r_quad))
    print(f"crossover eta: {tables.fmt(crossover)}")
    records = [{"eta_det": tables.fmt(e), "r_bell_chain4": tables.fmt(b),
                "r_quad": tables.fmt(q)} for e, b, q in rows]
    doc = {"r_t": args.r_t, "crossover_eta": crossover,
           "points": [{"eta_det": e, "r_bell_chain4": b, "r_quad": q}
                      for e, b, q in rows]}
    return _emit_doc(doc, args.format, args.output, records,
                     ("eta_det", "r_bell_chain4", "r_quad"))


# ------------------------------------------------------------------ analytics

def _coerce(spec_args, pairs):
    kwargs = {}
    for flag, caster in spec_args:
        key = flag.replace("-", "_")
        if flag not in pairs:
            raise KeyError(f"missing --{flag}")
        kwargs[key] = caster(pairs[flag])
    extra = set(pairs) - {flag for flag, _ in spec_args}
    if extra:
        raise KeyError("unknown argument(s): " + ", ".join(f"--{e}" for e in sorted(extra)))
    return kwargs


def cmd_analytics(args, extras) -> int:
    if args.list or args.name is None:
        for name, spec in sorted(analytics.FORMULAS.items()):
            flags = " ".join(f"--{flag} <{caster.__name__}>" for flag, caster in spec.args)
            print(f"{name:22s} {flags}")
            print(f"{'':22s}   {spec.description}")
        return EXIT_OK
    spec = analytics.FORMULAS.get(args.name)
    if spec is None:
        close = difflib.get_close_matches(args.name, analytics.FORMULAS, n=3)
        hint = f"; did you mean {', '.join(close)}?" if close else ""
        return _fail(f"unknown formula {args.name!r}{hint}")
    pairs = {}
    key = None
    for tok in extras:
        if tok.startswith("--"):
            key = tok[2:]
        elif key is not None:
            pairs[key] = tok
            key = None
        else:
            return _fail(f"stray argument {tok!r}")
    if key is not None:
        return _fail(f"flag --{key} is missing a value")
    try:
        kwargs = _coerce(spec.args, pairs)
        result = analytics.evaluate_formula(args.name, **kwargs)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        return _fail(f"{msg}")
    marker = "proportional factor" if result.is_proportional else "absolute"
    print(f"{tables.fmt(result.value)} ({marker})")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entnet",
        description="Multipartite-entanglement analyser toolkit for photonic networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("multiport", help="build a symmetric multiport and its inverse")
    p.add_argument("kind", choices=(*_KIND_NODES, "sym2d"))
    p.add_argument("--d", type=int, default=None, help="beam-splitter depth for sym2d")
    p.add_argument("--verify", action="store_true",
                   help="print unitarity and symmetry residuals")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("swap-table", help="heralded swap detection-pattern table")
    p.add_argument("--n", type=int, required=True, help="number of nodes (2, 3 or 4)")
    p.add_argument("--max-clicks-per-detector", type=int, default=None)
    p.add_argument("--golden", action="store_true",
                   help="diff against the shipped golden table")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("wpe", help="which-path-erasing fidelity/rate evaluation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", required=True, help="excitations, e.g. 2 or 1..3")
    p.add_argument("--p", type=float, default=None, help="excitation probability")
    p.add_argument("--sweep", default=None, help="p grid start:stop[:num]")
    p.add_argument("--eta", type=float, default=1.0, help="detection efficiency")
    p.add_argument("--simulate", action="store_true",
                   help="cross-check against the exact enumeration")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("compare", help="bipartite-chain vs four-photon strategy")
    p.add_argument("--eta-grid", required=True, help="start:stop[:num] or v1,v2,...")
    p.add_argument("--r-t", type=float, default=1.0, help="trial rate (1/s)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("analytics", help="evaluate a registered formula by name")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list available formulas")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        if command == "analytics":
            args, extras = parser.parse_known_args(argv)
            return cmd_analytics(args, extras)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {"multiport": cmd_multiport, "swap-table": cmd_swap_table,
               "wpe": cmd_wpe, "compare": cmd_compare}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
