"""Command-line front end.

Subcommands build interferometers, regenerate heralding tables (optionally
diffing them against the shipped golden data), evaluate the which-path
erasing trade-off, compare four-node strategies, and dispatch any registered
closed-form expression by name.

Exit codes: 0 success, 2 usage or validation error, 3 I/O failure,
4 golden-table mismatch.  A refused input raises ``ValueError``
(``ZeroDivisionError`` for ``em-fidelity``); :func:`main` alone prints
``error: <message>`` and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys

# Numpy-free, and imported by every command: tables formats every output, and
# golden's functions stay attributes of this module.  Each handler imports the
# other modules it calls when it runs.
from . import tables
from .golden import diff_against_golden, load_golden

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_GOLDEN = 4


def _device(name: str):
    """A zero-argument builder of ``interferometers.<name>``, imported when it runs."""
    def build():
        from . import interferometers
        return getattr(interferometers, name)()
    return build


_DEVICES = {2: _device("beam_splitter"), 3: _device("tritter"), 4: _device("quarter")}
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


def _emit_doc(doc: dict, fmt: str, output: str | None, csv_records, csv_fields) -> int:
    if fmt == "json":
        return _emit(json.dumps(_round12(doc), indent=1) + "\n", output)
    return _emit(tables.records_to_csv(csv_records, csv_fields), output)


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        try:
            start, stop, num = (text + ":50" if text.count(":") == 1 else text).split(":")
            start, stop, num = float(start), float(stop), int(num)
        except ValueError:
            raise ValueError(f"bad grid {text!r}; use start:stop[:num]") from None
        if num < 1:
            raise ValueError("grid needs at least one point")
        if num == 1:
            return [start]
        step = (stop - start) / (num - 1)
        return [start + k * step for k in range(num)]
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad list {text!r}; use comma-separated numbers") from None


def _parse_m_list(text: str) -> list[int]:
    if ".." in text:
        try:
            lo, hi = map(int, text.split(".."))
        except ValueError:
            raise ValueError(f"bad range --m {text!r}; use lo..hi with integer ends") from None
        m_list = list(range(lo, hi + 1))
    else:
        try:
            m_list = [int(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"bad list --m {text!r}; use comma-separated integers") from None
    if not m_list:
        raise ValueError(f"--m {text!r} selects no excitation number")
    return m_list


# ------------------------------------------------------------------ multiport

def cmd_multiport(args) -> int:
    from . import interferometers

    if args.kind == "sym2d":
        if args.d is None:
            return _fail("sym2d requires --d")
        u = interferometers.symmetric_multiport(args.d)
    else:
        u = _DEVICES[_KIND_NODES[args.kind]]()
    inv = interferometers.inverse(u)
    if args.verify:
        print(f"unitarity residual: {tables.fmt(interferometers.unitarity_residual(u.entries))}")
        print(f"symmetry residual:  {tables.fmt(interferometers.symmetry_residual(u))}")
    doc = {"matrix": tables.matrix_to_doc(u), "inverse": tables.matrix_to_doc(inv)}
    records = [{"part": part, "row": j + 1, "col": k + 1, "re": re, "im": im}
               for part in doc
               for j, entries in enumerate(doc[part]["entries"])
               for k, (re, im) in enumerate(entries)]
    return _emit_doc(doc, args.format, args.output, records,
                     ("part", "row", "col", "re", "im"))


# ------------------------------------------------------------------ swap-table

def cmd_swap_table(args) -> int:
    from . import herald

    if args.n not in _DEVICES:
        return _fail(f"--n must be one of {sorted(_DEVICES)}")
    if args.max_clicks_per_detector is not None and args.max_clicks_per_detector < 0:
        return _fail("--max-clicks-per-detector must be >= 0")
    if args.golden and args.n not in _GOLDEN_NAMES:
        return _fail(f"no golden table ships for --n {args.n}")
    u = _DEVICES[args.n]()
    state = herald.prepare_swap_input(args.n)
    rows = herald.run_gbsa(state, u)
    suppressed = herald._suppressed(rows, args.n)
    if args.golden:
        name = _GOLDEN_NAMES[args.n]
        try:
            golden = load_golden(name)
        except (OSError, ValueError) as exc:
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
    records = tables.rows_to_records(shown, suppressed)
    doc = {
        "device": u.label,
        "n_nodes": args.n,
        "aggregate": {"threshold_distinct": agg_thr, "number_resolved": agg_nr},
        "rows": records[:len(shown)],
        "suppressed": [p.label() for p in suppressed],
    }
    return _emit_doc(doc, args.format, args.output, records, tables.ROW_FIELDS)


# ------------------------------------------------------------------ wpe

def cmd_wpe(args) -> int:
    from . import analytics

    m_list = _parse_m_list(args.m)
    p_grid = [args.p] if args.sweep is None else _parse_grid(args.sweep)
    if not p_grid:
        return _fail(f"--sweep {args.sweep!r} selects no p")
    points = analytics.wpe_fidelity_sweep(args.n, m_list, p_grid, args.eta)
    if args.simulate:
        from . import sources

        sims = [(sources.wpe_fidelity_sim(args.n, pt.p, pt.m),
                 sources.wpe_rate_sim(args.n, pt.p, pt.m, args.eta)) for pt in points]
        dev_f = max(abs(pt.fidelity - f) for pt, (f, _) in zip(points, sims))
        dev_r = max(abs(pt.rate - r) for pt, (_, r) in zip(points, sims))
        print(f"max |analytic - simulated| fidelity: {tables.fmt(dev_f)}")
        print(f"max |analytic - simulated| rate:     {tables.fmt(dev_r)}")
    doc = {"n_nodes": args.n, "eta_det": args.eta,
           "points": [{"p": pt.p, "m": pt.m, "fidelity": pt.fidelity,
                       "rate": pt.rate} for pt in points]}
    return _emit_doc(doc, args.format, args.output, doc["points"],
                     ("p", "m", "fidelity", "rate"))


# ------------------------------------------------------------------ compare

def cmd_compare(args) -> int:
    from . import analytics

    grid = _parse_grid(args.eta_grid)
    if not grid:
        return _fail("empty efficiency grid")
    points = []
    crossover = None
    for eta in grid:
        cmp4 = analytics.compare_4node(eta, args.r_t)
        crossover = cmp4.crossover_eta
        points.append({"eta_det": eta, "r_bell_chain4": cmp4.r_bell_chain4,
                       "r_quad": cmp4.r_quad})
    print(f"crossover eta: {tables.fmt(crossover)}")
    doc = {"r_t": args.r_t, "crossover_eta": crossover, "points": points}
    return _emit_doc(doc, args.format, args.output, points,
                     ("eta_det", "r_bell_chain4", "r_quad"))


# ------------------------------------------------------------------ analytics

def cmd_analytics(args) -> int:
    from . import analytics

    if args.list or args.name is None:
        for name, spec in sorted(analytics.FORMULAS.items()):
            flags = " ".join(f"--{flag} <{caster.__name__}>" for flag, caster in spec.args)
            print(f"{name:22s} {flags}")
            print(f"{'':22s}   {spec.description}")
        return EXIT_OK
    spec = analytics.FORMULAS.get(args.name)
    if spec is None:
        import difflib

        close = difflib.get_close_matches(args.name, analytics.FORMULAS, n=3)
        hint = f"; did you mean {', '.join(close)}?" if close else ""
        return _fail(f"unknown formula {args.name!r}{hint}")
    parser = argparse.ArgumentParser(prog=f"entnet analytics {args.name}",
                                     description=spec.description, allow_abbrev=False)
    for flag, caster in spec.args:
        parser.add_argument(f"--{flag}", type=caster, required=True)
    kwargs = vars(parser.parse_args(args.flags))
    result = analytics.evaluate_formula(args.name, **kwargs)
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
    p.set_defaults(handler=cmd_multiport)
    p.add_argument("kind", choices=(*_KIND_NODES, "sym2d"))
    p.add_argument("--d", type=int, default=None, help="beam-splitter depth for sym2d")
    p.add_argument("--verify", action="store_true",
                   help="print unitarity and symmetry residuals")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)

    p = sub.add_parser("swap-table", help="heralded swap detection-pattern table")
    p.set_defaults(handler=cmd_swap_table)
    p.add_argument("--n", type=int, required=True, help="number of nodes (2, 3 or 4)")
    p.add_argument("--max-clicks-per-detector", type=int, default=None)
    p.add_argument("--golden", action="store_true",
                   help="diff against the shipped golden table")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("wpe", help="which-path-erasing fidelity/rate evaluation")
    p.set_defaults(handler=cmd_wpe)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", required=True, help="excitations, e.g. 2 or 1..3")
    points = p.add_mutually_exclusive_group(required=True)
    points.add_argument("--p", type=float, help="excitation probability")
    points.add_argument("--sweep", help="p grid start:stop[:num]")
    p.add_argument("--eta", type=float, default=1.0, help="detection efficiency")
    p.add_argument("--simulate", action="store_true",
                   help="cross-check against the exact enumeration")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("compare", help="bipartite-chain vs four-photon strategy")
    p.set_defaults(handler=cmd_compare)
    p.add_argument("--eta-grid", required=True, help="start:stop[:num] or v1,v2,...")
    p.add_argument("--r-t", type=float, default=1.0, help="trial rate (1/s)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--output", default=None)

    p = sub.add_parser("analytics", help="evaluate a registered formula by name")
    p.set_defaults(handler=cmd_analytics)
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true", help="list available formulas")
    p.add_argument("flags", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:   # from argparse, or a formula's parser: --help 0, misuse 2
        return EXIT_USAGE if exc.code else EXIT_OK
    except (ValueError, ZeroDivisionError) as exc:   # a refused input
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
