"""Deterministic serialization of tables, states, and matrices.

Identical inputs must serialize byte-identically: every float goes through
the same 12-significant-digit formatter, every collection is emitted in
canonical order, and state cells are rotated to a fixed global phase.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # annotations only, so the text paths import without numpy
    from .herald import DetectionPattern, ProjectionRow
    from .interferometers import MultiportMatrix
    from .states import QubitState

SIG_DIGITS = 12
RATIONAL_MAX_DEN = 1024
RATIONAL_TOL = 1e-9


def fmt(x: float) -> str:
    """Fixed formatting at 12 significant digits (no trailing junk)."""
    return f"{float(x):.{SIG_DIGITS}g}"


def rational_label(x: float) -> str:
    """Nearest rational of denominator <= ``RATIONAL_MAX_DEN`` within tolerance, else ''."""
    frac = Fraction(x).limit_denominator(RATIONAL_MAX_DEN)
    if abs(float(frac) - x) <= RATIONAL_TOL:
        return f"{frac.numerator}/{frac.denominator}"
    return ""


ROW_FIELDS = ("pattern", "state", "probability", "probability_rational", "class")


def rows_to_records(rows: Sequence[ProjectionRow],
                    suppressed: Iterable[DetectionPattern]) -> list[dict]:
    """One record of raw values per row, then one per suppressed pattern."""
    records = [{"pattern": row.pattern.label(), "state": state_to_doc(row.state),
                "probability": row.probability,
                "probability_rational": rational_label(row.probability),
                "class": row.state_class()} for row in rows]
    return records + [{"pattern": pat.label(), "state": {}, "probability": 0.0,
                       "probability_rational": "0", "class": "suppressed"}
                      for pat in suppressed]


def _cell(value):
    """A float through :func:`fmt`; a state document as ``bits:re:im`` joined by ``;``."""
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, dict):
        return ";".join(f"{bits}:{fmt(re)}:{fmt(im)}" for bits, (re, im) in value.items())
    return value


def records_to_csv(records: Sequence[dict], fieldnames: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(fieldnames)
    writer.writerows([_cell(rec[name]) for name in fieldnames] for rec in records)
    return buf.getvalue()


def complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_to_doc(u: MultiportMatrix) -> dict:
    """Row-major JSON form with [re, im] entries."""
    return {
        "label": u.label,
        "dim": u.dim,
        "entries": [[complex_pair(z) for z in row] for row in u.entries],
    }


def state_to_doc(state: QubitState) -> dict:
    """``{bits: [re, im]}`` in bit order, with a canonical global phase."""
    canon = state.phase_canonical()
    return {bits: complex_pair(a) for bits, a in sorted(canon.amplitudes.items())}
