"""Shipped golden detection-pattern tables and diffing against them.

The JSON files under ``data/golden`` hold the reference tables for the
four-port and three-port analysers fed with one Bell pair per input: every
detection pattern with its projected atomic state (as printed, possibly
unnormalized), its probability as an exact rational, and the list of
interference-suppressed patterns.  Set ``ENTNET_GOLDEN_DIR`` to diff against
a different directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .herald import DetectionPattern, ProjectionRow
    from .states import QubitState

GOLDEN_ENV = "ENTNET_GOLDEN_DIR"
PROB_TOL = 1e-9
FID_TOL = 1e-9


@dataclass(frozen=True)
class GoldenRow:
    pattern: str
    state: QubitState          # normalized for comparison
    norm_sq: float             # as printed, before normalization
    probability: str           # exact rational, e.g. "1/128"
    probability_value: float
    max_per_detector: int
    n_photons: int


@dataclass(frozen=True)
class GoldenTable:
    device: str
    ports: int
    rows: tuple[GoldenRow, ...]
    suppressed: frozenset[str]


def golden_path(device: str) -> Path:
    override = os.environ.get(GOLDEN_ENV)
    if override:
        return Path(override) / f"{device}.json"
    return Path(resources.files("entnet") / "data" / "golden" / f"{device}.json")


def load_golden(device: str) -> GoldenTable:
    """Parse a golden table.

    Raises:
        OSError: the file cannot be read.
        ValueError: the file is not a golden table.
    """
    from .states import QubitState

    path = golden_path(device)
    try:
        doc = json.loads(path.read_text())
        n_atoms = len(next(iter(doc["rows"][0]["state"])))
        rows = []
        for r in doc["rows"]:
            amps = {bits: complex(re, im) for bits, (re, im) in r["state"].items()}
            state = QubitState(n_atoms, amps, normalize=True)
            rows.append(GoldenRow(r["pattern"], state, r["norm_sq"], r["probability"],
                                  r["probability_value"], r["max_per_detector"],
                                  r["n_photons"]))
        return GoldenTable(doc["device"], doc["ports"], tuple(rows),
                           frozenset(doc["suppressed"]))
    except (LookupError, TypeError, ValueError, AttributeError, StopIteration) as exc:
        raise ValueError(f"{path} is not a golden table ({type(exc).__name__}: {exc})") from exc


def diff_against_golden(rows: list[ProjectionRow],
                        suppressed: list[DetectionPattern],
                        golden: GoldenTable) -> list[str]:
    """Compare an enumeration with a golden table; empty result means match.

    States compare up to global phase (fidelity between normalized states)
    within ``FID_TOL``, probabilities within ``PROB_TOL``, suppressed lists
    as sets.
    """
    from .states import fidelity

    problems: list[str] = []
    sim = {row.pattern.label(): row for row in rows}
    seen = set()
    for g in golden.rows:
        seen.add(g.pattern)
        row = sim.get(g.pattern)
        if row is None:
            problems.append(f"pattern {g.pattern}: expected but not realized")
            continue
        if abs(row.probability - g.probability_value) > PROB_TOL:
            problems.append(
                f"pattern {g.pattern}: probability {row.probability:.12g} != "
                f"{g.probability} ({g.probability_value:.12g})")
        fid = fidelity(row.state, g.state)
        if fid < 1 - FID_TOL:
            problems.append(
                f"pattern {g.pattern}: projected state differs "
                f"(fidelity {fid:.12g})")
    for label in sorted(set(sim) - seen):
        problems.append(f"pattern {label}: realized but absent from the golden table")
    sup = {p.label() for p in suppressed}
    for label in sorted(golden.suppressed - sup):
        problems.append(f"suppressed {label}: expected suppressed, but realized")
    for label in sorted(sup - golden.suppressed):
        problems.append(f"suppressed {label}: suppressed, but golden lists it")
    return problems
