"""Heralded-scheme enumeration: swap analysers and which-path erasers.

Feeds atom-photon entangled inputs through a multiport, expands the exact
output Fock statistics, and groups them into detection-pattern rows carrying
the projected (normalized) atomic state and the pattern probability.  Each
table is built as columns (:class:`DetectionTable`), and its rows are views
of them.  Losses are never simulated here; detector efficiency enters only
through the analytic rate factors in :mod:`entnet.analytics`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .interferometers import MultiportMatrix, inverse
from .photonics import FockState, HybridState, Mode, propagate
# Not called here: perfbench/tracer.py wraps these three by name in this
# module, so they stay importable from it.
from .photonics import apply_mode_transform, expand_to_fock  # noqa: F401
from .states import genuinely_entangled  # noqa: F401
from .bipartitions import _gather, entanglement_classes_csr
# The inputs and the eraser's sector sums live in the numpy-free ``sources``;
# they are re-exported here, where perfbench/tracer.py also wraps them by name.
from .sources import (_product_state, _wpe_tail, prepare_swap_input,  # noqa: F401
                      wpe_fidelity_sim, wpe_rate_sim, wpe_sector_probabilities, wpe_state)
from .states import GENUINE_CLASSES, NORM_TOL, QubitState

DetectionPattern = FockState


@dataclass(frozen=True)
class DetectorModel:
    """Detector read-out: exact counts or a bare click per detector."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("threshold", "number_resolved"):
            raise ValueError(f"unknown detector kind {self.kind!r}")


THRESHOLD = DetectorModel("threshold")
NUMBER_RESOLVED = DetectorModel("number_resolved")


@dataclass(frozen=True)
class HeraldRule:
    """Acceptance rule for heralding events.

    ``entanglement_filter`` sees accepted rows only.  It defaults to "the
    projected atomic state is genuinely multipartite" (no bipartition
    leaves it product), which reproduces the published analyser
    efficiencies; any predicate on a :class:`ProjectionRow` may be
    substituted, e.g. one keeping every non-product state.
    """

    required_clicks: int
    distinct_detectors_only: bool = False
    entanglement_filter: Callable[["ProjectionRow"], bool] | None = None

    def __post_init__(self):
        if self.required_clicks < 1:
            raise ValueError("required_clicks must be >= 1")


class DetectionTable:
    """The columns of one detection table, one entry per row.

    Row ``i``'s pattern has ``occupations[i, j]`` photons in output mode
    ``modes[j]``, rows in canonical (Fock key) order; a key is built when read.
    ``probabilities`` are the rows' float probabilities; ``n_detectors``,
    ``n_photons`` and ``max_per_detector`` count each row's clicks.  The
    normalized projected amplitudes are one CSR block: row ``i`` has
    ``amplitudes[offsets[i]:offsets[i + 1]]`` on the atomic registers
    ``atoms[...]`` (bitstrings as binary integers, ascending).  ``labels``
    holds each row's entanglement class, for every row or for none: a walk
    of the whole table sets them all at once.  ``dicke`` is an eraser
    table's :func:`dicke_family_fidelity` column.

    A row's :class:`QubitState` is built from its CSR slice the first time
    it is read; it carries the row's label, now or when a walk sets it.
    """

    def __init__(self, n_atoms: int, modes: list[Mode], occupations: np.ndarray,
                 probabilities: list[float], offsets: np.ndarray, atoms: np.ndarray,
                 amplitudes: np.ndarray, labels: list | None = None):
        self.n_atoms = n_atoms
        self.modes, self.occupations = modes, occupations
        self.probabilities = probabilities
        self.n_detectors = (occupations > 0).sum(axis=1).tolist()
        self.n_photons = occupations.sum(axis=1).tolist()
        self.max_per_detector = occupations.max(axis=1, initial=0).tolist()
        self.offsets, self.atoms, self.amplitudes = offsets, atoms, amplitudes
        self.labels = labels or [None] * len(probabilities)
        self.dicke: list[float] | None = None
        self._states: list[QubitState | None] = [None] * len(probabilities)
        self._entries = None  # the CSR block as Python lists, made for the first state

    def rows(self) -> list["ProjectionRow"]:
        view = ProjectionRow._view
        return [view(self, i) for i in range(len(self.probabilities))]

    def state(self, i: int) -> QubitState:
        state = self._states[i]
        if state is None:
            if self._entries is None:
                names = [format(v, f"0{self.n_atoms}b") for v in range(2 ** self.n_atoms)]
                self._entries = (self.offsets.tolist(),
                                 [names[v] for v in self.atoms.tolist()],
                                 self.amplitudes.tolist())
            offsets, bits, amps = self._entries
            lo, hi = offsets[i], offsets[i + 1]
            state = self._states[i] = QubitState._trusted(
                self.n_atoms, dict(zip(bits[lo:hi], amps[lo:hi])), self.labels[i])
        return state

    def classify(self) -> None:
        """Label every row in one walk of the table's own CSR block.

        The states already built take their row's label too.
        """
        self.labels = entanglement_classes_csr(self.n_atoms, self.offsets, self.atoms,
                                               self.amplitudes)
        for state, label in zip(self._states, self.labels):
            if state is not None:
                state._label = label

    def take(self, rows: Sequence[int]) -> "DetectionTable":
        """A table of the rows ``rows`` of this one, in that order."""
        offsets, entries = _gather(self.offsets, rows)
        return DetectionTable(
            self.n_atoms, self.modes, self.occupations[rows],
            [self.probabilities[i] for i in rows], offsets, self.atoms[entries],
            self.amplitudes[entries], [self.labels[i] for i in rows])


@dataclass(init=False, repr=False, eq=False)
class ProjectionRow:
    """One detection pattern with its projected atomic state and probability.

    A row of a table returned by :func:`run_gbsa` or :func:`wpe_herald` is a
    view of one row of its :class:`DetectionTable`; its pattern and state
    are built when read.  A row built by hand is a one-row table of its own.
    Rows compare by identity.
    """

    # Dataclass fields, so that ``dataclasses.replace`` copies a row into a
    # hand-built one; each is a property reading the row's table.
    pattern: DetectionPattern
    state: QubitState
    probability: float
    #: best-phase overlap with the equal-weight excitation manifold matching
    #: the herald (set by :func:`wpe_herald` only)
    dicke_fidelity: float | None

    __slots__ = ("_table", "_index")

    def __init__(self, pattern: DetectionPattern, state: QubitState, probability: float,
                 dicke_fidelity: float | None = None):
        bits, amps = zip(*sorted(state.amplitudes.items()))
        table = DetectionTable(
            state.n_qubits, [m for m, _ in pattern.key],
            np.array([[k for _, k in pattern.key]], dtype=int), [probability],
            np.array([0, len(bits)]), np.array([int(b, 2) for b in bits], dtype=int),
            np.array(amps, dtype=complex), [state._label])
        table._states[0] = state
        table.dicke = None if dicke_fidelity is None else [dicke_fidelity]
        self._table, self._index = table, 0

    @classmethod
    def _view(cls, table: DetectionTable, index: int) -> "ProjectionRow":
        row = cls.__new__(cls)
        row._table, row._index = table, index
        return row

    @property
    def pattern(self) -> DetectionPattern:
        table = self._table
        counts = table.occupations[self._index].tolist()
        return FockState.from_key([(m, k) for m, k in zip(table.modes, counts) if k])

    @property
    def state(self) -> QubitState:
        return self._table.state(self._index)

    @property
    def probability(self) -> float:
        return self._table.probabilities[self._index]

    @property
    def dicke_fidelity(self) -> float | None:
        dicke = self._table.dicke
        return None if dicke is None else dicke[self._index]

    @property
    def n_photons(self) -> int:
        return self._table.n_photons[self._index]

    @property
    def n_detectors(self) -> int:
        return self._table.n_detectors[self._index]

    @property
    def max_per_detector(self) -> int:
        return self._table.max_per_detector[self._index]

    def state_class(self) -> str:
        """Entanglement class of the projected state.

        The first query on any row of a table, an aggregate's included,
        labels all its rows in one walk (:meth:`DetectionTable.classify`);
        later queries read the stored label.
        """
        table = self._table
        if table.labels[self._index] is None:
            table.classify()
        return table.labels[self._index]

    def __repr__(self) -> str:
        return f"ProjectionRow({self.pattern.label()}, p={self.probability!r})"


def _canonical_order(occupations: np.ndarray) -> np.ndarray:
    """The order of the rows of ``occupations`` by their Fock keys.

    A Fock key lists its occupied modes in mode order as ``(mode, k)`` pairs,
    so two keys compare by the first pair they differ in, a prefix first.
    Each pair is coded as ``mode index * base + k`` and a missing one as -1.
    """
    rows, cols = np.nonzero(occupations)  # row-major: each row's modes in mode order
    base = int(occupations.max(initial=0)) + 1
    start = np.searchsorted(rows, np.arange(len(occupations) + 1))
    code = np.full((len(occupations), max(1, int(np.diff(start).max(initial=0)))), -1)
    code[rows, np.arange(len(rows)) - start[rows]] = cols * base + occupations[rows, cols]
    return np.lexsort(code.T[::-1])


def run_gbsa(state: HybridState, u: MultiportMatrix) -> list[ProjectionRow]:
    """Propagate through ``u`` and enumerate every detection pattern.

    Returns one row per output Fock pattern (sorted canonically) with the
    normalized projected atomic state and the exact pattern probability; the
    probabilities of a complete input sum to 1.  The rows are views of one
    :class:`DetectionTable`, built in one pass over the nonzero cells of
    :func:`~entnet.photonics.propagate`: one lexsort orders the patterns and
    one stable argsort puts the cells into rows.  Every probability and
    amplitude is bit-identical to the table built from the polynomial
    reference (``fock_to_polynomial``, ``apply_mode_transform``,
    ``expand_to_fock``).  So each probability is ``sum(abs(a) ** 2 ...)``
    over its row's cells in register order, with ``abs`` as ``hypot``:
    ``m ** 2`` stays CPython's float power, since numpy's ``x ** 2`` is
    ``x * x`` (it differs from libm's ``pow`` on about 0.09% of values) and
    ``np.power`` differs on others; the rows are summed on arrays rank by
    rank from ``0.0``, one addition per cell in order, as Python 3.11's
    ``sum`` adds floats, since numpy's own sums are pairwise.  The
    amplitudes are scaled by ``1 / sqrt(p)`` as CPython's complex-times-float
    in separate float operations, since numpy's complex multiply may fuse
    them, and checked to be normalized, all rows at once.

    Raises:
        CapacityError: the whole expansion is oversize.
        DimensionMismatch: a photon sits on a port that is not an integer in
            ``1..dim``.  Both are raised before any term is expanded.
        ValueError: an amplitude is not finite, so a row cannot be normalized.
    """
    out = propagate(state, inverse(u))
    order = _canonical_order(out.occupations)
    owner = np.argsort(order)[out.pattern]  # each cell's row
    cells = np.argsort(owner, kind="stable")  # keeps each pattern's cells in register order
    owner = owner[cells]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=len(order)))))
    re, im = out.amplitudes.real[cells], out.amplitudes.imag[cells]
    squares = np.array([m ** 2 for m in np.hypot(re, im).tolist()])  # CPython's abs(complex)
    # each row sums rank by rank from 0.0, as Python 3.11's ``sum`` adds a list of floats
    sizes = np.diff(offsets)
    probs = 0.0 + squares[offsets[:-1]]
    for rank in range(1, sizes.max(initial=0)):
        rows = np.flatnonzero(sizes > rank)
        probs[rows] += squares[offsets[rows] + rank]

    scale = (1 / np.sqrt(probs))[owner]
    amplitudes = np.empty(len(cells), complex)
    amplitudes.real = re * scale - im * 0.0
    amplitudes.imag = re * 0.0 + im * scale
    norms = np.bincount(owner, weights=amplitudes.real ** 2 + amplitudes.imag ** 2,
                        minlength=len(order))
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise ValueError("a projected state cannot be normalized: an amplitude is not finite")
    return DetectionTable(state.n_atoms, out.modes, out.occupations[order], probs.tolist(),
                          offsets, out.registers[cells], amplitudes).rows()


def suppressed_patterns(state: HybridState, u: MultiportMatrix,
                        total_clicks: int) -> list[DetectionPattern]:
    """Patterns reachable by photon bookkeeping whose amplitude cancels.

    A candidate is any ``total_clicks``-photon multiset over the output
    modes whose per-polarization photon counts match some input term (the
    multiport preserves polarization, so those counts are conserved);
    suppressed means the full enumeration assigns it no probability.
    """
    return _suppressed(state, u.dim, run_gbsa(state, u), total_clicks)


def _suppressed(state: HybridState, dim: int, rows: Sequence[ProjectionRow],
                total_clicks: int) -> list[DetectionPattern]:
    """:func:`suppressed_patterns` against rows already enumerated from ``state``.

    Each feasible polarization sector is enumerated directly, as the product
    over polarizations of the multisets of that polarization's output modes.
    """
    sectors = {tuple(sorted(Counter(m.pol for m, k in fkey for _ in range(k)).items()))
               for _, fkey in state.terms if sum(k for _, k in fkey) == total_clicks}
    realized = {row.pattern.key for row in rows if row.n_photons == total_clicks}
    out = []
    for sector in sectors:
        per_pol = [itertools.combinations_with_replacement(
            [Mode(port, pol) for port in range(1, dim + 1)], k) for pol, k in sector]
        for parts in itertools.product(*per_pol):
            fock = FockState.from_monomial(tuple(itertools.chain(*parts)))
            if fock.key not in realized:
                out.append(fock)
    return sorted(out, key=lambda f: f.key)


def _accepts(row: ProjectionRow, model: DetectorModel, rule: HeraldRule) -> bool:
    """Whether ``rule`` accepts the row's pattern, read from its table's click columns."""
    table, i = row._table, row._index
    if rule.distinct_detectors_only and table.max_per_detector[i] > 1:
        return False
    # threshold detectors only resolve which detectors fired
    clicks = table.n_detectors if model.kind == "threshold" else table.n_photons
    return clicks[i] == rule.required_clicks


def aggregate_heralding(rows: Sequence[ProjectionRow], model: DetectorModel,
                        rule: HeraldRule) -> float:
    """Total probability of accepted patterns whose state passes the filter.

    One sum in row order.  The filter sees accepted rows only; the default
    one reads :meth:`ProjectionRow.state_class`, so the first label it asks
    for walks the row's whole table.
    """
    keep = rule.entanglement_filter or (lambda row: row.state_class() in GENUINE_CLASSES)
    return sum(row.probability for row in rows if _accepts(row, model, rule) and keep(row))


def subnetwork_swap(m: int, u: MultiportMatrix,
                    ports: Sequence[int] | None = None) -> list[ProjectionRow]:
    """Swap table for ``m`` Bell pairs feeding an ``m``-or-larger multiport.

    Unused input ports stay in vacuum; ``ports`` defaults to ``1..m``.
    ``m = dim`` is the full-network swap.
    """
    if not 2 <= m <= u.dim:
        raise ValueError(f"m must be in 2..{u.dim}, got {m}")
    return run_gbsa(prepare_swap_input(m, ports=ports), u)


def dicke_family_fidelity(state: QubitState, m: int) -> float:
    """Best overlap with the ``m``-excitation equal-weight manifold.

    Treating every component phase of the target as free gives
    ``(sum_S |c_S|)^2 / C(n, m)`` over the ``m``-excitation components
    ``c_S``; amplitude outside that excitation sector only loses weight.
    This is an upper bound on the fidelity to a generalized collective
    state, whose phases are per-node ones (``prod_{i in S} e^{i phi_i}``).
    It is reached only when the components' phases factor that way, which
    the states heralded by a symmetric eraser need not do: at 6 nodes and
    3 clicks on the 8-port butterfly, rows of weight 0.0358 read 1.0 here
    although their phases are not per-node ones.
    """
    if not 0 <= m <= state.n_qubits:
        raise ValueError(f"need 0 <= m <= {state.n_qubits}, got m={m}")
    total = sum(abs(a) for bits, a in state.amplitudes.items()
                if bits.count("1") == m)
    return total ** 2 / math.comb(state.n_qubits, m)


def wpe_herald(state: HybridState, u: MultiportMatrix, m_clicks: int,
               model: DetectorModel = THRESHOLD) -> list[ProjectionRow]:
    """Detection rows of the which-path eraser heralding on ``m_clicks``.

    Under threshold detectors a nominal ``m``-click event is any pattern
    firing exactly ``m`` distinct detectors, so the heralded ensemble is the
    mixture of the returned rows; number-resolved detectors accept patterns
    of exactly ``m`` photons.  Every row carries its conditional
    :func:`dicke_family_fidelity` against the ``m``-excitation target, the
    free-phase upper bound, so the probability-weighted row value bounds
    the heralded-state fidelity from above.
    """
    if m_clicks < 1:
        raise ValueError("m_clicks must be >= 1")
    rule = HeraldRule(m_clicks)
    kept = [row for row in run_gbsa(state, u) if _accepts(row, model, rule)]
    if not kept:
        return []
    table = kept[0]._table.take([row._index for row in kept])
    table.dicke = [dicke_family_fidelity(table.state(i), m_clicks) for i in range(len(kept))]
    return table.rows()
