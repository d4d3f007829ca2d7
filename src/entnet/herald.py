"""Heralded-scheme enumeration: swap analysers and which-path erasers.

Feeds atom-photon entangled inputs through a multiport, expands the exact
output Fock statistics, and groups them into detection-pattern rows carrying
the projected (normalized) atomic state and the pattern probability.  Each
table is built as columns (:class:`DetectionTable`), and its rows are views
of them.  Losses
are never simulated here; detector efficiency enters only through the
analytic rate factors in :mod:`entnet.analytics`.
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
from .states import GENUINE_CLASSES, NORM_TOL, QubitState, entanglement_classes_csr

#: pattern amplitudes below this are treated as exactly suppressed
SUPPRESSION_TOL = 1e-12

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

    ``entanglement_filter`` defaults to "the projected atomic state is
    genuinely multipartite" (no bipartition leaves it product), which
    reproduces the published analyser efficiencies; any predicate on a
    :class:`ProjectionRow` may be substituted, e.g. one keeping every
    non-product state.
    """

    required_clicks: int
    distinct_detectors_only: bool = False
    entanglement_filter: Callable[["ProjectionRow"], bool] | None = None

    def __post_init__(self):
        if self.required_clicks < 1:
            raise ValueError("required_clicks must be >= 1")


def _gather(offsets: np.ndarray, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the CSR rows ``rows`` stacked in that order, and their entry indices."""
    rows = np.asarray(rows, dtype=int)
    sizes = offsets[rows + 1] - offsets[rows]
    stacked = np.concatenate(([0], np.cumsum(sizes)))
    return stacked, np.repeat(offsets[rows] - stacked[:-1], sizes) + np.arange(stacked[-1])


class DetectionTable:
    """The columns of one detection table, one entry per row.

    ``keys`` are the rows' Fock keys in canonical order and
    ``probabilities`` their float probabilities; ``n_detectors``,
    ``n_photons`` and ``max_per_detector`` count each row's clicks.  The
    normalized projected amplitudes are one CSR block: row ``i`` has
    ``amplitudes[offsets[i]:offsets[i + 1]]`` on the atomic registers
    ``atoms[...]`` (bitstrings as binary integers, ascending).  ``labels``
    holds each row's entanglement class once a walk has set it, and
    ``dicke`` an eraser table's :func:`dicke_family_fidelity` column.

    A row's :class:`QubitState` is built from its CSR slice the first time
    it is read; it carries the row's label, now or when a walk sets it.
    """

    def __init__(self, n_atoms: int, keys: list[tuple], probabilities: list[float],
                 counts: tuple[list[int], list[int], list[int]], offsets: np.ndarray,
                 atoms: np.ndarray, amplitudes: np.ndarray, labels: list | None = None):
        self.n_atoms = n_atoms
        self.keys = keys
        self.probabilities = probabilities
        self.n_detectors, self.n_photons, self.max_per_detector = counts
        self.offsets, self.atoms, self.amplitudes = offsets, atoms, amplitudes
        self.labels = labels or [None] * len(keys)
        self.dicke: list[float] | None = None
        self._states: list[QubitState | None] = [None] * len(keys)
        self._entries = None  # the CSR block as Python lists, made for the first state

    def rows(self) -> list["ProjectionRow"]:
        view = ProjectionRow._view
        return [view(self, i) for i in range(len(self.keys))]

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

    def classify(self, rows: Sequence[int]) -> None:
        """Label the unlabelled rows among ``rows`` in one walk."""
        todo = [i for i in rows if self.labels[i] is None]
        if not todo:
            return
        offsets, entries = _gather(self.offsets, todo)
        walked = entanglement_classes_csr(self.n_atoms, offsets, self.atoms[entries],
                                          self.amplitudes[entries])
        for i, label in zip(todo, walked):
            self.labels[i] = label
            if self._states[i] is not None:
                self._states[i]._label = label

    def take(self, rows: Sequence[int]) -> "DetectionTable":
        """A table of the rows ``rows`` of this one, in that order."""
        offsets, entries = _gather(self.offsets, rows)

        def pick(column: list) -> list:
            return [column[i] for i in rows]

        return DetectionTable(
            self.n_atoms, pick(self.keys), pick(self.probabilities),
            (pick(self.n_detectors), pick(self.n_photons), pick(self.max_per_detector)),
            offsets, self.atoms[entries], self.amplitudes[entries], pick(self.labels))


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
        counts = [k for _, k in pattern.key]
        bits, amps = zip(*sorted(state.amplitudes.items()))
        table = DetectionTable(
            state.n_qubits, [pattern.key], [probability],
            ([len(counts)], [sum(counts)], [max(counts, default=0)]),
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
        return FockState.from_key(self._table.keys[self._index])

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

        The first query on any row of a table classifies all its rows in
        one batched walk and stores each label in the table; later queries
        read the stored label.
        """
        table = self._table
        if table.labels[self._index] is None:
            table.classify(range(len(table.keys)))
        return table.labels[self._index]

    def __repr__(self) -> str:
        return f"ProjectionRow({self.pattern.label()}, p={self.probability!r})"


def _product_state(amp: complex, branches: Sequence[tuple[tuple, tuple]]) -> HybridState:
    """Product over nodes of two-branch atom-photon states.

    ``branches[k]`` is node ``k``'s ``(factor, mode or None)`` for bit 0 and
    for bit 1; each term's factors multiply ``amp`` in node order.
    """
    terms = {}
    for bits in itertools.product((0, 1), repeat=len(branches)):
        picked = [node[b] for node, b in zip(branches, bits)]
        fkey = tuple(sorted((mode, 1) for _, mode in picked if mode is not None))
        terms[("".join(map(str, bits)), fkey)] = math.prod((f for f, _ in picked), start=amp)
    return HybridState(len(branches), terms)


def prepare_swap_input(n_nodes: int, signs: Sequence[int] | None = None,
                       ports: Sequence[int] | None = None) -> HybridState:
    """``n_nodes`` atom-photon Bell pairs with polarization-encoded photons.

    Atom ``k`` emits an H photon into ``ports[k]`` for bit 0 and a V photon
    for bit 1, giving ``2^n`` hybrid terms of amplitude ``2^(-n/2)`` (times
    the pair sign for each excited bit).
    """
    if not 2 <= n_nodes <= 8:
        raise ValueError(f"n_nodes must be in 2..8, got {n_nodes}")
    if signs is None:
        signs = [1] * n_nodes
    if len(signs) != n_nodes or set(signs) - {1, -1}:
        raise ValueError("signs must be +/-1, one per node")
    if ports is None:
        ports = list(range(1, n_nodes + 1))
    if len(ports) != n_nodes or len(set(ports)) != n_nodes:
        raise ValueError("ports must be distinct, one per node")
    if min(ports) < 1:
        raise ValueError(f"ports are numbered from 1, got {min(ports)}")
    return _product_state(2 ** (-n_nodes / 2),
                          [((1, Mode(port, "H")), (sign, Mode(port, "V")))
                           for sign, port in zip(signs, ports)])


def run_gbsa(state: HybridState, u: MultiportMatrix) -> list[ProjectionRow]:
    """Propagate through ``u`` and enumerate every detection pattern.

    Returns one row per output Fock pattern (sorted canonically) with the
    normalized projected atomic state and the exact pattern probability; the
    probabilities of a complete input sum to 1.  The expansion is
    :func:`~entnet.photonics.propagate`, whose floating-point operations run
    in the same order as the polynomial reference (``fock_to_polynomial``,
    ``apply_mode_transform``, ``expand_to_fock``), so every probability and
    amplitude is bit-identical to the table built from that reference.

    The rows are views of one :class:`DetectionTable`, built as columns:
    amplitudes below ``SUPPRESSION_TOL`` are dropped, each pattern's
    probability is CPython's ``sum(abs(a) ** 2 ...)`` over the rest, and
    the amplitudes are scaled by ``1 / sqrt(p)`` and checked to be
    normalized, all rows at once.  The probabilities stay CPython floats
    summed in row order, since numpy's ``x ** 2`` is ``x * x`` (it differs
    from libm's ``pow`` on about 0.09% of values) and numpy sums pairwise;
    ``abs`` is ``hypot``, which matches CPython where numpy's complex
    ``abs`` does not.  The scaling is CPython's complex-times-float as
    separate float operations, since numpy's complex multiply may fuse
    them.  A row's state is built the first time it is read.

    Raises:
        CapacityError: the whole expansion is oversize.
        DimensionMismatch: a photon sits on a port outside ``1..dim``.  Both
            are raised before any term is expanded.
        ValueError: an amplitude is not finite, so a row cannot be normalized.
    """
    out = propagate(state, inverse(u))
    mag = np.hypot(out.amplitudes.real, out.amplitudes.imag)  # CPython's abs(complex)
    kept = np.flatnonzero(~(mag < SUPPRESSION_TOL))  # a NaN stays, to fail the norm check
    row = np.repeat(np.arange(len(out.keys)), np.diff(out.offsets))[kept]
    bounds = np.searchsorted(row, np.arange(len(out.keys) + 1))  # kept entries per row
    squares = [m ** 2 for m in mag[kept].tolist()]
    probs = [sum(squares[a:b]) for a, b in itertools.pairwise(bounds.tolist())]
    live = [i for i, prob in enumerate(probs) if not prob < SUPPRESSION_TOL ** 2]
    probs = [probs[i] for i in live]

    offsets, entries = _gather(bounds, live)
    entries = kept[entries]
    owner = np.repeat(np.arange(len(live)), np.diff(offsets))
    scale = (1 / np.sqrt(np.array(probs)))[owner]
    re, im = out.amplitudes.real[entries], out.amplitudes.imag[entries]
    amplitudes = np.empty(len(entries), complex)
    amplitudes.real = re * scale - im * 0.0
    amplitudes.imag = re * 0.0 + im * scale
    norms = np.bincount(owner, weights=np.abs(amplitudes) ** 2, minlength=len(live))
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise ValueError("a projected state cannot be normalized: an amplitude is not finite")
    occupations = out.occupations[live]
    counts = ((occupations > 0).sum(axis=1).tolist(), occupations.sum(axis=1).tolist(),
              occupations.max(axis=1, initial=0).tolist())
    return DetectionTable(state.n_atoms, [out.keys[i] for i in live], probs, counts,
                          offsets, out.atoms[entries], amplitudes).rows()


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

    Under the default filter the accepted rows of each table are classified
    in one batched walk and their labels read from the table; a custom
    filter sees only accepted rows.
    """
    accepted = [row for row in rows if _accepts(row, model, rule)]
    if rule.entanglement_filter is not None:
        return sum(row.probability for row in accepted if rule.entanglement_filter(row))
    by_table: dict[DetectionTable, list[int]] = {}
    for row in accepted:
        by_table.setdefault(row._table, []).append(row._index)
    for table, index in by_table.items():
        table.classify(index)
    return sum(row.probability for row in accepted
               if row._table.labels[row._index] in GENUINE_CLASSES)


def subnetwork_swap(m: int, u: MultiportMatrix,
                    ports: Sequence[int] | None = None) -> list[ProjectionRow]:
    """Swap table for ``m`` Bell pairs feeding an ``m``-or-larger multiport.

    Unused input ports stay in vacuum; ``ports`` defaults to ``1..m``.
    ``m = dim`` is the full-network swap.
    """
    if not 2 <= m <= u.dim:
        raise ValueError(f"m must be in 2..{u.dim}, got {m}")
    return run_gbsa(prepare_swap_input(m, ports=ports), u)


def wpe_state(n_nodes: int, p: float,
              phases: Sequence[float] | None = None) -> HybridState:
    """Post-excitation node state for the which-path-erasing scheme.

    Each atom independently carries an excitation with probability ``p`` and
    then holds one photon in its own output mode (port = node index, number
    encoding), with per-node phase ``phases[k]`` on the excited branch.
    """
    if not 1 <= n_nodes <= 8:
        raise ValueError(f"n_nodes must be in 1..8, got {n_nodes}")
    if not 0 < p < 1:
        raise ValueError(f"excitation probability must be in (0, 1), got {p}")
    if phases is None:
        phases = [0.0] * n_nodes
    if len(phases) != n_nodes:
        raise ValueError("need one phase per node")
    return _product_state(complex(1.0), [
        ((math.sqrt(1 - p), None),
         (math.sqrt(p) * complex(math.cos(phi), math.sin(phi)), Mode(k + 1)))
        for k, phi in enumerate(phases)])


def dicke_family_fidelity(state: QubitState, m: int) -> float:
    """Best overlap with the ``m``-excitation equal-weight manifold.

    Treating every component phase of the target as free gives
    ``(sum_S |c_S|)^2 / C(n, m)`` over the ``m``-excitation components
    ``c_S``; amplitude outside that excitation sector only loses weight.
    For the states heralded by a symmetric eraser the optimum is realised
    by per-node phases, so this is the fidelity to the matching
    generalized collective state.
    """
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
    :func:`dicke_family_fidelity` against the ``m``-excitation target, so
    the probability-weighted row fidelity is the heralded-state fidelity.
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


def wpe_sector_probabilities(state: HybridState) -> dict[int, float]:
    """Emitted-photon-number distribution read off the expanded state."""
    probs: dict[int, float] = {}
    for _, fock, amp in state.items():
        n = fock.total()
        probs[n] = probs.get(n, 0.0) + abs(amp) ** 2
    return probs


def wpe_fidelity_sim(n_nodes: int, p: float, m: int) -> float:
    """Brute-force heralded fidelity of the ``m``-excitation target.

    Emissions of more than ``m`` photons can masquerade as ``m``-click
    heralds once photons are lost, and their atomic states live in
    orthogonal excitation sectors, so the heralded fidelity is the
    ``m``-photon sector weight over the at-least-``m`` tail.  Both weights
    are summed term by term from the expanded product state.
    """
    state = wpe_state(n_nodes, p)
    if not 1 <= m <= n_nodes:
        raise ValueError(f"need 1 <= m <= {n_nodes}, got m={m}")
    sectors = wpe_sector_probabilities(state)
    good = sectors.get(m, 0.0)
    tail = sum(prob for n, prob in sectors.items() if n >= m)
    return good / tail


def wpe_rate_sim(n_nodes: int, p: float, m: int, eta_det: float = 1.0) -> float:
    """Brute-force heralding-rate factor ``eta^m P(>= m photons)``."""
    if not 0 <= eta_det <= 1:
        raise ValueError("eta_det must be in [0, 1]")
    sectors = wpe_sector_probabilities(wpe_state(n_nodes, p))
    tail = sum(prob for n, prob in sectors.items() if n >= m)
    return eta_det ** m * tail
