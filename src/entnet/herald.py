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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .interferometers import MultiportMatrix, inverse
from .photonics import (NORM_TOL, FockState, HybridState, Mode, _is_integer, orbit_keys,
                        propagate)
# Not called here: perfbench/tracer.py wraps these three by name in this
# module, so they stay importable from it.
from .photonics import apply_mode_transform, expand_to_fock  # noqa: F401
from .states import genuinely_entangled  # noqa: F401
from .bipartitions import LABELS, _gather, entanglement_classes_csr
# The inputs and the eraser's sector sums live in the numpy-free ``sources``;
# they are re-exported here, where perfbench/tracer.py also wraps them by name.
from .sources import (_product_state, _wpe_tail, prepare_swap_input,  # noqa: F401
                      wpe_fidelity_sim, wpe_rate_sim, wpe_sector_probabilities, wpe_state)
from .states import GENUINE_CLASSES, QubitState

DetectionPattern = FockState
#: whether each label code's class is genuinely multipartite
_GENUINE = np.array([label in GENUINE_CLASSES for label in LABELS])


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

    A pattern is accepted when it makes ``required_clicks`` clicks (detectors
    fired under threshold detectors, photons under number-resolved ones)
    and, with ``distinct_detectors_only``, no detector holds two photons.
    :func:`aggregate_heralding` counts an accepted row when its projected
    atomic state is genuinely multipartite (no bipartition leaves it
    product), which reproduces the published analyser efficiencies.
    """

    required_clicks: int
    distinct_detectors_only: bool = False

    def __post_init__(self):
        clicks = self.required_clicks
        if not _is_integer(clicks) or clicks < 1:
            raise ValueError(f"required_clicks must be an integer >= 1, got {clicks!r}")


class DetectionTable:
    """One detection table: the sequence of its rows, and their columns, one entry per row.

    The table holds columns only.  Each row is a :class:`ProjectionRow`
    view made when it is read: ``table[i]`` makes one, a slice makes a tuple
    of them, and iteration makes one per row in turn.  ``patterns`` is the
    sector table that the rows' patterns come from (``Cells.occupations`` of
    :func:`~entnet.photonics.propagate`, every pattern of the expanded
    sectors in canonical (Fock key) order, read-only when kept), and row
    ``i``'s pattern is the one at place ``places[i]``: it has
    ``patterns[places[i], j]`` photons in output mode ``modes[j]``.  A row
    reads its own pattern, and a key is built when read; ``occupations``,
    the whole (rows x modes) matrix, is gathered only when it is read.
    ``probabilities`` are the rows' float probabilities; the numpy columns
    ``n_detectors``, ``n_photons`` and ``max_per_detector`` count each row's
    clicks.  They are gathered by place from ``clicks``, the same three
    counts per pattern of ``patterns`` (``Cells.clicks``, kept with the
    sector table), or counted from ``patterns`` when none are given, as for
    a hand-built row.  The normalized projected amplitudes are one CSR
    block: row ``i`` has ``amplitudes[offsets[i]:offsets[i + 1]]`` on the
    atomic registers ``atoms[...]`` (bitstrings as binary integers,
    ascending).  ``codes`` (int8, into :data:`~entnet.bipartitions.LABELS`)
    and ``labels`` hold each row's entanglement class, for every row or for
    none (both are then None): :meth:`classify` sets them all at once.
    They are the only store of the labels; a row's state carries none.
    ``dicke`` is an eraser table's :func:`dicke_family_fidelity` column.

    ``orbit_keys`` holds each row's orbit number under the output symmetries
    that keep every row's label (:func:`~entnet.photonics.orbit_keys`), below
    ``len(patterns)``, which :meth:`orbits` groups; by default it is
    ``places``, so that each row is its own orbit.
    """

    def __init__(self, n_atoms: int, modes: list[Mode], patterns: np.ndarray,
                 places: np.ndarray, probabilities: list[float], offsets: np.ndarray,
                 atoms: np.ndarray, amplitudes: np.ndarray, codes: np.ndarray | None = None,
                 orbit_keys: np.ndarray | None = None, clicks: tuple | None = None):
        self.n_atoms = n_atoms
        self.modes, self.patterns, self.places = modes, patterns, places
        self.probabilities = probabilities
        if clicks is None:
            clicks = ((patterns > 0).sum(axis=1), patterns.sum(axis=1, dtype=np.int64),
                      patterns.max(axis=1, initial=0))
        self._clicks = clicks
        self.n_detectors, self.n_photons, self.max_per_detector = (c[places] for c in clicks)
        self.offsets, self.atoms, self.amplitudes = offsets, atoms, amplitudes
        self.codes = codes
        self.labels = None if codes is None else LABELS[codes].tolist()
        self.orbit_keys = places if orbit_keys is None else orbit_keys
        self.dicke: list[float] | None = None
        self._entries = None  # the CSR block as Python lists, made for the first state read

    @property
    def occupations(self) -> np.ndarray:
        """Each row's photons per output mode, ``patterns[places]``, gathered on each read."""
        return self.patterns[self.places]

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, index):
        picked = range(len(self.probabilities))[index]  # IndexError out of range
        return tuple(map(self._row, picked)) if isinstance(index, slice) else self._row(picked)

    def __iter__(self):
        new = ProjectionRow.__new__
        for i in range(len(self.probabilities)):
            row = new(ProjectionRow)
            row._table, row._index = self, i
            yield row

    def _row(self, i: int) -> "ProjectionRow":
        """A new view of row ``i``."""
        row = ProjectionRow.__new__(ProjectionRow)
        row._table, row._index = self, i
        return row

    def orbits(self) -> tuple[np.ndarray, np.ndarray]:
        """The orbit column: each row's orbit, and the row of each orbit that is walked.

        Two rows share an orbit when they have one orbit number, so that a
        symmetry maps one pattern to the other, and as many cells; the
        walked row is the orbit's first, found by one ``np.minimum.at``
        scatter over the ``len(patterns)`` orbit numbers, in orbit-number
        order.  A row with another cell count than its orbit's first row is
        walked alone, after them.
        """
        keys, n_rows = self.orbit_keys, len(self.orbit_keys)
        first = np.full(len(self.patterns), n_rows)
        np.minimum.at(first, keys, np.arange(n_rows))
        seen = first < n_rows
        walked, orbit = first[seen], (np.cumsum(seen) - 1)[keys]
        sizes = np.diff(self.offsets)
        lone = np.flatnonzero(sizes != sizes[walked][orbit])
        orbit[lone] = len(walked) + np.arange(len(lone))
        return np.concatenate((walked, lone)), orbit

    def classify(self) -> None:
        """Label every row in one walk of the CSR rows of its orbits' walked rows.

        Each walked code is copied across its orbit (:meth:`orbits`); a table
        without symmetries gathers and walks every row.
        """
        walked, orbit = self.orbits()
        offsets, entries = _gather(self.offsets, walked)
        self.codes = entanglement_classes_csr(self.n_atoms, offsets, self.atoms[entries],
                                              self.amplitudes[entries])[orbit]
        self.labels = LABELS[self.codes].tolist()

    def take(self, rows: Sequence[int]) -> "DetectionTable":
        """A table of the rows ``rows`` of this one, in that order.

        It shares this table's sector table and its click counts per pattern, and
        keeps the rows' places and orbit numbers, so its own first label query walks
        one row per orbit of the rows taken, and any labels already set.
        """
        offsets, entries = _gather(self.offsets, rows)
        return DetectionTable(
            self.n_atoms, self.modes, self.patterns, self.places[rows],
            [self.probabilities[i] for i in rows], offsets, self.atoms[entries],
            self.amplitudes[entries], None if self.codes is None else self.codes[rows],
            self.orbit_keys[rows], self._clicks)


@dataclass(init=False, repr=False, eq=False)
class ProjectionRow:
    """One detection pattern with its projected atomic state and probability.

    A row of a :class:`DetectionTable`, such as :func:`run_gbsa` returns, is
    a view of one of its rows; its pattern and state are built each time
    they are read, and the state carries no label.  A row built by hand is
    the row of a one-row table of its own, at place 0 of its own one-pattern
    sector table, unlabelled.  Two rows are
    equal, and hash alike, when they are the same index of the same table.
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
            np.array([[k for _, k in pattern.key]], dtype=int), np.zeros(1, int),
            [probability],
            np.array([0, len(bits)]), np.array([int(b, 2) for b in bits], dtype=int),
            np.array(amps, dtype=complex))
        table.dicke = None if dicke_fidelity is None else [dicke_fidelity]
        self._table, self._index = table, 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectionRow):
            return NotImplemented
        return self._table is other._table and self._index == other._index

    def __hash__(self) -> int:
        return hash((id(self._table), self._index))

    @property
    def pattern(self) -> DetectionPattern:
        table = self._table
        counts = table.patterns[table.places[self._index]].tolist()
        return FockState.from_key([(m, k) for m, k in zip(table.modes, counts) if k])

    @property
    def state(self) -> QubitState:
        table, i = self._table, self._index
        if table._entries is None:
            names = [format(v, f"0{table.n_atoms}b") for v in range(2 ** table.n_atoms)]
            table._entries = (table.offsets.tolist(), [names[v] for v in table.atoms.tolist()],
                              table.amplitudes.tolist())
        offsets, bits, amps = table._entries
        lo, hi = offsets[i], offsets[i + 1]
        return QubitState._trusted(table.n_atoms, dict(zip(bits[lo:hi], amps[lo:hi])))

    @property
    def probability(self) -> float:
        return self._table.probabilities[self._index]

    @property
    def dicke_fidelity(self) -> float | None:
        dicke = self._table.dicke
        return None if dicke is None else dicke[self._index]

    @property
    def n_photons(self) -> int:
        return int(self._table.n_photons[self._index])

    @property
    def n_detectors(self) -> int:
        return int(self._table.n_detectors[self._index])

    @property
    def max_per_detector(self) -> int:
        return int(self._table.max_per_detector[self._index])

    def state_class(self) -> str:
        """Entanglement class of the projected state.

        The first query on any row of a table, an aggregate's included,
        labels all its rows in one walk of its orbits' first rows
        (:meth:`DetectionTable.classify`); later queries read the stored
        label.
        """
        table = self._table
        if table.labels is None:
            table.classify()
        return table.labels[self._index]

    def __repr__(self) -> str:
        return f"ProjectionRow({self.pattern.label()}, p={self.probability!r})"


def run_gbsa(state: HybridState, u: MultiportMatrix) -> DetectionTable:
    """Propagate through ``u`` and enumerate every detection pattern.

    Returns one row per output Fock pattern, in canonical order, with the
    normalized projected atomic state and the exact pattern probability; the
    probabilities sum to 1, as the input must be normalized.  The returned
    :class:`DetectionTable` holds them as columns and makes each row when it
    is read.  It holds the cells' sector table and each row's place in it,
    the rows' click counts gathered by place from the sector table's, and
    each row's orbit number under the output symmetries of ``u`` under
    which ``state``'s rows keep their labels (:func:`_label_symmetries`,
    :func:`~entnet.photonics.orbit_keys`), so its first label query walks
    one row per orbit.  Without symmetries a row's number is its place.

    The table takes the cells of :func:`~entnet.photonics.propagate` as they
    come, in table order, and works on all rows at once in numpy.  Each
    probability is one ``bincount`` of the cells' squared magnitudes
    (``re * re + im * im``), added in register order from ``0.0``;
    the amplitudes are scaled by ``1 / sqrt(p)`` and checked to be
    normalized.  The table agrees with the one built from the polynomial
    reference to rounding, not bit for bit (see
    :func:`~entnet.photonics.propagate`).

    Raises:
        ValueError: the input's norm squared is off 1 by more than
            ``NORM_TOL`` (raised before any term is expanded), or an
            amplitude is not finite, so a row cannot be normalized.
        CapacityError: the terms that the expansion steps are oversize.
        DimensionMismatch: a photon sits on a port that is not an integer in
            ``1..dim``.  Both are raised before any term is expanded.
    """
    norm_sq = state.norm_sq()
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        raise ValueError(f"the input's norm squared is {norm_sq!r}, not 1")
    out = propagate(state, inverse(u))
    owner, n_rows = out.pattern, len(out.places)  # each cell's row
    offsets = np.concatenate(([0], np.cumsum(np.bincount(owner, minlength=n_rows))))
    probs = np.bincount(owner, weights=out.amplitudes.real ** 2 + out.amplitudes.imag ** 2,
                        minlength=n_rows)
    amplitudes = out.amplitudes * (1 / np.sqrt(probs))[owner]
    norms = np.bincount(owner, weights=amplitudes.real ** 2 + amplitudes.imag ** 2,
                        minlength=n_rows)
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise ValueError("a projected state cannot be normalized: an amplitude is not finite")
    return DetectionTable(
        state.n_atoms, out.modes, out.occupations, out.places, probs.tolist(), offsets,
        out.registers, amplitudes, orbit_keys=orbit_keys(out, _label_symmetries(state, u)),
        clicks=out.clicks)


def _label_symmetries(state: HybridState, u: MultiportMatrix) -> list[np.ndarray]:
    """The output symmetries of ``u`` that keep the labels of ``state``'s rows.

    A symmetry ``U[perm[j], k] = d1[j] U[j, k] d2[k]`` maps pattern ``O`` to
    ``perm(O)`` with the same probability: each amplitude on atoms ``s``
    gains a global phase (the ``d1`` phases of ``O``'s photons) times the
    conjugate of ``d2[k]`` to the power of the photons that ``s``'s term
    puts into port ``k``.  When those integer counts are the first term's
    plus a fixed step for each qubit where the atoms differ (read off the
    term that differs there alone, or zero), the term phases factor into
    one phase per qubit, a local unitary, under every symmetry, and all are
    kept; otherwise none is.  Swap and eraser inputs (each node's photon
    leaves one fixed port, or none) keep all.  Each is returned as a
    permutation of the output ports, as ``u.symmetries`` gives it.
    """
    bits = np.array([[int(b) for b in atoms] for atoms, _ in state.terms], int)
    flips = bits ^ bits[0]  # (terms x qubits)
    counts = np.zeros((len(bits), u.dim), dtype=int)
    for t, (_, fkey) in enumerate(state.terms):
        for m, k in fkey:
            counts[t, m.port - 1] += k
    alone = flips * (flips.sum(axis=1) == 1)[:, None]
    steps = counts[alone.argmax(axis=0)] - counts[0]  # (qubits x ports)
    if not np.array_equal(counts[0] + flips @ steps, counts):
        return []
    return list(u.symmetries[1:])


def suppressed_patterns(state: HybridState, u: MultiportMatrix,
                        total_clicks: int) -> list[DetectionPattern]:
    """Patterns reachable by photon bookkeeping whose amplitude cancels.

    A candidate is any ``total_clicks``-photon multiset over the output
    modes whose per-polarization photon counts match some expanded input
    term (the multiport preserves polarization, so those counts are
    conserved); suppressed means the full enumeration assigns it no
    probability.  The expanded terms are those that
    :func:`~entnet.photonics.propagate` keeps: a term whose amplitude over
    ``prod sqrt(k!)`` falls below ``MERGE_TOL`` is dropped before the
    expansion, so a sector that only such terms reach has no candidates.
    Like :class:`HeraldRule`, it refuses a ``total_clicks`` that is a bool
    or not an integer >= 0 (0 is the vacuum pattern) before any work.
    """
    if not _is_integer(total_clicks) or total_clicks < 0:
        raise ValueError(f"total_clicks must be an integer >= 0, got {total_clicks!r}")
    return _suppressed(run_gbsa(state, u), total_clicks)


def _suppressed(table: DetectionTable, total_clicks: int) -> list[DetectionPattern]:
    """:func:`suppressed_patterns` against a table that :func:`run_gbsa` built.

    The candidates are the ``total_clicks``-photon patterns of the table's
    sector table (read off its photon counts per pattern), in Fock-key order;
    those at no row's place are suppressed.
    """
    candidates = table._clicks[1] == total_clicks
    candidates[table.places] = False
    return [FockState.from_key([(m, k) for m, k in zip(table.modes, counts) if k])
            for counts in table.patterns[candidates].tolist()]


def _accepted(table: DetectionTable, model: DetectorModel, rule: HeraldRule) -> np.ndarray:
    """Whether ``rule`` accepts each row's pattern, read from the click columns."""
    # threshold detectors only resolve which detectors fired
    clicks = table.n_detectors if model.kind == "threshold" else table.n_photons
    accepted = clicks == rule.required_clicks
    if rule.distinct_detectors_only:
        accepted &= table.max_per_detector <= 1
    return accepted


def aggregate_heralding(table: DetectionTable, model: DetectorModel, rule: HeraldRule) -> float:
    """Total probability of the accepted rows whose projected state is genuinely multipartite.

    Reads the columns of ``table``: its click columns accept rows and its
    label codes keep the genuine ones.  An unlabelled table is labelled
    through its first accepted row's :meth:`ProjectionRow.state_class`, in
    one walk.  The total is one sum in row order from ``0.0``, so it is
    ``0.0`` when no row is accepted.

    Raises:
        TypeError: ``table`` is not a :class:`DetectionTable`, such as a
            slice of one, a list or a hand-built row.
    """
    if not isinstance(table, DetectionTable):
        raise TypeError(f"aggregate_heralding takes a DetectionTable, not {type(table).__name__}")
    accepted = _accepted(table, model, rule)
    if accepted.any():
        if table.codes is None:  # the table's first label query goes through a row
            table[int(accepted.argmax())].state_class()
        accepted &= _GENUINE[table.codes]
    return sum(itertools.compress(table.probabilities, accepted.tolist()), 0.0)


def subnetwork_swap(m: int, u: MultiportMatrix,
                    ports: Sequence[int] | None = None) -> DetectionTable:
    """Swap table for ``m`` Bell pairs feeding an ``m``-or-larger multiport.

    Unused input ports stay in vacuum; ``ports`` defaults to ``1..m``.
    ``m = dim`` is the full-network swap.  Returns :func:`run_gbsa`'s table.
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
    although their phases are not per-node ones.  Like :class:`HeraldRule`,
    it refuses an ``m`` that is a bool or not an integer.
    """
    if not _is_integer(m) or not 0 <= m <= state.n_qubits:
        raise ValueError(f"need 0 <= m <= {state.n_qubits}, got m={m!r}")
    total = sum(abs(a) for bits, a in state.amplitudes.items()
                if bits.count("1") == m)
    return total ** 2 / math.comb(state.n_qubits, m)


def wpe_herald(state: HybridState, u: MultiportMatrix, m_clicks: int,
               model: DetectorModel = THRESHOLD) -> DetectionTable:
    """Detection rows of the which-path eraser heralding on ``m_clicks``.

    Under threshold detectors a nominal ``m``-click event is any pattern
    firing exactly ``m`` distinct detectors, so the heralded ensemble is the
    mixture of the returned rows; number-resolved detectors accept patterns
    of exactly ``m`` photons.  Every row carries its conditional
    :func:`dicke_family_fidelity` against the ``m``-excitation target, the
    free-phase upper bound, so the probability-weighted row value bounds
    the heralded-state fidelity from above.

    The rows are picked on the click columns of :func:`run_gbsa`'s table,
    not row by row, and taken into a table of their own
    (:meth:`DetectionTable.take`), which keeps their places in the sector
    table and their orbit numbers: its first label query walks one row per
    orbit.  :class:`HeraldRule` refuses an ``m_clicks`` that is not an
    integer >= 1, before any work.
    """
    rule = HeraldRule(m_clicks)
    table = run_gbsa(state, u)
    table = table.take(np.flatnonzero(_accepted(table, model, rule)))
    table.dicke = [dicke_family_fidelity(row.state, m_clicks) for row in table]
    return table
