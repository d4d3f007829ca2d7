"""The bipartition walk behind every entanglement label.

:func:`entanglement_classes_csr` labels states stored as the rows of a CSR
block (row offsets, basis states as binary integers, amplitudes), as codes
into :data:`LABELS`, and :func:`entanglement_classes` packs loose
:class:`~entnet.states.QubitState` objects into such blocks.  The walk groups
rows by Hamming-weight sector: when every basis state of a row has ``w``
excitations, each reduced state is block-diagonal by the weight on its side
of the cut, so a cut's purity is a sum over small blocks, and no ``2^n``
vector is built.  A cut leaves a state product when its purity exceeds
``(1 - PURITY_TOL) ||psi||^4``, the purity of a product state of the same
norm.

Bitstring convention as in :mod:`entnet.states`: the leftmost character is
qubit 1, the leading bit of the binary integer.
"""

from __future__ import annotations

import functools
import itertools
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:
    from .states import QubitState

TANGLE_TOL = 1e-6
#: a cut leaves a state product when its reduced purity exceeds
#: ``(1 - PURITY_TOL) ||psi||^4``, relative to the state's own norm, so a
#: state inside ``states.NORM_TOL`` of unit norm is labelled as its normalised copy
PURITY_TOL = 1e-9
#: amplitudes per dense block of the walk (rows x sector size)
_BLOCK_AMPS = 1024
#: plans of up to this many qubits keep their steps once built (0.64 MB
#: for every sector of 8 qubits); the steps of a larger one are built as the
#: walk reaches them and dropped after, as a full plan grows as 4^n
_KEPT_QUBITS = 8
_BITS3 = tuple("".join(t) for t in itertools.product("01", repeat=3))
#: the labels of the walk's codes
LABELS = np.array(["product", "biseparable", "entangled", "W-class", "GHZ-class"], dtype=object)


def _three_tangle(a: Mapping[str, complex]) -> float:
    """:func:`~entnet.states.three_tangle` of the amplitudes ``a`` of all eight 3-bit strings."""
    d1 = (a["000"] ** 2 * a["111"] ** 2 + a["001"] ** 2 * a["110"] ** 2
          + a["010"] ** 2 * a["101"] ** 2 + a["100"] ** 2 * a["011"] ** 2)
    d2 = (a["000"] * a["111"] * a["011"] * a["100"]
          + a["000"] * a["111"] * a["101"] * a["010"]
          + a["000"] * a["111"] * a["110"] * a["001"]
          + a["011"] * a["100"] * a["101"] * a["010"]
          + a["011"] * a["100"] * a["110"] * a["001"]
          + a["101"] * a["010"] * a["110"] * a["001"])
    d3 = (a["000"] * a["110"] * a["101"] * a["011"]
          + a["111"] * a["001"] * a["010"] * a["100"])
    return float(4 * abs(d1 - 2 * d2 + 4 * d3))


def entanglement_classes(states: Sequence[QubitState]) -> list[str]:
    """Entanglement labels of same-size pure states, in order.

    The states are packed, about ``_BLOCK_AMPS`` amplitudes at a time, into
    the CSR arrays that :func:`entanglement_classes_csr` walks, so the
    temporaries do not grow with the number of states and no dense state
    vector is built.  The states are left as they are.  See
    :func:`~entnet.states.entanglement_class` for the labels.

    Raises:
        ValueError: the states differ in qubit count.
    """
    if len({state.n_qubits for state in states}) > 1:
        raise ValueError("states differ in qubit count")
    labels: list[str] = []
    start = 0
    while start < len(states):
        stop, size = start, 0
        while stop < len(states) and size < _BLOCK_AMPS:
            size += len(states[stop].amplitudes)
            stop += 1
        block = states[start:stop]
        offsets = np.cumsum([0] + [len(state.amplitudes) for state in block])
        atoms = np.fromiter((int(bits, 2) for state in block for bits in state.amplitudes),
                            dtype=int, count=size)
        amps = np.fromiter((a for state in block for a in state.amplitudes.values()),
                           dtype=complex, count=size)
        labels += LABELS[entanglement_classes_csr(block[0].n_qubits, offsets, atoms, amps)].tolist()
        start = stop
    return labels


def entanglement_classes_csr(n_qubits: int, offsets: np.ndarray, atoms: np.ndarray,
                             amplitudes: np.ndarray) -> np.ndarray:
    """Entanglement label codes (int8, into :data:`LABELS`) of the rows of a CSR block.

    Row ``i`` has ``amplitudes[offsets[i]:offsets[i + 1]]`` on the basis
    states ``atoms[...]`` (bitstrings as binary integers), at least one
    entry per row.  This is the one bipartition walk behind every label;
    see :func:`~entnet.states.entanglement_class` for the labels.

    A row with one entry is a basis state, so product, and gets code 0
    without a walk.  The other rows are walked by Hamming-weight sector.  A
    row whose basis states all have ``w`` excitations has coordinates on the
    ``C(n, w)`` strings of that weight only, and for a cut A|B its reduced
    state on A is block-diagonal by the weight ``w_A`` on A.  So
    ``tr rho_A^2`` is the sum over blocks of ``||M M^+||_F^2``, where ``M``
    is the ``C(|A|, w_A) x C(|B|, w - w_A)`` matrix of the row's amplitudes
    on the block; a block with one row (or column) gives the square of its
    weight.
    A row with several weights has coordinates on all ``2^n`` strings, one
    block per cut.  A sector's blocks are built when the walk first
    reaches their cuts, and kept for later walks up to ``_KEPT_QUBITS``
    qubits, so rows that the single-qubit cuts settle build no more.  The
    rows of a sector are scattered into dense blocks of at most
    ``_BLOCK_AMPS`` amplitudes (one row at least), which bounds the
    temporaries whatever the number of rows.  A cut leaves a row product
    when its purity exceeds ``(1 - PURITY_TOL) ||psi||^4``; the single-qubit
    cuts come first, and a row leaves the walk once its label is settled.
    """
    counts = _ones(atoms, n_qubits)
    low = np.minimum.reduceat(counts, offsets[:-1]).astype(int)
    # each row's sector: 2 + the weight of all its basis states, 1 if they differ,
    # or 0 for one basis state, which is not walked
    sectors = np.where(low == np.maximum.reduceat(counts, offsets[:-1]), low + 2, 1)
    sectors[np.diff(offsets) == 1] = 0
    order = np.argsort(sectors, kind="stable")
    stacked, entries = _gather(offsets, order)
    codes = np.zeros(len(offsets) - 1, dtype=np.int8)  # 0 = "product"
    sizes = np.bincount(sectors)
    ends = np.cumsum(sizes)
    for sector in (np.flatnonzero(sizes[1:]) + 1).tolist():
        plan = _plan(n_qubits, sector - 2)
        step = max(1, _BLOCK_AMPS // len(plan.atoms))
        for first in range(ends[sector] - sizes[sector], ends[sector], step):
            last = min(first + step, ends[sector])
            picked = entries[stacked[first]:stacked[last]]
            vecs = np.zeros((len(plan.atoms), last - first), dtype=complex)
            vecs[plan.coords[atoms[picked]],
                 np.repeat(np.arange(last - first), np.diff(stacked[first:last + 1]))] = \
                amplitudes[picked]
            codes[order[first:last]] = _walk_sector(n_qubits, plan, vecs)
    return codes


def _gather(offsets: np.ndarray, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of the CSR rows ``rows`` stacked in that order, and their entry indices."""
    rows = np.asarray(rows, dtype=int)
    sizes = offsets[rows + 1] - offsets[rows]
    stacked = np.concatenate(([0], np.cumsum(sizes)))
    return stacked, np.repeat(offsets[rows] - stacked[:-1], sizes) + np.arange(stacked[-1])


class _Step(NamedTuple):
    """Cuts of one size that the walk tests together, as coordinates of a sector.

    ``blocks`` holds the cuts' blocks, one ``(cuts x blocks x rows x
    columns)`` array per block shape.  A block ``M`` adds ``||M M^+||_F^2``
    to its cut's purity: the sum of its squared row weights plus twice
    ``|<m_i, m_j>|^2`` over its pairs of rows ``i < j``.
    """

    size: int  # qubits on each cut's side A
    cuts: int
    blocks: list[np.ndarray]


def _ones(values: np.ndarray, n_bits: int) -> np.ndarray:
    """The number of 1 bits of each of the ``n_bits``-bit ``values``."""
    return sum((values >> k) & 1 for k in range(n_bits))


def _config_bits(k: int) -> np.ndarray:
    """The bits of each ``k``-bit value, leading bit first: a (2^k x k) 0/1 array."""
    return (np.arange(2 ** k)[:, None] >> np.arange(k - 1, -1, -1)) & 1


def _sides(n_qubits: int) -> Iterator[list[tuple[int, ...]]]:
    """Side A of each cut in walk order, ``n_qubits`` cuts at a time, each cut of one size.

    The single qubits come first, then the larger sides in size order, each
    bipartition once (a half-size side only when it holds qubit 0).
    """
    for size in range(1, n_qubits // 2 + 1):
        sides = (side for side in itertools.combinations(range(n_qubits), size)
                 if 2 * size < n_qubits or side[0] == 0)
        while chunk := list(itertools.islice(sides, n_qubits)):
            yield chunk


class _Plan:
    """The walk's cuts over the strings of ``weight`` excitations, or over all strings for -1.

    Every cut of one size has the same blocks: one per weight ``w_A`` on
    side A, or a single ``2^|A| x 2^|B|`` block over all strings, each
    oriented with no more rows than columns.  A step is built when a walk
    first reaches it, so a walk whose states settle early builds no more.
    A plan that keeps its steps shares them with later walks, so nothing
    writes to their arrays; one that does not drops each step after use.
    """

    def __init__(self, n_qubits: int, weight: int, keep: bool):
        values = np.arange(2 ** n_qubits)
        self.n_qubits, self.weight = n_qubits, weight
        #: the sector's basis states, ascending, and each basis state's
        #: coordinate in the sector (-1 outside it)
        self.atoms = values if weight < 0 else np.flatnonzero(_ones(values, n_qubits) == weight)
        self.coords = np.full(2 ** n_qubits, -1)
        self.coords[self.atoms] = np.arange(len(self.atoms))
        self._kept: dict[int, _Step] | None = {} if keep else None

    def steps(self) -> Iterator[_Step]:
        """The steps in walk order."""
        for i, sides in enumerate(_sides(self.n_qubits)):
            if self._kept is None:
                yield self._step(sides)
            else:  # concurrent first walks may each build an equal step
                yield self._kept.get(i) or self._kept.setdefault(i, self._step(sides))

    def _step(self, sides: list[tuple[int, ...]]) -> _Step:
        n, size = self.n_qubits, len(sides[0])
        rests = [[q for q in range(n) if q not in side] for side in sides]
        # the basis state of each configuration of each cut's side A, and of its side B
        spread = [_config_bits(qubits.shape[1]) @ (1 << (n - 1 - qubits)).T
                  for qubits in (np.array(sides), np.array(rests))]
        if self.weight < 0:
            splits = [(slice(None), slice(None))]
        else:
            ones = [_ones(np.arange(2 ** k), k) for k in (size, n - size)]
            splits = [(ones[0] == w, ones[1] == self.weight - w) for w in range(size + 1)
                      if 0 <= self.weight - w <= n - size]
        shapes: dict[tuple[int, ...], list[np.ndarray]] = {}
        for on_a, on_b in splits:
            block = self.coords[spread[0][on_a].T[:, :, None]
                                + spread[1][on_b].T[:, None, :]]  # (cuts x rows x columns)
            if block.shape[1] > block.shape[2]:
                block = block.swapaxes(1, 2)
            shapes.setdefault(block.shape, []).append(block)
        return _Step(size, len(sides), [np.stack(group, axis=1) for group in shapes.values()])


@functools.lru_cache(maxsize=None)
def _kept_plan(n_qubits: int, weight: int) -> _Plan:
    return _Plan(n_qubits, weight, keep=True)


def _plan(n_qubits: int, weight: int) -> _Plan:
    """The plan of a sector, kept for later walks up to ``_KEPT_QUBITS`` qubits."""
    if n_qubits <= _KEPT_QUBITS:
        return _kept_plan(n_qubits, weight)
    return _Plan(n_qubits, weight, keep=False)


def _purities(step: _Step, vecs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``tr rho_A^2`` on each cut of ``step`` (rows) of each state of ``vecs`` (columns).

    ``vecs`` holds one state per column, on the coordinates of the step's
    sector, and ``weights`` is ``|vecs|^2``.  Only sums, no matrix product:
    the walk makes no BLAS call, whose first use costs a quarter MB of
    resident buffers.
    """
    purity = np.zeros((step.cuts, vecs.shape[1]))
    for index in step.blocks:  # (cuts x blocks x rows x columns)
        purity += (weights[index].sum(axis=3) ** 2).sum(axis=(1, 2))
        if index.shape[2] > 1:
            m = vecs[index]
            conj = m.conj()
            for d in range(1, index.shape[2]):  # the pairs of rows i and i + d
                overlap = (m[:, :, d:] * conj[:, :, :-d]).sum(axis=3)
                purity += 2 * (overlap.real ** 2 + overlap.imag ** 2).sum(axis=(1, 2))
    return purity


def _walk_sector(n_qubits: int, plan: _Plan, vecs: np.ndarray) -> np.ndarray:
    """Label codes (into :data:`LABELS`) of the states ``vecs`` (columns) on ``plan``'s sector.

    The walk tests the single-qubit cuts before the larger ones, each
    bipartition once, a step of cuts at a time across the states it has
    not yet settled; a state drops out after the first step that settles
    its label.  A cut leaves a state product when its purity exceeds
    ``(1 - PURITY_TOL) ||psi||^4``.
    """
    weights = vecs.real ** 2 + vecs.imag ** 2
    bounds = (1 - PURITY_TOL) * weights.sum(axis=0) ** 2
    # 0 = "product", also the label of one qubit, which has no cut
    codes = np.zeros(vecs.shape[1], dtype=np.int8)
    live = np.arange(vecs.shape[1])  # states whose label is not settled yet
    for step in plan.steps():
        pure = (_purities(step, vecs[:, live], weights[:, live]) > bounds[live]).sum(axis=0)
        if step.size == 1:
            # 0 "product" if every qubit is pure, 1 "biseparable" if some are,
            # 2 "entangled" (so far) if none is
            codes[live] = np.where(pure == 0, 2, pure < step.cuts)
        else:
            codes[live[pure > 0]] = 1
        live = live[pure == 0]
        if not live.size:
            break
    if n_qubits == 3:
        for r in np.flatnonzero(codes == 2):
            amps = np.zeros(8, dtype=complex)
            amps[plan.atoms] = vecs[:, r]
            tangle = _three_tangle(dict(zip(_BITS3, amps.tolist())))
            codes[r] = 4 if tangle > TANGLE_TOL else 3
    return codes
