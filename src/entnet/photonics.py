"""Exact bosonic propagation of photonic states through lossless linear optics.

Photonic states are sums of creation-operator monomials acting on vacuum
(:class:`PhotonPolynomial`) or occupation-number amplitudes
(:class:`HybridState`), pure and immutable after construction; coefficients
below ``MERGE_TOL`` are dropped.  :func:`propagate` is the expansion that
detection tables use: linear optics keeps each photon's polarization, so it
numbers each partial pattern by dense multiset ranks, one per polarization.
All of its index bookkeeping is one expansion plan (:func:`_plan`), built once
per input structure and kept while small: each photon step is one gather and
a bincount pair over one flat array of every term's patterns, and the cells
are gathered straight into table order.  The polynomial path
(:func:`fock_to_polynomial`, :func:`apply_mode_transform`,
:func:`expand_to_fock`) is its reference; the two agree to rounding.  Each
complex product is two float parts, as CPython multiplies: numpy's complex
multiply rounds differently and changes 9 lines of ``swap-table --n 3
--format json``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

if TYPE_CHECKING:
    import numpy as np

MERGE_TOL = 1e-12
#: the package's one norm tolerance, defined here so that it imports without numpy
NORM_TOL = 1e-9
#: refuse expansions into more than this many output terms
MAX_TERMS = 10_000_000

_POLS = ("", "H", "V")


class CapacityError(RuntimeError):
    """Raised when an expansion would exceed ``MAX_TERMS`` terms."""


class DimensionMismatch(ValueError):
    """A mode's port is not one of the interferometer's ports, the integers ``1..dim``."""

    def __init__(self, port, dim: int):
        self.port, self.dim = port, dim
        super().__init__(f"mode on port {port} is outside ports 1..{dim} of the interferometer")


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: numpy integers are, a bool is not."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                   and not isinstance(value, bool))


def _check_port(port, dim: int) -> None:
    """Refuse a port that is not an integer in ``1..dim``."""
    if not (_is_integer(port) and 1 <= port <= dim):
        raise DimensionMismatch(port, dim)


class RegisterMismatch(ValueError):
    """Atomic registers of two states have different lengths."""


class Mode(NamedTuple):
    """A single bosonic mode: spatial port (1-based) plus polarization.

    ``pol`` is ``"H"``/``"V"`` for polarization-encoded photons or ``""``
    for number-encoded (single-rail) photons.
    """

    port: int
    pol: str = ""

    def label(self) -> str:
        return f"{self.pol.lower()}{self.port}" if self.pol else f"{self.port}"


def mode(port: int, pol: str = "") -> Mode:
    """Validated :class:`Mode` constructor: ``port`` is an integer >= 1, not a bool."""
    if not _is_integer(port) or port < 1:
        raise ValueError(f"port must be an integer >= 1, got {port!r}")
    if pol not in _POLS:
        raise ValueError(f"polarization must be one of {_POLS}, got {pol!r}")
    return Mode(port, pol)


# A monomial is a sorted tuple of modes; repetition encodes operator powers.
Monomial = tuple[Mode, ...]


def _merge(acc: dict, key, amp: complex) -> None:
    new = acc.get(key, 0j) + amp
    if abs(new) < MERGE_TOL:
        acc.pop(key, None)
    else:
        acc[key] = new


class PhotonPolynomial:
    """Sum of creation-operator monomials with complex coefficients.

    ``terms`` maps a canonical (sorted) monomial to its coefficient.  The
    empty monomial stands for the identity, so ``{(): 1}`` applied to vacuum
    is the vacuum itself.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, complex] | Iterable[tuple[complex, Iterable[Mode]]] = ()):
        acc: dict[Monomial, complex] = {}
        items = terms.items() if isinstance(terms, Mapping) else ((tuple(m), c) for c, m in terms)
        for mono, coeff in items:
            _merge(acc, tuple(sorted(mono)), complex(coeff))
        self.terms = acc

    def norm_sq(self) -> float:
        """Norm of the state obtained by applying the polynomial to vacuum."""
        total = 0.0
        for mono, c in self.terms.items():
            fact = 1.0
            for m in set(mono):
                fact *= math.factorial(mono.count(m))
            total += abs(c) ** 2 * fact
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhotonPolynomial):
            return NotImplemented
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0) - other.terms.get(k, 0)) < NORM_TOL for k in keys)

    def __repr__(self) -> str:
        parts = [f"({c:.4g})*{'*'.join(m.label() for m in mono) or '1'}"
                 for mono, c in sorted(self.terms.items())]
        return "PhotonPolynomial[" + " + ".join(parts) + "]"


class FockState:
    """Occupation-number state over a set of modes (zero entries absent)."""

    __slots__ = ("key",)

    def __init__(self, occupations: Mapping[Mode, int]):
        if any(_is_integer(k) and k < 0 for k in occupations.values()):
            raise ValueError("occupation numbers must be nonnegative")
        self.key = _fock_key([(m, k) for m, k in occupations.items()
                              if not (_is_integer(k) and k == 0)])

    @classmethod
    def from_key(cls, key) -> "FockState":
        out = cls.__new__(cls)
        out.key = tuple(key)
        return out

    @classmethod
    def from_monomial(cls, mono: Monomial) -> "FockState":
        return cls(Counter(mono))

    @property
    def occupations(self) -> dict[Mode, int]:
        return dict(self.key)

    def monomial(self) -> Monomial:
        return tuple(sorted(m for m, k in self.key for _ in range(k)))

    def label(self) -> str:
        if not self.key:
            return "-"
        ordered = sorted(self.key, key=lambda item: (item[0].pol, item[0].port))
        return " ".join(m.label() + (f"^{k}" if k > 1 else "") for m, k in ordered)

    def __eq__(self, other) -> bool:
        return isinstance(other, FockState) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"FockState({self.label()})"


def _fock_key(fkey) -> tuple:
    """``fkey``'s ``(mode, count)`` pairs sorted, each a known :class:`Mode` once, count >= 1.

    Ports are checked later, against the multiport that the state meets.
    """
    for m, k in fkey:
        if not isinstance(m, Mode) or m.pol not in _POLS:
            raise ValueError(f"{m!r} is not a Mode with a polarization in {_POLS}")
        if not _is_integer(k) or k < 1:
            raise ValueError(f"photon count {k!r} on {m!r} is not an integer >= 1")
    key = tuple(sorted(fkey))
    if len({m for m, _ in key}) != len(key):
        raise ValueError(f"Fock key {key!r} repeats a mode")
    return key


class HybridState:
    """Superposition of (atomic bitstring x photonic Fock state) terms.

    Each Fock key is stored sorted (:func:`_fock_key`), so keys that list
    the same occupations in another order merge into one term.
    """

    __slots__ = ("n_atoms", "terms")

    def __init__(self, n_atoms: int, terms: Mapping[tuple[str, tuple], complex]):
        self.n_atoms = n_atoms
        acc: dict[tuple[str, tuple], complex] = {}
        for (atoms, fkey), amp in terms.items():
            if len(atoms) != n_atoms:
                raise RegisterMismatch(
                    f"atomic bitstring {atoms!r} does not have length {n_atoms}")
            if set(atoms) - {"0", "1"}:
                raise ValueError(f"atomic bitstring {atoms!r} is not made of 0 and 1")
            amp = complex(amp)
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError(f"amplitude {amp!r} of {atoms!r} is not finite")
            _merge(acc, (atoms, _fock_key(fkey)), amp)
        self.terms = acc

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def items(self):
        """Iterate (atoms, FockState, amplitude) in canonical order."""
        for (atoms, fkey), amp in sorted(self.terms.items()):
            yield atoms, FockState.from_key(fkey), amp

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"HybridState(n_atoms={self.n_atoms}, terms={n}, norm^2={self.norm_sq():.6f})"


def check_capacity(monomials: Iterable[Monomial], dim: int) -> None:
    """Refuse expansions over ``dim`` output ports beyond ``MAX_TERMS`` terms.

    ``k`` photons of one polarization expand into the ``C(dim + k - 1, k)``
    multisets of its output modes, and the polarizations independently, so
    the count needs no expansion and is exact up to interference
    cancellations.  Raises :class:`CapacityError` past ``MAX_TERMS``.
    """
    total = sum(math.prod(math.comb(dim + k - 1, k) for k in Counter(m.pol for m in mono).values())
                for mono in monomials)
    if total > MAX_TERMS:
        raise CapacityError(f"expanding over {dim} ports gives {total} terms > {MAX_TERMS}")


def apply_mode_transform(poly: PhotonPolynomial, inverse_matrix) -> PhotonPolynomial:
    """Rewrite input creation operators in terms of output operators.

    ``inverse_matrix`` (a :class:`~entnet.interferometers.MultiportMatrix`,
    or any object with ``dim`` and ``entries``) is the *inverse* multiport
    transform: the operator on input port ``j`` becomes ``sum_k inv[j, k]
    b_k``, the same for each polarization.

    Raises:
        DimensionMismatch: some mode's port is not an integer in ``1..dim``.
        CapacityError: the expansion would exceed the term budget.
    """
    dim, entries = inverse_matrix.dim, inverse_matrix.entries
    for mono in poly.terms:
        for m in mono:
            _check_port(m.port, dim)
    check_capacity(poly.terms, dim)
    acc: dict[Monomial, complex] = {}
    for mono, coeff in poly.terms.items():
        partial: dict[Monomial, complex] = {(): coeff}
        for m in mono:
            row = entries[m.port - 1]
            nxt: dict[Monomial, complex] = {}
            for pmono, c in partial.items():
                for k in range(dim):
                    _merge(nxt, tuple(sorted(pmono + (Mode(k + 1, m.pol),))), c * row[k])
            partial = nxt
        for pmono, c in partial.items():
            _merge(acc, pmono, c)
    out = PhotonPolynomial()
    out.terms = acc
    return out


#: children a photon step makes at once (or one term's, if more), and cells one gather fills
_BATCH_CHILDREN = 1 << 16
_tables: dict[tuple, tuple] = {}  # the kept tables, by what they are built from; read-only


def _kept(key: tuple, build) -> Iterator[np.ndarray]:
    """The arrays that ``build()`` makes, one at a time, or those kept under ``key``.

    Built arrays are kept, read-only, once the last is handed out, if together they are
    no larger than ``_BATCH_CHILDREN`` float64s.  Past that none is held, so that a build
    too large to keep makes each array when its user reaches it, and drops it after."""
    if key in _tables:
        yield from _tables[key]
        return
    kept, size = [], 0
    for a in build():
        size += a.nbytes
        kept = size <= 8 * _BATCH_CHILDREN and kept + [a]  # False once over the budget
        yield a
    if kept:
        for a in kept:  # handed out, as Cells.occupations and DetectionTable.patterns
            a.setflags(write=False)
        _tables[key] = tuple(kept)


def _multiset_ranks(counts: np.ndarray) -> np.ndarray:
    """Each row of ``counts`` (photons per port) numbered among all multisets of ports,
    by size, then as keys with a digit per port, the last leading.  With ``N_p`` of
    its ``k`` photons on ports ``0..p``, a multiset is number ``C(dim + k, dim) - 1 -
    sum_{p < dim - 1} C(p + N_p, p + 1)``."""
    import numpy as np
    dim, total = counts.shape[-1], counts.sum(axis=-1, dtype=np.int64)
    top = int(total.max(initial=0))
    upto, below = np.zeros_like(total), np.zeros_like(total)
    for p in range(dim - 1):
        upto += counts[..., p]
        below += np.array([math.comb(p + n, p + 1) for n in range(top + 1)], np.int64)[upto]
    return np.array([math.comb(dim + n, dim) - 1 for n in range(top + 1)], np.int64)[total] - below


def _multisets(dim: int, top: int) -> tuple:
    """The one enumeration of port multisets: ``every[r]`` holds multiset number ``r``
    (:func:`_multiset_ranks`) of at most ``top`` photons as photons per port (uint8), and
    ``grow[r, k]`` numbers it plus a photon on port ``k``, for ``r`` of fewer than ``top``.
    Those of ``k`` photons are the ``C(dim + k - 1, k)`` rows from ``C(dim + k - 1, dim)`` on."""
    import numpy as np
    every = np.zeros((math.comb(dim + top, dim), dim), np.uint8)
    grow = np.empty((math.comb(dim + top - 1, dim), dim), np.min_scalar_type(len(every)))
    for k in range(top):
        lo, hi = math.comb(dim + k - 1, dim), math.comb(dim + k, dim)
        grown = every[lo:hi, None] + np.eye(dim, dtype=np.uint8)
        grow[lo:hi] = _multiset_ranks(grown)
        every[grow[lo:hi]] = grown
    return every, grow


def _sector_table(every: np.ndarray, sectors: list[tuple]) -> tuple:
    """Over the patterns of ``sectors`` (photons per polarization), numbered sector by sector
    as in :func:`_plan`: each one's place in canonical (Fock-key) order, then, by place,
    each pattern's ``prod sqrt(k!)``, taken in mode order, its photons per output mode (sorted
    :class:`Mode` order) and its click columns: modes fired, photons, and the most
    photons in one mode, each in the smallest unsigned type that holds it.  A key's
    ``(mode, k)`` pairs (in mode order) are sorted as codes ``mode index * base + k``, a
    missing one as -1."""
    import numpy as np
    dim, parts = every.shape[1], []
    for counts in sectors:  # each pattern's multisets, interleaved port by port
        sizes = [math.comb(dim + k - 1, k) for k in counts]
        digits = np.indices(sizes).reshape(len(counts), math.prod(sizes))
        digits += np.array([math.comb(dim + k - 1, dim) for k in counts], int)[:, None]
        parts.append(every[digits].transpose(1, 2, 0).reshape(math.prod(sizes), -1))
    occupations = np.concatenate(parts)
    base = int(occupations.max(initial=0)) + 1
    sqrt_fact = np.array([math.sqrt(math.factorial(k)) for k in range(base)])
    fact = np.ones(len(occupations))
    for column in occupations.T:  # the factor is 1.0 for k <= 1
        fact = fact * sqrt_fact[column]
    rows, cols = np.nonzero(occupations)  # row-major: each row's modes in mode order
    start = np.searchsorted(rows, np.arange(len(occupations) + 1))
    code = np.full((len(occupations), max(1, int(np.diff(start).max(initial=0)))), -1)
    code[rows, np.arange(len(rows)) - start[rows]] = cols * base + occupations[rows, cols]
    order = np.lexsort(code.T[::-1])
    place = np.empty(len(occupations), np.min_scalar_type(len(occupations)))
    place[order] = np.arange(len(occupations))
    occupations = occupations[order]
    fired = (occupations > 0).sum(axis=1, dtype=np.min_scalar_type(occupations.shape[1]))
    photons = occupations.sum(axis=1, dtype=np.min_scalar_type(max(map(sum, sectors))))
    return place, fact[order], occupations, fired, photons, occupations.max(axis=1, initial=0)


def _mirror(monomials: list[Monomial], coeffs: list[complex], pols: list[str]) -> tuple:
    """The terms that :func:`_expand` steps, each term's H<->V partner, and ``S``.

    Linear optics keeps polarization, so when the photons are H and V and every term
    has a partner with each photon's polarization swapped, in the same order, and
    coefficient ``S`` times its own for one ``S = +-1``, only the terms with no more H
    than V photons are stepped.  Other inputs step every term, with no partner or sign.
    """
    import numpy as np
    index = {mono: i for i, mono in enumerate(monomials)}
    partner = [index.get(tuple((m.port, "VH"[m.pol == "V"]) for m in mono))  # equal to Modes
               for mono in monomials]
    sign = next((s for s in (1, -1) if pols == ["H", "V"] and len(index) == len(monomials)
                 and None not in partner and all(coeffs[j] == s * c
                                                 for j, c in zip(partner, coeffs))), None)
    if sign is None:
        return np.arange(len(monomials)), None, None
    return np.flatnonzero([2 * sum(m.pol == "H" for m in mono) <= len(mono)
                           for mono in monomials]), np.array(partner), sign


def _plan(dim: int, seqs: list[tuple], final: list[tuple], registers: list[int],
          layout: list[int], partner, grow: np.ndarray, place: np.ndarray,
          sectors: list[tuple]) -> Iterator[np.ndarray]:
    """The expansion plan, in the order that :func:`_expand` and :func:`propagate` read it.

    The terms have polarizations ``seqs`` (one index into the sorted polarizations per
    photon, in mode order), so photons per polarization ``final``, atomic ``registers``
    and H<->V ``partner`` terms, or None (:func:`_mirror`).  A pattern with ``c[q]``
    photons of polarization ``q`` is numbered by its multisets' ranks among those of as
    many photons, a digit per polarization, the last the fastest; a photon of ``q`` on
    port ``k`` moves the digit of ``q`` as ``grow`` (:func:`_multisets`) says.  The
    stepped terms are laid out in ``layout``, longest first, so at photon step ``t``
    those that step are the first of one flat array of every term's patterns.  The plan
    holds, per step, each parent's term, by its place in the layout; per batch
    of whole terms of at most ``_BATCH_CHILDREN`` children (or one term), each
    parent-and-port's child in the batch's part of the next array; and an empty array.
    The candidate cells are each pattern of the sector table of ``sectors`` with each
    register of its sector's terms, by ``place``, then register.  A cell sums its terms'
    patterns in input order, and a mirrored term reads its partner's with the H and V
    multisets swapped.  The plan ends with each cell's first term's pattern in the
    steps' output, the others as (cell, pattern) pairs, each place's sector's
    mirroring, and each cell's place and register.  Each array with an entry per
    parent-and-port or per cell is of the narrowest type that holds it.
    """
    import numpy as np

    def size(counts):
        return math.prod(math.comb(dim + k - 1, k) for k in counts)
    counts = {i: [0] * len(sectors[0]) for i in layout}  # photons per polarization so far
    for t in range(len(seqs[layout[0]])):
        live, batch, end, key, n = [i for i in layout if len(seqs[i]) > t], [], 0, None, 0
        yield np.repeat(np.arange(len(live), dtype=np.min_scalar_type(len(live))),
                        [size(counts[i]) for i in live])
        for c, q in ((counts[i], seqs[i][t]) for i in live):
            if key != (*c, q):  # the (high, q, low) digits' children, per port
                lo, hi = (math.comb(dim + c[q] + d - 1, dim) for d in (0, 1))
                key, child = (*c, q), ((np.arange(size(c[:q]))[:, None, None, None] * size(
                    [c[q] + 1]) + grow[lo:hi, None] - hi) * size(c[q + 1:]) + np.arange(
                        size(c[q + 1:]))[:, None]).ravel()
            if batch and n + len(child) > _BATCH_CHILDREN:
                yield np.concatenate(batch).astype(np.min_scalar_type(end))
                batch, end, n = [], 0, 0
            batch.append(child + end)
            n += len(child)
            c[q] += 1
            end += size(c)
        yield from (np.concatenate(batch).astype(np.min_scalar_type(end)), np.zeros(0))
    offsets = dict(zip(layout, itertools.accumulate([0, *(size(final[i]) for i in layout)])))
    starts = dict(zip(sectors, itertools.accumulate([0, *map(size, sectors)])))
    regs = {s: sorted({r for f, r in zip(final, registers) if f == s}) for s in sectors}
    flips = np.array([partner is not None and s > s[::-1] for s in sectors])
    sector = np.repeat(range(len(sectors)), list(map(size, sectors)))[np.argsort(place)]
    width = np.array([len(regs[s]) for s in sectors])[sector]
    first, more, seen = np.concatenate(([0], np.cumsum(width))), [np.zeros((2, 0), int)], {}
    src, reg = (np.empty(first[-1], np.min_scalar_type(n)) for n in (sum(map(size, final)),
                                                                     max(registers)))
    for i, (s, r) in enumerate(zip(final, registers)):  # in input order
        j = np.arange(size(s), dtype=src.dtype)
        cells = first[place[starts[s]:][:size(s)]] + regs[s].index(r)
        if flips[sectors.index(s)]:  # the partner's (h, v) patterns as (v, h)
            j, i = j.reshape(size(s[1:]), size(s[:1])).T.ravel(), partner[i]
        if seen.setdefault((s, r), i) != i:  # a cell's later term
            more.append(np.array([cells, j + offsets[i]]))
        else:
            src[cells], reg[cells] = j + offsets[i], r
    yield from (src, np.concatenate(more, axis=1), flips[sector],
                np.repeat(np.arange(len(place), dtype=place.dtype), width), reg)


def _expand(plan: Iterator[np.ndarray], coeffs: np.ndarray, ports: np.ndarray,
            entries) -> np.ndarray:
    """The photon steps of the stepped terms ``coeffs``, laid out as ``plan`` (:func:`_plan`)
    lays them out, photon ``t`` of term ``j`` on input port ``ports[j, t]``.

    At each step every parent takes its port's row of the inverse matrix ``entries``, in
    two float parts, and each child adds its parents in order from ``0.0``, a batch of
    whole terms at a time.  A sum below ``MERGE_TOL`` is set to zero (a NaN stays), so
    its children move no sum.  Returns the real and imaginary parts of the terms'
    patterns, in the layout.
    """
    import numpy as np
    e = np.array(entries, complex)
    out, done = np.array([coeffs.real, coeffs.imag]), []
    for t in range(ports.shape[1]):
        rows, sums, p = ports[next(plan), t], [], 0  # each parent's port
        while len(child := next(plan)):
            n = p + len(child) // len(e)
            (a, b), r, p = out[:, p:n, None], rows[p:n], n
            for x, y, op in ((e.real, e.imag, np.subtract), (e.imag, e.real, np.add)):
                x, y = np.take(x, r, axis=0), np.take(y, r, axis=0)
                x *= a
                y *= b  # a * er - b * ei, then a * ei + b * er
                sums.append(np.bincount(child, op(x, y, out=x).ravel()))
        del x, y  # before the next array, which would otherwise raise the peak
        done.insert(0, out[:, p:].copy())  # the terms that end here
        out, sums = np.concatenate(sums[0::2] + sums[1::2]).reshape(2, -1), None  # re, then im
        # hypot is no less than either part, and zero for a zero sum: only sums with both
        # parts small and one nonzero may die
        big = abs(out).max(0)
        small = np.flatnonzero((big < MERGE_TOL) & (big > 0.0))
        out[:, small[np.hypot(*out[:, small]) < MERGE_TOL]] = 0.0
    return np.concatenate([out, *done], axis=1)


class Cells(NamedTuple):
    """The nonzero cells of :func:`propagate`, one per (pattern, register) pair, in table order.

    The sector table (:func:`_sector_table`) holds every pattern of the polarization
    ``sectors`` (photons per polarization, sorted) of the expanded terms in Fock-key order: the
    one at place ``p`` has ``occupations[p, i]`` photons in output mode ``modes[i]``, and
    ``clicks`` holds its modes fired, photons and most photons in one mode, counted once
    per pattern at ``clicks[0][p]``, ``clicks[1][p]`` and ``clicks[2][p]``.  Both may be
    kept across calls, and are then read-only (:func:`_kept`); a detection table holds
    the patterns as its ``patterns`` and gathers its rows' clicks.  Pattern ``j`` is the
    one at place ``places[j]``, the places ascending.  Cell ``c`` is ``amplitudes[c]`` on pattern
    ``pattern[c]`` and register ``registers[c]`` (a bitstring read as a binary integer),
    sorted by pattern, then register.  The expansion plan (:func:`_plan`) lays out every
    candidate cell in that order, and these are the ones at or above ``MERGE_TOL``."""

    modes: list[Mode]  # sorted
    sectors: list[tuple]
    occupations: np.ndarray
    clicks: tuple  # (modes fired, photons, most photons in one mode), per place
    places: np.ndarray
    pattern: np.ndarray
    registers: np.ndarray
    amplitudes: np.ndarray


def propagate(state: HybridState, inverse_matrix) -> Cells:
    """Expand every term of ``state`` over the output modes, summed into cells.

    This is :func:`fock_to_polynomial`, :func:`apply_mode_transform` and
    :func:`expand_to_fock` fused: coefficients ``amp / fact`` in, the terms it
    steps sized first (:func:`check_capacity`), output terms times ``prod
    sqrt(k!)`` (:func:`_sector_table`) summed into each cell in
    :meth:`HybridState.items` order from ``0.0``.  When every term has an H<->V
    partner (:func:`_mirror`), only the terms with no more H than V photons are
    stepped, and the others read their partners' patterns, to the bit.  The
    index bookkeeping is one expansion plan (:func:`_plan`), kept under the key
    of what it depends on: the number of ports, each term's polarizations in
    mode order and register, and the stepped terms and partners.  Ports,
    coefficients and the mirror's sign are run-time data.  :func:`_expand`
    takes the photon steps on the plan, and each candidate cell gathers its
    terms' patterns, in table order.  A cell below ``MERGE_TOL`` is dropped (a
    NaN is kept, for the norm check), and so is a pattern left with no cell.  It
    agrees with the reference to rounding: the reference's dicts restart a sum
    that cancels below ``MERGE_TOL``.

    Raises:
        DimensionMismatch: some mode's port is not an integer in ``1..dim``.
        CapacityError: the terms it steps expand oversize.  Both are raised
            before any term is expanded.
    """
    import numpy as np  # imported where used, so states and modes import without it

    dim = inverse_matrix.dim
    inputs = []
    for atoms, fock, amp in state.items():
        fact = 1.0
        for m, k in fock.key:
            _check_port(m.port, dim)
            fact *= math.sqrt(math.factorial(k))
        coeff = amp / fact
        if abs(coeff) >= MERGE_TOL:
            inputs.append((atoms, fock.monomial(), coeff))
    if not inputs:
        return Cells([], [], np.zeros((0, 0), np.uint8), (np.zeros(0, np.uint8),) * 3,
                     *(np.zeros(0, t) for t in (int, int, int, complex)))

    monomials, coeffs = [mono for _, mono, _ in inputs], [coeff for _, _, coeff in inputs]
    pols = sorted({m.pol for mono in monomials for m in mono})
    stepped, partner, sign = _mirror(monomials, coeffs, pols)
    check_capacity((monomials[i] for i in stepped), dim)
    top = max(map(len, monomials))
    every, grow = _kept(("sets", dim, top), lambda: _multisets(dim, top))
    seqs = [tuple(pols.index(m.pol) for m in mono) for mono in monomials]
    final = [tuple(map(seq.count, range(len(pols)))) for seq in seqs]
    sectors = sorted(set(final))
    place, fact, occupations, *clicks = _kept(("sectors", dim, *sectors),
                                              lambda: _sector_table(every, sectors))
    registers = [int("0" + atoms, 2) for atoms, _, _ in inputs]
    layout = sorted(stepped.tolist(), key=lambda i: -len(seqs[i]))
    plan = _kept(("plan", dim, tuple(seqs), tuple(registers), stepped.tobytes(),
                  partner if partner is None else partner.tobytes()),
                 lambda: _plan(dim, seqs, final, registers, layout, partner, grow, place,
                               sectors))
    ports = np.array([([m.port - 1 for m in monomials[i]] + [0] * top)[:top] for i in layout])
    out = _expand(plan, np.array(coeffs, complex)[layout], ports, inverse_matrix.entries)
    src, more, flip, places, regs = plan
    if sign == -1:  # x * -f has the bits of (0.0 - x) * f in every sum from 0.0
        fact = np.where(flip, 0.0 - fact, fact)
    amplitudes = np.empty(len(places), complex)
    for x, part in zip(out, (amplitudes.real, amplitudes.imag)):
        for cut in map(slice, range(0, len(places), _BATCH_CHILDREN),
                       itertools.count(_BATCH_CHILDREN, _BATCH_CHILDREN)):
            w = np.take(x, src[cut])  # each cell's first term
            w *= np.take(fact, places[cut])
            part[cut] = w + 0.0  # as a sum from 0.0, so no -0.0
        # a cell's other terms, in input order
        np.add.at(part, more[0], np.take(x, more[1]) * np.take(fact, np.take(places, more[0])))
    del out, src, x, part  # before the cells, which would otherwise raise the peak
    kept = np.flatnonzero(~(abs(amplitudes) < MERGE_TOL))  # a NaN stays
    amplitudes = amplitudes[kept]
    place = places[kept]
    first = np.concatenate(([True], place[1:] != place[:-1]))  # each live pattern's first cell
    modes = sorted(Mode(port, pol) for pol in pols for port in range(1, dim + 1))
    return Cells(modes, sectors, occupations, tuple(clicks), place[first], np.cumsum(first) - 1,
                 regs[kept].astype(int), amplitudes)


def orbit_keys(cells: Cells, permutations) -> np.ndarray:
    """Each pattern's orbit number under the output port ``permutations``, by place.

    ``permutations`` are given as :attr:`MultiportMatrix.symmetries
    <entnet.interferometers.MultiportMatrix.symmetries>` gives them: each moves
    the photons on port ``k`` to port ``perm[k]``.  Two patterns share an orbit when
    they have one least key over their images (:func:`_least_keys`), and the orbits
    are numbered densely in the order of those keys, so every number is below the
    number of patterns.  The numbers are built once per sector table and permutation
    set, for every pattern of the sector table, by one ``np.unique``, and kept; each of
    ``cells``' patterns reads its number by place.  A sector table too large to keep
    hands its own patterns to the builder, so it is not built twice.  Without
    permutations each pattern's number is its place.
    """
    import numpy as np
    if not len(permutations):
        return cells.places
    moved = np.argsort([np.arange(len(permutations[0])), *permutations], axis=1)

    def build():
        orbit = np.unique(_least_keys(cells.occupations, moved), return_inverse=True)[1]
        return (orbit.astype(np.min_scalar_type(len(orbit))),)
    key = ("orbits", moved.shape[1], *cells.sectors, moved.tobytes())
    (orbit,) = _kept(key, build)
    return orbit[cells.places]


def _least_keys(occupations: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """Each pattern's least key over its images, one image per row of ``moved``.

    Image ``i`` puts the photons of port ``moved[i, p]`` on port ``p``.  A key is the
    pair of the pattern's multiset ranks, one per polarization (the patterns' modes
    are sorted, so port by port), read through each image's ranks of every multiset
    (:func:`_multisets`), so it fits int64 at every size.
    """
    import numpy as np
    dim = moved.shape[1]
    pols, top = occupations.shape[1] // dim, int(occupations.sum(axis=1).max(initial=0))
    every, _ = _kept(("sets", dim, top), lambda: _multisets(dim, top))
    # each pattern's photons per port of each polarization: (patterns, pols, ports)
    ranks = _multiset_ranks(occupations[:, np.arange(dim * pols).reshape(dim, pols).T])
    least = np.full(len(occupations), np.iinfo(np.int64).max)
    for image in _multiset_ranks(every[:, moved]).T:  # each multiset's rank in one image
        key = np.zeros(len(occupations), np.int64)
        for q in range(pols):  # the (H, V) pair
            key = key * len(every) + image[ranks[:, q]]
        np.minimum(least, key, out=least)
    return least


def expand_to_fock(poly: PhotonPolynomial, atoms: str = "") -> HybridState:
    """Apply the polynomial to vacuum and normal-order into Fock amplitudes.

    Each monomial ``{m -> k_m}`` contributes amplitude
    ``coeff * prod_m sqrt(k_m!)`` on the occupation state ``|k_m>``.
    """
    acc: dict[tuple[str, tuple], complex] = {}
    for mono, coeff in poly.terms.items():
        fock = FockState.from_monomial(mono)
        fact = 1.0
        for _, k in fock.key:
            fact *= math.sqrt(math.factorial(k))
        _merge(acc, (atoms, fock.key), coeff * fact)
    state = HybridState.__new__(HybridState)
    state.n_atoms = len(atoms)
    state.terms = acc
    return state


def fock_to_polynomial(fock: FockState, coeff: complex = 1.0) -> PhotonPolynomial:
    """Inverse of :func:`expand_to_fock` for a single occupation state."""
    fact = 1.0
    for _, k in fock.key:
        fact *= math.sqrt(math.factorial(k))
    return PhotonPolynomial({fock.monomial(): coeff / fact})
