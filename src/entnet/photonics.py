"""Exact bosonic propagation of photonic states through lossless linear optics.

Photonic states are sums of creation-operator monomials acting on vacuum
(:class:`PhotonPolynomial`) or occupation-number amplitudes
(:class:`HybridState`), pure and immutable after construction; coefficients
below ``MERGE_TOL`` are dropped.  :func:`propagate` is the expansion that
detection tables use: linear optics keeps each photon's polarization, so it
numbers each partial pattern by dense multiset ranks, one per polarization,
and looks each photon step up in a table.  The polynomial path
(:func:`fock_to_polynomial`, :func:`apply_mode_transform`,
:func:`expand_to_fock`) is its reference; the two agree to rounding.  Each
complex product is two float parts, as CPython multiplies: numpy's complex
multiply rounds differently and changes 9 lines of ``swap-table --n 3
--format json``.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

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


#: children a photon step makes at once (or one term's, if more)
_BATCH_CHILDREN = 1 << 16
_tables: dict[tuple, tuple] = {}  # the kept tables, by what they are built from; read-only


def _kept(key: tuple, build) -> tuple:
    """``build()``'s arrays, kept read-only under ``key`` if no larger than ``_BATCH_CHILDREN``
    float64s."""
    table = _tables.get(key) or build()
    if key not in _tables and sum(a.nbytes for a in table) <= 8 * _BATCH_CHILDREN:
        for a in table:  # handed out, as Cells.occupations and DetectionTable.patterns
            a.setflags(write=False)
        _tables[key] = table
    return table


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


def _step_table(grow: np.ndarray, counts: tuple, pol: int) -> tuple:
    """Entry ``[j, k]`` numbers pattern ``j`` of ``counts`` plus a photon of ``pol`` on port ``k``.

    A pattern with ``counts[q]`` photons of polarization ``q`` is numbered by its multisets'
    places among those of as many photons, a digit per polarization, the last the fastest;
    the digit of ``pol`` moves as ``grow`` (:func:`_multisets`) says."""
    import numpy as np
    dim, k = grow.shape[1], counts[pol]
    sizes = [math.comb(dim + c - 1, c) for c in counts]
    lo, hi, size = math.comb(dim + k - 1, dim), math.comb(dim + k, dim), math.comb(dim + k, k + 1)
    high, low = math.prod(sizes[:pol]), math.prod(sizes[pol + 1:])
    child = (np.arange(high)[:, None, None, None] * size + grow[lo:hi, None] - hi) * low
    return ((child + np.arange(low)[:, None]).reshape(-1, dim).astype(
        np.min_scalar_type(high * size * low)),)


def _sector_table(every: np.ndarray, sectors: list[tuple]) -> tuple:
    """Over the patterns of ``sectors`` (photons per polarization), numbered sector by sector
    as in :func:`_step_table`: each one's ``prod sqrt(k!)``, taken in mode order, and place in
    canonical (Fock-key) order, then the photons per output mode (sorted :class:`Mode` order)
    of the pattern at each place and its click columns: modes fired, photons, and the most
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
    return fact, place, occupations, fired, photons, occupations.max(axis=1, initial=0)


def _expand(monomials: list[Monomial], coeffs: list[complex], entries, pols: list[str],
            grow: np.ndarray) -> dict:
    """Per sector (photons per polarization), its terms in input order and (terms x patterns) parts.

    A term takes a photon step per operator, in order, with the terms of as many
    photons per polarization, in blocks of at most ``_BATCH_CHILDREN`` children:
    each pattern times a row of the inverse matrix ``entries`` in two float parts,
    each child's parents added in order from ``0.0`` (:func:`_step_table` on ``grow``).  A sum
    below ``MERGE_TOL`` is set to zero (a NaN stays), so its children move no sum.
    Where every term has an H<->V partner, :func:`propagate` hands it only the terms
    with no more H than V photons (:func:`_expand_mirrored`)."""
    import numpy as np
    dim, top = grow.shape[1], max(map(len, monomials))
    e = np.array(entries, complex).reshape(dim, dim)
    e_re, e_im = e.real.copy(), e.imag.copy()
    op = np.full((len(monomials), top + 1), -1)  # each photon's pol * dim + port, -1 past the last
    for i, mono in enumerate(monomials):
        op[i, :len(mono)] = [pols.index(m.pol) * dim + m.port - 1 for m in mono]
    coeffs = np.array(coeffs, complex).reshape(-1, 1)
    steps, done = {(0,) * len(pols): [(np.arange(len(monomials)), coeffs.real, coeffs.imag)]}, {}
    for t in range(top + 1):
        groups, steps = steps, {}
        for counts, blocks in groups.items():
            term, re, im = (np.concatenate(part) for part in zip(*blocks))
            pol, port = np.divmod(op[term, t], dim)
            for q in sorted(set(pol.tolist())):
                rows = np.flatnonzero(pol == q)
                if q < 0:  # the terms that end here, in input order
                    rows = rows[np.argsort(term[rows])]
                    done[counts] = term[rows], re[rows], im[rows]
                    continue
                child = _kept(("step", dim, counts, q), lambda: _step_table(grow, counts, q))[0]
                grown = counts[:q] + (counts[q] + 1,) + counts[q + 1:]
                size = math.prod(math.comb(dim + k - 1, k) for k in grown)
                batch = max(1, _BATCH_CHILDREN // child.size)
                for r in (rows[lo:lo + batch] for lo in range(0, len(rows), batch)):
                    a, b = re[r, :, None], im[r, :, None]
                    er, ei = e_re[port[r], None], e_im[port[r], None]
                    slot = (np.arange(len(r))[:, None, None] * size + child).ravel()
                    s_re = np.bincount(slot, (a * er - b * ei).ravel(), len(r) * size)
                    s_im = np.bincount(slot, (a * ei + b * er).ravel(), len(r) * size)
                    dead = np.hypot(s_re, s_im) < MERGE_TOL
                    s_re[dead] = s_im[dead] = 0.0
                    steps.setdefault(grown, []).append(
                        (term[r], s_re.reshape(len(r), size), s_im.reshape(len(r), size)))
    return done


def _mirror(monomials: list[Monomial], coeffs: list[complex], pols: list[str]) -> tuple:
    """The terms that :func:`_expand_mirrored` steps, each term's H<->V partner, and ``S``.

    Linear optics keeps polarization, so when the photons are H and V and every term
    has a partner with each photon's polarization swapped, in the same order, and
    coefficient ``S`` times its own for one ``S = +-1``, only the terms with no more H
    than V photons are stepped.  Other inputs step every term, with no partner or sign.
    """
    import numpy as np
    sign = None
    if pols == ["H", "V"] and len(set(monomials)) == len(monomials):
        index, flip = {mono: i for i, mono in enumerate(monomials)}, {"H": "V", "V": "H"}
        partner = [index.get(tuple(Mode(m.port, flip[m.pol]) for m in mono))
                   for mono in monomials]
        sign = next((s for s in (1, -1) if None not in partner
                     and all(coeffs[j] == s * c for j, c in zip(partner, coeffs))), None)
    if sign is None:
        return np.arange(len(monomials)), None, None
    stepped = np.flatnonzero([2 * sum(m.pol == "H" for m in mono) <= len(mono)
                              for mono in monomials])
    return stepped, np.array(partner), sign


def _expand_mirrored(monomials: list[Monomial], coeffs: list[complex], entries,
                     pols: list[str], grow: np.ndarray, mirror: tuple) -> dict:
    """:func:`_expand`'s sectors, with one sector of each H<->V-mirrored pair expanded.

    With a ``mirror`` (:func:`_mirror`), the partner's parts are the term's with the H
    and V multisets swapped, times ``S``, to the bit.  So only the stepped terms are
    expanded, and each sector ``(v, h)`` with ``h < v`` is copied from ``(h, v)``: the
    pattern axes transposed, each row moved to its term's partner, in input order, and
    negated as ``0.0 - x`` for ``S = -1`` (the expansion's sums start at ``0.0``, so
    they hold no ``-0.0``).  Other inputs are expanded whole.
    """
    import numpy as np
    stepped, partner, sign = mirror
    if sign is None:
        return _expand(monomials, coeffs, entries, pols, grow)
    done = _expand([monomials[i] for i in stepped], [coeffs[i] for i in stepped], entries,
                   pols, grow)
    dim = grow.shape[1]
    for (h, v), (term, re, im) in list(done.items()):
        term = stepped[term]
        done[h, v] = term, re, im
        if h < v:
            order = np.argsort(partner[term])
            shape = (len(term), math.comb(dim + h - 1, h), math.comb(dim + v - 1, v))
            mirrored = [x[order].reshape(shape).transpose(0, 2, 1).reshape(len(term), -1)
                        for x in (re, im)]
            if sign < 0:
                for x in mirrored:
                    np.subtract(0.0, x, out=x)
            done[v, h] = partner[term][order], *mirrored
    return done


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
    sorted by pattern, then register."""

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
    :func:`expand_to_fock` fused (:func:`_expand`): coefficients ``amp / fact``
    in, each sector with more H than V photons copied from its mirror when
    every term has an H<->V partner (:func:`_mirror`, :func:`_expand_mirrored`,
    the same bits), the terms it steps sized first (:func:`check_capacity`),
    output terms times ``prod sqrt(k!)`` (:func:`_sector_table`) summed
    into each cell in :meth:`HybridState.items` order from ``0.0``.  A cell
    below ``MERGE_TOL`` is dropped (a NaN is kept, for the norm check), and so
    is a pattern left with no cell; the rest are sorted once, stably, by their
    pattern's place in canonical order.  It agrees with the reference to
    rounding: the reference's dicts restart a sum that cancels below ``MERGE_TOL``.

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
    mirror = _mirror(monomials, coeffs, pols)
    check_capacity((monomials[i] for i in mirror[0]), dim)
    top = max(map(len, monomials))
    every, grow = _kept(("sets", dim, top), lambda: _multisets(dim, top))
    done = _expand_mirrored(monomials, coeffs, inverse_matrix.entries, pols, grow, mirror)
    sectors = sorted(done)
    fact, place, occupations, *clicks = _kept(("sectors", dim, *sectors),
                                              lambda: _sector_table(every, sectors))
    registers = np.array([int("0" + atoms, 2) for atoms, _, _ in inputs], np.int64)
    parts, start = [], 0
    for counts in sectors:
        term, re, im = done.pop(counts)  # each sector's parts go once summed
        n = re.shape[1]
        regs, col = np.unique(registers[term], return_inverse=True)
        slot, f = (np.arange(n) * len(regs) + col[:, None]).ravel(), fact[start:start + n]
        amplitudes = np.empty(n * len(regs), complex)
        amplitudes.real = np.bincount(slot, (re * f).ravel(), len(amplitudes))
        amplitudes.imag = np.bincount(slot, (im * f).ravel(), len(amplitudes))
        kept = np.flatnonzero(~(np.abs(amplitudes) < MERGE_TOL))  # a NaN stays
        pattern, reg = np.divmod(kept, len(regs))
        parts.append((place[start + pattern], regs[reg], amplitudes[kept]))
        start += n
    place, registers, amplitudes = (np.concatenate(p) for p in zip(*parts))
    del parts  # before the sorted copies, which would otherwise raise the peak
    order = np.argsort(place, kind="stable")  # by place, each pattern's cells by register
    place = place[order]
    first = np.ones(len(place), bool)  # each live pattern's first cell
    first[1:] = place[1:] != place[:-1]
    modes = sorted(Mode(port, pol) for pol in pols for port in range(1, dim + 1))
    return Cells(modes, sectors, occupations, tuple(clicks), place[first], np.cumsum(first) - 1,
                 registers[order], amplitudes[order])


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
    return _kept(key, build)[0][cells.places]


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
    every = _kept(("sets", dim, top), lambda: _multisets(dim, top))[0]
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
