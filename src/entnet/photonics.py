"""Exact bosonic propagation of photonic states through lossless linear optics.

Photonic states live in two interchangeable representations: sums of
creation-operator monomials acting on vacuum (convenient while propagating
through a multiport) and occupation-number amplitudes (convenient for
detection statistics).  Everything here is pure and immutable after
construction; coefficients with magnitude below ``MERGE_TOL`` are dropped
during canonicalisation.  :func:`check_capacity` sizes an expansion from its
input alone, so oversize ones are refused before any term is expanded.

:func:`propagate` is the expansion that detection tables use: it expands
the input terms on arrays and returns the nonzero cells in table order
(:class:`Cells`).  The polynomial path (:func:`fock_to_polynomial`,
:func:`apply_mode_transform`, :func:`expand_to_fock`) stays as its
reference; the two agree to rounding, not bit for bit, as they add in
another order.  One float rule is kept for the CLI's bytes: each complex
product is two float parts, as CPython multiplies (numpy's complex multiply
rounds differently and changes 9 lines of ``swap-table --n 3 --format
json``).
"""

from __future__ import annotations

import itertools
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
        self.port = port
        self.dim = dim
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


def _term_count(mono: Monomial, dim: int) -> int:
    """Output terms of one monomial over ``dim`` ports (see :func:`check_capacity`)."""
    return math.prod(math.comb(dim + k - 1, k) for k in Counter(m.pol for m in mono).values())


def check_capacity(monomials: Iterable[Monomial], dim: int) -> None:
    """Refuse expansions over ``dim`` output ports beyond ``MAX_TERMS`` terms.

    Each operator of a monomial becomes a sum over the ``dim`` output modes
    of its own polarization, so ``k`` photons of one polarization expand into
    the ``C(dim + k - 1, k)`` multisets of those modes, and the polarizations
    expand independently.  The count needs no expansion and is exact up to
    interference cancellations.

    Raises:
        CapacityError: the monomials together expand into more than
            ``MAX_TERMS`` terms.
    """
    total = sum(_term_count(mono, dim) for mono in monomials)
    if total > MAX_TERMS:
        raise CapacityError(
            f"expanding over {dim} ports gives {total} terms > {MAX_TERMS}")


def apply_mode_transform(poly: PhotonPolynomial, inverse_matrix) -> PhotonPolynomial:
    """Rewrite input creation operators in terms of output operators.

    ``inverse_matrix`` is the *inverse* multiport transform, so that the
    operator on input port ``j`` becomes ``sum_k inv[j, k] b_k`` on the
    output ports.  The same spatial matrix acts on each polarization
    independently.

    Args:
        poly: canonical input-operator polynomial.
        inverse_matrix: a :class:`~entnet.interferometers.MultiportMatrix`
            (or any object with ``dim`` and ``entries``).

    Raises:
        DimensionMismatch: some mode's port is not an integer in ``1..dim``.
        CapacityError: the expansion would exceed the term budget.
    """
    dim = inverse_matrix.dim
    entries = inverse_matrix.entries
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


#: children one batch of :func:`_expand_terms` may make in one photon step, at
#: most; bounds the batch's temporaries
_BATCH_CHILDREN = 1 << 16


def _photon_step(term, key, re, im, op, e_re, e_im, digits):
    """One more input photon of each parent, rewritten over the output modes.

    Parent ``p`` (of term ``term[p]``, pattern ``key[p]``, amplitude ``re[p] +
    i im[p]``) has ``dim`` children, child ``p * dim + k`` on output mode
    ``k`` of the photon's polarization: pattern ``key[p] + digits[op[p], k]``
    and amplitude the parent's times ``e[op[p], k]``, multiplied out in two
    float parts (see the module notes).  The children of one (term, pattern)
    are summed in generation order from ``0.0``, and a sum whose magnitude
    is below ``MERGE_TOL`` is dropped (a NaN is kept).  The sums come back
    by term, then by pattern.
    """
    import numpy as np

    dim = digits.shape[1]
    er, ei = e_re[op], e_im[op]
    vre = (re[:, None] * er - im[:, None] * ei).ravel()
    vim = (re[:, None] * ei + im[:, None] * er).ravel()
    keys, rank = np.unique((key[:, None] + digits[op]).ravel(), return_inverse=True)
    pairs, group = np.unique(np.repeat(term, dim) * len(keys) + rank, return_inverse=True)
    s_re, s_im = np.bincount(group, weights=vre), np.bincount(group, weights=vim)
    live = ~(np.hypot(s_re, s_im) < MERGE_TOL)
    g_term, g_key = np.divmod(pairs[live], len(keys))
    return g_term, keys[g_key], s_re[live], s_im[live]


def _expand_terms(monomials: list[Monomial], coeffs: list[complex], entries,
                  weights: Mapping[Mode, int], dtype):
    """Every monomial times its coefficient, rewritten over the output modes.

    Term ``i`` starts as pattern ``0`` with ``coeffs[i]`` and takes one
    :func:`_photon_step` per operator of ``monomials[i]``, in order.
    ``entries`` is the inverse matrix, and ``weights`` gives each output
    mode's digit in a pattern int of ``dtype``.  Consecutive terms expand
    together in batches whose steps make at most ``_BATCH_CHILDREN`` children
    (or one term's), so the temporaries stay bounded.  Returns the ``(term,
    pattern, re, im)`` arrays of the nonzero output terms, term by term.
    """
    import numpy as np

    dim = len(entries)
    ops = sorted({m for mono in monomials for m in mono})
    row = {m: i for i, m in enumerate(ops)}
    e = np.array([entries[m.port - 1] for m in ops], complex).reshape(len(ops), dim)
    e_re, e_im = e.real.copy(), e.imag.copy()
    digits = np.array([[weights[Mode(k + 1, m.pol)] for k in range(dim)] for m in ops],
                      dtype).reshape(len(ops), dim)
    lengths = np.array([len(mono) for mono in monomials], np.intp)
    op = np.zeros((len(monomials), lengths.max(initial=0)), np.intp)
    for i, mono in enumerate(monomials):
        op[i, :len(mono)] = [row[m] for m in mono]
    coeffs = np.array(coeffs, complex)
    children = [dim * _term_count(mono, dim) for mono in monomials]  # per step, at most

    out = [(np.empty(0, np.intp), np.empty(0, dtype), np.empty(0), np.empty(0))]
    start = 0
    while start < len(monomials):
        stop, budget = start + 1, children[start]
        while stop < len(monomials) and budget + children[stop] <= _BATCH_CHILDREN:
            budget += children[stop]
            stop += 1
        term = np.arange(start, stop)
        key = np.zeros(stop - start, dtype)
        re, im = coeffs.real[start:stop], coeffs.imag[start:stop]
        parts = []
        for t in itertools.count():
            done = lengths[term] == t
            parts.append((term[done], key[done], re[done], im[done]))
            if done.all():
                break
            go = ~done
            term, key, re, im = _photon_step(term[go], key[go], re[go], im[go],
                                             op[term[go], t], e_re, e_im, digits)
        term, key, re, im = (np.concatenate(part) for part in zip(*parts))
        order = np.argsort(term, kind="stable")
        out.append((term[order], key[order], re[order], im[order]))
        start = stop
    return tuple(np.concatenate(part) for part in zip(*out))


class Cells(NamedTuple):
    """The nonzero cells of :func:`propagate`, one per (pattern, register) pair, in table order.

    Pattern ``j`` has ``occupations[j, i]`` photons in output mode
    ``modes[i]``; the patterns are in canonical order, the order of their
    Fock keys (:func:`_canonical_order`).  Cell ``c`` is ``amplitudes[c]`` on
    pattern ``pattern[c]`` and register ``registers[c]`` (a bitstring read as
    a binary integer); cells are sorted by pattern, then by register, so the
    (pattern, register) pairs strictly increase.
    """

    modes: list[Mode]  # sorted
    occupations: np.ndarray
    pattern: np.ndarray
    registers: np.ndarray
    amplitudes: np.ndarray


def _canonical_order(occupations: np.ndarray) -> np.ndarray:
    """The order of the rows of ``occupations`` by their Fock keys.

    A Fock key lists its occupied modes in mode order as ``(mode, k)`` pairs,
    so two keys compare by the first pair they differ in, a prefix first.
    Each pair is coded as ``mode index * base + k`` and a missing one as -1.
    """
    import numpy as np

    rows, cols = np.nonzero(occupations)  # row-major: each row's modes in mode order
    base = int(occupations.max(initial=0)) + 1
    start = np.searchsorted(rows, np.arange(len(occupations) + 1))
    code = np.full((len(occupations), max(1, int(np.diff(start).max(initial=0)))), -1)
    code[rows, np.arange(len(rows)) - start[rows]] = cols * base + occupations[rows, cols]
    return np.lexsort(code.T[::-1])


def propagate(state: HybridState, inverse_matrix) -> Cells:
    """Expand every term of ``state`` over the output modes, summed into cells.

    While expanding, an output pattern is an int with one digit per output
    mode (in sorted :class:`Mode` order) in base ``max photons + 1``; the
    distinct patterns are decoded together at the end and numbered in
    canonical order (:func:`_canonical_order`), so the cells come out in
    table order.  A cell whose summed amplitude is below ``MERGE_TOL`` is
    dropped (a NaN is kept, for the norm check), and so is a pattern left
    with no cell.

    This is :func:`fock_to_polynomial`, :func:`apply_mode_transform` and
    :func:`expand_to_fock` fused.  The input coefficient is ``amp / fact``.
    The terms expand in batches of consecutive terms (:func:`_expand_terms`),
    one photon of every term of a batch per :func:`_photon_step`, which sums
    each (term, pattern) once.  Each output term is multiplied by ``prod
    sqrt(k!)``, and the input terms are summed into each cell in
    :meth:`HybridState.items` order from ``0.0``.  The cells agree with that
    reference to rounding: its dicts add in insertion order and restart a
    sum that cancels below ``MERGE_TOL`` on the way, which moves last bits.

    Raises:
        DimensionMismatch: some mode's port is not an integer in ``1..dim``.
        CapacityError: the whole expansion is oversize.  Both are raised
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
    check_capacity((mono for _, mono, _ in inputs), dim)

    pols = sorted({m.pol for _, mono, _ in inputs for m in mono})
    modes = sorted(Mode(port, pol) for pol in pols for port in range(1, dim + 1))
    base = max((len(mono) for _, mono, _ in inputs), default=0) + 1
    weights = {m: base ** i for i, m in enumerate(modes)}

    dtype = np.int64 if base ** len(modes) <= 2 ** 63 else object  # wider keys stay ints
    term, keys, c_re, c_im = _expand_terms([mono for _, mono, _ in inputs],
                                           [coeff for _, _, coeff in inputs],
                                           inverse_matrix.entries, weights, dtype)
    rest, pattern = np.unique(keys, return_inverse=True)
    sqrt_fact = np.array([math.sqrt(math.factorial(k)) for k in range(base)])
    occupations = np.empty((len(rest), len(modes)), dtype=np.min_scalar_type(base - 1))
    fact = np.ones(len(rest))
    for i in range(len(modes)):  # sorted-mode order; the factor is 1.0 for k <= 1
        occupations[:, i] = rest % base
        rest = rest // base
        fact = fact * sqrt_fact[occupations[:, i]]
    order = _canonical_order(occupations)
    occupations, fact = occupations[order], fact[order]
    pattern = np.argsort(order)[pattern]  # each term's pattern, numbered in table order
    re, im = c_re * fact[pattern], c_im * fact[pattern]

    n = state.n_atoms
    registers = np.array([int("0" + atoms, 2) for atoms, _, _ in inputs], np.int64)
    cells, cell = np.unique(pattern << n | registers[term], return_inverse=True)
    amplitudes = np.empty(len(cells), complex)
    # bincount adds each cell's terms in input order, starting from zero
    amplitudes.real = np.bincount(cell, weights=re, minlength=len(cells))
    amplitudes.imag = np.bincount(cell, weights=im, minlength=len(cells))
    kept = ~(np.abs(amplitudes) < MERGE_TOL)  # a NaN stays
    cells = cells[kept]
    live, pattern = np.unique(cells >> n, return_inverse=True)
    return Cells(modes, occupations[live], pattern, cells & (1 << n) - 1, amplitudes[kept])


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
