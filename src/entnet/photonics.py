"""Exact bosonic propagation of photonic states through lossless linear optics.

Photonic states live in two interchangeable representations: sums of
creation-operator monomials acting on vacuum (convenient while propagating
through a multiport) and occupation-number amplitudes (convenient for
detection statistics).  Everything here is pure and immutable after
construction; coefficients with magnitude below ``MERGE_TOL`` are dropped
during canonicalisation.  :func:`check_capacity` sizes an expansion from its
input alone, so oversize ones are refused before any term is expanded.

:func:`propagate` is the expansion that detection tables use: it keys output
patterns by integer occupations, returns their nonzero cells as arrays, and
is bit-identical to the polynomial path (:func:`fock_to_polynomial`,
:func:`apply_mode_transform`, :func:`expand_to_fock`), which stays as its
reference.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

if TYPE_CHECKING:
    import numpy as np

MERGE_TOL = 1e-12
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


def _check_port(port, dim: int) -> None:
    """Refuse a port that is not an integer in ``1..dim`` (numpy integers are)."""
    if not (isinstance(port, numbers.Integral) and 1 <= port <= dim):
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
    """Validated :class:`Mode` constructor."""
    if port < 1:
        raise ValueError(f"port must be >= 1, got {port}")
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
        if any(k < 0 for k in occupations.values()):
            raise ValueError("occupation numbers must be nonnegative")
        self.key = tuple(sorted((m, k) for m, k in occupations.items() if k))

    @classmethod
    def from_key(cls, key) -> "FockState":
        out = cls.__new__(cls)
        out.key = tuple(key)
        return out

    @classmethod
    def from_monomial(cls, mono: Monomial) -> "FockState":
        occ: dict[Mode, int] = {}
        for m in mono:
            occ[m] = occ.get(m, 0) + 1
        return cls(occ)

    @property
    def occupations(self) -> dict[Mode, int]:
        return dict(self.key)

    def total(self) -> int:
        return sum(k for _, k in self.key)

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


class HybridState:
    """Superposition of (atomic bitstring x photonic Fock state) terms."""

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
            _merge(acc, (atoms, tuple(fkey)), amp)
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

    Each operator of a monomial becomes a sum over the ``dim`` output modes
    of its own polarization, so ``k`` photons of one polarization expand into
    the ``C(dim + k - 1, k)`` multisets of those modes, and the polarizations
    expand independently.  The count needs no expansion and is exact up to
    interference cancellations.

    Raises:
        CapacityError: the monomials together expand into more than
            ``MAX_TERMS`` terms.
    """
    total = 0
    for mono in monomials:
        per_pol = Counter(m.pol for m in mono)
        total += math.prod(math.comb(dim + k - 1, k) for k in per_pol.values())
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


def _expand(coeff: complex, steps: list[list[tuple[int, complex]]]) -> dict[int, complex]:
    """One input monomial rewritten over the output modes, keyed by occupation ints.

    Each step is one input operator as its ``(output digit weight, inverse
    entry)`` pairs, so adding the photon to a pattern is one int addition.
    """
    partial = {0: coeff}
    for step in steps:
        nxt: dict[int, complex] = {}
        get = nxt.get
        for key, c in partial.items():
            for weight, entry in step:
                out = key + weight
                new = get(out, 0j) + c * entry
                if abs(new) < MERGE_TOL:
                    nxt.pop(out, None)
                else:
                    nxt[out] = new
        partial = nxt
    return partial


class Cells(NamedTuple):
    """The nonzero cells of :func:`propagate`, one per (pattern, register) pair.

    Pattern ``j`` has ``occupations[j, i]`` photons in output mode
    ``modes[i]``, in no canonical order.  Cell ``c`` is ``amplitudes[c]`` on
    pattern ``pattern[c]`` and register ``registers[c]`` (a bitstring read as
    a binary integer); cells are sorted by pattern, then by register.
    """

    modes: list[Mode]  # sorted
    occupations: np.ndarray
    pattern: np.ndarray
    registers: np.ndarray
    amplitudes: np.ndarray


def propagate(state: HybridState, inverse_matrix) -> Cells:
    """Expand every term of ``state`` over the output modes, summed into cells.

    While expanding, an output pattern is an int with one digit per output
    mode (in sorted :class:`Mode` order) in base ``max photons + 1``; the
    distinct patterns are decoded together at the end.  A cell whose summed
    amplitude is below ``MERGE_TOL`` is dropped (a NaN is kept, for the norm
    check), and so is a pattern left with no cell.

    This is :func:`fock_to_polynomial`, :func:`apply_mode_transform` and
    :func:`expand_to_fock` fused, and it keeps their floating-point operations
    in the same order, so every amplitude is bit-identical to that reference:
    the input coefficient is ``amp / fact`` merged into zero; each photon adds
    ``c * entry`` to a running sum that is dropped (and restarted) when its
    magnitude falls below ``MERGE_TOL``, in dict insertion order; each
    output term is merged into zero, times ``prod sqrt(k!)`` in sorted-mode
    order, and merged into zero again; the input terms are summed into each
    cell in :meth:`HybridState.items` order.  The last three steps run on
    arrays, spelled as CPython's complex arithmetic in separate float
    operations (numpy's own complex multiply may fuse them) and with ``abs``
    as ``hypot``.  A term the reference drops adds zero here.

    Raises:
        DimensionMismatch: some mode's port is not an integer in ``1..dim``.
        CapacityError: the whole expansion is oversize.  Both are raised
            before any term is expanded.
    """
    import numpy as np  # the only numpy user here, so states and modes import without it

    dim = inverse_matrix.dim
    inputs = []
    for atoms, fock, amp in state.items():
        fact = 1.0
        for m, k in fock.key:
            _check_port(m.port, dim)
            fact *= math.sqrt(math.factorial(k))
        coeff = 0j + complex(amp / fact)
        if abs(coeff) >= MERGE_TOL:
            inputs.append((atoms, fock.monomial(), coeff))
    check_capacity((mono for _, mono, _ in inputs), dim)

    pols = sorted({m.pol for _, mono, _ in inputs for m in mono})
    modes = sorted(Mode(port, pol) for pol in pols for port in range(1, dim + 1))
    base = max((len(mono) for _, mono, _ in inputs), default=0) + 1
    weights = {m: base ** i for i, m in enumerate(modes)}
    entries = inverse_matrix.entries.tolist()
    steps = {m: [(weights[Mode(k + 1, m.pol)], entries[m.port - 1][k]) for k in range(dim)]
             for _, mono, _ in inputs for m in mono}

    dtype = np.int64 if base ** len(modes) <= 2 ** 63 else object  # wider keys stay ints
    keys, coeffs, registers = [np.empty(0, dtype)], [np.empty(0, complex)], [np.empty(0, int)]
    for atoms, mono, coeff in inputs:
        out = _expand(coeff, [steps[m] for m in mono])
        keys.append(np.fromiter(out, dtype, len(out)))
        coeffs.append(np.fromiter(out.values(), complex, len(out)))
        registers.append(np.full(len(out), int("0" + atoms, 2)))
    rest, pattern = np.unique(np.concatenate(keys), return_inverse=True)
    sqrt_fact = np.array([math.sqrt(math.factorial(k)) for k in range(base)])
    occupations = np.empty((len(rest), len(modes)), dtype=np.min_scalar_type(base - 1))
    fact = np.ones(len(rest))
    for i in range(len(modes)):  # sorted-mode order; the factor is 1.0 for k <= 1
        occupations[:, i] = rest % base
        rest = rest // base
        fact = fact * sqrt_fact[occupations[:, i]]
    # a = 0j + (0j + c) * fact: complex + complex adds the parts, and
    # complex * float multiplies by complex(fact, 0.0)
    c = np.concatenate(coeffs)
    f = fact[pattern]
    re, im = 0.0 + c.real, 0.0 + c.imag
    re, im = 0.0 + (re * f - im * 0.0), 0.0 + (re * 0.0 + im * f)
    dropped = np.hypot(re, im) < MERGE_TOL
    re[dropped] = im[dropped] = 0.0

    n = state.n_atoms
    cells, cell = np.unique(pattern << n | np.concatenate(registers), return_inverse=True)
    amplitudes = np.empty(len(cells), complex)
    # bincount adds each cell's terms in input order, starting from zero
    amplitudes.real = np.bincount(cell, weights=re, minlength=len(cells))
    amplitudes.imag = np.bincount(cell, weights=im, minlength=len(cells))
    kept = ~(np.hypot(amplitudes.real, amplitudes.imag) < MERGE_TOL)  # a NaN stays
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
