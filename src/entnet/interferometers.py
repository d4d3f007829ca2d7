"""Constructors for the symmetric multiport unitaries used by the analysers.

All devices are built from lossless beam-splitter factors with the symmetric
``[[1/sqrt2, i/sqrt2], [i/sqrt2, 1/sqrt2]]`` convention.  Matrix products are
written so the rightmost factor acts first on the column of input creation
operators, matching the factor decompositions the constructors are validated
against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .photonics import _is_integer

UNITARITY_TOL = 1e-9
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class MultiportMatrix:
    """An ``n x n`` unitary mode transform ``b_dag = U a_dag``.

    :attr:`symmetries` are found on first read and kept with the matrix.
    Two matrices are equal when their ``dim``, ``label`` and exact entries
    are (``-0.0 == 0.0``); equal ones hash alike.
    """

    dim: int
    entries: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        if not _is_integer(self.dim):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim}x{self.dim} matrix, got {m.shape}")
        if not unitarity_residual(m) < UNITARITY_TOL:  # a NaN residual fails too
            raise ValueError(f"matrix {self.label or m} is not unitary")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiportMatrix):
            return NotImplemented
        return (self.dim, self.label) == (other.dim, other.label) and \
            bool(np.array_equal(self.entries, other.entries))

    def __hash__(self) -> int:
        return hash((self.dim, self.label, (self.entries + 0).tobytes()))  # -0.0 + 0 is 0.0

    @functools.cached_property
    def symmetries(self) -> tuple[np.ndarray, ...]:
        """The output symmetries of a balanced multiport, the identity first.

        Every permutation ``perm`` of the output ports with
        ``U[perm[j], k] = d1[j] U[j, k] d2[k]`` for unit phases ``d1``,
        ``d2`` (``d1[0] = 1``), matched within ``SYMMETRY_TOL``, so that
        ``U[perm] / U`` has rank one.  Row 0's image fixes ``d2``, and each
        row must then equal one row of ``U D2`` up to a phase: ``dim``
        candidates of ``O(dim^3)`` each.  A matrix that is not balanced
        (:func:`verify_symmetric`) may have zero entries, and only the
        identity is returned for it.
        """
        n, m = self.dim, self.entries
        found = [np.arange(n)]
        if not verify_symmetric(self):
            return tuple(found)
        # every |U[j, k]|^2 is 1/n, so dividing by an entry is n times multiplying by its conjugate
        for image in range(1, n):
            d2 = m[image] * m[0].conj() * n
            # ratio[i, j, k] = U[i, k] / (U D2)[j, k]: row j maps to the i where it is constant
            ratio = m[:, None, :] * (m * d2).conj()[None, :, :] * n
            match = np.all(np.abs(ratio - ratio[:, :, :1]) < SYMMETRY_TOL, axis=2)
            perm = match.argmax(axis=0)
            if np.all(match.sum(axis=0) == 1) and len(set(perm.tolist())) == n:
                found.append(perm)
        return tuple(found)


def unitarity_residual(entries: np.ndarray) -> float:
    """max-norm of ``U U_dag - I``."""
    m = np.asarray(entries)
    return float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))


def symmetry_residual(u: MultiportMatrix) -> float:
    """max-norm deviation of ``|U_jk|^2`` from the balanced value ``1/n``."""
    return float(np.max(np.abs(np.abs(u.entries) ** 2 - 1.0 / u.dim)))


def verify_symmetric(u: MultiportMatrix) -> bool:
    """True iff every input exits every output with probability ``1/n``."""
    return symmetry_residual(u) < SYMMETRY_TOL


def _bs_factor(dim: int, a: int, b: int, t: float = 1 / math.sqrt(2),
               r: float = 1 / math.sqrt(2)) -> np.ndarray:
    """Beam splitter acting on 0-based ports ``a``, ``b`` of a ``dim``-port."""
    m = np.eye(dim, dtype=complex)
    m[a, a] = t
    m[a, b] = 1j * r
    m[b, a] = 1j * r
    m[b, b] = t
    return m


def beam_splitter() -> MultiportMatrix:
    """Balanced two-port: ``[[1, i], [i, 1]] / sqrt2``."""
    return MultiportMatrix(2, _bs_factor(2, 0, 1), "bs")


def tritter() -> MultiportMatrix:
    """Three-port symmetric multiport from two 50:50 and one 1:2 splitter.

    Factor order (rightmost applied first): 50:50 on ports 1-2, then the
    1:2 splitter (transmission 2/3) on ports 1-3, then 50:50 on ports 2-3.
    """
    f_23 = _bs_factor(3, 1, 2)
    f_13 = _bs_factor(3, 0, 2, t=math.sqrt(2 / 3), r=1 / math.sqrt(3))
    f_12 = _bs_factor(3, 0, 1)
    return MultiportMatrix(3, f_23 @ f_13 @ f_12, "tritter")


def quarter() -> MultiportMatrix:
    """Four-port symmetric multiport built from four 50:50 splitters.

    Factor order (rightmost applied first): ports 1-2, ports 3-4,
    ports 1-4, ports 2-3.
    """
    f_23 = _bs_factor(4, 1, 2)
    f_14 = _bs_factor(4, 0, 3)
    f_34 = _bs_factor(4, 2, 3)
    f_12 = _bs_factor(4, 0, 1)
    return MultiportMatrix(4, f_23 @ f_14 @ f_34 @ f_12, "quarter")


def symmetric_multiport(d: int) -> MultiportMatrix:
    """Butterfly network of 50:50 splitters on ``2^d`` ports.

    Layer ``k`` (k = 0..d-1) pairs ports whose 0-based indices differ in bit
    ``k``, so every photon crosses exactly ``d`` splitters and exits each
    port with probability ``2^-d``.  ``d=1`` is the plain beam splitter;
    ``d=2`` equals :func:`quarter` after swapping ports 3 and 4 on both the
    input and the output side.
    """
    if not _is_integer(d) or not 1 <= d <= 5:
        raise ValueError(f"d must be an integer in 1..5 (got {d!r}); dim 2^d is capped at 32")
    n = 2 ** d
    u = np.eye(n, dtype=complex)
    for k in range(d):
        layer = np.eye(n, dtype=complex)
        for i in range(n):
            if not i & (1 << k):
                j = i | (1 << k)
                layer[i, i] = layer[j, j] = 1 / math.sqrt(2)
                layer[i, j] = layer[j, i] = 1j / math.sqrt(2)
        u = layer @ u
    return MultiportMatrix(n, u, f"sym2d(d={d})")


def inverse(u: MultiportMatrix) -> MultiportMatrix:
    """Conjugate transpose, expressing input operators via output operators."""
    return MultiportMatrix(u.dim, u.entries.conj().T.copy(), f"{u.label}^-1")


def with_phase_plates(u: MultiportMatrix, input_phases=None, output_phases=None) -> MultiportMatrix:
    """Decorate a multiport with per-port phase plates.

    Returns ``diag(e^{i out}) @ U @ diag(e^{i in})``; either argument may be
    None for no plates on that side.  Phase plates never change ``|U_jk|``,
    so symmetry is preserved.
    """
    m = u.entries
    if input_phases is not None:
        if len(input_phases) != u.dim:
            raise ValueError("need one input phase per port")
        m = m @ np.diag(np.exp(1j * np.asarray(input_phases, dtype=float)))
    if output_phases is not None:
        if len(output_phases) != u.dim:
            raise ValueError("need one output phase per port")
        m = np.diag(np.exp(1j * np.asarray(output_phases, dtype=float))) @ m
    return MultiportMatrix(u.dim, m, f"{u.label}+phases")


def split_polarization_phase(alpha_h: float, alpha_v: float, beta_h: float,
                             beta_v: float, wavelength: float) -> float:
    """Heralded-state phase for split-polarization interferometers.

    The H and V components travel separate arms with path lengths
    ``alpha`` (first interferometer) and ``beta`` (second); the created
    state picks up ``2 pi [(beta_H - beta_V) - (alpha_H - alpha_V)] /
    wavelength``, reduced to ``(-pi, pi]``.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    phi = 2 * math.pi * ((beta_h - beta_v) - (alpha_h - alpha_v)) / wavelength
    phi = math.fmod(phi, 2 * math.pi)
    if phi > math.pi:
        phi -= 2 * math.pi
    elif phi <= -math.pi:
        phi += 2 * math.pi
    return phi

