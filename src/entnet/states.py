"""Canonical multi-qubit state families and entanglement diagnostics.

Bitstring convention: the leftmost character is qubit 1 (the first tensor
factor).  Ground/horizontal maps to ``0`` and excited/vertical to ``1``
throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

NORM_TOL = 1e-9
TANGLE_TOL = 1e-6
PURITY_TOL = 1e-9
#: the labels of states no bipartition leaves product
GENUINE_CLASSES = ("entangled", "W-class", "GHZ-class")
#: states stacked per block of the batched classification walk
_BLOCK_ROWS = 256
_BITS3 = tuple("".join(t) for t in itertools.product("01", repeat=3))


class QubitState:
    """Pure state of ``n_qubits`` qubits as a sparse bitstring-amplitude map.

    The amplitudes must be finite and normalized to within ``NORM_TOL``,
    unless ``normalize`` asks for them to be rescaled.

    The state stores its :func:`entanglement_class` after the first query;
    the label derives from the amplitudes alone, so concurrent first queries
    store the same value.
    """

    __slots__ = ("n_qubits", "amplitudes", "_label")

    def __init__(self, n_qubits: int, amplitudes: Mapping[str, complex],
                 normalize: bool = False):
        amps = {}
        for bits, a in amplitudes.items():
            if len(bits) != n_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad basis label {bits!r} for {n_qubits} qubits")
            a = complex(a)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"amplitude {a!r} of {bits!r} is not finite")
            if abs(a) > 0:
                amps[bits] = a
        if normalize:
            norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
            if norm == 0:
                raise ValueError("cannot normalize the zero state")
            amps = {b: a / norm for b, a in amps.items()}
        else:
            norm_sq = sum(abs(a) ** 2 for a in amps.values())
            if not abs(norm_sq - 1.0) <= NORM_TOL:
                raise ValueError(f"state is not normalized (norm^2 = {norm_sq})")
        self.n_qubits = n_qubits
        self.amplitudes = amps
        self._label = None

    @classmethod
    def _trusted(cls, n_qubits: int, amplitudes: dict[str, complex],
                 label: str | None = None) -> "QubitState":
        """A state of amplitudes already checked and normalized, kept as given."""
        state = cls.__new__(cls)
        state.n_qubits, state.amplitudes, state._label = n_qubits, amplitudes, label
        return state

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_qubits: int, **kw) -> "QubitState":
        amps = {}
        for idx, a in enumerate(vec):
            if abs(a) > 1e-15:
                amps[format(idx, f"0{n_qubits}b")] = complex(a)
        return cls(n_qubits, amps, **kw)

    def vector(self) -> np.ndarray:
        vec = np.zeros(2 ** self.n_qubits, dtype=complex)
        for bits, a in self.amplitudes.items():
            vec[int(bits, 2)] = a
        return vec

    def tensor(self, other: "QubitState") -> "QubitState":
        amps = {}
        for b1, a1 in self.amplitudes.items():
            for b2, a2 in other.amplitudes.items():
                amps[b1 + b2] = a1 * a2
        return QubitState(self.n_qubits + other.n_qubits, amps)

    def phase_canonical(self) -> "QubitState":
        """Rotate the first nonzero amplitude (lexicographic) to positive real."""
        first = min(self.amplitudes)
        phase = self.amplitudes[first] / abs(self.amplitudes[first])
        return QubitState(self.n_qubits, {b: a / phase for b, a in self.amplitudes.items()})

    def __repr__(self) -> str:
        parts = [f"({a:.4g})|{b}>" for b, a in sorted(self.amplitudes.items())]
        return " + ".join(parts) if parts else "0"


def inner(a: QubitState, b: QubitState) -> complex:
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    small, big = (a, b) if len(a.amplitudes) <= len(b.amplitudes) else (b, a)
    total = 0j
    for bits, amp in small.amplitudes.items():
        other = big.amplitudes.get(bits)
        if other is not None:
            total += (amp.conjugate() * other) if small is a else (other.conjugate() * amp)
    return total


def fidelity(a: QubitState, b: QubitState) -> float:
    """Pure-state fidelity ``|<a|b>|^2``."""
    return abs(inner(a, b)) ** 2


_BELL = {
    "phi+": {"00": 1, "11": 1},
    "phi-": {"00": 1, "11": -1},
    "psi+": {"01": 1, "10": 1},
    "psi-": {"01": 1, "10": -1},
}


def bell_state(kind: str) -> QubitState:
    """One of the four Bell states, ``kind`` in phi+/phi-/psi+/psi-."""
    key = kind.lower().replace("φ", "phi").replace("ψ", "psi")
    if key not in _BELL:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(_BELL)}")
    s = 1 / math.sqrt(2)
    return QubitState(2, {b: a * s for b, a in _BELL[key].items()})


@dataclass(frozen=True)
class GhzIndex:
    """Index (n, sign) into the GHZ-pair basis of ``n_qubits`` qubits.

    ``B(n)`` is the n_qubits-bit binary expansion of ``n`` whose leading bit
    is 0, so ``n`` ranges over ``0 .. 2^(n_qubits-1) - 1``.
    """

    n: int
    sign: str
    n_qubits: int

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("need at least 2 qubits")
        if not 0 <= self.n < 2 ** (self.n_qubits - 1):
            raise ValueError(
                f"n must be in [0, {2 ** (self.n_qubits - 1) - 1}], got {self.n}")
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")

    def bits(self) -> str:
        return format(self.n, f"0{self.n_qubits}b")

    def complement_bits(self) -> str:
        return format(2 ** self.n_qubits - self.n - 1, f"0{self.n_qubits}b")


def ghz_basis_state(n: int, sign: str, n_qubits: int) -> QubitState:
    """GHZ-pair basis element ``(|B(n)> +/- |~B(n)>)/sqrt2``.

    The ``2^n_qubits`` states over all ``(n, sign)`` form a complete
    orthonormal basis pairing each computational state with its bitwise
    complement.
    """
    idx = GhzIndex(n, sign, n_qubits)
    s = 1 / math.sqrt(2)
    return QubitState(n_qubits, {idx.bits(): s,
                                 idx.complement_bits(): s if sign == "+" else -s})


def ghz_basis(n_qubits: int) -> list[QubitState]:
    return [ghz_basis_state(n, sign, n_qubits)
            for n in range(2 ** (n_qubits - 1)) for sign in ("+", "-")]


def dicke_state(m: int, n_qubits: int, phases: Sequence[float] | None = None) -> QubitState:
    """Equal-weight superposition of all strings with ``m`` excitations.

    Each term carries the product of ``exp(i phases[k])`` over its excited
    positions, covering the collective-emission phase pattern picked up when
    the excitations are heralded optically.  ``phases=None`` means all zero.
    """
    if not 0 <= m <= n_qubits:
        raise ValueError(f"need 0 <= m <= {n_qubits}, got m={m}")
    if phases is None:
        phases = [0.0] * n_qubits
    if len(phases) != n_qubits:
        raise ValueError("need one phase per qubit")
    coeff = 1 / math.sqrt(math.comb(n_qubits, m))
    amps = {}
    for excited in itertools.combinations(range(n_qubits), m):
        bits = "".join("1" if q in excited else "0" for q in range(n_qubits))
        amps[bits] = coeff * np.exp(1j * sum(phases[q] for q in excited))
    return QubitState(n_qubits, amps)


def pair_basis_coefficients(signs: Sequence[int]) -> list[tuple[float, float]]:
    """Coefficients (same-index, crossed) of each GHZ-pair term for signed pairs.

    For input pairs ``(|00> + s_k |11>)/sqrt2`` the atom-photon product state
    decomposes over the doubled GHZ-pair basis with weight ``a_n`` on
    ``|G_n^+>|G_n^+> + |G_n^->|G_n^->`` and ``b_n`` on
    ``|G_n^+>|G_n^-> + |G_n^->|G_n^+>``.  For all-plus signs every ``a_n``
    is 1 and every ``b_n`` is 0.
    """
    n = len(signs)
    out = []
    for idx in range(2 ** (n - 1)):
        bits = format(idx, f"0{n}b")
        sigma = 1.0
        sigma_c = 1.0
        for k, b in enumerate(bits):
            if b == "1":
                sigma *= signs[k]
            else:
                sigma_c *= signs[k]
        out.append(((sigma + sigma_c) / 2, (sigma - sigma_c) / 2))
    return out


def verify_pair_decomposition(n_pairs: int, signs: Sequence[int] | None = None) -> float:
    """Residual of the GHZ-pair decomposition of ``n_pairs`` Bell pairs.

    Builds ``(x) (|00> + s_k |11>)/sqrt2`` over atom-photon pairs as a
    ``2 n_pairs``-qubit state (atom register first), rebuilds it from the
    doubled GHZ-pair basis via :func:`pair_basis_coefficients`, and returns
    the 2-norm of the difference.
    """
    if not 2 <= n_pairs <= 6:
        raise ValueError("supported range is 2..6 pairs")
    if signs is None:
        signs = [1] * n_pairs
    if len(signs) != n_pairs or set(signs) - {1, -1}:
        raise ValueError("signs must be +/-1, one per pair")

    n = n_pairs
    lhs = np.zeros(2 ** (2 * n), dtype=complex)
    for idx in range(2 ** n):
        bits = format(idx, f"0{n}b")
        amp = 2 ** (-n / 2)
        for k, b in enumerate(bits):
            if b == "1":
                amp *= signs[k]
        lhs[int(bits + bits, 2)] = amp

    rhs = np.zeros_like(lhs)
    coeffs = pair_basis_coefficients(signs)
    for pair_n, (a_same, b_cross) in enumerate(coeffs):
        gp = ghz_basis_state(pair_n, "+", n).vector()
        gm = ghz_basis_state(pair_n, "-", n).vector()
        term = a_same * (np.kron(gp, gp) + np.kron(gm, gm))
        if b_cross:
            term = term + b_cross * (np.kron(gp, gm) + np.kron(gm, gp))
        rhs += term
    rhs *= 2 ** (-n / 2)
    return float(np.linalg.norm(lhs - rhs))


def _purity(psi: np.ndarray, subset: Sequence[int]) -> float:
    """Purity of the reduced state on ``subset`` of the qubit tensor ``psi``."""
    rest = [q for q in range(psi.ndim) if q not in subset]
    m = np.transpose(psi, list(subset) + rest).reshape(2 ** len(subset), -1)
    rho = m @ m.conj().T
    return float(np.trace(rho @ rho).real)


def reduced_purity(state: QubitState, qubits: Iterable[int]) -> float:
    """Purity ``tr(rho^2)`` of the reduced state on the given qubit subset."""
    subset = sorted(set(qubits))
    if not subset or len(subset) >= state.n_qubits:
        raise ValueError("subset must be a proper nonempty set of qubit indices")
    if subset[0] < 0 or subset[-1] >= state.n_qubits:
        raise ValueError(f"qubit indices out of range for {state.n_qubits} qubits")
    return _purity(state.vector().reshape([2] * state.n_qubits), subset)


def is_product_state(state: QubitState) -> bool:
    """True when the state is a tensor product of single-qubit states."""
    return entanglement_class(state) == "product"


def genuinely_entangled(state: QubitState) -> bool:
    """True when no bipartition of the qubits leaves the state product."""
    return entanglement_class(state) in GENUINE_CLASSES


def three_tangle(state: QubitState) -> float:
    """Residual three-way entanglement of a pure 3-qubit state.

    Computed as ``4 |d1 - 2 d2 + 4 d3|`` from the degree-4 invariant of the
    amplitude tensor; 1 for GHZ-type states, 0 for W-type and separable ones.
    """
    if state.n_qubits != 3:
        raise ValueError("three_tangle needs exactly 3 qubits")
    return _three_tangle({bits: state.amplitudes.get(bits, 0j) for bits in _BITS3})


def _three_tangle(a: Mapping[str, complex]) -> float:
    """:func:`three_tangle` of the amplitudes ``a`` of all eight 3-bit strings."""
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


def classify_three_qubit(state: QubitState) -> str:
    """Entanglement class of a pure 3-qubit state.

    Returns one of ``product``, ``biseparable``, ``W-class``, ``GHZ-class``.
    Nonzero three-tangle marks the GHZ class; zero tangle with every qubit
    mixed marks the W class; one pure qubit means biseparable.
    """
    if state.n_qubits != 3:
        raise ValueError("classification needs exactly 3 qubits")
    return entanglement_class(state)


def entanglement_class(state: QubitState) -> str:
    """Entanglement label of a pure state, stored on the state once computed.

    The label is ``product`` when every qubit is pure, ``biseparable`` when
    the state is entangled but some bipartition leaves it product, and
    ``entangled`` when none does; three-qubit states split ``entangled``
    into ``GHZ-class`` (nonzero three-tangle) and ``W-class``.  This is
    the stored label, else ``entanglement_classes([state])[0]``.
    """
    return state._label or entanglement_classes([state])[0]


def entanglement_classes(states: Sequence[QubitState]) -> list[str]:
    """Entanglement labels of same-size pure states, in order, each stored on its state.

    States that already store a label keep it.  The others are classified
    in blocks of a fixed number of rows, which bounds the walk's temporaries
    whatever the number of states.  See :func:`entanglement_class` for the
    labels.

    Raises:
        ValueError: the states differ in qubit count.
    """
    if len({state.n_qubits for state in states}) > 1:
        raise ValueError("states differ in qubit count")
    todo = [state for state in states if state._label is None]
    for start in range(0, len(todo), _BLOCK_ROWS):
        block = todo[start:start + _BLOCK_ROWS]
        for state, label in zip(block, _classify_block(np.stack([s.vector() for s in block]))):
            state._label = label
    return [state._label for state in states]


def entanglement_classes_csr(n_qubits: int, offsets: np.ndarray, atoms: np.ndarray,
                             amplitudes: np.ndarray) -> list[str]:
    """Entanglement labels of the states stored as the rows of a CSR block.

    Row ``i`` has ``amplitudes[offsets[i]:offsets[i + 1]]`` on the basis
    states ``atoms[...]`` (bitstrings as binary integers).  Each block of
    rows is scattered into dense vectors and walked as
    :func:`entanglement_classes` walks loose states.
    """
    labels: list[str] = []
    for start in range(0, len(offsets) - 1, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(offsets) - 1)
        lo, hi = offsets[start], offsets[stop]
        vecs = np.zeros((stop - start, 2 ** n_qubits), dtype=complex)
        row = np.repeat(np.arange(stop - start), np.diff(offsets[start:stop + 1]))
        vecs[row, atoms[lo:hi]] = amplitudes[lo:hi]
        labels += _classify_block(vecs)
    return labels


def _classify_block(vecs: np.ndarray) -> list[str]:
    """Labels of the state vectors ``vecs`` (one per row) in one walk over the bipartitions.

    The walk tests the single-qubit cuts before the larger ones, each
    bipartition once, one cut at a time across the rows it has not yet
    settled; a row drops out at the first cut that settles its label.
    """
    n = vecs.shape[1].bit_length() - 1
    basis = np.arange(2 ** n).reshape([2] * n)  # basis index by qubit values
    cuts = (cut for size in range(1, n // 2 + 1)
            for cut in itertools.combinations(range(n), size)
            if 2 * size < n or cut[0] == 0)  # a half-size cut once, not its complement
    # "product" is also the label of one qubit, which has no cut
    labels = np.full(len(vecs), "product", dtype=object)
    live = np.arange(len(vecs))  # rows whose label is not settled yet
    for i, cut in enumerate(cuts):
        if len(cut) > 1:
            live = live[labels[live] != "product"]  # every qubit of those is pure
        if not live.size:
            break
        rest = [q for q in range(n) if q not in cut]
        index = basis.transpose(list(cut) + rest).reshape(2 ** len(cut), -1)
        m = vecs[live[:, None, None], index]
        rho = m @ m.conj().transpose(0, 2, 1)
        pure = np.einsum("rij,rij->r", rho, rho.conj()).real > 1 - PURITY_TOL
        if i == 0:
            labels[live[~pure]] = "entangled"
        else:
            settled = pure != (labels[live] == "product")
            labels[live[settled]] = "biseparable"
            live = live[~settled]
    if n == 3:
        for r in np.flatnonzero(labels == "entangled"):
            tangle = _three_tangle(dict(zip(_BITS3, vecs[r].tolist())))
            labels[r] = "GHZ-class" if tangle > TANGLE_TOL else "W-class"
    return labels.tolist()
