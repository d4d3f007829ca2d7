import functools
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entnet.bipartitions
from entnet.herald import subnetwork_swap
from entnet.interferometers import symmetric_multiport
from entnet.states import (PURITY_TOL, TANGLE_TOL, GhzIndex, QubitState, bell_state,
                           classify_three_qubit, dicke_state, entanglement_class,
                           entanglement_classes, fidelity, genuinely_entangled,
                           ghz_basis, ghz_basis_state, inner, is_product_state,
                           reduced_purity, three_tangle, verify_pair_decomposition)

S2 = math.sqrt(2)


def test_bell_states():
    assert bell_state("phi+").amplitudes == pytest.approx({"00": 1 / S2, "11": 1 / S2})
    assert bell_state("psi-").amplitudes == pytest.approx({"01": 1 / S2, "10": -1 / S2})
    assert fidelity(bell_state("phi+"), bell_state("psi+")) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        bell_state("sigma+")


def test_normalization_checks():
    with pytest.raises(ValueError):
        QubitState(2, {"00": 1.0, "11": 1.0})
    st = QubitState(2, {"00": 1.0, "11": 1.0}, normalize=True)
    assert st.amplitudes["00"] == pytest.approx(1 / S2)
    with pytest.raises(ValueError):
        QubitState(2, {"012": 1.0})


@pytest.mark.parametrize("amps", [{"00": math.nan, "11": 1.0},
                                  {"00": complex(0, math.nan)},
                                  {"01": math.inf}])
@pytest.mark.parametrize("normalize", [False, True])
def test_non_finite_amplitudes_are_refused(amps, normalize):
    with pytest.raises(ValueError, match="not finite"):
        QubitState(2, amps, normalize=normalize)


def test_ghz_index_validation():
    with pytest.raises(ValueError):
        GhzIndex(4, "+", 3)  # needs leading-zero binary label
    with pytest.raises(ValueError):
        GhzIndex(0, "x", 3)
    idx = GhzIndex(5, "+", 4)
    assert idx.bits() == "0101" and idx.complement_bits() == "1010"


def test_ghz_basis_states_n3():
    pairs = {0: ("000", "111"), 1: ("001", "110"),
             2: ("010", "101"), 3: ("011", "100")}
    for n, (lo, hi) in pairs.items():
        for sign, factor in (("+", 1), ("-", -1)):
            st = ghz_basis_state(n, sign, 3)
            assert st.amplitudes == pytest.approx({lo: 1 / S2, hi: factor / S2})


def test_ghz_basis_states_n4():
    pairs = {0: ("0000", "1111"), 1: ("0001", "1110"), 2: ("0010", "1101"),
             3: ("0011", "1100"), 4: ("0100", "1011"), 5: ("0101", "1010"),
             6: ("0110", "1001"), 7: ("0111", "1000")}
    for n, (lo, hi) in pairs.items():
        st = ghz_basis_state(n, "+", 4)
        assert st.amplitudes == pytest.approx({lo: 1 / S2, hi: 1 / S2})


@pytest.mark.parametrize("n_qubits", [2, 3, 4, 5, 6])
def test_ghz_basis_orthonormal_complete(n_qubits):
    basis = ghz_basis(n_qubits)
    assert len(basis) == 2 ** n_qubits
    mat = np.array([st.vector() for st in basis])
    gram = mat.conj() @ mat.T
    assert np.max(np.abs(gram - np.eye(2 ** n_qubits))) < 1e-9


@pytest.mark.parametrize("n_qubits", [3, 4, 5])
def test_computational_basis_round_trip(n_qubits):
    for n in range(2 ** (n_qubits - 1)):
        gp = ghz_basis_state(n, "+", n_qubits).vector()
        gm = ghz_basis_state(n, "-", n_qubits).vector()
        lo = np.zeros(2 ** n_qubits); lo[n] = 1
        hi = np.zeros(2 ** n_qubits); hi[2 ** n_qubits - n - 1] = 1
        assert np.max(np.abs((gp + gm) / S2 - lo)) < 1e-9
        assert np.max(np.abs((gp - gm) / S2 - hi)) < 1e-9


def test_dicke_small_cases():
    w = dicke_state(1, 3)
    assert w.amplitudes == pytest.approx(
        {"100": 1 / math.sqrt(3), "010": 1 / math.sqrt(3), "001": 1 / math.sqrt(3)})
    assert dicke_state(0, 4).amplitudes == pytest.approx({"0000": 1.0})
    w2 = dicke_state(2, 3)
    assert w2.amplitudes == pytest.approx(
        {"110": 1 / math.sqrt(3), "011": 1 / math.sqrt(3), "101": 1 / math.sqrt(3)})
    with pytest.raises(ValueError):
        dicke_state(4, 3)


@pytest.mark.parametrize("n_qubits", range(1, 9))
def test_dicke_normalized(n_qubits):
    for m in range(n_qubits + 1):
        vec = dicke_state(m, n_qubits).vector()
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_dicke_phase_covariance():
    base = dicke_state(2, 4)
    phases = [0.3, 0.0, 0.0, 0.0]
    shifted = dicke_state(2, 4, phases)
    for bits, amp in shifted.amplitudes.items():
        expect = base.amplitudes[bits] * (np.exp(0.3j) if bits[0] == "1" else 1.0)
        assert amp == pytest.approx(expect)


@pytest.mark.parametrize("n_pairs", [2, 3, 4, 5, 6])
def test_pair_decomposition_all_plus(n_pairs):
    assert verify_pair_decomposition(n_pairs) < 1e-9


@pytest.mark.parametrize("signs", [
    (-1, -1, -1), (1, -1, 1),
    (-1, -1, -1, -1), (1, -1, 1, -1), (1, 1, -1, 1),
])
def test_pair_decomposition_signed(signs):
    assert verify_pair_decomposition(len(signs), list(signs)) < 1e-9


def test_pair_decomposition_range_guard():
    with pytest.raises(ValueError):
        verify_pair_decomposition(7)
    with pytest.raises(ValueError):
        verify_pair_decomposition(3, [1, 2, 1])


def test_fidelity_cases():
    g = ghz_basis_state(0, "+", 3)
    assert fidelity(g, g) == pytest.approx(1.0)
    assert fidelity(g, ghz_basis_state(0, "-", 3)) == pytest.approx(0.0)
    assert fidelity(dicke_state(1, 3), g) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        fidelity(g, bell_state("phi+"))


def test_three_tangle_and_classification():
    g = ghz_basis_state(0, "+", 3)
    assert three_tangle(g) == pytest.approx(1.0, abs=1e-9)
    assert classify_three_qubit(g) == "GHZ-class"
    w = dicke_state(1, 3)
    assert three_tangle(w) == pytest.approx(0.0, abs=1e-9)
    assert classify_three_qubit(w) == "W-class"
    assert classify_three_qubit(QubitState(3, {"000": 1.0})) == "product"
    bisep = QubitState(3, {"000": 1 / S2, "011": 1 / S2})
    assert classify_three_qubit(bisep) == "biseparable"
    with pytest.raises(ValueError):
        classify_three_qubit(bell_state("phi+"))


def test_entanglement_predicates():
    bell = bell_state("psi+")
    assert not is_product_state(bell)
    assert genuinely_entangled(bell)
    assert is_product_state(QubitState(2, {"01": 1.0}))
    pair_of_pairs = QubitState(
        4, {"0110": 1 / S2, "1001": 1 / S2})
    assert genuinely_entangled(pair_of_pairs)
    two_bells = bell_state("phi+").tensor(bell_state("phi+"))
    assert not is_product_state(two_bells)
    assert not genuinely_entangled(two_bells)
    assert entanglement_class(two_bells) == "biseparable"
    assert entanglement_class(pair_of_pairs) == "entangled"
    assert entanglement_class(QubitState(1, {"0": 1.0})) == "product"


def _haar_state(rng, n_qubits):
    vec = rng.normal(size=2 ** n_qubits) + 1j * rng.normal(size=2 ** n_qubits)
    return QubitState.from_vector(vec / np.linalg.norm(vec), n_qubits)


def _weight_state(rng, n_qubits, weight):
    """Random complex amplitudes on every string of ``weight`` excitations."""
    strings = [bits for bits in map("".join, itertools.product("01", repeat=n_qubits))
               if bits.count("1") == weight]
    amps = rng.normal(size=len(strings)) + 1j * rng.normal(size=len(strings))
    return QubitState(n_qubits, dict(zip(strings, amps)), normalize=True)


KINDS = ("haar", "product", "blocks", "dicke", "weight", "weights", "ghz", "w")


@st.composite
def qubit_states(draw, n=None, kinds=KINDS):
    """Haar-random, product, block-product, GHZ, W and phased Dicke states
    of ``n`` qubits (drawn from 1..6 when None), random states on the strings
    of one Hamming weight and tensor products of such states, with the qubits
    relabelled by a random permutation; ``kinds`` narrows the families."""
    if n is None:
        n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([k for k in kinds if n > 1 or k not in ("ghz", "w")]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "haar":
        state = _haar_state(rng, n)
    elif kind == "weight":
        state = _weight_state(rng, n, draw(st.integers(0, n)))
    elif kind in ("product", "blocks", "weights"):
        sizes = []
        while sum(sizes) < n:
            sizes.append(1 if kind == "product" else draw(st.integers(1, n - sum(sizes))))
        pieces = [_weight_state(rng, k, draw(st.integers(0, k))) if kind == "weights"
                  else _haar_state(rng, k) for k in sizes]
        state = functools.reduce(QubitState.tensor, pieces)
    elif kind == "ghz":
        state = ghz_basis_state(draw(st.integers(0, 2 ** (n - 1) - 1)),
                                draw(st.sampled_from("+-")), n)
    elif kind == "w":
        state = dicke_state(1, n)
    else:
        state = dicke_state(draw(st.integers(0, n)), n, list(rng.uniform(0, 2 * np.pi, n)))
    perm = draw(st.permutations(range(n)))
    return QubitState(n, {"".join(bits[q] for q in perm): a
                          for bits, a in state.amplitudes.items()})


def _reference_class(state):
    """Label from the purity of every bipartition, plus the 3-qubit tangle.

    A cut is pure when its purity exceeds ``1 - PURITY_TOL`` times the
    purity ``||psi||^4`` of a product state of the same norm."""
    n = state.n_qubits
    bound = (1 - PURITY_TOL) * sum(abs(a) ** 2 for a in state.amplitudes.values()) ** 2
    pure = {cut: reduced_purity(state, cut) > bound
            for size in range(1, n) for cut in itertools.combinations(range(n), size)}
    if n == 1 or all(pure[(q,)] for q in range(n)):
        return "product"
    if any(pure.values()):
        return "biseparable"
    if n == 3:
        return "GHZ-class" if three_tangle(state) > TANGLE_TOL else "W-class"
    return "entangled"


@settings(max_examples=300, deadline=None)
@given(qubit_states(), st.data())
def test_entanglement_class_matches_every_bipartition(state, data):
    expect = _reference_class(state)
    assert entanglement_class(state) == expect
    assert is_product_state(state) == (expect == "product")
    assert genuinely_entangled(state) == (expect not in ("product", "biseparable"))
    if state.n_qubits == 3:
        assert classify_three_qubit(state) == expect
    else:
        with pytest.raises(ValueError):
            classify_three_qubit(state)

    # the batched walk: same-size states spanning the sector of all strings
    # and sectors of one Hamming weight
    n = state.n_qubits
    batch = data.draw(st.permutations(
        data.draw(st.lists(qubit_states(n), max_size=2))
        + [data.draw(qubit_states(n, ("haar", "ghz"))),
           data.draw(qubit_states(n, ("weight", "weights")))]))
    expects = [_reference_class(s) for s in batch]
    before = [(s.n_qubits, dict(s.amplitudes)) for s in batch]
    built, walked = [], []
    vector, walk = QubitState.vector, entnet.bipartitions.entanglement_classes_csr
    with mock.patch.object(QubitState, "vector",
                           lambda self: built.append(self) or vector(self)), \
            mock.patch.object(entnet.bipartitions, "entanglement_classes_csr",
                              lambda k, offsets, *cols: walked.append(len(offsets) - 1)
                              or walk(k, offsets, *cols)):
        assert entanglement_classes(batch) == expects
    # the walk stores nothing on a state, which holds its qubit count and amplitudes only
    assert [tuple(getattr(s, slot) for slot in QubitState.__slots__) for s in batch] == before
    assert built == []  # no dense state vector
    assert sum(walked) == len(batch)
    other = data.draw(st.integers(1, 6).filter(lambda k: k != n))
    with pytest.raises(ValueError):
        entanglement_classes([state, data.draw(qubit_states(other))])


def test_one_cell_rows_are_product_and_never_walked(monkeypatch):
    rng = np.random.default_rng(3)
    walked, walk_sector = [], entnet.bipartitions._walk_sector

    def checked(n_qubits, plan, vecs):
        assert ((vecs != 0).sum(axis=0) > 1).all()  # no column holds one basis state
        walked.append(vecs.shape[1])
        return walk_sector(n_qubits, plan, vecs)

    monkeypatch.setattr(entnet.bipartitions, "_walk_sector", checked)
    singles = [QubitState(4, {"0110": 1j}), QubitState(4, {"1111": -1.0}),
               QubitState(4, {"0000": 1.0})]
    fixed = [_weight_state(rng, 4, 2), dicke_state(1, 4)]  # one Hamming weight each
    mixed = [_haar_state(rng, 4), ghz_basis_state(1, "-", 4)]  # several weights
    batch = [singles[0], fixed[0], mixed[0], singles[1], fixed[1], mixed[1], singles[2]]
    labels = entanglement_classes(batch)
    assert labels == [_reference_class(s) for s in batch]
    assert labels == [entanglement_class(s) for s in batch]
    assert [labels[i] for i in (0, 3, 6)] == ["product"] * 3
    assert sum(walked) == 8  # the four several-cell states, in each of the two passes
    codes = entnet.bipartitions.entanglement_classes_csr(
        3, np.zeros(1, int), np.zeros(0, int), np.zeros(0, complex))
    assert (codes.dtype, codes.shape) == (np.int8, (0,))  # an empty block
    assert entanglement_classes([]) == []
    walked.clear()
    one_qubit = [QubitState(1, {"1": 1.0}), QubitState(1, {"0": 1 / S2, "1": 1j / S2})]
    assert entanglement_classes(one_qubit) == ["product", "product"]
    assert walked == [1]  # the superposition alone


def test_batched_walk_memory_does_not_grow_with_the_table():
    states = [row.state for row in subnetwork_swap(4, symmetric_multiport(3))]
    assert len(states) > 2500

    def traced_peak(count):
        fresh = [QubitState(s.n_qubits, s.amplitudes) for s in states[:count]]
        tracemalloc.start()
        try:
            entanglement_classes(fresh)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(len(states)) <= 2 * traced_peak(300)


def test_walk_beyond_eight_qubits_builds_only_the_cuts_it_reaches():
    rng = np.random.default_rng(12)
    product = functools.reduce(QubitState.tensor, [_haar_state(rng, 1) for _ in range(12)])
    tracemalloc.start()
    try:
        assert entanglement_class(product) == "product"
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the single-qubit cuts settle it; the index arrays of every cut over
    # all 2^12 strings would take about 75 MB, and nothing stays behind
    assert peak < 8e6
    assert held < 1e6
    # walks that reach the larger cuts, over all strings and over one weight
    for state in (_haar_state(rng, 4).tensor(_weight_state(rng, 5, 2)),
                  ghz_basis_state(3, "-", 9), _weight_state(rng, 9, 4)):
        assert entanglement_class(state) == _reference_class(state)


@pytest.mark.parametrize("state, label", [
    (QubitState(2, {"00": math.sqrt(1 - 9e-10)}), "product"),
    (QubitState(3, {"000": math.sqrt(1 - 9e-10)}), "product"),
    (QubitState(4, {"0000": math.sqrt(1 - 9e-10) / S2, "0011": math.sqrt(1 - 9e-10) / S2}),
     "biseparable"),
], ids=["2-qubit", "3-qubit", "qubits-times-bell-pair"])
def test_purity_test_scales_with_the_norm(state, label):
    # inside NORM_TOL of unit norm, and every cut's purity is ||psi||^4 < 1 - PURITY_TOL
    assert entanglement_class(state) == label
    assert _reference_class(state) == label


def test_reduced_purity_input_guards():
    with pytest.raises(ValueError):
        reduced_purity(bell_state("phi+"), [])
    with pytest.raises(ValueError):
        reduced_purity(bell_state("phi+"), [0, 1])
    with pytest.raises(ValueError):
        reduced_purity(bell_state("phi+"), [5])


def test_phase_canonical_rotation():
    st = QubitState(2, {"01": 0.5j, "10": -0.5 + 0.5j, "11": 0.5}, normalize=True)
    canon = st.phase_canonical()
    first = canon.amplitudes["01"]
    assert first.imag == pytest.approx(0.0, abs=1e-12)
    assert first.real > 0
    assert fidelity(st, canon) == pytest.approx(1.0)


def test_inner_conjugates_first_argument():
    a = QubitState(1, {"0": 1.0})
    b = QubitState(1, {"0": 1j})
    assert inner(a, b) == pytest.approx(1j)
    assert inner(b, a) == pytest.approx(-1j)
