import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from entnet.interferometers import MultiportMatrix, inverse, quarter, symmetric_multiport
from entnet.photonics import (MERGE_TOL, CapacityError, DimensionMismatch, FockState,
                              HybridState, Mode, PhotonPolynomial, RegisterMismatch,
                              apply_mode_transform, check_capacity, expand_to_fock,
                              fock_to_polynomial, mode, propagate)
from entnet.photonics import _multiset_ranks
from entnet.sources import prepare_swap_input

BS_INV = MultiportMatrix(2, np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2), "bs^-1")

H1 = mode(1, "H")
H2 = mode(2, "H")
V1 = mode(1, "V")


def poly_of(*entries):
    return PhotonPolynomial([(c, m) for c, m in entries])


def test_mode_validation():
    with pytest.raises(ValueError):
        mode(0, "H")
    with pytest.raises(ValueError):
        mode(1, "X")
    assert mode(3).label() == "3"
    assert mode(2, "V").label() == "v2"


@pytest.mark.parametrize("port", [True, 2.0, 0])
def test_mode_refuses_a_port_that_is_not_an_integer_from_one(port):
    with pytest.raises(ValueError, match="port must be an integer >= 1"):
        mode(port)


def test_mode_takes_a_numpy_integer_port():
    assert mode(np.int64(2), "H") == Mode(2, "H")


def test_single_operator_substitution_reads_inverse_row():
    out = apply_mode_transform(poly_of((1.0, [H1])), BS_INV)
    s = 1 / math.sqrt(2)
    assert out == poly_of((s, [H1]), (-1j * s, [H2]))


def test_two_photon_bunching_on_balanced_splitter():
    out = apply_mode_transform(poly_of((1.0, [H1, H2])), BS_INV)
    # photons exit together: no h1*h2 cross term survives
    assert (H1, H2) not in out.terms
    assert out.terms[(H1, H1)] == pytest.approx(-0.5j)
    assert out.terms[(H2, H2)] == pytest.approx(-0.5j)


def test_quarter_first_row_coefficients():
    out = apply_mode_transform(poly_of((1.0, [H1])), inverse(quarter()))
    want = {1: 0.5, 2: -0.5j, 3: -0.5, 4: -0.5j}
    for port, coeff in want.items():
        assert out.terms[(Mode(port, "H"),)] == pytest.approx(coeff)


def test_polarizations_transform_independently():
    out = apply_mode_transform(poly_of((1.0, [H1, V1])), BS_INV)
    s = 0.5
    assert out.terms[(Mode(1, "H"), Mode(1, "V"))] == pytest.approx(s)
    assert out.terms[(Mode(2, "H"), Mode(2, "V"))] == pytest.approx(-s)


def test_dimension_mismatch_names_port():
    with pytest.raises(DimensionMismatch) as err:
        apply_mode_transform(poly_of((1.0, [mode(3, "H")])), BS_INV)
    assert err.value.port == 3


@pytest.mark.parametrize("port", [0, -1])
def test_dimension_mismatch_below_first_port(port):
    # entries[port - 1] would silently read a row from the end of the matrix
    with pytest.raises(DimensionMismatch) as err:
        apply_mode_transform(poly_of((1.0, [Mode(port, "H")])), BS_INV)
    assert err.value.port == port


@pytest.mark.parametrize("port", [1.5, 2.0])
def test_dimension_mismatch_non_integer_port(port):
    with pytest.raises(DimensionMismatch) as err:
        apply_mode_transform(poly_of((1.0, [Mode(port, "H")])), BS_INV)
    assert err.value.port == port


def test_numpy_integer_ports_are_ports():
    numpy_port = apply_mode_transform(poly_of((1.0, [Mode(np.int64(2), "H")])), BS_INV)
    assert numpy_port == apply_mode_transform(poly_of((1.0, [H2])), BS_INV)


def test_capacity_guard_trips_before_expanding():
    big = inverse(symmetric_multiport(5))  # 32 ports
    crowded = poly_of((1.0, [Mode(1, "H")] * 8))  # C(39, 8) > 10^7 output terms
    with pytest.raises(CapacityError):
        apply_mode_transform(crowded, big)


def test_capacity_counts_distinct_output_monomials():
    # per polarization, k photons on d ports give C(d + k - 1, k) multisets,
    # all of them realized through a generic unitary
    cases = ((2, [[H1, H2]], math.comb(3, 2)),
             (3, [[H1, H1, V1]], math.comb(4, 2) * 3),
             (4, [[H1, V1], [H2, H2, H2]], 4 * 4 + math.comb(6, 3)))
    for d, monos, want in cases:
        poly = poly_of(*[(1.0, m) for m in monos])
        assert len(apply_mode_transform(poly, inverse(_random_unitary(d, d))).terms) == want
    # 8 photons, 4 H and 4 V, on 8 ports: C(11, 4)^2 = 108,900 terms is allowed
    check_capacity([tuple([H1] * 4 + [V1] * 4)], 8)
    with pytest.raises(CapacityError):  # 8 photons of one polarization on 32 ports
        check_capacity([tuple([H1] * 8)], 32)


def test_expand_single_photons():
    state = expand_to_fock(poly_of((1.0, [H1, V1])), atoms="")
    ((atoms, fock, amp),) = list(state.items())
    assert atoms == ""
    assert fock == FockState({H1: 1, V1: 1})
    assert amp == pytest.approx(1.0)


def test_expand_double_occupation_gets_bosonic_factor():
    state = expand_to_fock(poly_of((1.0, [H1, H1])))
    ((_, fock, amp),) = list(state.items())
    assert fock.occupations == {H1: 2}
    assert amp == pytest.approx(math.sqrt(2))


def test_expand_bunched_superposition_probabilities():
    poly = poly_of((0.5j, [H1, H1]), (0.5j, [H2, H2]))
    state = expand_to_fock(poly)
    probs = {fock.label(): abs(amp) ** 2 for _, fock, amp in state.items()}
    assert probs == pytest.approx({"h1^2": 0.5, "h2^2": 0.5})
    assert state.norm_sq() == pytest.approx(1.0)


def test_expand_norm_matches_factorial_sum():
    rng = np.random.default_rng(7)
    terms = []
    monos = [[H1], [H1, H1], [H1, H2], [H2, H2, H2], [V1]]
    for m in monos:
        terms.append((complex(rng.normal(), rng.normal()), m))
    poly = poly_of(*terms)
    by_hand = sum(abs(c) ** 2 * np.prod([math.factorial(m.count(x)) for x in set(m)])
                  for m, c in ((tuple(sorted(m)), c) for c, m in terms))
    assert expand_to_fock(poly).norm_sq() == pytest.approx(by_hand)
    assert poly.norm_sq() == pytest.approx(by_hand)


def _random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return MultiportMatrix(n, q * (np.diag(r) / np.abs(np.diag(r))), "random")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norm_preserved_under_random_unitary(seed):
    u = _random_unitary(3, seed)
    rng = np.random.default_rng(seed + 50)
    monos = [[H1], [H1, H2], [mode(3, "H"), H2], [H1, H1, V1]]
    poly = poly_of(*[(complex(rng.normal(), rng.normal()), m) for m in monos])
    out = apply_mode_transform(poly, inverse(u))
    assert out.norm_sq() == pytest.approx(poly.norm_sq(), abs=1e-9)


def test_transform_is_linear():
    u = inverse(_random_unitary(2, 3))
    p = poly_of((1.0, [H1]), (0.5j, [H1, H2]))
    q = poly_of((-2.0, [H2, H2]))
    a, b = 0.3 - 0.7j, 1.1 + 0.2j

    def mix(x, y):
        return PhotonPolynomial([(a * c, m) for m, c in x.terms.items()]
                                + [(b * c, m) for m, c in y.terms.items()])

    combined = apply_mode_transform(mix(p, q), u)
    split = mix(apply_mode_transform(p, u), apply_mode_transform(q, u))
    assert combined == split


def test_fock_polynomial_round_trip():
    fock = FockState({H1: 2, V1: 1})
    state = expand_to_fock(fock_to_polynomial(fock, 1.0))
    ((_, back, amp),) = list(state.items())
    assert back == fock
    assert amp == pytest.approx(1.0)


@pytest.mark.parametrize("occupations, match", [
    ({H1: 1.5}, "not an integer >= 1"),  # built h1^1.5, which fock_to_polynomial refused
    ({H1: True}, "not an integer >= 1"),
    ({Mode(1, "X"): 1}, "not a Mode"),
    ({(1, "H"): 1}, "not a Mode"),
    ({H1: 1, V1: -1}, "nonnegative"),
])
def test_fock_state_refuses_bad_occupations(occupations, match):
    with pytest.raises(ValueError, match=match):
        FockState(occupations)


def test_fock_state_drops_zero_counts_and_sorts():
    fock = FockState({V1: np.int64(2), H1: 0, mode(2, "H"): 1})
    assert fock.key == ((V1, 2), (mode(2, "H"), 1))  # by port, then polarization
    assert FockState({}).key == ()


def test_hybrid_state_register_mismatch():
    with pytest.raises(RegisterMismatch):
        HybridState(2, {("0", ()): 1.0})


@pytest.mark.parametrize("atoms, amp, match", [
    ("0x", 1.0, "not made of 0 and 1"),
    ("01", math.nan, "not finite"),
    ("01", complex(1, math.inf), "not finite"),
])
def test_hybrid_state_refuses_bad_terms(atoms, amp, match):
    with pytest.raises(ValueError, match=match):
        HybridState(2, {(atoms, ((H1, 1),)): amp})


@pytest.mark.parametrize("fkey, match", [
    (((H1, 1), (H1, 1)), "repeats a mode"),  # once passed the norm check with p summing to 2
    (((H1, 1.5),), "not an integer >= 1"),
    (((H1, 0),), "not an integer >= 1"),
    (((H1, True),), "not an integer >= 1"),
    ((((1, "H"), 1),), "not a Mode"),
    (((Mode(1, "X"), 1),), "not a Mode"),
])
def test_hybrid_state_refuses_a_key_that_is_not_a_fock_key(fkey, match):
    with pytest.raises(ValueError, match=match):
        HybridState(1, {("0", fkey): 1.0})


def test_hybrid_state_merges_a_key_with_its_sorted_twin():
    h2 = mode(2, "H")
    state = HybridState(1, {("0", ((h2, 1), (H1, 1))): 0.5, ("0", ((H1, 1), (h2, 1))): 0.5,
                            ("1", ((V1, np.int64(2)), (H1, 1))): 1.0})
    assert list(state.terms) == [("0", ((H1, 1), (h2, 1))), ("1", ((H1, 1), (V1, 2)))]
    assert state.terms[("0", ((H1, 1), (h2, 1)))] == 1.0


def test_projected_coincidence_amplitude_through_quarter():
    # four Bell pairs in, project on one photon at each H detector: the
    # overlap with the all-ground atomic term has weight exactly 1/64
    from entnet.herald import prepare_swap_input
    state = prepare_swap_input(4)
    inv = inverse(quarter())
    terms = {}
    for atoms, fock, amp in state.items():
        out = expand_to_fock(apply_mode_transform(fock_to_polynomial(fock, amp), inv), atoms)
        terms.update(out.terms)  # distinct atomic registers never collide
    coincidence = FockState({Mode(p, "H"): 1 for p in range(1, 5)})
    amp = terms[("0000", coincidence.key)]
    assert abs(amp) ** 2 == pytest.approx(1 / 64, abs=1e-12)


@pytest.mark.parametrize("dim,top", [(1, 3), (3, 4), (8, 3)])
def test_multiset_ranks_number_by_size_then_highest_port_first(dim, top):
    # the photon steps add a child's parents in rank order, which must be the
    # order of keys with one digit per port and the last port leading
    counts = [[ms.count(p) for p in range(dim)] for k in range(top + 1)
              for ms in itertools.combinations_with_replacement(range(dim), k)]
    want = sorted(range(len(counts)), key=lambda i: (sum(counts[i]), counts[i][::-1]))
    ranks = _multiset_ranks(np.array(counts, np.uint8))
    assert sorted(ranks.tolist()) == list(range(len(counts)))
    assert np.argsort(ranks).tolist() == want


def test_propagate_peak_memory_of_a_benchmark_swap():
    # the 4-node swap of one sym2d_swap benchmark op: batching keeps the
    # expansion's temporaries below the cells' peak (one batch of all 16
    # terms peaks at about 1.9 MiB)
    state, inv = prepare_swap_input(4, [1, -1, 1, 1], [1, 3, 5, 8]), inverse(symmetric_multiport(3))
    propagate(state, inv)
    tracemalloc.start()
    try:
        propagate(state, inv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2 ** 20


def test_propagate_sums_a_cell_that_cancels_on_the_way_once():
    # the last photon reaches h1 h2 h3 three times: the first two reaches cancel
    # to about 1e-14, below MERGE_TOL, so the reference's dict drops that sum and
    # the third reach, 2x + 1, restarts it from zero; propagate adds all three
    # and lands within MERGE_TOL of it (any matrix-like object will do)
    x = -1 + 1e-14
    inv = SimpleNamespace(dim=3, entries=np.array([[1, 2, 1], [0, 1, x], [1, 1, 1]], complex))
    fock = FockState({H1: 1, H2: 1, mode(3, "H"): 1})
    want = expand_to_fock(apply_mode_transform(fock_to_polynomial(fock), inv), "0").terms
    cells = propagate(HybridState(1, {("0", fock.key): 1.0}), inv)
    occupations = cells.occupations[cells.places]
    got = {("0", tuple((m, int(k)) for m, k in zip(cells.modes, occupations[p]) if k)): a
           for p, a in zip(cells.pattern.tolist(), cells.amplitudes.tolist())}
    assert want[("0", fock.key)] == 2 * x + 1
    assert got.keys() == want.keys()
    assert all(abs(got[key] - want[key]) < MERGE_TOL for key in want)
