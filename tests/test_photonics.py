import math

import numpy as np
import pytest

from entnet.interferometers import MultiportMatrix, inverse, quarter, symmetric_multiport
from entnet.photonics import (CapacityError, DimensionMismatch, FockState,
                              HybridState, Mode, PhotonPolynomial, RegisterMismatch,
                              apply_mode_transform, check_capacity, expand_to_fock,
                              fock_to_polynomial, mode)

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

