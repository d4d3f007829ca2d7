import itertools
import math

import numpy as np
import pytest

from entnet.interferometers import (MultiportMatrix, beam_splitter, inverse, quarter,
                                    split_polarization_phase, symmetric_multiport,
                                    symmetry_residual, tritter, unitarity_residual,
                                    verify_symmetric, with_phase_plates)
from entnet.photonics import PhotonPolynomial, apply_mode_transform, mode

S2 = math.sqrt(2)
S3 = math.sqrt(3)

QUARTER_INV = 0.5 * np.array([
    [1, -1j, -1, -1j],
    [-1j, 1, -1j, -1],
    [-1, -1j, 1, -1j],
    [-1j, -1, -1j, 1],
])

TRITTER_INV = np.array([
    [1 / S3, (-S3 - 3j) / 6, (-3 - 1j * S3) / 6],
    [-1j / S3, (3 + 1j * S3) / 6, (-S3 - 3j) / 6],
    [-1j / S3, -1j / S3, 1 / S3],
])


def test_beam_splitter_entries():
    u = beam_splitter()
    s = 1 / S2
    assert np.allclose(u.entries, [[s, 1j * s], [1j * s, s]], atol=1e-15)
    assert np.allclose(np.abs(u.entries) ** 2, 0.5, atol=1e-12)
    assert unitarity_residual(u.entries) < 1e-12


def test_beam_splitter_inverse():
    s = 1 / S2
    assert np.allclose(inverse(beam_splitter()).entries,
                       [[s, -1j * s], [-1j * s, s]], atol=1e-15)


def test_quarter_inverse_matches_reference_entrywise():
    assert np.max(np.abs(inverse(quarter()).entries - QUARTER_INV)) < 1e-12


def test_tritter_inverse_matches_reference_entrywise():
    assert np.max(np.abs(inverse(tritter()).entries - TRITTER_INV)) < 1e-12
    assert abs(inverse(tritter()).entries[0, 0] - 1 / S3) < 1e-12
    assert abs(inverse(tritter()).entries[2, 2] - 1 / S3) < 1e-12


@pytest.mark.parametrize("builder", [beam_splitter, tritter, quarter])
def test_constructors_are_unitary_and_symmetric(builder):
    u = builder()
    assert unitarity_residual(u.entries) < 1e-9
    assert verify_symmetric(u)
    assert np.allclose(np.abs(u.entries) ** 2, 1.0 / u.dim, atol=1e-12)


def test_nan_matrix_is_not_unitary():
    # its residual is NaN, which no tolerance comparison accepts
    with pytest.raises(ValueError, match="not unitary"):
        MultiportMatrix(2, [[math.nan, 0], [0, 1]])


def test_verify_symmetric_rejects_identity():
    eye = MultiportMatrix(2, np.eye(2), "id")
    assert not verify_symmetric(eye)
    assert symmetry_residual(eye) == pytest.approx(0.5)


def test_inverse_is_two_sided():
    u = tritter()
    assert np.max(np.abs(u.entries @ inverse(u).entries - np.eye(3))) < 1e-12


def test_symmetric_multiport_base_case_is_beam_splitter():
    assert np.allclose(symmetric_multiport(1).entries, beam_splitter().entries)


def equal_up_to_port_permutation(a, b, tol=1e-9):
    """True when ``P_out @ a @ P_in == b`` for some port relabelings.

    Brute force over both permutation groups, so (n!)^2 matrix products.
    """
    if a.dim != b.dim:
        return False
    eye = np.eye(a.dim)
    for pin in itertools.permutations(range(a.dim)):
        m = a.entries @ eye[list(pin)]
        for pout in itertools.permutations(range(a.dim)):
            if np.max(np.abs(eye[:, list(pout)] @ m - b.entries)) < tol:
                return True
    return False


def test_symmetric_multiport_depth2_is_quarter_with_ports_34_swapped():
    swap = np.eye(4)[[0, 1, 3, 2]]
    relabeled = swap @ symmetric_multiport(2).entries @ swap
    assert np.max(np.abs(relabeled - quarter().entries)) < 1e-12
    assert equal_up_to_port_permutation(symmetric_multiport(2), quarter())


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_symmetric_multiport_balanced(d):
    u = symmetric_multiport(d)
    assert u.dim == 2 ** d
    assert unitarity_residual(u.entries) < 1e-9
    assert np.allclose(np.abs(u.entries) ** 2, 2.0 ** -d, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_single_photon_exit_probabilities(d):
    u = inverse(symmetric_multiport(d))
    for port in range(1, 2 ** d + 1):
        out = apply_mode_transform(PhotonPolynomial([(1.0, [mode(port)])]), u)
        probs = [abs(c) ** 2 for c in out.terms.values()]
        assert len(probs) == 2 ** d
        assert probs == pytest.approx([2.0 ** -d] * 2 ** d, abs=1e-12)


@pytest.mark.parametrize("d", [0, 6])
def test_symmetric_multiport_depth_guard(d):
    with pytest.raises(ValueError):
        symmetric_multiport(d)


def test_non_unitary_rejected():
    with pytest.raises(ValueError):
        MultiportMatrix(2, np.array([[1.0, 0.0], [1.0, 1.0]]), "bad")


def test_phase_plates_keep_symmetry_and_unitarity():
    u = with_phase_plates(quarter(), input_phases=[0.1, 0.2, 0.3, 0.4],
                          output_phases=[0.5, 0.6, 0.7, 0.8])
    assert verify_symmetric(u)
    assert unitarity_residual(u.entries) < 1e-9
    base = quarter().entries
    expect = np.diag(np.exp(1j * np.array([0.5, 0.6, 0.7, 0.8]))) @ base \
        @ np.diag(np.exp(1j * np.array([0.1, 0.2, 0.3, 0.4])))
    assert np.allclose(u.entries, expect, atol=1e-12)
    with pytest.raises(ValueError):
        with_phase_plates(quarter(), input_phases=[0.0])


def test_split_polarization_phase_values():
    assert split_polarization_phase(1, 1, 1, 1, 850) == pytest.approx(0.0)
    assert split_polarization_phase(0, 0, 425, 0, 850) == pytest.approx(math.pi)
    assert split_polarization_phase(50, 0, 100, 0, 850) == pytest.approx(
        2 * math.pi * 50 / 850)
    # wraps back into (-pi, pi]
    assert split_polarization_phase(0, 0, 850, 0, 850) == pytest.approx(0.0, abs=1e-12)
    assert split_polarization_phase(0, 0, 1275, 0, 850) == pytest.approx(math.pi)


def test_split_polarization_phase_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        split_polarization_phase(0, 0, 0, 0, 0.0)
