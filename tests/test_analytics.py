import dataclasses
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from entnet import analytics
from entnet.analytics import (FidelityResult, SchemeParams, compare_4node,
                              em_false_herald, em_fidelity, em_success,
                              evaluate_formula, itinerant_fidelity_2,
                              itinerant_depolarizing_strength,
                              itinerant_ghz_fidelity_formula,
                              itinerant_ghz_fidelity_sim, itinerant_success,
                              st_fidelity_2, st_n_node, st_rate_2, swap_rate,
                              wpe_fidelity, wpe_fidelity_sweep, wpe_rate)
from entnet.herald import THRESHOLD, HeraldRule, aggregate_heralding, run_gbsa
from entnet.interferometers import quarter
from entnet.sources import prepare_swap_input
from entnet.states import dicke_state, fidelity


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(eta_det=1.2)
    assert SchemeParams().eta_det == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        SchemeParams().eta_det = 0.5


def test_fidelity_result_bounds():
    with pytest.raises(ValueError):
        FidelityResult(1.4)
    assert FidelityResult(1.4, is_proportional=True).value == 1.4
    assert float(FidelityResult(0.5)) == 0.5


# -------------------------------------------------------------- photon exchange

def test_st_fidelity_2_values():
    assert st_fidelity_2(1.0).value == pytest.approx(1.0)
    assert st_fidelity_2(0.0).value == pytest.approx(0.25)
    assert st_fidelity_2(0.81).value == pytest.approx(0.9025)
    with pytest.raises(ValueError):
        st_fidelity_2(1.5)


def test_st_fidelity_2_monotone():
    grid = np.linspace(0, 1, 101)
    vals = [st_fidelity_2(e).value for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_st_rate_2():
    assert st_rate_2(SchemeParams()).value == pytest.approx(1.0)
    assert st_rate_2(SchemeParams(eta_ent=0.0)).value == 0.0
    params = SchemeParams(eta_p=0.5, eta_out=0.9, eta_net=0.8, eta_ent=0.02,
                          eta_det=0.5)
    result = st_rate_2(params)
    assert result.value == pytest.approx(0.0036)
    assert result.is_proportional


def test_st_n_node():
    state, fid, rate = st_n_node(SchemeParams(eta_a0an=0.5), 3)
    assert fidelity(state, dicke_state(1, 3)) == pytest.approx(1.0)
    assert fid.value == pytest.approx(0.5) and fid.is_proportional
    assert rate.is_proportional
    state, fid, _ = st_n_node(SchemeParams(), 5)
    assert fid.value == pytest.approx(1.0)
    with pytest.raises(ValueError):
        st_n_node(SchemeParams(), 1)


# -------------------------------------------------------------- itinerant photon

def test_itinerant_fidelity_2():
    assert itinerant_fidelity_2(1.0) == pytest.approx(1.0)
    assert itinerant_fidelity_2(0.75) == pytest.approx(0.5)
    assert itinerant_fidelity_2(5 / 6) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        itinerant_fidelity_2(0.4)


def test_itinerant_success():
    assert itinerant_success(2, 1, 1, 1).value == pytest.approx(1.0)
    assert itinerant_success(2, 0.5, 1, 1).value == pytest.approx(0.5)
    expect = 0.9 ** 3 * 0.95 ** 4 * 0.5
    assert itinerant_success(4, 0.9, 0.95, 0.5).value == pytest.approx(expect)
    assert abs(expect - 0.2969) < 5e-4


def test_itinerant_sim_anchor_and_perfect_gate():
    for n in (2, 3, 5):
        assert itinerant_ghz_fidelity_sim(n, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert itinerant_ghz_fidelity_sim(2, 0.9) == pytest.approx(0.8, abs=1e-9)
    assert itinerant_ghz_fidelity_sim(2, 0.7) == pytest.approx(0.4, abs=1e-9)


def test_itinerant_sim_monotone_decreasing():
    vals = [itinerant_ghz_fidelity_sim(n, 0.95) for n in range(2, 9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("f_pa", [0.8, 0.9, 0.99])
@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_itinerant_sim_matches_channel_expansion(n, f_pa):
    assert itinerant_ghz_fidelity_sim(n, f_pa) == pytest.approx(
        itinerant_ghz_fidelity_formula(n, f_pa), abs=1e-12)


def _itinerant_density_by_kron(n_nodes, lam):
    """The same circuit on 2^(n+1) matrices: CNOT unitaries and Pauli-sum channels."""
    q = n_nodes + 1
    eye = np.eye(2)
    x = np.array([[0, 1], [1, 0]])
    paulis = (eye, x, np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))

    def on(ops):  # {qubit: operator}, identity elsewhere; the photon is qubit 0
        return functools.reduce(np.kron, [ops.get(k, eye) for k in range(q)])

    psi = np.zeros(2 ** q)
    psi[0] = psi[2 ** n_nodes] = 1 / math.sqrt(2)  # |+>|0...0>
    rho = np.outer(psi, psi).astype(complex)
    for atom in range(1, q):
        cnot = on({0: np.diag([1, 0])}) + on({0: np.diag([0, 1]), atom: x})
        rho = cnot @ rho @ cnot.T
        rho = (1 - lam) * rho + lam / 4 * sum(on({atom: p}) @ rho @ on({atom: p})
                                              for p in paulis)
    return rho


@pytest.mark.parametrize("f_pa", [0.8, 0.95])
@pytest.mark.parametrize("n", [2, 3])
def test_itinerant_sim_state_matches_kron_construction(n, f_pa):
    # the fidelity alone cannot see a CNOT applied on the wrong bra axis
    lam = itinerant_depolarizing_strength(f_pa)
    rho = np.zeros((2,) * (2 * n + 2))
    atoms = (slice(None),) * n
    for p in (0, 1):
        for pp in (0, 1):
            block = analytics._itinerant_block(n, lam, p, pp)
            assert block.shape == (2,) * (2 * n) and block.dtype == np.float64
            rho[(p,) + atoms + (pp,)] = block
    np.testing.assert_allclose(rho.reshape(2 ** (n + 1), -1),
                               _itinerant_density_by_kron(n, lam), rtol=0, atol=1e-14)


def _itinerant_sim_peak(n):
    tracemalloc.start()
    try:
        itinerant_ghz_fidelity_sim(n, 0.95)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_itinerant_sim_memory_at_the_cli_size():
    # a few arrays of 0.5 MiB: the running sum, its next value and one photon block
    assert _itinerant_sim_peak(8) <= 2.5 * 2 ** 20


def test_itinerant_sim_memory_at_the_cap():
    # the same at 8 MiB an array, against 64 MiB for one whole complex tensor
    assert _itinerant_sim_peak(10) <= 32 * 2 ** 20


# float.hex of the simulation as recorded from one whole complex tensor; the
# other itinerant tests compare at 1e-12 or looser, so a last-bit change
# would otherwise show only in the CLI hash of n = 8, f_pa = 0.95
ITINERANT_SIM_BITS = {
    2: ("0x1.999999999999ap-2", "0x1.999999999999ap-1", "0x1.ccccccccccccep-1",
        "0x1.f5c28f5c28f5bp-1"),
    3: ("0x1.f53078df32f92p-3", "0x1.6d90b262f3207p-1", "0x1.b4f256160a87fp-1",
        "0x1.f0b5650cc6d24p-1"),
    4: ("0x1.47ae147ae147ap-3", "0x1.47ae147ae147bp-1", "0x1.9eb851eb851ecp-1",
        "0x1.ebb98c7e28240p-1"),
    5: ("0x1.be3c594f0a261p-4", "0x1.26400362bb652p-1", "0x1.89c33bd11c782p-1",
        "0x1.e6cbf48974783p-1"),
    6: ("0x1.374bc6a7ef9d9p-4", "0x1.08a5a912e319dp-1", "0x1.75fcd070de181p-1",
        "0x1.e1ec6c45d3312p-1"),
    7: ("0x1.b8a3674eb8487p-5", "0x1.dcc6421a2cb64p-2", "0x1.63526d9084756p-1",
        "0x1.dd1ac848e9518p-1"),
    8: ("0x1.3a92a30553261p-5", "0x1.ae1c3f4a70e5ep-2", "0x1.51b2b8ddbaea0p-1",
        "0x1.d856ddbd6fda6p-1"),
    9: ("0x1.c381ab2a8c119p-6", "0x1.8494fd62dfe54p-2", "0x1.410d776f932a9p-1",
        "0x1.d3a08258f1ee6p-1"),
    10: ("0x1.450efdc9c4da8p-6", "0x1.5f907173399bdp-2", "0x1.315379fa97e14p-1",
         "0x1.cef78c59eff9ap-1"),
}


@pytest.mark.parametrize("n", sorted(ITINERANT_SIM_BITS))
def test_itinerant_sim_bits(n):
    got = tuple(itinerant_ghz_fidelity_sim(n, f_pa).hex() for f_pa in (0.7, 0.9, 0.95, 0.99))
    assert got == ITINERANT_SIM_BITS[n]


def test_itinerant_sim_regression_point():
    value = itinerant_ghz_fidelity_sim(5, 0.99)
    assert 0.9 < value < 0.96
    assert value == pytest.approx(0.9507748048583695, abs=1e-12)


def test_itinerant_sim_domain():
    with pytest.raises(ValueError):
        itinerant_ghz_fidelity_sim(2, 0.6)
    with pytest.raises(ValueError):
        itinerant_ghz_fidelity_sim(11, 0.9)


def test_itinerant_formula_domain():
    for n in (1, 0, -3):  # 0 gave a fidelity of 1.0 and -3 one of 0.0
        with pytest.raises(ValueError, match="need at least 2 nodes"):
            itinerant_ghz_fidelity_formula(n, 0.95)
    assert itinerant_ghz_fidelity_formula(12, 0.95) < itinerant_ghz_fidelity_formula(10, 0.95)


@pytest.mark.parametrize("call", [
    lambda n: st_n_node(SchemeParams(), n),
    lambda n: itinerant_success(n, 0.9, 0.9, 0.9),
    lambda n: itinerant_ghz_fidelity_sim(n, 0.95),
    lambda n: itinerant_ghz_fidelity_formula(n, 0.95),
    lambda n: em_success(n, SchemeParams()),
    lambda n: em_false_herald(n, 0.5, 0.1),
    lambda n: em_fidelity(n, 0.9, 0.5, 0.1),
    lambda n: wpe_fidelity(1, n, 0.1),
    lambda n: wpe_rate(1, n, 0.1),
    lambda n: wpe_fidelity_sweep(n, [1], [0.1], 1.0),
    lambda n: swap_rate(n, 0.5, 0.9),
], ids=["st_n_node", "itinerant_success", "itinerant_ghz_fidelity_sim",
        "itinerant_ghz_fidelity_formula", "em_success", "em_false_herald", "em_fidelity",
        "wpe_fidelity", "wpe_rate", "wpe_fidelity_sweep", "swap_rate"])
def test_node_count_is_an_integer(call):
    for bad in (True, 3.0, 2.5):
        with pytest.raises(ValueError, match=f"n_nodes must be an integer, got {bad!r}"):
            call(bad)
    # a numpy integer is an integer, and the figures stay Python floats (float **
    # np.int64 is a numpy float, which FidelityResult.__float__ must not return)
    figures = _figures(call(np.int64(3)))
    assert figures == _figures(call(3)) and all(type(x) is float for x in figures)


def _figures(result):
    """The numbers of a result: st_n_node's two factors, a sweep's points."""
    if isinstance(result, tuple):
        result = list(result[1:])
    if isinstance(result, list):
        return [x for r in result for x in _figures(r)]
    if isinstance(result, analytics.SweepPoint):
        return [result.fidelity, result.rate]
    return [result.value if isinstance(result, FidelityResult) else result]


def test_numpy_arguments_give_python_numbers():
    """Every closed form converts numpy counts and rates on entry.

    A numpy float left in a result made ``float()`` on a ``FidelityResult``
    warn (``__float__`` returned a non-float), an error under the suite's
    warning filters.
    """
    f, i = np.float64, np.int64
    results = [
        st_fidelity_2(f(0.81)), st_rate_2(SchemeParams(eta_p=f(0.5), eta_det=f(0.9))),
        *st_n_node(SchemeParams(eta_a0an=f(0.5), eta_det=f(0.9)), i(3))[1:],
        itinerant_fidelity_2(f(0.9)), itinerant_success(i(3), f(0.9), f(0.8), f(0.7)),
        itinerant_depolarizing_strength(f(0.9)), itinerant_ghz_fidelity_sim(i(3), f(0.9)),
        itinerant_ghz_fidelity_formula(i(3), f(0.9)),
        em_success(i(3), SchemeParams(eta_abs=f(0.5), p_ghz_n=f(0.9))),
        em_false_herald(i(3), f(0.5), f(0.1)), em_fidelity(i(3), f(0.9), f(0.5), f(0.1)),
        wpe_fidelity(i(1), i(3), f(0.1)), wpe_rate(i(1), i(3), f(0.1), f(0.5)),
        swap_rate(i(3), f(0.5), f(0.9)),
        *(evaluate_formula(name, **kw) for name, kw in [
            ("st-n-fidelity", {"eta_a0an": f(0.5)}),
            ("swap-rate", {"n": i(3), "p_bsa": f(0.5), "eta": f(0.9)})]),
    ]
    for result in results:
        assert type(float(result)) is float
        assert type(result.value if isinstance(result, FidelityResult) else result) is float
    point, = wpe_fidelity_sweep(i(3), [i(1)], [f(0.1)], f(0.5))
    assert [type(x) for x in dataclasses.astuple(point)] == [float, int, float, float]
    cmp4 = compare_4node(f(0.5), f(2.0))
    assert all(type(x) is float for x in dataclasses.astuple(cmp4))
    assert cmp4 == compare_4node(0.5, 2.0)


@pytest.mark.parametrize("call", [wpe_fidelity, wpe_rate])
def test_excitation_count_is_an_integer(call):
    for bad in (True, 1.0):
        with pytest.raises(ValueError, match=f"m must be an integer, got {bad!r}"):
            call(bad, 3, 0.1)
    assert call(np.int64(1), 3, 0.1) == call(1, 3, 0.1)
    assert all(type(x) is float for x in _figures(call(np.int64(1), 3, 0.1)))


# -------------------------------------------------------------- mapping scheme

def test_em_success():
    assert em_success(2, SchemeParams()).value == pytest.approx(0.25)
    assert em_success(4, SchemeParams()).value == pytest.approx(1 / 16)
    params = SchemeParams(eta_abs=1e-4, eta_det=0.05, p_epr=2.5e-3)
    value = em_success(2, params).value
    assert value == pytest.approx(2.5e-3 * (0.5 * 1e-4 * 0.05) ** 2)
    assert 1e-15 < value < 1e-12


def test_em_false_herald():
    assert em_false_herald(3, 0.5, 0.0) == 0.0
    assert em_false_herald(1, 0.9, 0.25) == pytest.approx(0.25)
    assert em_false_herald(2, 0.1, 0.01) == pytest.approx(0.0021)


def test_em_fidelity():
    assert em_fidelity(3, 0.97, 1e-10, 0.0) == pytest.approx(0.97)
    assert em_fidelity(3, 0.97, 0.0, 1e-10) == pytest.approx(2.0 ** -3)
    assert em_fidelity(2, 0.95, 1e-13, 1e-13) == pytest.approx(0.6)
    with pytest.raises(ZeroDivisionError):
        em_fidelity(2, 0.95, 0.0, 0.0)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="p_em"):
            em_fidelity(2, 0.9, bad, 0.1)
        with pytest.raises(ValueError, match="p_false"):
            em_fidelity(2, 0.9, 0.1, bad)


# -------------------------------------------------------------- which-path erasing

def test_wpe_fidelity_quoted_values():
    assert wpe_fidelity(1, 2, 0.06) == pytest.approx(0.969, abs=5e-4)
    assert wpe_fidelity(1, 3, 0.06) == pytest.approx(0.9388, abs=5e-4)
    assert wpe_fidelity(2, 3, 0.06) == pytest.approx(0.9791, abs=5e-4)


def test_wpe_fidelity_limits_and_monotonicity():
    grid = np.linspace(0.01, 0.99, 60)
    for m, n in ((1, 2), (1, 4), (2, 4), (3, 4)):
        vals = [wpe_fidelity(m, n, p) for p in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
    assert wpe_fidelity(1, 3, 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert wpe_fidelity(3, 3, 0.37) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wpe_fidelity(0, 3, 0.1)
    with pytest.raises(ValueError):
        wpe_fidelity(1, 3, 0.0)


@pytest.mark.parametrize("p", [0.5, 0.52, 0.53, 0.9])
def test_wpe_fidelity_past_the_underflow_of_its_terms(p):
    # m = N - 1: the fidelity is N (1 - p) / (N (1 - p) + p); p^1099 underflows
    # below p = 0.525, so the lower two points sum ratios and the upper two do not
    n = 1100
    assert wpe_fidelity(n - 1, n, p) == pytest.approx(n * (1 - p) / (n * (1 - p) + p),
                                                      rel=1e-13)


def test_wpe_fidelity_is_one_where_every_term_underflows():
    assert wpe_fidelity(5, 10, 1e-200) == 1.0


def test_wpe_rate_closed_forms():
    p, eta = 0.21, 0.4
    expect = eta * (2 * p * (1 - p) + p ** 2)
    assert wpe_rate(1, 2, p, eta).value == pytest.approx(expect)
    assert wpe_rate(3, 3, p, eta).value == pytest.approx(eta ** 3 * p ** 3)
    assert wpe_rate(1, 4, 1e-12, eta).value == pytest.approx(0.0, abs=1e-9)
    assert wpe_rate(1, 2, p, eta).is_proportional


def test_wpe_sweep_reference_points():
    pts = wpe_fidelity_sweep(4, [1, 2, 3], [0.06, 0.5], 0.05)
    assert len(pts) == 6
    by_key = {(pt.m, pt.p): pt for pt in pts}
    assert by_key[(3, 0.5)].fidelity == pytest.approx(4 / 5)
    assert by_key[(1, 0.06)].rate == pytest.approx(0.05 * (1 - 0.94 ** 4))
    # fidelity falls and rate grows with p at fixed m
    for m in (1, 2, 3):
        assert by_key[(m, 0.5)].fidelity < by_key[(m, 0.06)].fidelity
        assert by_key[(m, 0.5)].rate > by_key[(m, 0.06)].rate


# -------------------------------------------------------------- comparison / swap

def test_swap_rate():
    assert swap_rate(2, 0.5, 1.0).value == pytest.approx(0.5)
    assert swap_rate(4, 7 / 32, 1.0).value == pytest.approx(7 / 32)
    assert swap_rate(3, 0.25, 0.0).value == 0.0


def test_compare_4node_quad_rate_is_the_quarter_aggregate():
    # the 7/32 constant against the quarter's threshold/distinct p_BSA, from its table
    rows = run_gbsa(prepare_swap_input(4), quarter())
    p_bsa = aggregate_heralding(rows, THRESHOLD, HeraldRule(4, distinct_detectors_only=True))
    assert abs(compare_4node(1.0, 1.0).r_quad - p_bsa) <= 64 * sys.float_info.epsilon


def test_compare_4node():
    cmp4 = compare_4node(1.0, 1.0)
    assert cmp4.r_bell == pytest.approx(0.5)
    assert cmp4.r_bell_chain4 == pytest.approx(0.125)
    assert cmp4.r_quad == pytest.approx(7 / 32)
    assert cmp4.crossover_eta == pytest.approx(2 / math.sqrt(7), abs=1e-12)
    assert cmp4.crossover_eta == pytest.approx(0.75593, abs=1e-4)
    zero = compare_4node(0.0, 1.0)
    assert zero.r_bell == 0.0 and zero.r_quad == 0.0
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="r_t"):
            compare_4node(0.5, bad)


def test_compare_crossover_balances_rates():
    eta = compare_4node(0.5).crossover_eta
    at = compare_4node(eta, 3.7)
    assert at.r_bell_chain4 == pytest.approx(at.r_quad, abs=1e-12)


# -------------------------------------------------------------- registry

def test_formula_registry_dispatch():
    assert evaluate_formula("st-fidelity-2", eta=1.0).value == pytest.approx(1.0)
    res = evaluate_formula("wpe-rate", m=1, n=2, p=0.06, eta=1.0)
    assert res.is_proportional
    res = evaluate_formula("st-n-rate", n=3, eta_p=0.5, eta_out=0.9, eta_net=0.8,
                           eta_a0an=0.7, eta_ent=0.6, eta_det=0.5)
    assert res.value == pytest.approx(0.5 * 0.9 * 0.8 * 0.7 * 0.6 * 0.5)
    assert res.is_proportional
    with pytest.raises(KeyError):
        evaluate_formula("nope")
    listed = set(analytics.FORMULAS)
    assert {"st-fidelity-2", "wpe-fidelity", "em-fidelity", "swap-rate",
            "st-n-rate", "itinerant-ghz-sim"} <= listed
