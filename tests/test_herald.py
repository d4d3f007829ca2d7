import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entnet.herald
import entnet.photonics
from entnet.analytics import wpe_fidelity, wpe_rate
from entnet.bipartitions import LABELS
from entnet.herald import (NUMBER_RESOLVED, THRESHOLD, DetectionTable, DetectorModel,
                           HeraldRule, ProjectionRow, _label_symmetries, _product_state,
                           _suppressed, aggregate_heralding,
                           dicke_family_fidelity, entanglement_classes_csr,
                           prepare_swap_input, run_gbsa, subnetwork_swap, suppressed_patterns,
                           wpe_fidelity_sim, wpe_herald, wpe_rate_sim, wpe_sector_probabilities,
                           wpe_state)
from entnet.interferometers import (MultiportMatrix, beam_splitter, inverse, quarter,
                                    symmetric_multiport, tritter)
from entnet.photonics import (MERGE_TOL, CapacityError, DimensionMismatch, FockState,
                              HybridState, Mode, apply_mode_transform, expand_to_fock,
                              fock_to_polynomial, propagate)
from entnet.states import (GENUINE_CLASSES, PURITY_TOL, TANGLE_TOL, QubitState, dicke_state,
                           entanglement_classes, fidelity, ghz_basis_state,
                           reduced_purity, three_tangle)

S2 = math.sqrt(2)
EPS = sys.float_info.epsilon


def rows_by_label(rows):
    return {r.pattern.label(): r for r in rows}


def test_prepare_swap_input_shapes():
    two = prepare_swap_input(2)
    assert len(two.terms) == 4
    assert all(abs(a) == pytest.approx(0.5) for a in two.terms.values())
    four = prepare_swap_input(4)
    assert len(four.terms) == 16
    assert all(abs(a) == pytest.approx(0.25) for a in four.terms.values())
    assert prepare_swap_input(3).norm_sq() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        prepare_swap_input(1)
    with pytest.raises(ValueError):
        prepare_swap_input(9)
    with pytest.raises(ValueError):
        prepare_swap_input(2, signs=[1])
    with pytest.raises(ValueError, match="one per node"):  # two nodes on port 1 drop a photon
        prepare_swap_input(2, ports=[1, 1, 2])


@pytest.mark.parametrize("ports", [[0, 1], [-1, 1]])
def test_prepare_swap_input_rejects_ports_below_one(ports):
    with pytest.raises(ValueError, match="from 1"):
        prepare_swap_input(2, ports=ports)


def test_prepare_swap_input_signs():
    signed = prepare_swap_input(2, signs=[1, -1])
    amps = {atoms: amp for (atoms, _), amp in signed.terms.items()}
    assert amps["00"] == pytest.approx(0.5)
    assert amps["01"] == pytest.approx(-0.5)
    assert amps["11"] == pytest.approx(-0.5)


@pytest.mark.parametrize("n,builder", [(2, beam_splitter), (3, tritter), (4, quarter)])
def test_run_gbsa_probabilities_complete(n, builder):
    rows = run_gbsa(prepare_swap_input(n), builder())
    assert sum(r.probability for r in rows) == pytest.approx(1.0, abs=1e-9)
    for r in rows:
        assert sum(abs(a) ** 2 for a in r.state.amplitudes.values()) == pytest.approx(1.0)


def _count_expansions(monkeypatch):
    """Record the coefficient of every input term that ``run_gbsa`` steps through the
    expansion plan's photon steps."""
    calls = []
    expand = entnet.photonics._expand

    def counted(plan, coeffs, *args):
        calls.extend(coeffs.tolist())
        return expand(plan, coeffs, *args)

    monkeypatch.setattr(entnet.photonics, "_expand", counted)
    return calls


def test_swap_capacity_refused_before_any_expansion(monkeypatch):
    calls = _count_expansions(monkeypatch)
    run_gbsa(prepare_swap_input(2), beam_splitter())
    assert len(calls) == 3  # the counter sees each term but the "00" one, mirrored from "11"
    calls.clear()
    run_gbsa(wpe_state(2, 0.2), beam_splitter())
    assert len(calls) == 4  # the eraser's photons have no polarization to mirror
    calls.clear()
    with pytest.raises(CapacityError):  # 8 pairs on 8 ports: 14.9M terms from the stepped half
        run_gbsa(prepare_swap_input(8), symmetric_multiport(3))
    assert calls == []


@pytest.mark.parametrize("port", [0, 5, 1.5, 2.0])
def test_run_gbsa_refuses_ports_outside_the_multiport(monkeypatch, port):
    calls = _count_expansions(monkeypatch)
    state = HybridState(2, {  # the valid "00" term sorts first
        ("00", FockState({Mode(1, "H"): 1, Mode(2, "H"): 1}).key): 1 / S2,
        ("11", FockState({Mode(3, "V"): 1, Mode(port, "V"): 1}).key): 1 / S2})
    with pytest.raises(DimensionMismatch, match=f"port {port} is outside ports 1..4"):
        run_gbsa(state, quarter())
    assert calls == []


def _reference_table(state, u):
    """``(pattern key, probability, amplitudes)`` rows built through the polynomial
    API, with ``run_gbsa``'s row rule: a row keeps its registers whose summed
    amplitude is at least ``MERGE_TOL``, and a row whose probability is below
    ``MERGE_TOL ** 2`` is dropped."""
    inv = inverse(u)
    acc = {}
    for atoms, fock, amp in state.items():
        out = expand_to_fock(apply_mode_transform(fock_to_polynomial(fock, amp), inv), atoms)
        for (at, fkey), a in out.terms.items():
            slot = acc.setdefault(fkey, {})
            slot[at] = slot.get(at, 0j) + a
    rows = []
    for fkey in sorted(acc):
        amps = {at: a for at, a in acc[fkey].items() if abs(a) >= MERGE_TOL}
        prob = math.fsum(abs(a) ** 2 for a in amps.values())
        if prob < MERGE_TOL ** 2:
            continue
        scale = 1 / math.sqrt(prob)
        rows.append((fkey, prob, [(at, a * scale) for at, a in sorted(amps.items())]))
    return rows


def assert_matches_reference(rows, state, u, reference=None):
    """``rows`` are the polynomial reference's table, within fixed tolerances:
    the same pattern keys, row order and registers, each probability within
    ``4 eps`` times the rows, and each amplitude within 1e-12 once both rows
    are turned so that the reference's largest amplitude is real and positive."""
    reference = _reference_table(state, u) if reference is None else reference
    assert [row.pattern.key for row in rows] == [key for key, _, _ in reference]
    for row, (_, prob, amps) in zip(rows, reference):
        assert list(row.state.amplitudes) == [at for at, _ in amps]
        assert abs(row.probability - prob) <= 4 * EPS * len(reference)
        a = np.array(list(row.state.amplitudes.values()))
        b = np.array([x for _, x in amps])
        j = np.argmax(np.abs(b))
        assert np.abs(a * (abs(a[j]) / a[j]) - b * (abs(b[j]) / b[j])).max() <= 1e-12


def _shared_port_input():
    """Two photons share a port in three terms, and atoms "00" carries two
    photon states, so the sqrt(k!) factors and the sum over input terms run."""
    return HybridState(2, {
        ("00", FockState({Mode(1, "H"): 2}).key): 0.5,
        ("00", FockState({Mode(1, "H"): 1, Mode(3, "H"): 1}).key): 0.5j,
        ("01", FockState({Mode(1, "H"): 1, Mode(1, "V"): 1}).key): -0.5,
        ("11", FockState({Mode(2, "V"): 2}).key): 0.5})


def _all_signs(n):
    return [list(signs) for signs in itertools.product((1, -1), repeat=n)]


_REFERENCE_CASES = {
    "swap2": lambda: [(prepare_swap_input(2, s), beam_splitter()) for s in _all_signs(2)],
    "swap3": lambda: [(prepare_swap_input(3, s), tritter()) for s in _all_signs(3)],
    "swap4": lambda: [(prepare_swap_input(4, s), quarter()) for s in _all_signs(4)],
    **{f"sym2d-{''.join(map(str, ports))}":
       lambda ports=ports, signs=signs: [(prepare_swap_input(len(ports), signs, ports),
                                          symmetric_multiport(3))]
       for ports, signs in (([1, 2, 3, 4], [1, 1, 1, 1]), ([1, 3, 5, 8], [1, -1, 1, -1]),
                            ([2, 4, 6, 7], [-1, -1, 1, 1]), ([5, 6, 7, 8], [1, 1, -1, 1]),
                            ([1, 2, 3, 4, 5], [1, -1, -1, 1, 1]))},  # 15,056 rows
    # phased erasers; their all-zero term is the vacuum
    **{f"eraser{n}": lambda n=n: [(wpe_state(n, 0.2, [0.3 * k + 0.1 for k in range(n)]),
                                   symmetric_multiport(3))]
       for n in (3, 4, 5)},
    "shared-port": lambda: [(_shared_port_input(), quarter())],
}


@pytest.mark.parametrize("name", list(_REFERENCE_CASES))
def test_run_gbsa_is_bit_identical_to_the_polynomial_reference(name):
    # the expansion sums in another order than the reference's dict, so the
    # tables agree within assert_matches_reference's tolerances, not bit for bit
    for state, u in _REFERENCE_CASES[name]():
        assert_matches_reference(run_gbsa(state, u), state, u)


def test_reference_drops_and_restarts_sums_on_the_sym2d_swap(monkeypatch):
    # the reference's dict drops a running sum that cancels below MERGE_TOL and
    # restarts it from zero; the expansion sums each cell once, and agrees
    drops = []
    merge = entnet.photonics._merge

    def counted(acc, key, amp):
        if key in acc and abs(acc[key] + amp) < MERGE_TOL:
            drops.append(key)
        merge(acc, key, amp)

    state, u = prepare_swap_input(4, [1, -1, 1, -1], [1, 3, 5, 8]), symmetric_multiport(3)
    monkeypatch.setattr(entnet.photonics, "_merge", counted)
    reference = _reference_table(state, u)
    monkeypatch.undo()
    assert len(drops) == 3724
    assert_matches_reference(run_gbsa(state, u), state, u, reference)


def test_pattern_keys_wider_than_int64_match_the_reference():
    # 3 photons on 32 output modes, whose keys with one digit per mode would
    # need 64 bits
    state, u = prepare_swap_input(3, [1, -1, 1], [1, 7, 16]), symmetric_multiport(4)
    assert_matches_reference(run_gbsa(state, u), state, u)


def _haar_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def swap_inputs(draw):
    """m = 2..4 signed Bell pairs on random ports of a random 4- or 8-port
    unitary, plus a random relabelling of its input and output ports."""
    dim = draw(st.sampled_from((4, 8)))
    m = draw(st.integers(2, 4))
    ports = draw(st.permutations(range(1, dim + 1)))[:m]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=m, max_size=m))
    u = _haar_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), dim)
    return (dim, m, ports, signs, u, draw(st.permutations(range(dim))),
            draw(st.permutations(range(dim))))


@settings(max_examples=20, deadline=None)
@given(swap_inputs())
def test_run_gbsa_invariants_over_random_unitaries(case):
    dim, m, ports, signs, u, sigma, tau = case
    rows = run_gbsa(prepare_swap_input(m, signs, ports), MultiportMatrix(dim, u))
    assert abs(sum(r.probability for r in rows) - 1) <= 4 * EPS * len(rows)
    for r in rows:  # each 0 bit sent one H photon, each 1 bit one V photon
        n_v = sum(k for mo, k in r.pattern.key if mo.pol == "V")
        assert all(bits.count("1") == n_v for bits in r.state.amplitudes)
        assert r.n_photons == m
    # input port j -> sigma[j-1]+1 and output port k -> tau[k-1]+1
    moved_u = np.empty_like(u)
    moved_u[np.ix_(tau, sigma)] = u
    moved = run_gbsa(prepare_swap_input(m, signs, [sigma[p - 1] + 1 for p in ports]),
                     MultiportMatrix(dim, moved_u))
    back = {k + 1: tau.index(k) + 1 for k in range(dim)}
    probs = {FockState({Mode(back[mo.port], mo.pol): k for mo, k in r.pattern.key}).key:
             r.probability for r in moved}
    assert probs == pytest.approx({r.pattern.key: r.probability for r in rows}, abs=1e-12)
    assert_matches_reference(rows, prepare_swap_input(m, signs, ports), MultiportMatrix(dim, u))


def assert_in_table_order(cells):
    """Patterns in Fock-key order, each with a cell, and (pattern, register) pairs increasing."""
    keys = [tuple((m, k) for m, k in zip(cells.modes, row) if k)
            for row in cells.occupations[cells.places].tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    pattern, registers = cells.pattern, cells.registers
    assert np.all((np.diff(pattern) > 0) | ((np.diff(pattern) == 0) & (np.diff(registers) > 0)))
    assert set(pattern.tolist()) == set(range(len(keys)))


@settings(max_examples=20, deadline=None)
@given(swap_inputs())
def test_propagate_returns_cells_in_table_order(case):
    dim, m, ports, signs, u, _, _ = case
    assert_in_table_order(propagate(prepare_swap_input(m, signs, ports),
                                    inverse(MultiportMatrix(dim, u))))


def test_propagate_returns_wide_keyed_cells_in_table_order():
    # 3 photons on 32 output modes
    state, u = prepare_swap_input(3, [1, -1, 1], [1, 7, 16]), symmetric_multiport(4)
    cells = propagate(state, inverse(u))
    assert 4 ** len(cells.modes) > 2 ** 63
    assert_in_table_order(cells)


def _untaken_inputs():
    """Inputs the swap never makes, with a random unitary for each."""
    h1, v1, h2, v3 = Mode(1, "H"), Mode(1, "V"), Mode(2, "H"), Mode(3, "V")
    repeated = HybridState(1, {("0", ((h1, 2), (h2, 1))): 0.6, ("1", ((h2, 1), (v3, 1))): 0.8})
    both = HybridState(2, {("00", ((h1, 1), (v1, 1))): 0.6j, ("01", ((h1, 1), (v3, 2))): -0.48,
                           ("11", ((v1, 1), (h2, 1))): 0.64})
    eraser = wpe_state(4, 0.3, [0.2, 1.1, 2.5, 0.7])  # 0 to 4 photons
    return [(repeated, 3, 41), (both, 4, 42), (eraser, 6, 43)]


@pytest.mark.parametrize("index", range(3), ids=["repeated-mode", "both-polarizations",
                                                 "eraser"])
def test_inputs_the_swap_never_makes_match_the_reference(index):
    state, dim, seed = _untaken_inputs()[index]
    u = MultiportMatrix(dim, _haar_unitary(np.random.default_rng(seed), dim))
    assert_matches_reference(run_gbsa(state, u), state, u)
    assert_in_table_order(propagate(state, inverse(u)))


def test_tables_kept_across_calls_stay_small(monkeypatch):
    # the expansion keeps only tables of at most 8 * _BATCH_CHILDREN bytes; after
    # one sym2d_swap table they stay far below the process's memory bound
    monkeypatch.setattr(entnet.photonics, "_tables", {})
    run_gbsa(prepare_swap_input(4, [1, -1, 1, 1], [1, 3, 5, 8]), symmetric_multiport(3))
    tables = entnet.photonics._tables.values()
    assert tables and sum(a.nbytes for table in tables for a in table) <= 0.5 * 2 ** 20


def _sym2d_swap_record():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    return json.loads(path.read_text())["sym2d_swap"]


# every port set of the benchmark's sym2d_swap workload against its record,
# unsigned and with one seeded draw of the signs the workload also draws
@pytest.mark.parametrize("ports,want", sorted(_sym2d_swap_record().items()))
def test_sym2d_swap_tables_match_the_benchmark_record(ports, want):
    for signs in ([1] * 4, random.Random(ports).choice(_all_signs(4)[1:])):
        state = prepare_swap_input(4, signs, [int(p) for p in ports.split(",")])
        rows = run_gbsa(state, symmetric_multiport(3))
        assert len(rows) == want["rows"]
        assert dict(Counter(row.state_class() for row in rows)) == want["classes"]
        thr = aggregate_heralding(rows, THRESHOLD, HeraldRule(4, distinct_detectors_only=True))
        nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4))
        assert abs(thr - want["threshold_distinct"]) <= 64 * EPS
        assert abs(nr - want["number_resolved"]) <= 64 * EPS
        assert abs(math.fsum(row.probability for row in rows) - 1) <= 4 * EPS * len(rows)


def _mirror_cases():
    cases = [(f"{name}-{''.join('+-'[s < 0] for s in signs)}", n, None, signs, u)
             for name, n, u in (("bs", 2, beam_splitter), ("tritter", 3, tritter),
                                ("quarter", 4, quarter)) for signs in _all_signs(n)]
    cases += [(f"sym2d-{ports}", 4, [int(p) for p in ports.split(",")],
               random.Random(ports).choice(_all_signs(4)), lambda: symmetric_multiport(3))
              for ports in sorted(_sym2d_swap_record())]
    cases += [(f"8port-m{m}", m, None, [(-1) ** k for k in range(m)],
               lambda: symmetric_multiport(3)) for m in (5, 6, 7)]
    return {name: case for name, *case in cases}


_MIRROR_CASES = _mirror_cases()


def _step_every_term(monomials, coeffs, pols):
    """:func:`~entnet.photonics._mirror` for an input without H<->V partners."""
    return np.arange(len(monomials)), None, None


@pytest.mark.parametrize("name", list(_MIRROR_CASES))
def test_mirrored_sectors_equal_the_expanded_ones_to_the_bit(monkeypatch, name):
    n, ports, signs, u = _MIRROR_CASES[name]
    state, inv = prepare_swap_input(n, signs, ports), inverse(u())
    calls = _count_expansions(monkeypatch)
    got = propagate(state, inv)
    assert len(calls) == sum(math.comb(n, h) for h in range(n // 2 + 1))  # h H photons
    monkeypatch.setattr(entnet.photonics, "_mirror", _step_every_term)
    calls.clear()
    want = propagate(state, inv)
    assert len(calls) == 2 ** n
    assert _cells_digest(got) == _cells_digest(want)  # every field, +-0 included


def _unmirrored_inputs():
    """Inputs some of whose terms have no H<->V partner (the eraser's photons have no
    polarization)."""
    turned = HybridState(3, {key: amp * (1j if key[0] == "111" else 1)
                             for key, amp in prepare_swap_input(3, [1, -1, 1]).terms.items()})
    pair = prepare_swap_input(2)
    missing = HybridState(2, {key: amp * 2 / math.sqrt(3) for key, amp in pair.terms.items()
                              if key[0] != "11"})
    return {"partner-times-i": (turned, tritter()), "missing-partner": (missing, quarter()),
            "eraser": (wpe_state(3, 0.2, [0.1, 0.4, 0.7]), quarter()),
            "port-stepping": (_port_stepping_input(), symmetric_multiport(3))}


@pytest.mark.parametrize("name", ["partner-times-i", "missing-partner", "eraser",
                                  "port-stepping"])
def test_inputs_without_mirror_partners_are_expanded_whole(monkeypatch, name):
    state, u = _unmirrored_inputs()[name]
    calls = _count_expansions(monkeypatch)
    rows = run_gbsa(state, u)
    assert len(calls) == len(state.terms)
    assert_matches_reference(rows, state, u)


def _cells_digest(cells):
    """SHA-256 over every field of ``cells``: each array's dtype, shape and bytes, and the
    repr of the rest."""
    digest = hashlib.sha256()
    for field in cells:
        for part in field if isinstance(field, tuple) else (field,):
            if isinstance(part, np.ndarray):
                digest.update(f"{part.dtype.str}{part.shape}".encode() + part.tobytes())
            else:
                digest.update(repr(part).encode())
    return digest.hexdigest()


def _pinned_inputs():
    """The shipped analysers under every sign, four sym2d port sets (1,2,3,4 an affine
    plane) with a seeded sign draw, an eraser on the butterfly, the inputs without mirror
    partners that step their ports, the 16-port table, and an input that sums two terms
    into one cell."""
    cases = {f"{name}{''.join('+-'[s < 0] for s in signs)}":
             lambda n=n, u=u, signs=signs: (prepare_swap_input(n, signs), u())
             for name, n, u in (("bs", 2, beam_splitter), ("tritter", 3, tritter),
                                ("quarter", 4, quarter)) for signs in _all_signs(n)}
    for ports in ("1,2,3,4", "1,2,4,7", "1,3,5,8", "2,4,6,7"):
        cases[f"sym2d-{ports}"] = lambda ports=ports: (
            prepare_swap_input(4, random.Random(ports).choice(_all_signs(4)),
                               [int(p) for p in ports.split(",")]), symmetric_multiport(3))
    cases["eraser5"] = lambda: (wpe_state(5, 0.2), symmetric_multiport(3))
    for name in ("partner-times-i", "missing-partner", "port-stepping"):
        cases[name] = lambda name=name: _unmirrored_inputs()[name]
    cases["16port-m3"] = lambda: (prepare_swap_input(3, [1, -1, 1], [1, 7, 16]),
                                  symmetric_multiport(4))
    cases["shared-port"] = lambda: (_shared_port_input(), quarter())  # a cell of two terms
    return cases


# SHA-256 of every field of propagate's cells, as recorded before the expansion plan
_CELLS_BITS = {
    "bs++": "7e6e9cad9c2962c49bd86a37d95c7ef03c88af7df7964f2059273cb60140adc1",
    "bs+-": "ba8b365ca8115d25fc7ece7396a80374341980fae2c1aef18459d59909484e0f",
    "bs-+": "dc6681684029c62dad96a5f65edff009dcd575c2e13b138c1aabe4abfc4fb068",
    "bs--": "e72147dd6a7e6e663652087d3dcc48cd33a5b6ce676b8619de4597f3a3b3f889",
    "tritter+++": "2a339ec1603b5a48a3ba57bae80efeffd5584b3996354624a04bfed0867fe3af",
    "tritter++-": "9382c96bc065daa893813e63790f6081fbfdc04bd7e63c7f8fa1dd2e64d65fbd",
    "tritter+-+": "15c2e3e8d56ed10fa47e36aca769bb7b3c388f94fea7a4e1f5c8c1ebdc2f1903",
    "tritter+--": "370f7d432ca08cfcba506bfdfdd65833b361ad25402b68d8b47448f042a31ab8",
    "tritter-++": "4f1184808480850a329d41887525b9d8666ab9748f56d00c08c884027924ac02",
    "tritter-+-": "e4869318e1673930dc79da5444ddfca6e696c6deadbaa258851323abae0aa168",
    "tritter--+": "a0c75d08317c1aabf6092b3f5b69b3a1d7d6c956cb7c0f682f217849f702e79f",
    "tritter---": "f3616d5f9f746bd5430aa2594bf5fd16d515387d1cd0a818dcfeae36a442a49b",
    "quarter++++": "18c0ea65671f6c59f38b835da7052e44c9dcbe962f7c950ed63ea026a2fae154",
    "quarter+++-": "b3b1ff831066671f37319ec2ea53de53aa5a8a084a37599c6911baa4d42d2f63",
    "quarter++-+": "fce35c0382d46a7d2cb20a628247c3a2f3d5d4a1f17539cee508d8e0d67e3a7c",
    "quarter++--": "0a08165e54aad4967cbdbe6bbf96e076e1120cb60c63aa99755a54af50d39c83",
    "quarter+-++": "4588be31b4688bd76082cbd59747bce490b3ceb8e8e857499c0144ad3c5ca25e",
    "quarter+-+-": "b347995232808d04ac3b1c49eb85959319f0e85ad0d8fcdb19de9e5e581ada8a",
    "quarter+--+": "b6a15f06a658ea46400f9a371de232b401689afb5691c544198e928465faee46",
    "quarter+---": "3e181442d4ac3dbdbd54700fd82dd68acfe0a5664cea3fb931b86dd18e2d6e2f",
    "quarter-+++": "ac9fd1a55bc7c20d21ee3859c0c03a1c063a7d9786eefac992add37d991e490f",
    "quarter-++-": "2e62f38a50111b63f95ff23f42250a639c153d4477cc67f97d1db63940638926",
    "quarter-+-+": "c8e59f9301975e61d6956726aa5fc2b3f682d8637bb50c6956cc92ee26f7e1f7",
    "quarter-+--": "9f597d9f86baac764786f75ed7bc78b425489ff70b42a1934660d23aa54bf796",
    "quarter--++": "2d5b70ebf3ca69372d3d4263166a1249105795259572cd1c6ce245528375b7ae",
    "quarter--+-": "787dc1bc313f1232270a52224dfe6b88718ec5970387dcbe266496973edbdbde",
    "quarter---+": "5ec845f77a6f578e92d33275ee42232571c7b267b2da6937b1688fb987c2ea99",
    "quarter----": "714e432b44cc95a6f5fada59480d16f4f3cecb2c0c1b137657249ec0c4c004fa",
    "sym2d-1,2,3,4": "2e4fdff9e1f2658d478443dbddfa14b2ce46b776746491a23fe68b048e49ba36",
    "sym2d-1,2,4,7": "a9748d92b9cb3f874263e49f6195c7081b353741aadca27433963950efc36036",
    "sym2d-1,3,5,8": "0376243823db05801fac3285323aabe392f72a4b339920bee852d00ea04821bd",
    "sym2d-2,4,6,7": "f3bc5f45a560e53e63a763f12a0664d4f7ec6ea1a819b562d35fa24ebba22b1a",
    "eraser5": "07c26accafd2f55e2925fbc401b4b7300ef0ac479365ee4f2e205e0901b53452",
    "partner-times-i": "3ed79f7e9593fbbf33af69b2abbc19b0eab9ff8fc9e6d8c3a6db0e419a355cc5",
    "missing-partner": "5270fc95b0d97351058adf236992c908b4d1ff5eddbdc5f83f5d23ade6820411",
    "port-stepping": "104556baa8385e0bef312056f5aafbb0f693adefbd4be8e9c09b0607476fa1c1",
    "16port-m3": "98dc8009d67bb69494fbdcb494039595de1cb04eb90e290cb5c7f925f45bdf06",
    "shared-port": "b52cd3cb91f3314ddf93cd36115d73f750b9b5fcea9728d3c54b59d9a933148d",
}


@pytest.mark.parametrize("name", list(_pinned_inputs()))
def test_propagate_cells_keep_their_bits(name):
    state, u = _pinned_inputs()[name]()
    assert _cells_digest(propagate(state, inverse(u))) == _CELLS_BITS[name]


def test_run_gbsa_deterministic():
    a = run_gbsa(prepare_swap_input(3), tritter())
    b = run_gbsa(prepare_swap_input(3), tritter())
    assert [(r.pattern.label(), r.probability) for r in a] == \
        [(r.pattern.label(), r.probability) for r in b]
    assert all(x.state.amplitudes == y.state.amplitudes for x, y in zip(a, b))


def test_quarter_reference_rows():
    rows = rows_by_label(run_gbsa(prepare_swap_input(4), quarter()))
    r = rows["h1 h2 h3 h4"]
    assert r.probability == pytest.approx(1 / 64, abs=1e-12)
    assert fidelity(r.state, QubitState(4, {"0000": 1.0})) == pytest.approx(1.0)
    r = rows["h1 h2 v1 v2"]
    assert r.probability == pytest.approx(1 / 128, abs=1e-12)
    assert fidelity(r.state, QubitState(4, {"0110": 1 / S2, "1001": 1 / S2})) \
        == pytest.approx(1.0, abs=1e-12)


def test_tritter_reference_row():
    rows = rows_by_label(run_gbsa(prepare_swap_input(3), tritter()))
    r = rows["h1 h2 h3"]
    assert r.probability == pytest.approx(1 / 24, abs=1e-12)
    assert fidelity(r.state, QubitState(3, {"000": 1.0})) == pytest.approx(1.0)


def test_suppressed_patterns_quarter():
    state = prepare_swap_input(4)
    sup = {p.label() for p in suppressed_patterns(state, quarter(), 4)}
    assert len(sup) == 72
    assert "h1 h2 v1 v3" in sup
    assert "h1^3 h2" in sup
    assert "h1 h2 h3 h4" not in sup


def test_suppressed_patterns_tritter():
    state = prepare_swap_input(3)
    sup = {p.label() for p in suppressed_patterns(state, tritter(), 3)}
    assert sup == {
        "h1^2 h2", "h1^2 h3", "h1 h2^2", "h1 h3^2", "h2^2 h3", "h2 h3^2",
        "v1^2 v2", "v1^2 v3", "v1 v2^2", "v1 v3^2", "v2^2 v3", "v2 v3^2"}


def _two_excitation_quarter_input():
    """Two excitations of four: every term is 2H2V, so the 1-3H sectors are infeasible."""
    full = prepare_swap_input(4)
    return HybridState(4, {key: amp * 4 / math.sqrt(6) for key, amp in full.terms.items()
                           if key[0].count("1") == 2})


def test_suppressed_patterns_scan_only_the_input_sectors():
    state = _two_excitation_quarter_input()
    rows = run_gbsa(state, quarter())
    modes = [Mode(port, pol) for pol in "HV" for port in range(1, 5)]
    candidates = {FockState.from_monomial(combo).key
                  for combo in itertools.combinations_with_replacement(modes, 4)
                  if sum(m.pol == "H" for m in combo) == 2}
    realized = {row.pattern.key for row in rows}
    assert (len(candidates), len(rows)) == (100, 76)
    expect = sorted(candidates - realized)
    assert len(expect) == 24
    assert [p.key for p in suppressed_patterns(state, quarter(), 4)] == expect
    assert suppressed_patterns(state, quarter(), 3) == []


def _suppressed_by_brute_force(state, table, dim, clicks):
    """Each feasible sector's multisets of output modes, one polarization at a time, less
    the patterns that a row of ``clicks`` photons realizes, sorted by Fock key."""
    sectors = {tuple(sorted(Counter(m.pol for m, k in fkey for _ in range(k)).items()))
               for _, fkey in state.terms if sum(k for _, k in fkey) == clicks}
    realized = {row.pattern.key for row in table if row.n_photons == clicks}
    candidates = {FockState.from_monomial(tuple(itertools.chain(*parts))).key
                  for sector in sectors
                  for parts in itertools.product(*(itertools.combinations_with_replacement(
                      [Mode(port, pol) for port in range(1, dim + 1)], k) for pol, k in sector))}
    return sorted(candidates - realized)


@pytest.mark.parametrize("u,n,at_n", [(quarter, 4, 24), (tritter, 3, 6),
                                      (lambda: symmetric_multiport(3), 6, 848)],
                         ids=["quarter", "tritter", "sym2d"])
def test_eraser_suppressed_lists_match_a_brute_force_enumeration(u, n, at_n):
    state, u = wpe_state(n, 0.2), u()
    table = run_gbsa(state, u)
    for clicks in range(n + 1):  # 0 clicks is the vacuum pattern, which the table realizes
        want = _suppressed_by_brute_force(state, table, u.dim, clicks)
        assert [p.key for p in suppressed_patterns(state, u, clicks)] == want
        assert len(want) == (at_n if clicks == n else 0)


@pytest.mark.parametrize("make", [
    *(lambda n=n, u=u, signs=signs: (prepare_swap_input(n, signs), u(), [n - 1, n, n + 1])
      for n, u in ((2, beam_splitter), (3, tritter), (4, quarter)) for signs in _all_signs(n)),
    *(lambda ports=ports: (prepare_swap_input(4, random.Random(ports).choice(_all_signs(4)),
                                              [int(p) for p in ports.split(",")]),
                           symmetric_multiport(3), [4])
      for ports in sorted(_sym2d_swap_record())[::10]),
    lambda: (prepare_swap_input(3, [1, -1, 1], [1, 2, 4]),
             MultiportMatrix(4, _haar_unitary(np.random.default_rng(17), 4)), [3]),
    lambda: (_two_excitation_quarter_input(), quarter(), [3, 4]),
], ids=[*(f"{name}-{''.join('+-'[s < 0] for s in signs)}"
          for name, n in (("bs", 2), ("tritter", 3), ("quarter", 4)) for signs in _all_signs(n)),
        *(f"sym2d-{ports}" for ports in sorted(_sym2d_swap_record())[::10]),
        "haar4-m3", "two-excitation-quarter"])
def test_swap_suppressed_lists_match_a_brute_force_enumeration(make):
    state, u, click_counts = make()
    table = run_gbsa(state, u)
    for clicks in click_counts:
        assert [p.key for p in suppressed_patterns(state, u, clicks)] == \
            _suppressed_by_brute_force(state, table, u.dim, clicks)


def test_suppressed_candidates_are_the_expanded_sectors():
    # the only (2, 1) term's amplitude over sqrt(2!) is 8.5e-13, below MERGE_TOL,
    # so the expansion drops it and its 40 patterns are no candidates
    h1, v1 = Mode(1, "H"), Mode(1, "V")
    terms = dict(prepare_swap_input(2).terms)
    terms["01", ((h1, 2), (v1, 1))] = 1.2e-12
    state, u = HybridState(2, terms), quarter()
    assert len(state.terms) == 5
    table = run_gbsa(state, u)
    assert table.n_photons.tolist() == [2] * len(table)
    assert suppressed_patterns(state, u, 3) == []
    assert len(_suppressed_by_brute_force(state, table, u.dim, 3)) == 40
    assert [p.key for p in suppressed_patterns(state, u, 2)] == \
        _suppressed_by_brute_force(state, table, u.dim, 2)


def test_suppressed_lists_share_the_expansions_multiset_table(monkeypatch):
    # every click count reads the table's own sector table: no call keeps a table
    monkeypatch.setattr(entnet.photonics, "_tables", {})
    state, u = wpe_state(6, 0.2), symmetric_multiport(3)
    table = run_gbsa(state, u)
    kept = dict(entnet.photonics._tables)
    assert [key for key in kept if key[0] == "sectors"] == \
        [("sectors", 8, *((k,) for k in range(7)))]  # single-rail photons
    for clicks in range(7):
        assert _suppressed(table, clicks) == suppressed_patterns(state, u, clicks)
    assert entnet.photonics._tables.keys() == kept.keys()
    assert all(entnet.photonics._tables[key] is kept[key] for key in kept)


def _count_plans(monkeypatch):
    """Record every expansion plan that ``propagate`` builds, by its arguments."""
    builds, plan = [], entnet.photonics._plan
    monkeypatch.setattr(entnet.photonics, "_tables", {})
    monkeypatch.setattr(entnet.photonics, "_plan",
                        lambda *args: builds.append(args) or plan(*args))
    return builds


def test_one_expansion_plan_serves_every_sym2d_port_set_and_sign(monkeypatch):
    # ports, coefficients and the mirror's sign are run-time data, not part of the plan
    builds, inv = _count_plans(monkeypatch), inverse(symmetric_multiport(3))
    inputs = [prepare_swap_input(4, random.Random(ports).choice(_all_signs(4)),
                                 [int(p) for p in ports.split(",")])
              for ports in sorted(_sym2d_swap_record())]
    assert len({entnet.photonics._mirror(*_monomials_and_coeffs(state))[2]
                for state in inputs}) == 2  # both signs are drawn
    for state in inputs:
        propagate(state, inv)
    assert len(builds) == 1
    propagate(inputs[0], inv)
    assert len(builds) == 1
    assert len([key for key in entnet.photonics._tables if key[0] == "plan"]) == 1


def _monomials_and_coeffs(state):
    """``state``'s monomials, coefficients and polarizations, as ``propagate`` reads them."""
    monomials, coeffs = zip(*((fock.monomial(), amp) for _, fock, amp in state.items()))
    return list(monomials), list(coeffs), sorted({m.pol for mono in monomials for m in mono})


def test_a_plan_over_the_budget_is_not_kept(monkeypatch):
    builds, inv = _count_plans(monkeypatch), inverse(symmetric_multiport(3))
    state = prepare_swap_input(6)
    want = _cells_digest(propagate(state, inv))
    assert _cells_digest(propagate(state, inv)) == want
    assert len(builds) == 2 and not any(key[0] == "plan" for key in entnet.photonics._tables)


@pytest.mark.parametrize("children", [1, 40, 3000])
def test_batches_and_chunks_of_any_size_keep_the_bits(monkeypatch, children):
    # a bound of one makes every term its own batch and every cell its own gather, and
    # keeps no plan, so each batch's indices are built when the steps reach it
    monkeypatch.setattr(entnet.photonics, "_BATCH_CHILDREN", children)
    monkeypatch.setattr(entnet.photonics, "_tables", {})
    cases = _pinned_inputs()
    for name in ("tritter+-+", "sym2d-1,2,4,7", "eraser5", "missing-partner", "shared-port"):
        state, u = cases[name]()
        assert _cells_digest(propagate(state, inverse(u))) == _CELLS_BITS[name]


def test_kept_tables_are_read_only(monkeypatch):
    monkeypatch.setattr(entnet.photonics, "_tables", {})
    state, u = prepare_swap_input(4, [1, -1, 1, 1], [1, 3, 5, 8]), symmetric_multiport(3)
    table = run_gbsa(state, u)
    assert entnet.photonics._tables
    assert not any(a.flags.writeable for kept in entnet.photonics._tables.values()
                   for a in kept)
    patterns = table.patterns.copy()
    with pytest.raises(ValueError, match="read-only"):
        table.patterns[table.places[0], 0] += 1
    again = run_gbsa(state, u)
    assert again.patterns is table.patterns  # the kept sector table, handed out again
    assert np.array_equal(again.patterns, patterns)
    assert np.array_equal(again.occupations, table.occupations)


@pytest.mark.parametrize("clicks", [True, 2.5, -1, "3"])
def test_suppressed_patterns_refuse_a_bad_click_count_before_any_work(monkeypatch, clicks):
    calls = _count_expansions(monkeypatch)
    with pytest.raises(ValueError, match="total_clicks must be an integer >= 0"):
        suppressed_patterns(wpe_state(3, 0.2), quarter(), clicks)
    assert calls == []


def test_aggregate_quarter():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    thr = aggregate_heralding(rows, THRESHOLD, HeraldRule(4, distinct_detectors_only=True))
    assert thr == pytest.approx(7 / 32, abs=1e-9)
    nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4))
    assert nr == pytest.approx(7 / 8, abs=1e-9)


@pytest.mark.parametrize("model, distinct, accepted", [
    (THRESHOLD, False, [8, 60, 144, 46, 0, 0, 0, 0]),
    (THRESHOLD, True, [0, 0, 0, 46, 0, 0, 0, 0]),
    (NUMBER_RESOLVED, False, [0, 0, 0, 258, 0, 0, 0, 0]),
    (NUMBER_RESOLVED, True, [0, 0, 0, 46, 0, 0, 0, 0]),
])
def test_accepts_counts_clicks_read_from_the_pattern(model, distinct, accepted):
    rows = run_gbsa(prepare_swap_input(4), quarter())
    for m in range(1, 9):
        rule = HeraldRule(m, distinct_detectors_only=distinct)
        mask = entnet.herald._accepted(rows, model, rule)
        kept = 0
        for r, got in zip(rows, mask.tolist(), strict=True):
            counts = [k for _, k in r.pattern.key]
            clicks = len(counts) if model == THRESHOLD else sum(counts)
            want = clicks == m and not (distinct and max(counts) > 1)
            assert got == want, (r.pattern.label(), m)
            kept += want
        assert kept == accepted[m - 1]


def _count_walked_rows(monkeypatch):
    """Record the number of rows each table walk labels."""
    walks = []
    walk = entnet.herald.entanglement_classes_csr
    monkeypatch.setattr(entnet.herald, "entanglement_classes_csr",
                        lambda n, offsets, *cols: walks.append(len(offsets) - 1)
                        or walk(n, offsets, *cols))
    return walks


def test_aggregates_reuse_row_classes(monkeypatch):
    rows = run_gbsa(prepare_swap_input(4), quarter())
    walks = _count_walked_rows(monkeypatch)
    for row in rows:
        row.state_class()
    assert walks == [72] and len(rows) == 258  # one walk, one row per orbit
    assert rows.codes is not None and len(rows.labels) == len(rows)
    walks.clear()
    thr = aggregate_heralding(rows, THRESHOLD, HeraldRule(4, distinct_detectors_only=True))
    nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4))
    assert sum(walks) == 0
    assert (thr, nr) == (pytest.approx(7 / 32, abs=1e-9), pytest.approx(7 / 8, abs=1e-9))


def test_tables_are_returned_unlabelled():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    kept = wpe_herald(wpe_state(4, 0.2), quarter(), 2)
    assert rows and kept
    assert all(table.codes is None and table.labels is None for table in (rows, kept))


def test_default_aggregate_as_first_label_query_walks_the_whole_table_once(monkeypatch):
    rows = run_gbsa(prepare_swap_input(4), quarter())
    walks = _count_walked_rows(monkeypatch)
    rule = HeraldRule(4, distinct_detectors_only=True)
    assert aggregate_heralding(rows, THRESHOLD, rule) == pytest.approx(7 / 32, abs=1e-9)
    accepted = entnet.herald._accepted(rows, THRESHOLD, rule)
    assert 0 < accepted.sum() < len(rows) == 258
    assert walks == [72]  # one walk over the orbits' walked rows
    assert rows.codes is not None and len(rows.labels) == len(rows)
    assert aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4)) == \
        pytest.approx(7 / 8, abs=1e-9)
    assert walks == [72]


@pytest.mark.parametrize("table, orbits, n_rows", [
    (lambda: run_gbsa(prepare_swap_input(4), quarter()), 72, 258),
    (lambda: wpe_herald(wpe_state(5, 0.3), symmetric_multiport(3), 2), 42, 280),
], ids=["swap", "eraser"])
def test_first_state_class_labels_the_whole_table_in_one_walk(monkeypatch, table, orbits,
                                                              n_rows):
    rows = table()
    walks = _count_walked_rows(monkeypatch)
    first = rows[len(rows) // 2].state_class()
    assert walks == [orbits] and len(rows) == n_rows  # one row per orbit
    assert rows.codes is not None and len(rows.labels) == len(rows)
    labels = [row.state_class() for row in rows]
    assert walks == [orbits]
    assert labels[len(rows) // 2] == first


def _full_walk_labels(table):
    """Labels of every row of ``table`` from one walk of its whole CSR block."""
    return LABELS[entanglement_classes_csr(table.n_atoms, table.offsets, table.atoms,
                                           table.amplitudes)].tolist()


def _phased_eraser():
    return wpe_state(6, 0.25, [0.3 * k for k in range(6)])


def _port_stepping_input():
    """Four nodes whose bit picks the port: H into port 2k + 1 for 0, V into 2k + 2 for 1."""
    return _product_state(0.25, [((1, Mode(2 * k + 1, "H")),
                                  ((-1) ** k * 1j, Mode(2 * k + 2, "V"))) for k in range(4)])


def test_inputs_whose_port_counts_step_per_qubit_keep_every_symmetry(monkeypatch):
    # each term's port counts are the first term's plus e_(2k+2) - e_(2k+1) per set bit k
    state, u = _port_stepping_input(), symmetric_multiport(3)
    assert len(_label_symmetries(state, u)) == 7
    rows = run_gbsa(state, u)
    want = _full_walk_labels(rows)
    walks = _count_walked_rows(monkeypatch)
    assert [row.state_class() for row in rows] == want
    assert walks == [408] and len(rows) == 3012


@pytest.mark.parametrize("tables", [
    lambda: [run_gbsa(prepare_swap_input(4, [1, -1, -1, 1], [2, 3, 5, 8]),
                      symmetric_multiport(3))],
    lambda: [subnetwork_swap(5, symmetric_multiport(3))],
    lambda: _swap_tables_under_every_sign(3, tritter()),
    lambda: _swap_tables_under_every_sign(4, quarter()),
    lambda: [run_gbsa(_phased_eraser(), symmetric_multiport(3))],
    lambda: [wpe_herald(_phased_eraser(), symmetric_multiport(3), 3)],
], ids=["sym2d-m4-signs", "sym2d-m5", "tritter", "quarter", "eraser6", "eraser6-herald3"])
def test_orbit_labels_match_a_full_walk(monkeypatch, tables):
    for rows in tables():
        want = _full_walk_labels(rows)
        walks = _count_walked_rows(monkeypatch)
        assert [row.state_class() for row in rows] == want
        assert len(walks) == 1 and walks[0] < len(rows)  # the orbits were used
        monkeypatch.undo()


@pytest.mark.parametrize("rows", [
    lambda: (prepare_swap_input(3, [1, -1, 1], [1, 2, 4]),
             MultiportMatrix(4, _haar_unitary(np.random.default_rng(17), 4))),
    # the |11> term's photons both leave port 1, so under the port swap
    # (d2 = (i, -i)) the term phases are (1, 1, 1, -1): no phase per qubit
    lambda: (HybridState(2, {
        ("00", ((Mode(1, "H"), 1), (Mode(2, "H"), 1))): 0.5,
        ("01", ((Mode(1, "H"), 1), (Mode(2, "V"), 1))): 0.5,
        ("10", ((Mode(1, "V"), 1), (Mode(2, "H"), 1))): 0.5,
        ("11", ((Mode(1, "V"), 2),)): 0.5}), beam_splitter()),
], ids=["haar", "unfactored-phases"])
def test_tables_without_label_symmetries_walk_every_row(monkeypatch, rows):
    state, u = rows()
    assert _label_symmetries(state, u) == []
    rows = run_gbsa(state, u)
    want = _full_walk_labels(rows)
    walks = _count_walked_rows(monkeypatch)
    assert [row.state_class() for row in rows] == want
    assert walks == [len(rows)]


def test_patterns_wider_than_int64_walk_one_row_per_orbit(monkeypatch):
    # 3 photons on the 32 modes of the 16-port butterfly, whose keys with one
    # digit per mode would need 64 bits: the per-polarization ranks fit
    state, u = prepare_swap_input(3, [1, -1, 1], [1, 7, 16]), symmetric_multiport(4)
    assert len(_label_symmetries(state, u)) == 15
    rows = run_gbsa(state, u)
    want = _full_walk_labels(rows)
    walks = _count_walked_rows(monkeypatch)
    assert [row.state_class() for row in rows] == want
    assert len(walks) == 1 and walks[0] < len(rows)


def _walked_by_brute_force(table, symmetries):
    """Each row's walked row: the first row whose pattern one of ``symmetries`` maps
    onto the row's own, or the row itself when the two have different numbers of cells."""
    pols = len({m.pol for m in table.modes})
    dim, sizes, first, walked = len(table.modes) // pols, np.diff(table.offsets), {}, []
    for i, counts in enumerate(table.occupations.tolist()):
        ports = [tuple(counts[p * pols:(p + 1) * pols]) for p in range(dim)]
        images = [tuple(ports[list(perm).index(p)] for p in range(dim))
                  for perm in [range(dim), *symmetries]]  # port k's photons to perm[k]
        j = first.setdefault(min(images), i)
        walked.append(j if sizes[j] == sizes[i] else i)
    return walked


@pytest.mark.parametrize("table", [
    lambda: (prepare_swap_input(4, [1, -1, -1, 1], [2, 3, 5, 8]), symmetric_multiport(3),
             run_gbsa),
    lambda: (_port_stepping_input(), symmetric_multiport(3), run_gbsa),
    lambda: (_phased_eraser(), symmetric_multiport(3), lambda s, u: wpe_herald(s, u, 3)),
    lambda: (prepare_swap_input(3, [1, -1, 1], [1, 2, 4]),
             MultiportMatrix(4, _haar_unitary(np.random.default_rng(17), 4)), run_gbsa),
], ids=["sym2d-m4-signs", "port-stepping", "eraser6-herald3", "haar"])
def test_orbits_match_a_brute_force_search_of_the_images(table):
    state, u, build = table()
    table = build(state, u)
    walked, orbit = table.orbits()
    assert walked[orbit].tolist() == _walked_by_brute_force(table, _label_symmetries(state, u))


def test_orbit_keys_are_built_once_per_sector_table_and_symmetry_set(monkeypatch):
    monkeypatch.setattr(entnet.photonics, "_tables", {})
    builds, sector_tables = [], []
    for name, seen in (("_least_keys", builds), ("_sector_table", sector_tables)):
        monkeypatch.setattr(entnet.photonics, name,
                            lambda *args, f=getattr(entnet.photonics, name), seen=seen:
                            seen.append(args) or f(*args))
    u = symmetric_multiport(3)
    for signs, ports in (([1, -1, 1, 1], [1, 3, 5, 8]), ([-1, 1, 1, -1], [2, 4, 6, 7])):
        state = prepare_swap_input(4, signs, ports)
        assert len(_label_symmetries(state, u)) == 7
        run_gbsa(state, u)
    assert (len(builds), len(sector_tables)) == (1, 1)
    # a 6-node sector table is too large to keep: its keys are built from it, not a rebuild
    run_gbsa(prepare_swap_input(6), u)
    assert (len(builds), len(sector_tables)) == (2, 2)
    assert ("sectors", 8, *((h, 6 - h) for h in range(7))) not in entnet.photonics._tables


def test_label_symmetries_survive_take():
    state, u = _phased_eraser(), symmetric_multiport(3)
    assert len(_label_symmetries(state, u)) == 7
    rows = run_gbsa(state, u)
    taken = np.flatnonzero(rows.n_detectors == 3)
    kept = wpe_herald(state, u, 3)
    assert kept.patterns is rows.patterns  # one kept sector table
    assert np.array_equal(kept.places, rows.places[taken])
    assert np.array_equal(kept.orbit_keys, rows.orbit_keys[taken])
    assert len(np.unique(kept.orbit_keys)) < len(kept)


def _counted_clicks(table):
    """The click columns as the reductions of the table's occupation matrix give them."""
    occupations = table.occupations
    return [(occupations > 0).sum(axis=1).tolist(), occupations.sum(axis=1).tolist(),
            occupations.max(axis=1, initial=0).tolist()]


def test_click_columns_are_gathered_from_the_sector_tables_counts(monkeypatch):
    monkeypatch.setattr(entnet.photonics, "_tables", {})
    u = symmetric_multiport(3)
    state = prepare_swap_input(4, [1, -1, 1, 1], [1, 2, 4, 7])
    kept = run_gbsa(state, u)
    assert run_gbsa(state, u).patterns is kept.patterns  # a kept sector table
    unkept = subnetwork_swap(6, u)
    assert ("sectors", 8, *((h, 6 - h) for h in range(7))) not in entnet.photonics._tables
    taken = kept.take(np.flatnonzero(kept.n_detectors == 3)[::-1])
    row = kept[len(kept) // 2]
    hand_built = dataclasses.replace(row, probability=0.5)._table
    for table in (kept, unkept, taken, hand_built):
        assert [table.n_detectors.tolist(), table.n_photons.tolist(),
                table.max_per_detector.tolist()] == _counted_clicks(table)
        assert "occupations" not in vars(table)  # the matrix is gathered only when read
    assert len(taken) and set(taken.n_detectors.tolist()) == {3}
    assert (hand_built.n_photons.tolist(), hand_built.n_detectors.tolist()) == \
        ([row.n_photons], [row.n_detectors])
    clicks = propagate(state, inverse(u)).clicks  # the kept counts, one per pattern
    assert [len(c) for c in clicks] == [len(kept.patterns)] * 3
    assert not any(c.flags.writeable for c in clicks)
    with pytest.raises(ValueError, match="read-only"):
        clicks[1][0] = 9


def _orbits_by_unique(table):
    """The orbit column as one ``np.unique`` of the orbit numbers, with the lone guard."""
    _, first, orbit = np.unique(table.orbit_keys, return_index=True, return_inverse=True)
    sizes = np.diff(table.offsets)
    lone = np.flatnonzero(sizes != sizes[first][orbit])
    orbit[lone] = len(first) + np.arange(len(lone))
    return np.concatenate((first, lone)).tolist(), orbit.tolist()


def _every_seventh_reversed(table):
    return table.take(np.arange(len(table))[::-7])


def _one_orbit(table):
    """``table`` with every row given orbit number 0, so rows of other cell counts are lone."""
    table.orbit_keys = np.zeros(len(table), np.uint8)
    return table


@pytest.mark.parametrize("table", [
    lambda: run_gbsa(prepare_swap_input(4, [1, -1, -1, 1], [2, 3, 5, 8]),
                     symmetric_multiport(3)),
    lambda: run_gbsa(prepare_swap_input(3, [1, -1, 1], [1, 2, 4]),
                     MultiportMatrix(4, _haar_unitary(np.random.default_rng(17), 4))),
    lambda: _every_seventh_reversed(run_gbsa(_phased_eraser(), symmetric_multiport(3))),
    lambda: run_gbsa(prepare_swap_input(4), quarter()).take([]),
    lambda: _one_orbit(run_gbsa(prepare_swap_input(4), quarter())),
], ids=["symmetries", "no-symmetries", "take-reversed", "empty", "lone-rows"])
def test_orbits_give_the_partition_of_one_unique_of_the_orbit_numbers(table):
    table = table()
    walked, orbit = table.orbits()
    assert (walked.tolist(), orbit.tolist()) == _orbits_by_unique(table)
    assert all(0 <= k < len(table.patterns) for k in table.orbit_keys.tolist())


class _Watched(np.ndarray):
    """An occupation matrix that records each ufunc reduction along its mode axis."""

    reductions: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if method == "reduce" and kwargs.get("axis") in (1, -1, (1,), (-1,)):
            _Watched.reductions.append(ufunc.__name__)
        plain = [x.view(np.ndarray) if isinstance(x, _Watched) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Watched) else x
                                  for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        # an elementwise result, such as ``patterns > 0``, is watched in turn
        if method == "__call__" and out is None and isinstance(result, np.ndarray):
            return result.view(_Watched)
        return result


def test_warm_swap_tables_are_built_and_labelled_without_sorts_or_row_reductions(monkeypatch):
    state, u = prepare_swap_input(4, [1, -1, 1, 1], [1, 2, 4, 7]), symmetric_multiport(3)
    run_gbsa(state, u)  # warm: the plan, the sector table, its counts and orbit numbers are kept
    calls, expanded = Counter(), []
    for name in ("unique", "argsort", "lexsort", "sort", "bincount"):
        monkeypatch.setattr(np, name, lambda *args, real=getattr(np, name), name=name, **kw:
                            calls.update([name]) or real(*args, **kw))
    propagated = entnet.herald.propagate

    def watched(*args):  # the cells, with an occupation matrix that records reductions
        before = calls.copy()
        cells = propagated(*args)
        expanded.append(calls - before)
        return cells._replace(occupations=cells.occupations.view(_Watched))

    monkeypatch.setattr(entnet.herald, "propagate", watched)
    monkeypatch.setattr(_Watched, "reductions", [])
    rows = run_gbsa(state, u)
    labels = [row.state_class() for row in rows]
    aggregate_heralding(rows, THRESHOLD, HeraldRule(4, distinct_detectors_only=True))
    aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4))
    # propagate sorts nothing: a bincount pair per photon step, and the cells are gathered
    assert expanded == [Counter(bincount=2 * 4)]
    assert (calls["unique"], _Watched.reductions) == (0, [])
    assert len(labels) == len(rows) == 3516 and isinstance(rows.patterns, _Watched)
    rows.occupations.max(axis=1)  # the watch sees a reduction when there is one
    assert _Watched.reductions == ["maximum"]


def test_aggregating_a_table_reads_its_columns(monkeypatch):
    rows = run_gbsa(prepare_swap_input(4), quarter())
    queries, reads = [], []
    state_class, probability = ProjectionRow.state_class, ProjectionRow.probability
    monkeypatch.setattr(ProjectionRow, "state_class",
                        lambda self: queries.append(self) or state_class(self))
    monkeypatch.setattr(ProjectionRow, "probability",
                        property(lambda self: reads.append(self) or probability.fget(self)))
    thr = aggregate_heralding(rows, THRESHOLD, HeraldRule(4, distinct_detectors_only=True))
    nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4))
    assert len(queries) == 1 and reads == []
    assert (thr, nr) == (pytest.approx(7 / 32, abs=1e-9), pytest.approx(7 / 8, abs=1e-9))
    assert nr == sum(r.probability for r in rows if r.state_class() in GENUINE_CLASSES)


def test_a_table_is_the_sequence_of_its_rows():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    assert isinstance(rows, DetectionTable) and len(rows) == len(rows.probabilities) == 258
    assert all(rows[i] == rows[i] for i in (0, 17, -1))  # a view of the same row
    assert rows[-1] == rows[257]
    assert [row.probability for row in rows] == rows.probabilities
    assert [*rows] == [rows[i] for i in range(258)]
    assert rows[:3] == (rows[0], rows[1], rows[2])  # a slice is a plain tuple
    with pytest.raises(IndexError):
        rows[258]
    for table in (subnetwork_swap(3, quarter()), wpe_herald(wpe_state(4, 0.2), quarter(), 2),
                  rows.take([3, 1])):
        assert isinstance(table, DetectionTable)
        assert [row.probability for row in table] == table.probabilities


def test_rows_are_equal_when_they_are_the_same_index_of_one_table():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    for i in (0, 17, -1, -258):
        assert rows[i] is not rows[i]  # each read makes a new view
        assert rows[i] == rows[i] and hash(rows[i]) == hash(rows[i])
    assert rows[-258] == rows[0] and hash(rows[-258]) == hash(rows[0])
    assert rows[0] != rows[1] and rows[0] != "row"
    assert len({*rows, *rows}) == 258


def test_a_slice_is_a_tuple_of_views_and_bad_indices_raise():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    assert rows[5:8] == (rows[5], rows[6], rows[7]) and type(rows[5:8]) is tuple
    assert rows[::-100] == (rows[257], rows[157], rows[57])
    assert rows[300:] == ()
    for index in (258, -259, np.int64(258)):
        with pytest.raises(IndexError):
            rows[index]
    assert rows[np.int64(3)] == rows[3]


def test_rows_of_different_tables_are_unequal():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    again = run_gbsa(prepare_swap_input(4), quarter())
    taken = rows.take(range(len(rows)))
    for other in (again, taken):
        assert other.probabilities == rows.probabilities
        assert all(a != b for a, b in zip(rows, other))


def _row_columns(table, i):
    """Row ``i``'s pattern, probability, state, place and orbit number."""
    row = table[i]
    return (row.pattern, row.probability, row.state.amplitudes, int(table.places[i]),
            int(table.orbit_keys[i]))


def test_take_counts_negative_indices_from_the_end():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    taken = rows.take([-2, -1, 0, -len(rows)])
    assert [_row_columns(taken, i) for i in range(4)] == \
        [_row_columns(rows, i) for i in (len(rows) - 2, len(rows) - 1, 0, 0)]
    assert taken[1].state.amplitudes == {"1111": 1.0} != taken[0].state.amplitudes


def test_take_picks_the_rows_of_a_boolean_mask():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    mask = rows.n_detectors == 3
    taken = rows.take(mask)
    assert len(taken) == mask.sum() > 0
    assert [_row_columns(taken, i) for i in range(len(taken))] == \
        [_row_columns(rows, i) for i in np.flatnonzero(mask).tolist()]


@pytest.mark.parametrize("index", [258, -259])
def test_take_refuses_an_index_out_of_range(index):
    rows = run_gbsa(prepare_swap_input(4), quarter())
    with pytest.raises(IndexError):
        rows.take([0, index])


def test_a_table_and_its_aggregates_make_one_view(monkeypatch):
    made = []
    view = DetectionTable._row
    monkeypatch.setattr(DetectionTable, "_row", lambda self, i: made.append(i) or view(self, i))
    rows = run_gbsa(prepare_swap_input(4), quarter())
    thr_rule = HeraldRule(4, distinct_detectors_only=True)
    thr = aggregate_heralding(rows, THRESHOLD, thr_rule)
    nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4))
    assert made == [int(entnet.herald._accepted(rows, THRESHOLD, thr_rule).argmax())]
    assert (thr, nr) == (pytest.approx(7 / 32, abs=1e-9), pytest.approx(7 / 8, abs=1e-9))


def test_a_row_outlives_its_table_reference():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    row, want = rows[100], rows.probabilities[100]
    del rows
    assert row.probability == want
    assert row.state_class() == entanglement_classes([QubitState(4, row.state.amplitudes)])[0]
    assert row._table.labels[100] == row.state_class()


def test_a_dropped_table_is_freed_without_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        rows = run_gbsa(prepare_swap_input(4), quarter())
        assert [row.state_class() for row in rows] and rows[5].state.amplitudes
        del rows
        assert gc.collect() == 0  # no reference cycle between the table and its rows
    finally:
        gc.enable()


def test_aggregate_refuses_anything_but_the_rows_of_one_table():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    for loose in ([], rows[:10], [*rows], [dataclasses.replace(rows[5], probability=0.5)]):
        with pytest.raises(TypeError, match="DetectionTable"):
            aggregate_heralding(loose, NUMBER_RESOLVED, HeraldRule(4))


def test_a_single_cell_row_has_the_rounded_square_as_probability():
    # the "0" term's photon leaves alone: its rows have one cell each, of
    # magnitude h = 0.226 / sqrt(2), whose x * x and libm's pow(x, 2) differ
    h1, h2 = Mode(1, "H"), Mode(2, "H")
    state = HybridState(1, {("0", ((h1, 1),)): 0.226,
                            ("1", ((h1, 1), (h2, 1))): math.sqrt(1 - 0.226 ** 2)})
    row = run_gbsa(state, beam_splitter())[0]
    cell = propagate(state, inverse(beam_splitter())).amplitudes[0]
    h = math.hypot(cell.real, cell.imag)
    assert row.pattern.key == ((h1, 1),) and len(row.state.amplitudes) == 1
    assert row.probability == h * h != h ** 2
    assert row.probability.hex() == "0x1.a26a22b3892edp-6"


def test_run_gbsa_refuses_an_unnormalized_input(monkeypatch):
    calls = []
    monkeypatch.setattr(entnet.herald, "propagate", lambda *args: calls.append(args))
    h1h2 = ((Mode(1, "H"), 1), (Mode(2, "H"), 1))
    with pytest.raises(ValueError, match="norm squared"):
        run_gbsa(HybridState(2, {("00", h1h2): 3.0}), quarter())
    assert calls == []


def test_bool_port_is_refused_before_any_term_is_expanded(monkeypatch):
    calls = []
    monkeypatch.setattr(entnet.photonics, "_expand", lambda *args: calls.append(args))
    with pytest.raises(DimensionMismatch) as err:
        run_gbsa(prepare_swap_input(2, ports=[True, 2]), quarter())
    assert err.value.port is True and calls == []


def test_nan_multiport_is_refused_before_any_table():
    with pytest.raises(ValueError, match="not unitary"):
        run_gbsa(prepare_swap_input(2), MultiportMatrix(2, [[math.nan, 0], [0, 1]]))


def test_table_norm_check_refuses_a_nan_amplitude(monkeypatch):
    real = entnet.herald.propagate

    def poisoned(state, inv):
        out = real(state, inv)
        out.amplitudes[0] = complex(math.nan, 0.0)
        return out

    monkeypatch.setattr(entnet.herald, "propagate", poisoned)
    with pytest.raises(ValueError, match="cannot be normalized"):
        run_gbsa(prepare_swap_input(2), beam_splitter())


def test_propagate_keeps_nan_cells_for_the_norm_check(monkeypatch):
    # a NaN sum is never below MERGE_TOL, so it survives each photon step and
    # the cell check, and run_gbsa refuses the table (any matrix-like inverse
    # will do)
    inv = SimpleNamespace(dim=3, entries=np.array([[math.nan, 1, math.nan], [0, 1, 0],
                                                   [0, 0, 1]], complex))
    state = HybridState(1, {("0", ((Mode(1, "H"), 1),)): 1.0})
    cells = propagate(state, inv)
    assert len(cells.amplitudes) == 3 and np.isnan(cells.amplitudes).sum() == 2
    monkeypatch.setattr(entnet.herald, "inverse", lambda u: inv)
    with pytest.raises(ValueError, match="cannot be normalized"):
        run_gbsa(state, tritter())


def _assert_labels_match_loose_walk(rows):
    loose = [QubitState(row.state.n_qubits, row.state.amplitudes) for row in rows]
    assert [row.state_class() for row in rows] == entanglement_classes(loose)


def test_table_labels_match_the_loose_walk_on_the_eight_node_herald(herald_8):
    heralded = herald_8
    assert len(heralded) == 2128
    _assert_labels_match_loose_walk(heralded)


def test_table_labels_match_the_loose_walk_across_blocks():
    rows = subnetwork_swap(5, symmetric_multiport(3))
    assert len(rows) == 15056  # many dense blocks in each Hamming-weight sector
    _assert_labels_match_loose_walk(rows)


def _reference_label(state):
    """Label from ``reduced_purity`` on every bipartition, plus the 3-qubit tangle."""
    n = state.n_qubits
    bound = (1 - PURITY_TOL) * sum(abs(a) ** 2 for a in state.amplitudes.values()) ** 2
    pure = [reduced_purity(state, cut) > bound
            for size in range(1, n // 2 + 1) for cut in itertools.combinations(range(n), size)
            if 2 * size < n or cut[0] == 0]  # each bipartition once
    if all(pure[:n]):  # the single qubits come first (one of them for n = 2)
        return "product"
    if any(pure):
        return "biseparable"
    if n == 3:
        return "GHZ-class" if three_tangle(state) > TANGLE_TOL else "W-class"
    return "entangled"


def _swap_tables_under_every_sign(n, u):
    for signs in itertools.product((1, -1), repeat=n):
        yield run_gbsa(prepare_swap_input(n, signs=list(signs)), u)


@pytest.mark.parametrize("tables", [
    lambda: [subnetwork_swap(4, symmetric_multiport(3))],
    lambda: _swap_tables_under_every_sign(3, tritter()),
    lambda: _swap_tables_under_every_sign(4, quarter()),
], ids=["sym2d-m4", "tritter", "quarter"])
def test_table_labels_match_the_bipartition_reference(tables):
    for rows in tables():
        assert [row.state_class() for row in rows] == \
            [_reference_label(row.state) for row in rows]


def test_eight_node_labels_match_the_bipartition_reference(eraser_8, herald_8):
    for table in (eraser_8[1], herald_8):
        sample = table[::32]  # the first read labels the whole table
        assert [row.state_class() for row in sample] == \
            [_reference_label(row.state) for row in sample]


def test_walks_build_no_dense_state_vectors(monkeypatch):
    tables = [run_gbsa(prepare_swap_input(3), tritter()),
              run_gbsa(prepare_swap_input(4), quarter()),
              wpe_herald(wpe_state(5, 0.3), symmetric_multiport(3), 2)]
    rng = np.random.default_rng(5)
    mixed = [ghz_basis_state(1, "-", 4), QubitState.from_vector(
        rng.normal(size=2 ** 4) + 1j * rng.normal(size=2 ** 4), 4, normalize=True)]
    built = []
    vector = QubitState.vector
    monkeypatch.setattr(QubitState, "vector", lambda self: built.append(self) or vector(self))
    for rows in tables:
        rows[len(rows) // 2].state_class()
        assert rows.codes is not None and len(rows.labels) == len(rows)
        entanglement_classes([QubitState(row.state.n_qubits, row.state.amplitudes)
                              for row in rows])
    entanglement_classes(mixed)
    assert built == []


def test_eight_qubit_walk_memory_does_not_grow_with_the_table(eraser_8):
    states = [row.state for row in eraser_8[1]]
    assert len(states) == 7270

    def traced_peak(count):
        fresh = [QubitState(s.n_qubits, s.amplitudes) for s in states[:count]]
        tracemalloc.start()
        try:
            entanglement_classes(fresh)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(300)  # the first rows span every weight sector: build their cached plans
    assert traced_peak(len(states)) <= 2 * traced_peak(300)


def test_hand_built_row_is_a_table_of_its_own(monkeypatch):
    rows = run_gbsa(prepare_swap_input(4), quarter())
    row = rows[len(rows) // 2]
    copy = dataclasses.replace(row, probability=0.25)
    assert (copy.pattern, copy.probability) == (row.pattern, 0.25)
    assert copy.state.amplitudes == row.state.amplitudes
    assert copy._table.labels is None  # a hand-built row starts unlabelled
    assert (copy.n_photons, copy.n_detectors, copy.max_per_detector, copy.dicke_fidelity) == \
        (row.n_photons, row.n_detectors, row.max_per_detector, None)
    walks = _count_walked_rows(monkeypatch)
    assert copy.state_class() == entanglement_classes(
        [QubitState(4, row.state.amplitudes)])[0]
    assert walks == [1]
    with pytest.raises(TypeError):
        aggregate_heralding([copy], NUMBER_RESOLVED, HeraldRule(4))


def test_aggregate_tritter():
    rows = run_gbsa(prepare_swap_input(3), tritter())
    thr = aggregate_heralding(rows, THRESHOLD, HeraldRule(3, distinct_detectors_only=True))
    assert thr == pytest.approx(1 / 4, abs=1e-9)
    nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(3))
    assert nr == pytest.approx(3 / 4, abs=1e-9)


def test_aggregate_two_port_analyser():
    rows = run_gbsa(prepare_swap_input(2), beam_splitter())
    thr = aggregate_heralding(rows, THRESHOLD, HeraldRule(2, distinct_detectors_only=True))
    assert thr == pytest.approx(1 / 2, abs=1e-9)
    # number resolution cannot help the two-port analyser
    nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(2))
    assert nr == pytest.approx(1 / 2, abs=1e-9)
    kinds = {r.state_class() for r in rows if r.max_per_detector == 1}
    assert kinds == {"entangled"}


def test_two_port_heralds_both_exchange_states():
    rows = rows_by_label(run_gbsa(prepare_swap_input(2), beam_splitter()))
    psi_plus = QubitState(2, {"01": 1 / S2, "10": 1 / S2})
    psi_minus = QubitState(2, {"01": 1 / S2, "10": -1 / S2})
    hits = {"psi+": 0.0, "psi-": 0.0}
    for label, r in rows.items():
        if r.max_per_detector > 1:
            continue
        if fidelity(r.state, psi_plus) > 1 - 1e-9:
            hits["psi+"] += r.probability
        elif fidelity(r.state, psi_minus) > 1 - 1e-9:
            hits["psi-"] += r.probability
    assert hits["psi+"] == pytest.approx(1 / 4, abs=1e-9)
    assert hits["psi-"] == pytest.approx(1 / 4, abs=1e-9)


def test_tritter_distinct_rows_are_product_or_w_class():
    # every non-product distinct-3 row is genuinely tripartite (W-class), so
    # the genuine aggregate counts every entangled one
    rows = run_gbsa(prepare_swap_input(3), tritter())
    classes = {r.state_class() for r in rows if r.max_per_detector == 1}
    assert classes == {"product", "W-class"}


def test_subnetwork_swap_pair_through_quarter():
    rows = subnetwork_swap(2, quarter())
    assert sum(r.probability for r in rows) == pytest.approx(1.0, abs=1e-9)
    agg = aggregate_heralding(rows, THRESHOLD, HeraldRule(2, distinct_detectors_only=True))
    assert agg == pytest.approx(1 / 2, abs=1e-9)


def test_subnetwork_swap_through_eight_port():
    eight = symmetric_multiport(3)
    pair = subnetwork_swap(2, eight)
    agg2 = aggregate_heralding(pair, THRESHOLD, HeraldRule(2, distinct_detectors_only=True))
    assert agg2 == pytest.approx(1 / 2, abs=1e-9)
    triple = subnetwork_swap(3, eight)
    assert sum(r.probability for r in triple) == pytest.approx(1.0, abs=1e-9)
    agg3 = aggregate_heralding(triple, THRESHOLD, HeraldRule(3, distinct_detectors_only=True))
    assert agg3 == pytest.approx(3 / 16, abs=1e-9)
    assert agg3 > 0


def test_subnetwork_pair_through_bare_splitter_is_standard_analyser():
    rows = subnetwork_swap(2, beam_splitter())
    agg = aggregate_heralding(rows, THRESHOLD, HeraldRule(2, distinct_detectors_only=True))
    assert agg == pytest.approx(1 / 2, abs=1e-9)


def test_subnetwork_full_network_equals_plain_swap():
    full = subnetwork_swap(4, quarter())
    plain = run_gbsa(prepare_swap_input(4), quarter())
    assert [(r.pattern.label(), r.probability) for r in full] == \
        [(r.pattern.label(), r.probability) for r in plain]


def test_subnetwork_swap_guards():
    with pytest.raises(ValueError):
        subnetwork_swap(5, quarter())
    with pytest.raises(ValueError):
        subnetwork_swap(2, quarter(), ports=[1, 7])
    with pytest.raises(ValueError):  # port 0 must not alias port 4
        subnetwork_swap(2, quarter(), ports=[0, 1])
    with pytest.raises(ValueError, match="one per node"):
        subnetwork_swap(2, quarter(), ports=[1, 1, 2])


@pytest.mark.parametrize("perm", [(2, 1, 3), (2, 3, 1)])
def test_permutation_covariance(perm):
    base = rows_by_label(run_gbsa(prepare_swap_input(3), tritter()))
    moved = rows_by_label(run_gbsa(prepare_swap_input(3, ports=list(perm)), tritter()))
    assert set(base) == set(moved)
    for label, row in moved.items():
        ref = base[label]
        assert row.probability == pytest.approx(ref.probability, abs=1e-12)
        relabeled = {}
        for bits, amp in ref.state.amplitudes.items():
            # node k now feeds port perm[k], so its bit moves with that port
            new = "".join(bits[perm[k] - 1] for k in range(3))
            relabeled[new] = amp
        assert fidelity(row.state, QubitState(3, relabeled)) == pytest.approx(1.0, abs=1e-9)


def test_detector_and_rule_validation():
    with pytest.raises(ValueError):
        DetectorModel("analog")
    for clicks in (0, 2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="required_clicks"):
            HeraldRule(clicks)
    assert HeraldRule(np.int64(2)).required_clicks == 2


def test_aggregate_with_no_accepted_row_is_a_float_zero():
    rows = run_gbsa(prepare_swap_input(2), beam_splitter())
    empty = wpe_herald(wpe_state(2, 0.2), quarter(), 3)  # 2 nodes fire at most 2 detectors
    assert len(empty) == 0 and _label_symmetries(wpe_state(2, 0.2), quarter())
    empty.classify()  # its orbits are empty too
    assert (empty.codes.tolist(), empty.labels) == ([], [])
    for got in (aggregate_heralding(rows, THRESHOLD, HeraldRule(3)),
                aggregate_heralding(empty, NUMBER_RESOLVED, HeraldRule(2))):
        assert got == 0.0 and type(got) is float


# ---------------------------------------------------------------- which-path erasing

def test_wpe_state_single_node():
    st = wpe_state(1, 0.3, phases=[0.5])
    amps = {atoms: amp for (atoms, _), amp in st.terms.items()}
    assert amps["0"] == pytest.approx(math.sqrt(0.7))
    assert amps["1"] == pytest.approx(math.sqrt(0.3) * complex(math.cos(0.5), math.sin(0.5)))


def test_wpe_state_sector_weights():
    probs = wpe_sector_probabilities(wpe_state(2, 0.06))
    assert probs[1] == pytest.approx(2 * 0.06 * 0.94, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_wpe_state_sectors_are_collective_states():
    n, p = 3, 0.2
    st = wpe_state(n, p)
    for m in range(n + 1):
        amps = {}
        for (atoms, _), amp in st.terms.items():
            if atoms.count("1") == m:
                amps[atoms] = amp
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        sector = QubitState(n, {b: a / norm for b, a in amps.items()})
        assert fidelity(sector, dicke_state(m, n)) == pytest.approx(1.0, abs=1e-12)


def test_wpe_fidelity_sim_checks_the_node_count_first():
    for sim in (wpe_fidelity_sim, wpe_rate_sim):
        with pytest.raises(ValueError, match="n_nodes must be in 1..8, got 0"):
            sim(0, 0.1, 1)
        for m in (-1, 0, 4, 9):
            with pytest.raises(ValueError, match=rf"need 1 <= m <= 3, got m={m}"):
                sim(3, 0.1, m)


@pytest.mark.parametrize("n", [True, 2.0, "2", None])
def test_input_builders_refuse_a_node_count_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match="n_nodes must be in 2..8"):
        prepare_swap_input(n)
    with pytest.raises(ValueError, match="n_nodes must be in 1..8"):
        wpe_state(n, 0.2)
    assert len(prepare_swap_input(np.int64(2)).terms) == 4
    assert len(wpe_state(np.int64(2), 0.2).terms) == 4


def test_wpe_state_guards():
    with pytest.raises(ValueError):
        wpe_state(0, 0.1)
    with pytest.raises(ValueError):
        wpe_state(2, 0.0)
    with pytest.raises(ValueError):
        wpe_state(2, 0.1, phases=[0.0])


def test_wpe_two_node_click_states_are_opposite():
    rows = wpe_herald(wpe_state(2, 0.1), beam_splitter(), 1)
    singles = [r for r in rows if r.n_photons == 1]
    assert len(singles) == 2
    a, b = singles
    assert a.probability == pytest.approx(b.probability)
    assert a.dicke_fidelity == pytest.approx(1.0)
    assert b.dicke_fidelity == pytest.approx(1.0)
    # the two detectors herald orthogonal single-excitation states
    assert fidelity(a.state, b.state) == pytest.approx(0.0, abs=1e-12)


def test_wpe_single_click_fidelity_approaches_one():
    for p, floor in ((1e-4, 0.999), (0.06, 0.9)):
        rows = wpe_herald(wpe_state(3, p), tritter(), 1)
        total = sum(r.probability for r in rows)
        mixed = sum(r.probability * r.dicke_fidelity for r in rows) / total
        assert mixed > floor


def test_wpe_tritter_two_photon_click_statistics():
    rows = wpe_herald(wpe_state(3, 0.06), tritter(), 2)
    two_distinct = sum(r.probability for r in rows
                       if r.n_photons == 2 and r.n_detectors == 2)
    two_total = wpe_sector_probabilities(wpe_state(3, 0.06))[2]
    assert two_distinct / two_total == pytest.approx(1 / 3, abs=1e-9)
    for r in rows:
        if r.n_photons == 2 and r.n_detectors == 2:
            assert r.dicke_fidelity == pytest.approx(1.0, abs=1e-9)
    # bunched pairs spread evenly over the three detectors
    bunched = [r.probability for r in wpe_herald(wpe_state(3, 0.06), tritter(), 1)
               if r.n_photons == 2]
    assert len(bunched) == 3
    assert all(b / two_total == pytest.approx(2 / 9, abs=1e-9) for b in bunched)


def test_wpe_number_resolved_model():
    rows = wpe_herald(wpe_state(3, 0.1), tritter(), 2, NUMBER_RESOLVED)
    assert all(r.n_photons == 2 for r in rows)
    total = sum(r.probability for r in rows)
    assert total == pytest.approx(wpe_sector_probabilities(wpe_state(3, 0.1))[2], abs=1e-12)


def test_wpe_herald_dimension_guard():
    with pytest.raises(ValueError):
        wpe_herald(wpe_state(3, 0.1), beam_splitter(), 1)


@pytest.mark.parametrize("m_clicks", [0, -1, "2", 2.0, True, None])
def test_wpe_herald_refuses_a_bad_click_count_before_any_work(monkeypatch, m_clicks):
    calls = []
    monkeypatch.setattr(entnet.herald, "propagate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="required_clicks"):
        wpe_herald(wpe_state(2, 0.2), quarter(), m_clicks)
    assert calls == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("p", [0.01, 0.06, 0.2])
def test_wpe_simulation_matches_analytics(n, p):
    for m in range(1, n + 1):
        assert wpe_fidelity_sim(n, p, m) == pytest.approx(
            wpe_fidelity(m, n, p), abs=1e-9)
        assert wpe_rate_sim(n, p, m, 0.31) == pytest.approx(
            wpe_rate(m, n, p, 0.31).value, abs=1e-9)


@pytest.fixture(scope="module")
def eraser_8():
    """Full table of the 8-node eraser through the 8-port butterfly."""
    p = 0.2
    return p, run_gbsa(wpe_state(8, p), symmetric_multiport(3))


@pytest.fixture(scope="module")
def herald_8(eraser_8):
    """The 3-click herald of the 8-node eraser through the 8-port butterfly."""
    return wpe_herald(wpe_state(8, eraser_8[0]), symmetric_multiport(3), 3)


def test_eight_node_eraser_table(eraser_8):
    p, rows = eraser_8
    assert abs(sum(r.probability for r in rows) - 1) <= 4 * EPS * len(rows)
    sectors = {}
    for r in rows:
        sectors[r.n_photons] = sectors.get(r.n_photons, 0.0) + r.probability
    assert sectors == pytest.approx(
        {k: math.comb(8, k) * p ** k * (1 - p) ** (8 - k) for k in range(9)}, abs=1e-12)


def test_eight_node_eraser_three_click_herald(eraser_8):
    p, rows = eraser_8
    heralded = wpe_herald(wpe_state(8, p), symmetric_multiport(3), 3)
    assert heralded and all(r.n_detectors == 3 for r in heralded)
    assert [r.pattern for r in heralded] == [r.pattern for r in rows if r.n_detectors == 3]


def _per_node_phases(state, m):
    """Whether the ``m``-excitation amplitudes are ``c * prod(phi_i)`` over the
    excited qubits ``i``: then for each qubit pair every transposition ratio
    ``z_b / z_b'`` (``b'`` is ``b`` with the pair's bits swapped) is the same."""
    amps = state.amplitudes
    for i, j in itertools.combinations(range(state.n_qubits), 2):
        ratios = []
        for bits, z in amps.items():
            if bits.count("1") == m and bits[i] == "1" and bits[j] == "0":
                swapped = amps.get(bits[:i] + "0" + bits[i + 1:j] + "1" + bits[j + 1:], 0)
                if swapped == 0:
                    return False
                ratios.append(z / swapped)
        if any(abs(r - ratios[0]) > 1e-9 for r in ratios):
            return False
    return True


def test_dicke_family_fidelity_is_the_free_phase_bound_at_six_nodes():
    phased = dicke_state(3, 6, [0.3 * k for k in range(6)])
    assert _per_node_phases(phased, 3) and dicke_family_fidelity(phased, 3) == pytest.approx(1)
    # the column reads 1.0 on these rows, yet their phases are not per-node ones,
    # so no phased Dicke state reaches it
    rows = wpe_herald(wpe_state(6, 0.2), symmetric_multiport(3), 3)
    full = [r for r in rows if r.dicke_fidelity == pytest.approx(1.0, abs=1e-9)]
    assert len(full) == 56
    assert not any(_per_node_phases(r.state, 3) for r in full)
    assert sum(r.probability for r in full) == pytest.approx(0.03584, abs=1e-12)


def test_dicke_family_fidelity_sector_mismatch():
    st = QubitState(3, {"110": 1.0})
    assert dicke_family_fidelity(st, 1) == 0.0
    assert dicke_family_fidelity(st, 2) == pytest.approx(1 / 3)


def test_dicke_family_fidelity_refuses_m_outside_the_register():
    one = QubitState(1, {"1": 1})
    assert (dicke_family_fidelity(one, 0), dicke_family_fidelity(one, 1)) == (0.0, 1.0)
    for m in (-1, 2):
        with pytest.raises(ValueError, match=rf"need 0 <= m <= 1, got m={m}"):
            dicke_family_fidelity(one, m)


@pytest.mark.parametrize("m", [1.5, 1.0, True, False, "1", None])
def test_dicke_family_fidelity_refuses_m_that_is_not_an_integer(m):
    # a bool is not read as 0 or 1, and a float is not passed on to math.comb
    pair = QubitState(2, {"01": 1})
    with pytest.raises(ValueError, match="need 0 <= m <= 2"):
        dicke_family_fidelity(pair, m)
    assert dicke_family_fidelity(pair, np.int64(1)) == 0.5


def test_wpe_fidelity_sim_refuses_an_underflowing_tail():
    with pytest.raises(ValueError, match="the weight of 4 or more photons underflows"):
        wpe_fidelity_sim(8, 1e-200, 4)
    assert wpe_rate_sim(8, 1e-200, 4) == 0.0


@pytest.mark.parametrize("p", [1e-5, 1e-7])
def test_wpe_simulation_keeps_sectors_below_the_merge_tolerance(p):
    # wpe_state drops these terms (amplitude below MERGE_TOL); the sims must not
    assert 5 not in wpe_sector_probabilities(wpe_state(8, p))
    assert abs(wpe_fidelity_sim(8, p, 4) - wpe_fidelity(4, 8, p)) <= 1e-12
    assert wpe_rate_sim(8, p, 4) == pytest.approx(wpe_rate(4, 8, p).value, rel=1e-12)


def test_wpe_simulation_at_size_boundary():
    # the largest supported register still matches the closed forms
    assert wpe_fidelity_sim(8, 0.06, 2) == pytest.approx(
        wpe_fidelity(2, 8, 0.06), abs=1e-9)
    assert wpe_rate_sim(8, 0.06, 3, 0.05) == pytest.approx(
        wpe_rate(3, 8, 0.06, 0.05).value, abs=1e-12)
    with pytest.raises(ValueError):
        wpe_state(9, 0.06)
