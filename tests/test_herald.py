import dataclasses
import itertools
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entnet.herald
import entnet.photonics
from entnet.analytics import wpe_fidelity, wpe_rate
from entnet.herald import (NUMBER_RESOLVED, SUPPRESSION_TOL, THRESHOLD, DetectorModel,
                           HeraldRule, aggregate_heralding, dicke_family_fidelity,
                           prepare_swap_input, run_gbsa, subnetwork_swap,
                           suppressed_patterns, wpe_fidelity_sim, wpe_herald,
                           wpe_rate_sim, wpe_sector_probabilities, wpe_state)
from entnet.interferometers import (MultiportMatrix, beam_splitter, inverse, quarter,
                                    symmetric_multiport, tritter)
from entnet.photonics import (CapacityError, DimensionMismatch, FockState, HybridState,
                              Mode, apply_mode_transform, expand_to_fock,
                              fock_to_polynomial)
from entnet.states import (QubitState, dicke_state, entanglement_classes, fidelity,
                           is_product_state)

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
    """Record every input term that ``run_gbsa`` expands."""
    calls = []
    expand = entnet.photonics._expand
    monkeypatch.setattr(entnet.photonics, "_expand",
                        lambda *args: calls.append(args) or expand(*args))
    return calls


def test_swap_capacity_refused_before_any_expansion(monkeypatch):
    calls = _count_expansions(monkeypatch)
    run_gbsa(prepare_swap_input(2), beam_splitter())
    assert len(calls) == 4  # the counter sees every input term
    calls.clear()
    with pytest.raises(CapacityError):  # 8 pairs on 8 ports: 22.2M output terms
        run_gbsa(prepare_swap_input(8), symmetric_multiport(3))
    assert calls == []


@pytest.mark.parametrize("port", [0, 5])
def test_run_gbsa_refuses_ports_outside_the_multiport(monkeypatch, port):
    calls = _count_expansions(monkeypatch)
    state = HybridState(2, {  # the valid "00" term sorts first
        ("00", FockState({Mode(1, "H"): 1, Mode(2, "H"): 1}).key): 1 / S2,
        ("11", FockState({Mode(2, "V"): 1, Mode(port, "V"): 1}).key): 1 / S2})
    with pytest.raises(DimensionMismatch, match=f"port {port} is outside ports 1..4"):
        run_gbsa(state, quarter())
    assert calls == []


def _reference_table(state, u):
    """``(pattern key, probability, amplitudes)`` rows built through the polynomial
    API, which ``propagate`` must match bit for bit, with ``run_gbsa``'s row loop."""
    inv = inverse(u)
    acc = {}
    for atoms, fock, amp in state.items():
        out = expand_to_fock(apply_mode_transform(fock_to_polynomial(fock, amp), inv), atoms)
        for (at, fkey), a in out.terms.items():
            slot = acc.setdefault(fkey, {})
            slot[at] = slot.get(at, 0j) + a
    rows = []
    for fkey in sorted(acc):
        amps = {at: a for at, a in acc[fkey].items() if abs(a) >= SUPPRESSION_TOL}
        prob = sum(abs(a) ** 2 for a in amps.values())
        if prob < SUPPRESSION_TOL ** 2:
            continue
        scale = 1 / math.sqrt(prob)
        rows.append((fkey, prob, [(at, a * scale) for at, a in sorted(amps.items())]))
    return rows


def _ieee(table):
    """Pattern keys with the IEEE bits of each probability and amplitude, in order."""
    return [(key, struct.pack("<d", prob),
             [(at, struct.pack("<dd", a.real, a.imag)) for at, a in amps])
            for key, prob, amps in table]


def assert_matches_reference(rows, state, u):
    got = [(r.pattern.key, r.probability, list(r.state.amplitudes.items())) for r in rows]
    assert _ieee(got) == _ieee(_reference_table(state, u))


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
       lambda ports=ports, signs=signs: [(prepare_swap_input(4, signs, ports),
                                          symmetric_multiport(3))]
       for ports, signs in (([1, 2, 3, 4], [1, 1, 1, 1]), ([1, 3, 5, 8], [1, -1, 1, -1]),
                            ([2, 4, 6, 7], [-1, -1, 1, 1]), ([5, 6, 7, 8], [1, 1, -1, 1]))},
    # phased erasers; their all-zero term is the vacuum
    **{f"eraser{n}": lambda n=n: [(wpe_state(n, 0.2, [0.3 * k + 0.1 for k in range(n)]),
                                   symmetric_multiport(3))]
       for n in (3, 4, 5)},
    "shared-port": lambda: [(_shared_port_input(), quarter())],
}


@pytest.mark.parametrize("name", list(_REFERENCE_CASES))
def test_run_gbsa_is_bit_identical_to_the_polynomial_reference(name):
    for state, u in _REFERENCE_CASES[name]():
        assert_matches_reference(run_gbsa(state, u), state, u)


def test_pattern_keys_wider_than_int64_match_the_reference():
    # 3 photons on 32 output modes: patterns are base-4 ints of 64 bits
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


def test_suppressed_patterns_scan_only_the_input_sectors():
    # two excitations of four: every term is 2H2V, so 1-3H sectors are infeasible
    full = prepare_swap_input(4)
    state = HybridState(4, {key: amp * 4 / math.sqrt(6) for key, amp in full.terms.items()
                            if key[0].count("1") == 2})
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
        kept = 0
        for r in rows:
            counts = [k for _, k in r.pattern.key]
            clicks = len(counts) if model == THRESHOLD else sum(counts)
            want = clicks == m and not (distinct and max(counts) > 1)
            assert entnet.herald._accepts(r, model, rule) == want, (r.pattern.label(), m)
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
    assert sum(walks) == len(rows)  # each row enters the walk once
    walks.clear()
    thr = aggregate_heralding(rows, THRESHOLD, HeraldRule(4, distinct_detectors_only=True))
    nr = aggregate_heralding(rows, NUMBER_RESOLVED, HeraldRule(4))
    assert sum(walks) == 0
    assert (thr, nr) == (pytest.approx(7 / 32, abs=1e-9), pytest.approx(7 / 8, abs=1e-9))


def test_tables_are_returned_unlabelled():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    kept = wpe_herald(wpe_state(4, 0.2), quarter(), 2)
    assert rows and kept
    assert all(row.state._label is None for row in rows + kept)


def test_default_aggregate_labels_only_accepted_rows():
    rows = run_gbsa(prepare_swap_input(4), quarter())
    rule = HeraldRule(4, distinct_detectors_only=True)
    aggregate_heralding(rows, THRESHOLD, rule)
    accepted = [row for row in rows if entnet.herald._accepts(row, THRESHOLD, rule)]
    assert 0 < len(accepted) < len(rows)
    assert [row for row in rows if row.state._label is not None] == accepted


@pytest.mark.parametrize("table", [
    lambda: run_gbsa(prepare_swap_input(4), quarter()),
    lambda: wpe_herald(wpe_state(5, 0.3), symmetric_multiport(3), 2),
], ids=["swap", "eraser"])
def test_first_state_class_labels_the_whole_table_in_one_walk(monkeypatch, table):
    rows = table()
    walks = _count_walked_rows(monkeypatch)
    first = rows[len(rows) // 2].state_class()
    assert walks == [len(rows)]
    assert all(row.state._label is not None for row in rows)
    labels = [row.state_class() for row in rows]
    assert walks == [len(rows)]
    assert labels[len(rows) // 2] == first


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


def _assert_labels_match_loose_walk(rows):
    loose = [QubitState(row.state.n_qubits, row.state.amplitudes) for row in rows]
    assert [row.state_class() for row in rows] == entanglement_classes(loose)


def test_table_labels_match_the_loose_walk_on_the_eight_node_herald(eraser_8):
    p, _ = eraser_8
    heralded = wpe_herald(wpe_state(8, p), symmetric_multiport(3), 3)
    assert len(heralded) == 2128
    _assert_labels_match_loose_walk(heralded)


def test_table_labels_match_the_loose_walk_across_blocks():
    rows = subnetwork_swap(5, symmetric_multiport(3))
    assert len(rows) == 15056  # 59 blocks of 256 rows, the last one partial
    _assert_labels_match_loose_walk(rows)


def test_hand_built_row_is_a_table_of_its_own(monkeypatch):
    rows = run_gbsa(prepare_swap_input(4), quarter())
    row = rows[len(rows) // 2]
    copy = dataclasses.replace(row, probability=0.25)
    assert (copy.pattern, copy.state, copy.probability) == (row.pattern, row.state, 0.25)
    assert (copy.n_photons, copy.n_detectors, copy.max_per_detector, copy.dicke_fidelity) == \
        (row.n_photons, row.n_detectors, row.max_per_detector, None)
    walks = _count_walked_rows(monkeypatch)
    assert copy.state_class() == entanglement_classes(
        [QubitState(4, row.state.amplitudes)])[0]
    assert walks == [1]
    genuine = copy.state_class() not in ("product", "biseparable")
    assert aggregate_heralding([copy], NUMBER_RESOLVED, HeraldRule(4)) == 0.25 * genuine


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


def test_custom_entanglement_filter():
    rows = run_gbsa(prepare_swap_input(3), tritter())
    # every non-product distinct-3 row is genuinely tripartite (W-class),
    # so keeping any entangled state agrees with the default genuine count
    loose = HeraldRule(3, distinct_detectors_only=True,
                       entanglement_filter=lambda r: not is_product_state(r.state))
    assert aggregate_heralding(rows, THRESHOLD, loose) == pytest.approx(1 / 4, abs=1e-9)
    classes = {r.state_class() for r in rows if r.max_per_detector == 1}
    assert classes == {"product", "W-class"}
    nothing = HeraldRule(3, distinct_detectors_only=True,
                         entanglement_filter=lambda r: False)
    assert aggregate_heralding(rows, THRESHOLD, nothing) == 0.0


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
    with pytest.raises(ValueError):
        HeraldRule(0)


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
    with pytest.raises(ValueError, match="n_nodes must be in 1..8, got 0"):
        wpe_fidelity_sim(0, 0.1, 1)
    with pytest.raises(ValueError, match=r"need 1 <= m <= 3, got m=4"):
        wpe_fidelity_sim(3, 0.1, 4)


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


def test_dicke_family_fidelity_sector_mismatch():
    st = QubitState(3, {"110": 1.0})
    assert dicke_family_fidelity(st, 1) == 0.0
    assert dicke_family_fidelity(st, 2) == pytest.approx(1 / 3)


def test_wpe_simulation_at_size_boundary():
    # the largest supported register still matches the closed forms
    assert wpe_fidelity_sim(8, 0.06, 2) == pytest.approx(
        wpe_fidelity(2, 8, 0.06), abs=1e-9)
    assert wpe_rate_sim(8, 0.06, 3, 0.05) == pytest.approx(
        wpe_rate(3, 8, 0.06, 0.05).value, abs=1e-12)
    with pytest.raises(ValueError):
        wpe_state(9, 0.06)
