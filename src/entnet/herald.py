"""Heralded-scheme enumeration: swap analysers and which-path erasers.

Feeds atom-photon entangled inputs through a multiport, expands the exact
output Fock statistics, and groups them into detection-pattern rows carrying
the projected (normalized) atomic state and the pattern probability.  Losses
are never simulated here; detector efficiency enters only through the
analytic rate factors in :mod:`entnet.analytics`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .interferometers import MultiportMatrix, inverse
from .photonics import FockState, HybridState, Mode, propagate
# Not called here: perfbench/tracer.py wraps these two by name in this module,
# so they stay importable from it.
from .photonics import apply_mode_transform, expand_to_fock  # noqa: F401
from .states import QubitState, entanglement_classes, genuinely_entangled

#: pattern amplitudes below this are treated as exactly suppressed
SUPPRESSION_TOL = 1e-12

DetectionPattern = FockState


@dataclass(frozen=True)
class DetectorModel:
    """Detector read-out: exact counts or a bare click per detector."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("threshold", "number_resolved"):
            raise ValueError(f"unknown detector kind {self.kind!r}")


THRESHOLD = DetectorModel("threshold")
NUMBER_RESOLVED = DetectorModel("number_resolved")


@dataclass(frozen=True)
class HeraldRule:
    """Acceptance rule for heralding events.

    ``entanglement_filter`` defaults to "the projected atomic state is
    genuinely multipartite" (no bipartition leaves it product), which
    reproduces the published analyser efficiencies; any predicate on a
    :class:`ProjectionRow` may be substituted, e.g. one keeping every
    non-product state.
    """

    required_clicks: int
    distinct_detectors_only: bool = False
    entanglement_filter: Callable[["ProjectionRow"], bool] | None = None

    def __post_init__(self):
        if self.required_clicks < 1:
            raise ValueError("required_clicks must be >= 1")


@dataclass(frozen=True)
class ProjectionRow:
    """One detection pattern with its projected atomic state and probability."""

    pattern: DetectionPattern
    state: QubitState
    probability: float
    #: best-phase overlap with the equal-weight excitation manifold matching
    #: the herald (set by :func:`wpe_herald` only)
    dicke_fidelity: float | None = None
    #: states of every row of the table this row belongs to, labelled
    #: together by the first :meth:`state_class` on any of them
    _table_states: tuple[QubitState, ...] = field(
        default=(), init=False, repr=False, compare=False)

    @property
    def n_photons(self) -> int:
        return self.pattern.total()

    @property
    def n_detectors(self) -> int:
        return len(self.pattern.key)

    @property
    def max_per_detector(self) -> int:
        return max((k for _, k in self.pattern.key), default=0)

    def state_class(self) -> str:
        """Entanglement class of the projected state.

        The first query on any row of a table returned by :func:`run_gbsa`
        or :func:`wpe_herald` classifies the states of all its rows in one
        batched walk and stores each label on its state; later queries
        read the stored label.  A row built by hand is classified alone.
        """
        if self.state._label is None:
            entanglement_classes(self._table_states or (self.state,))
        return self.state._label


def _share_table(rows: list[ProjectionRow]) -> list[ProjectionRow]:
    """Give each row the tuple of all the rows' states, so they are labelled together.

    The tuple holds states, not rows, so that no row refers back to its
    table and a dropped table is freed at once.
    """
    states = tuple(row.state for row in rows)
    for row in rows:
        object.__setattr__(row, "_table_states", states)
    return rows


def prepare_swap_input(n_nodes: int, signs: Sequence[int] | None = None,
                       ports: Sequence[int] | None = None) -> HybridState:
    """``n_nodes`` atom-photon Bell pairs with polarization-encoded photons.

    Atom ``k`` emits an H photon into ``ports[k]`` for bit 0 and a V photon
    for bit 1, giving ``2^n`` hybrid terms of amplitude ``2^(-n/2)`` (times
    the pair sign for each excited bit).
    """
    if not 2 <= n_nodes <= 8:
        raise ValueError(f"n_nodes must be in 2..8, got {n_nodes}")
    if signs is None:
        signs = [1] * n_nodes
    if len(signs) != n_nodes or set(signs) - {1, -1}:
        raise ValueError("signs must be +/-1, one per node")
    if ports is None:
        ports = list(range(1, n_nodes + 1))
    if len(set(ports)) != n_nodes:
        raise ValueError("ports must be distinct, one per node")
    if min(ports) < 1:
        raise ValueError(f"ports are numbered from 1, got {min(ports)}")
    amp0 = 2 ** (-n_nodes / 2)
    terms = {}
    for bits in itertools.product("01", repeat=n_nodes):
        atoms = "".join(bits)
        amp = amp0
        occ = {}
        for k, b in enumerate(bits):
            if b == "1":
                amp *= signs[k]
            occ[Mode(ports[k], "V" if b == "1" else "H")] = 1
        terms[(atoms, FockState(occ).key)] = amp
    return HybridState(n_nodes, terms)


def run_gbsa(state: HybridState, u: MultiportMatrix) -> list[ProjectionRow]:
    """Propagate through ``u`` and enumerate every detection pattern.

    Returns one row per output Fock pattern (sorted canonically) with the
    normalized projected atomic state and the exact pattern probability; the
    probabilities of a complete input sum to 1.  The expansion is
    :func:`~entnet.photonics.propagate`, whose floating-point operations run
    in the same order as the polynomial reference (``fock_to_polynomial``,
    ``apply_mode_transform``, ``expand_to_fock``), so every probability and
    amplitude is bit-identical to the table built from that reference.

    Raises:
        CapacityError: the whole expansion is oversize.
        DimensionMismatch: a photon sits on a port outside ``1..dim``.  Both
            are raised before any term is expanded.
    """
    acc = propagate(state, inverse(u))
    rows = []
    for fkey in sorted(acc):
        amps = {at: a for at, a in acc[fkey].items() if abs(a) >= SUPPRESSION_TOL}
        prob = sum(abs(a) ** 2 for a in amps.values())
        if prob < SUPPRESSION_TOL ** 2:
            continue
        scale = 1 / math.sqrt(prob)
        qstate = QubitState(state.n_atoms,
                            {at: a * scale for at, a in sorted(amps.items())})
        rows.append(ProjectionRow(FockState.from_key(fkey), qstate, prob))
    return _share_table(rows)


def _polarization_census(state: HybridState, total: int) -> set[tuple]:
    """Per-polarization photon counts achievable by ``total``-photon terms."""
    census = set()
    for _, fock, _ in state.items():
        if fock.total() != total:
            continue
        counts: dict[str, int] = {}
        for m, k in fock.key:
            counts[m.pol] = counts.get(m.pol, 0) + k
        census.add(tuple(sorted(counts.items())))
    return census


def suppressed_patterns(state: HybridState, u: MultiportMatrix,
                        total_clicks: int) -> list[DetectionPattern]:
    """Patterns reachable by photon bookkeeping whose amplitude cancels.

    A candidate is any ``total_clicks``-photon multiset over the output
    modes whose per-polarization photon counts match some input term (the
    multiport preserves polarization, so those counts are conserved);
    suppressed means the full enumeration assigns it no probability.
    """
    return _suppressed(state, u.dim, run_gbsa(state, u), total_clicks)


def _suppressed(state: HybridState, dim: int, rows: Sequence[ProjectionRow],
                total_clicks: int) -> list[DetectionPattern]:
    """:func:`suppressed_patterns` against rows already enumerated from ``state``."""
    feasible = _polarization_census(state, total_clicks)
    if not feasible:
        return []
    pols = sorted({pol for counts in feasible for pol, _ in counts})
    modes = [Mode(port, pol) for pol in pols for port in range(1, dim + 1)]
    realized = {row.pattern.key for row in rows if row.n_photons == total_clicks}
    out = []
    for combo in itertools.combinations_with_replacement(modes, total_clicks):
        fock = FockState.from_monomial(tuple(sorted(combo)))
        counts: dict[str, int] = {}
        for m, k in fock.key:
            counts[m.pol] = counts.get(m.pol, 0) + k
        if tuple(sorted(counts.items())) not in feasible:
            continue
        if fock.key not in realized:
            out.append(fock)
    return sorted(out, key=lambda f: f.key)


def _accepts(row: ProjectionRow, model: DetectorModel, rule: HeraldRule) -> bool:
    m = rule.required_clicks
    if model.kind == "number_resolved":
        if row.n_photons != m:
            return False
        return not rule.distinct_detectors_only or row.max_per_detector == 1
    # threshold detectors only resolve which detectors fired
    if rule.distinct_detectors_only:
        return row.n_photons == m and row.max_per_detector == 1
    return row.n_detectors == m


def aggregate_heralding(rows: Sequence[ProjectionRow], model: DetectorModel,
                        rule: HeraldRule) -> float:
    """Total probability of accepted patterns whose state passes the filter.

    Under the default filter the accepted rows' states are classified in
    one batched walk before the sum; a custom filter sees only accepted rows.
    """
    accepted = [row for row in rows if _accepts(row, model, rule)]
    if rule.entanglement_filter is None:
        entanglement_classes([row.state for row in accepted])
    passes = rule.entanglement_filter or (lambda row: genuinely_entangled(row.state))
    return sum(row.probability for row in accepted if passes(row))


def subnetwork_swap(m: int, u: MultiportMatrix,
                    ports: Sequence[int] | None = None) -> list[ProjectionRow]:
    """Swap table for ``m`` Bell pairs feeding an ``m``-or-larger multiport.

    Unused input ports stay in vacuum; ``ports`` defaults to ``1..m``.
    ``m = dim`` is the full-network swap.
    """
    if not 2 <= m <= u.dim:
        raise ValueError(f"m must be in 2..{u.dim}, got {m}")
    if ports is None:
        ports = list(range(1, m + 1))
    if max(ports) > u.dim:
        raise ValueError("a chosen port exceeds the multiport dimension")
    return run_gbsa(prepare_swap_input(m, ports=ports), u)


def wpe_state(n_nodes: int, p: float,
              phases: Sequence[float] | None = None) -> HybridState:
    """Post-excitation node state for the which-path-erasing scheme.

    Each atom independently carries an excitation with probability ``p`` and
    then holds one photon in its own output mode (port = node index, number
    encoding), with per-node phase ``phases[k]`` on the excited branch.
    """
    if not 1 <= n_nodes <= 8:
        raise ValueError(f"n_nodes must be in 1..8, got {n_nodes}")
    if not 0 < p < 1:
        raise ValueError(f"excitation probability must be in (0, 1), got {p}")
    if phases is None:
        phases = [0.0] * n_nodes
    if len(phases) != n_nodes:
        raise ValueError("need one phase per node")
    terms = {}
    for bits in itertools.product("01", repeat=n_nodes):
        atoms = "".join(bits)
        amp = complex(1.0)
        occ = {}
        for k, b in enumerate(bits):
            if b == "1":
                amp *= math.sqrt(p) * complex(math.cos(phases[k]), math.sin(phases[k]))
                occ[Mode(k + 1)] = 1
            else:
                amp *= math.sqrt(1 - p)
        terms[(atoms, FockState(occ).key)] = amp
    return HybridState(n_nodes, terms)


def dicke_family_fidelity(state: QubitState, m: int) -> float:
    """Best overlap with the ``m``-excitation equal-weight manifold.

    Treating every component phase of the target as free gives
    ``(sum_S |c_S|)^2 / C(n, m)`` over the ``m``-excitation components
    ``c_S``; amplitude outside that excitation sector only loses weight.
    For the states heralded by a symmetric eraser the optimum is realised
    by per-node phases, so this is the fidelity to the matching
    generalized collective state.
    """
    total = sum(abs(a) for bits, a in state.amplitudes.items()
                if bits.count("1") == m)
    return total ** 2 / math.comb(state.n_qubits, m)


def wpe_herald(state: HybridState, u: MultiportMatrix, m_clicks: int,
               model: DetectorModel = THRESHOLD) -> list[ProjectionRow]:
    """Detection rows of the which-path eraser heralding on ``m_clicks``.

    Under threshold detectors a nominal ``m``-click event is any pattern
    firing exactly ``m`` distinct detectors, so the heralded ensemble is the
    mixture of the returned rows; number-resolved detectors accept patterns
    of exactly ``m`` photons.  Every row carries its conditional
    :func:`dicke_family_fidelity` against the ``m``-excitation target, so
    the probability-weighted row fidelity is the heralded-state fidelity.
    """
    if m_clicks < 1:
        raise ValueError("m_clicks must be >= 1")
    ports = {mode.port for (_, fkey) in state.terms for mode, _ in fkey}
    if ports and max(ports) > u.dim:
        raise ValueError(f"input occupies port {max(ports)} > multiport dim {u.dim}")
    rule = HeraldRule(m_clicks)
    return _share_table([ProjectionRow(row.pattern, row.state, row.probability,
                                       dicke_family_fidelity(row.state, m_clicks))
                         for row in run_gbsa(state, u) if _accepts(row, model, rule)])


def wpe_sector_probabilities(state: HybridState) -> dict[int, float]:
    """Emitted-photon-number distribution read off the expanded state."""
    probs: dict[int, float] = {}
    for _, fock, amp in state.items():
        n = fock.total()
        probs[n] = probs.get(n, 0.0) + abs(amp) ** 2
    return probs


def wpe_fidelity_sim(n_nodes: int, p: float, m: int) -> float:
    """Brute-force heralded fidelity of the ``m``-excitation target.

    Emissions of more than ``m`` photons can masquerade as ``m``-click
    heralds once photons are lost, and their atomic states live in
    orthogonal excitation sectors, so the heralded fidelity is the
    ``m``-photon sector weight over the at-least-``m`` tail.  Both weights
    are summed term by term from the expanded product state.
    """
    if not 1 <= m <= n_nodes:
        raise ValueError(f"need 1 <= m <= {n_nodes}, got m={m}")
    sectors = wpe_sector_probabilities(wpe_state(n_nodes, p))
    good = sectors.get(m, 0.0)
    tail = sum(prob for n, prob in sectors.items() if n >= m)
    return good / tail


def wpe_rate_sim(n_nodes: int, p: float, m: int, eta_det: float = 1.0) -> float:
    """Brute-force heralding-rate factor ``eta^m P(>= m photons)``."""
    if not 0 <= eta_det <= 1:
        raise ValueError("eta_det must be in [0, 1]")
    sectors = wpe_sector_probabilities(wpe_state(n_nodes, p))
    tail = sum(prob for n, prob in sectors.items() if n >= m)
    return eta_det ** m * tail
