"""Closed-form fidelity and rate expressions for the five heralding schemes.

Rates marked proportional carry an unspecified constant: the returned value
is the dimensionless factor that multiplies the trial rate.  Fidelities are
absolute.

Each closed form checks and converts its arguments once, on entry: a count
becomes an ``int`` and a rate or probability a ``float``, so every result is
a Python float, numpy arguments included.  A refused argument raises
``ValueError`` (``ZeroDivisionError`` for ``em_fidelity``'s zero denominator).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


def _check_unit(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def _check_integer(name: str, value) -> int:
    """``value`` as an ``int``, refusing a bool or a non-integer as ``photonics._is_integer`` does.

    A numpy integer becomes an ``int``, so that the closed forms return
    Python floats.  Kept here so that they import no other module of the
    package.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_count(name: str, value, least: int, what: str = "nodes") -> int:
    """``value`` as an ``int``, refusing one below ``least`` with "need at least <least> <what>"."""
    value = _check_integer(name, value)
    if value < least:
        raise ValueError(f"need at least {least} {what}")
    return value


def _check_nonnegative(name: str, value: float) -> float:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    return float(value)


def _comb(n_nodes: int, k: int) -> float:
    """``C(n_nodes, k)`` as the float that ``int * float`` would convert it to.

    Refused with ``ValueError`` when it is too large for a float; the
    central ``C(n, n // 2)`` is from ``n = 1030`` on.
    """
    try:
        return float(math.comb(n_nodes, k))
    except OverflowError:
        raise ValueError(f"n_nodes={n_nodes} is too large: C({n_nodes}, {k}) "
                         "does not fit in a float") from None


@dataclass(frozen=True)
class SchemeParams:
    """Named efficiencies and probabilities consumed by the rate formulas."""

    eta_det: float = 1.0    # photon collection + detection
    eta_abs: float = 1.0    # photon absorption by an atom
    eta_p: float = 1.0      # emission into the cavity mode
    eta_out: float = 1.0    # outcoupling into fibre
    eta_net: float = 1.0    # network-link transmission
    eta_ent: float = 1.0    # absorption by the receiving atom
    eta_a0an: float = 1.0   # source-to-node transmission, equal per node
    p_epr: float = 1.0      # photon-pair source success
    p_ghz_n: float = 1.0    # N-photon source success

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _check_unit(f.name, getattr(self, f.name)))


@dataclass(frozen=True)
class FidelityResult:
    """A fidelity or rate figure; proportional results omit their constant."""

    value: float
    is_proportional: bool = False

    def __post_init__(self):
        value = float(self.value) if self.is_proportional else _check_unit("value", self.value)
        object.__setattr__(self, "value", value)

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------- photon exchange

def st_fidelity_2(eta: float) -> FidelityResult:
    """Two-node state-transfer fidelity cap ``(1 + sqrt(eta))^2 / 4``."""
    eta = _check_unit("eta", eta)
    return FidelityResult((1 + math.sqrt(eta)) ** 2 / 4)


def st_rate_2(params: SchemeParams) -> FidelityResult:
    """Heralded two-node transfer rate factor."""
    value = (params.eta_p * params.eta_out * params.eta_net
             * params.eta_ent * params.eta_det)
    return FidelityResult(value, is_proportional=True)


def st_n_node(params: SchemeParams, n_nodes: int):
    """Target state and rate/fidelity factors for the split-photon transfer.

    Returns ``(state, fidelity_factor, rate_factor)`` where the state is the
    single-excitation equal superposition over the ``n`` receiving nodes and
    both figures are proportional.
    """
    from .states import dicke_state

    n_nodes = _check_count("n_nodes", n_nodes, 2, "receiving nodes")
    state = dicke_state(1, n_nodes)
    fid = FidelityResult(params.eta_a0an, is_proportional=True)
    rate = FidelityResult(params.eta_p * params.eta_out * params.eta_net
                          * params.eta_a0an * params.eta_ent * params.eta_det,
                          is_proportional=True)
    return state, fid, rate


# ---------------------------------------------------------------- itinerant photon

def itinerant_fidelity_2(f_pa: float) -> float:
    """Atom-atom fidelity ``2 F_PA - 1`` under depolarizing gate errors."""
    if not 0.5 <= f_pa <= 1.0:
        raise ValueError(f"f_pa must be in [0.5, 1], got {f_pa}")
    return min(1.0, max(0.0, 2 * float(f_pa) - 1))


def itinerant_success(n_nodes: int, eta_t: float, eta_c: float,
                      eta_det: float) -> FidelityResult:
    """Success factor ``eta_T^(N-1) eta_C^N eta_DET`` for one itinerant pass."""
    n_nodes = _check_count("n_nodes", n_nodes, 2)
    eta_t, eta_c, eta_det = (_check_unit("eta_t", eta_t), _check_unit("eta_c", eta_c),
                             _check_unit("eta_det", eta_det))
    return FidelityResult(eta_t ** (n_nodes - 1) * eta_c ** n_nodes * eta_det,
                          is_proportional=True)


def itinerant_depolarizing_strength(f_pa: float) -> float:
    """Per-gate depolarizing strength hitting the two-node anchor ``2 F_PA - 1``."""
    if not 0.625 < f_pa <= 1.0:
        raise ValueError(
            "f_pa must be in (0.625, 1]: a single-qubit depolarizing channel "
            "cannot reach two-node fidelities at or below 1/4")
    return 1 - math.sqrt((8 * f_pa - 5) / 3)


def _itinerant_block(n_nodes: int, lam: float, p: int, pp: int) -> np.ndarray:
    """Photon block ``<p|rho|p'>`` of the itinerant circuit's final density tensor.

    Its axes are the atoms' ket axes, then their bra axes.  The photon is
    only ever a CNOT control and every depolarizing channel acts on an atom,
    so the four photon blocks never mix: each evolves alone, with X on the
    ket's atom when ``p = 1`` and on the bra's atom when ``p' = 1``.  Its
    entries stay real.
    """
    import numpy as np  # the simulations alone need numpy; the closed forms import without it

    n = n_nodes
    block = np.zeros((2,) * (2 * n))
    block[(0,) * (2 * n)] = 0.5
    for atom in range(n):
        for axis, control in ((atom, p), (n + atom, pp)):  # the ket's axis, then the bra's
            if control:
                block = np.flip(block, axis)
        half_trace = np.trace(block, axis1=atom, axis2=n + atom) / 2
        block *= 1 - lam
        for b in (0, 1):  # the atom's two diagonal blocks
            diag = (slice(None),) * atom + (b,) + (slice(None),) * (n - 1) + (b,)
            block[diag] += lam * half_trace
    return block


def itinerant_ghz_fidelity_sim(n_nodes: int, f_pa: float) -> float:
    """Density-matrix run of the itinerant-photon circuit with noisy gates.

    A photon qubit starts in ``|+>``, controls an X on each of ``n`` atom
    qubits with a calibrated single-qubit depolarizing channel on the atom
    after each gate, and is finally measured in the ``|+/->`` basis; the
    result is the fidelity of the heralded atomic state with the matching
    ``(|0..0> +/- |1..1>)/sqrt2`` target.  At ``n = 2`` this reproduces
    ``2 f_pa - 1`` by construction and it decreases monotonically with ``n``.

    The run is gate by gate, on the density tensor's four photon blocks one
    at a time: they never mix, since the photon is only a CNOT control and
    every channel acts on an atom.  Each block is ``4^n`` real entries
    (0.5 MiB at ``n = 8``, 8 MiB at ``n = 10``), and ``n`` stays capped at 10.
    """
    n_nodes = _check_integer("n_nodes", n_nodes)
    if not 2 <= n_nodes <= 10:
        raise ValueError("n_nodes must be in 2..10")
    lam = itinerant_depolarizing_strength(f_pa)
    dim = 2 ** n_nodes
    # project the photon onto |+>
    block = 0.5 * sum(_itinerant_block(n_nodes, lam, p, pp) for p in (0, 1) for pp in (0, 1))
    block = block.reshape(dim, dim)
    # <GHZ+|block|GHZ+> over the block's trace; the trace is summed as complex
    # numbers, since numpy adds a real diagonal in another order (last bit)
    corners = block[0, 0] + block[0, -1] + block[-1, 0] + block[-1, -1]
    return float(corners / 2 / block.diagonal().astype(complex).sum().real)


def itinerant_ghz_fidelity_formula(n_nodes: int, f_pa: float) -> float:
    """Closed-form check of the simulated circuit.

    Expanding the product of depolarizing channels against the shared-cat
    target gives ``sum_s C(n, s) lam^s (1-lam)^(n-s) w_s`` with ``w_0 = 1``,
    ``w_s = 2^-(s+1)`` for ``0 < s < n`` and ``w_n = 2^-n``.
    """
    n_nodes = _check_count("n_nodes", n_nodes, 2)
    lam = itinerant_depolarizing_strength(f_pa)
    n = n_nodes
    total = 0.0
    for s in range(n + 1):
        w = 1.0 if s == 0 else (2.0 ** -n if s == n else 2.0 ** -(s + 1))
        total += _comb(n, s) * lam ** s * (1 - lam) ** (n - s) * w
    return total


# ---------------------------------------------------------------- photon-to-atom mapping

def em_success(n_nodes: int, params: SchemeParams) -> FidelityResult:
    """Mapping-scheme success factor ``p_src (eta_ABS eta_DET / 2)^N``."""
    n_nodes = _check_count("n_nodes", n_nodes, 2)
    src = params.p_epr if n_nodes == 2 else params.p_ghz_n
    return FidelityResult(src * (0.5 * params.eta_abs * params.eta_det) ** n_nodes,
                          is_proportional=True)


def em_false_herald(n_nodes: int, p_real: float, p_dark: float) -> float:
    """Probability that dark counts complete an N-fold coincidence.

    Sums over 0..N-1 true heralds with dark counts making up the balance;
    the all-real term is excluded since it is the genuine success already
    counted by the success probability.
    """
    n_nodes = _check_count("n_nodes", n_nodes, 1, "detector")
    p_real, p_dark = _check_unit("p_real", p_real), _check_unit("p_dark", p_dark)
    return sum(_comb(n_nodes, n) * p_real ** n * p_dark ** (n_nodes - n)
               for n in range(n_nodes))


def em_fidelity(n_nodes: int, f_ph: float, p_em: float, p_false: float) -> float:
    """Source fidelity diluted by false heralds toward the fully mixed state."""
    n_nodes = _check_count("n_nodes", n_nodes, 1, "node")
    f_ph = _check_unit("f_ph", f_ph)
    p_em, p_false = _check_nonnegative("p_em", p_em), _check_nonnegative("p_false", p_false)
    if p_em + p_false == 0:
        raise ZeroDivisionError("p_em + p_false must be positive")
    return (f_ph * p_em + 2.0 ** -n_nodes * p_false) / (p_em + p_false)


# ---------------------------------------------------------------- which-path erasing

def _binom_tail(n: int, m: int, p: float) -> float:
    return sum(_comb(n, k) * p ** k * (1 - p) ** (n - k)
               for k in range(m, n + 1))


def _check_wpe(m: int, n_nodes: int, p: float) -> tuple[int, int, float]:
    """``(m, n_nodes, p)`` as ints and a float; refuse a node count below 1, an
    ``m`` outside ``1..n_nodes`` or a ``p`` outside (0, 1)."""
    n_nodes, m = _check_integer("n_nodes", n_nodes), _check_integer("m", m)
    if n_nodes < 1:
        raise ValueError(f"need at least 1 node, got n_nodes={n_nodes}")
    if not 1 <= m <= n_nodes:
        raise ValueError(f"need 1 <= m <= {n_nodes}, got m={m}")
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return m, n_nodes, float(p)


def wpe_fidelity(m: int, n_nodes: int, p: float) -> float:
    """Heralded fidelity cap of the ``m``-excitation collective state.

    ``C(N, m) p^m (1-p)^(N-m)`` over the probability of emitting at least
    ``m`` photons: emissions beyond ``m`` survive threshold heralding via
    photon loss and contribute orthogonal excitation sectors.  When either
    underflows, the fidelity is one over the sum of the terms' ratios to the
    ``m``-term, ``C(N, k) / C(N, m) (p / (1 - p))^(k - m)``.
    """
    m, n_nodes, p = _check_wpe(m, n_nodes, p)
    good = _comb(n_nodes, m) * p ** m * (1 - p) ** (n_nodes - m)
    tail = _binom_tail(n_nodes, m, p)
    if min(good, tail) < sys.float_info.min:
        odds, ratio, total = p / (1 - p), 1.0, 1.0
        for k in range(m, n_nodes):
            ratio *= (n_nodes - k) / (k + 1) * odds
            total += ratio
        return 1 / total
    return good / tail


def wpe_rate(m: int, n_nodes: int, p: float, eta_det: float = 1.0) -> FidelityResult:
    """Heralding-rate factor ``eta^m P(>= m photons emitted)``."""
    m, n_nodes, p = _check_wpe(m, n_nodes, p)
    eta_det = _check_unit("eta_det", eta_det)
    return FidelityResult(eta_det ** m * _binom_tail(n_nodes, m, p),
                          is_proportional=True)


@dataclass(frozen=True)
class SweepPoint:
    p: float
    m: int
    fidelity: float
    rate: float


def wpe_fidelity_sweep(n_nodes: int, m_list: Sequence[int], p_grid: Sequence[float],
                       eta_det: float) -> list[SweepPoint]:
    """Fidelity/rate factors on a grid, ordered by excitation then p."""
    return [SweepPoint(float(p), int(m), wpe_fidelity(m, n_nodes, p),
                       wpe_rate(m, n_nodes, p, eta_det).value)
            for m in m_list for p in p_grid]


# ---------------------------------------------------------------- swapping and comparison

def swap_rate(n_nodes: int, p_bsa: float, eta_det: float) -> FidelityResult:
    """Swap-scheme rate factor ``p_BSA eta^N``."""
    n_nodes = _check_count("n_nodes", n_nodes, 2)
    p_bsa, eta_det = _check_unit("p_bsa", p_bsa), _check_unit("eta_det", eta_det)
    return FidelityResult(p_bsa * eta_det ** n_nodes, is_proportional=True)


@dataclass(frozen=True)
class FourNodeComparison:
    """Bipartite-chain versus single-shot four-photon rates."""

    r_bell: float          # two-node heralds per second
    r_bell_chain4: float   # four-node rate via sequential Bell pairs (upper bound)
    r_quad: float          # single-shot four-photon rate
    crossover_eta: float   # detection efficiency where the two strategies tie


def compare_4node(eta_det: float, r_t: float = 1.0) -> FourNodeComparison:
    """Rates of both four-node strategies plus their efficiency crossover.

    Bell pairs succeed at ``eta^2 r_T / 2`` and four sequential rounds cap
    the chained strategy at a quarter of that; the single-shot analyser
    heralds at ``(7/32) eta^4 r_T``.  Equating the two gives the crossover
    ``eta* = 2/sqrt(7)``.
    """
    eta_det, r_t = _check_unit("eta_det", eta_det), _check_nonnegative("r_t", r_t)
    r_bell = 0.5 * eta_det ** 2 * r_t
    r_quad = (7 / 32) * eta_det ** 4 * r_t
    return FourNodeComparison(r_bell, r_bell / 4, r_quad, 2 / math.sqrt(7))


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class FormulaSpec:
    name: str
    args: tuple[tuple[str, type], ...]
    fn: object
    description: str


def _fr(x):
    return x if isinstance(x, FidelityResult) else FidelityResult(x)


FORMULAS: dict[str, FormulaSpec] = {}


def _register(name, args, fn, description):
    FORMULAS[name] = FormulaSpec(name, tuple(args), fn, description)


_register("st-fidelity-2", [("eta", float)],
          lambda eta: st_fidelity_2(eta),
          "two-node photon-exchange fidelity cap vs transfer efficiency")
_register("st-rate-2",
          [("eta-p", float), ("eta-out", float), ("eta-net", float),
           ("eta-ent", float), ("eta-det", float)],
          lambda **kw: st_rate_2(SchemeParams(**kw)),
          "heralded two-node photon-exchange rate factor")
_register("st-n-fidelity", [("eta-a0an", float)],
          lambda eta_a0an: FidelityResult(_check_unit("eta_a0an", eta_a0an),
                                          is_proportional=True),
          "N-node split-photon fidelity factor (source-to-node transmission)")
_register("st-n-rate",
          [("n", int), ("eta-p", float), ("eta-out", float), ("eta-net", float),
           ("eta-a0an", float), ("eta-ent", float), ("eta-det", float)],
          lambda n, **kw: st_n_node(SchemeParams(**kw), n)[2],
          "heralded N-node split-photon rate factor")
_register("itinerant-fidelity-2", [("f-pa", float)],
          lambda f_pa: _fr(itinerant_fidelity_2(f_pa)),
          "two-node itinerant-photon fidelity from the gate fidelity")
_register("itinerant-success",
          [("n", int), ("eta-t", float), ("eta-c", float), ("eta-det", float)],
          lambda n, eta_t, eta_c, eta_det: itinerant_success(n, eta_t, eta_c, eta_det),
          "itinerant-photon N-node success factor")
_register("itinerant-ghz-sim", [("n", int), ("f-pa", float)],
          lambda n, f_pa: _fr(itinerant_ghz_fidelity_sim(n, f_pa)),
          "density-matrix fidelity of the N-node itinerant circuit")
_register("em-success", [("n", int), ("eta-abs", float), ("eta-det", float),
                         ("p-src", float)],
          lambda n, eta_abs, eta_det, p_src: em_success(
              n, SchemeParams(eta_abs=eta_abs, eta_det=eta_det,
                              p_epr=p_src, p_ghz_n=p_src)),
          "photon-to-atom mapping success factor")
_register("em-false-herald", [("n", int), ("p-real", float), ("p-dark", float)],
          lambda n, p_real, p_dark: _fr(em_false_herald(n, p_real, p_dark)),
          "N-fold coincidence completed by dark counts")
_register("em-fidelity", [("n", int), ("f-ph", float), ("p-em", float),
                          ("p-false", float)],
          lambda n, f_ph, p_em, p_false: _fr(em_fidelity(n, f_ph, p_em, p_false)),
          "mapping fidelity diluted by false heralds")
_register("wpe-fidelity", [("m", int), ("n", int), ("p", float)],
          lambda m, n, p: _fr(wpe_fidelity(m, n, p)),
          "which-path-erasing m-excitation fidelity cap")
_register("wpe-rate", [("m", int), ("n", int), ("p", float), ("eta", float)],
          lambda m, n, p, eta: wpe_rate(m, n, p, eta),
          "which-path-erasing heralding-rate factor")
_register("swap-rate", [("n", int), ("p-bsa", float), ("eta", float)],
          lambda n, p_bsa, eta: swap_rate(n, p_bsa, eta),
          "entanglement-swapping rate factor p_BSA * eta^N")


def evaluate_formula(name: str, **kwargs) -> FidelityResult:
    spec = FORMULAS.get(name)
    if spec is None:
        raise KeyError(name)
    return _fr(spec.fn(**kwargs))
