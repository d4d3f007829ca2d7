"""Node inputs of the two heralded schemes, and the eraser's photon-number weights.

Builds the atom-photon product states that the swap analysers and the
which-path erasers feed into a multiport, and sums the eraser's emitted
photon-number sectors straight from its product terms.  Nothing here needs
numpy, so the eraser's cross-check runs without it;
:mod:`entnet.herald` re-exports every name.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Sequence

from .photonics import HybridState, Mode, _is_integer


def _product_terms(amp: complex, branches: Sequence[tuple[tuple, tuple]]) -> dict:
    """The ``2^n`` terms of :func:`_product_state`, in bit order, none dropped."""
    terms = {}
    for bits in itertools.product((0, 1), repeat=len(branches)):
        picked = [node[b] for node, b in zip(branches, bits)]
        fkey = tuple(sorted((mode, 1) for _, mode in picked if mode is not None))
        terms[("".join(map(str, bits)), fkey)] = math.prod((f for f, _ in picked), start=amp)
    return terms


def _product_state(amp: complex, branches: Sequence[tuple[tuple, tuple]]) -> HybridState:
    """Product over nodes of two-branch atom-photon states.

    ``branches[k]`` is node ``k``'s ``(factor, mode or None)`` for bit 0 and
    for bit 1; each term's factors multiply ``amp`` in node order.
    """
    return HybridState(len(branches), _product_terms(amp, branches))


def prepare_swap_input(n_nodes: int, signs: Sequence[int] | None = None,
                       ports: Sequence[int] | None = None) -> HybridState:
    """``n_nodes`` atom-photon Bell pairs with polarization-encoded photons.

    Atom ``k`` emits an H photon into ``ports[k]`` for bit 0 and a V photon
    for bit 1, giving ``2^n`` hybrid terms of amplitude ``2^(-n/2)`` (times
    the pair sign for each excited bit).
    """
    if not _is_integer(n_nodes) or not 2 <= n_nodes <= 8:
        raise ValueError(f"n_nodes must be in 2..8, got {n_nodes!r}")
    if signs is None:
        signs = [1] * n_nodes
    if len(signs) != n_nodes or set(signs) - {1, -1}:
        raise ValueError("signs must be +/-1, one per node")
    if ports is None:
        ports = list(range(1, n_nodes + 1))
    if len(ports) != n_nodes or len(set(ports)) != n_nodes:
        raise ValueError("ports must be distinct, one per node")
    if min(ports) < 1:
        raise ValueError(f"ports are numbered from 1, got {min(ports)}")
    return _product_state(2 ** (-n_nodes / 2),
                          [((1, Mode(port, "H")), (sign, Mode(port, "V")))
                           for sign, port in zip(signs, ports)])


def _wpe_branches(n_nodes: int, p: float,
                  phases: Sequence[float] | None) -> list[tuple[tuple, tuple]]:
    """The eraser's node branches for :func:`_product_state`, its arguments checked."""
    if not _is_integer(n_nodes) or not 1 <= n_nodes <= 8:
        raise ValueError(f"n_nodes must be in 1..8, got {n_nodes!r}")
    if not 0 < p < 1:
        raise ValueError(f"excitation probability must be in (0, 1), got {p}")
    if phases is None:
        phases = [0.0] * n_nodes
    if len(phases) != n_nodes:
        raise ValueError("need one phase per node")
    return [((math.sqrt(1 - p), None),
             (math.sqrt(p) * complex(math.cos(phi), math.sin(phi)), Mode(k + 1)))
            for k, phi in enumerate(phases)]


def wpe_state(n_nodes: int, p: float,
              phases: Sequence[float] | None = None) -> HybridState:
    """Post-excitation node state for the which-path-erasing scheme.

    Each atom independently carries an excitation with probability ``p`` and
    then holds one photon in its own output mode (port = node index, number
    encoding), with per-node phase ``phases[k]`` on the excited branch.
    """
    return _product_state(complex(1.0), _wpe_branches(n_nodes, p, phases))


def _sector_weights(terms: dict) -> dict[int, float]:
    """Photon-number weights of ``(atoms, fock key) -> amplitude`` terms, summed in key order."""
    probs: dict[int, float] = {}
    for (_, fkey), amp in sorted(terms.items()):
        n = sum(k for _, k in fkey)
        probs[n] = probs.get(n, 0.0) + abs(amp) ** 2
    return probs


def wpe_sector_probabilities(state: HybridState) -> dict[int, float]:
    """Emitted-photon-number distribution read off the expanded state."""
    return _sector_weights(state.terms)


def _wpe_tail(n_nodes: int, p: float, m: int) -> tuple[dict[int, float], float]:
    """The eraser's photon-number weights, and the weight of at least ``m`` photons.

    The weights are summed over all ``2^n`` product terms of :func:`wpe_state`,
    before :class:`~entnet.photonics.HybridState` drops those below
    ``MERGE_TOL``, so a sector of small but representable weight is kept.
    """
    terms = _product_terms(complex(1.0), _wpe_branches(n_nodes, p, None))
    if not 1 <= m <= n_nodes:
        raise ValueError(f"need 1 <= m <= {n_nodes}, got m={m}")
    sectors = _sector_weights(terms)
    return sectors, sum(prob for n, prob in sectors.items() if n >= m)


def wpe_fidelity_sim(n_nodes: int, p: float, m: int) -> float:
    """Brute-force heralded fidelity of the ``m``-excitation target.

    Emissions of more than ``m`` photons can masquerade as ``m``-click
    heralds once photons are lost, and their atomic states live in
    orthogonal excitation sectors, so the heralded fidelity is the
    ``m``-photon sector weight over the at-least-``m`` tail.  Both weights
    are summed term by term from the product state; a tail that underflows
    is refused with ``ValueError``.
    """
    sectors, tail = _wpe_tail(n_nodes, p, m)
    if tail < sys.float_info.min:
        raise ValueError(f"the weight of {m} or more photons underflows to {tail:.12g} at p={p}")
    return sectors.get(m, 0.0) / tail


def wpe_rate_sim(n_nodes: int, p: float, m: int, eta_det: float = 1.0) -> float:
    """Brute-force heralding-rate factor ``eta^m P(>= m photons)``."""
    if not 0 <= eta_det <= 1:
        raise ValueError("eta_det must be in [0, 1]")
    return eta_det ** m * _wpe_tail(n_nodes, p, m)[1]
