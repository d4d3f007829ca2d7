"""Single-shot multipartite entanglement toolkit for photonic networks.

Simulates heralded entanglement generation across N network nodes: exact
bosonic propagation of atom-photon entangled states through symmetric
multiport interferometers, full detection-pattern tables with projected
atomic states and probabilities, and the closed-form fidelity/rate
expressions of the practical generation schemes.

The package imports lazily (PEP 562): each exported name, and each
submodule, is imported on first access, so the closed forms and the CLI's
``compare`` and ``wpe`` commands run without importing numpy.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, by the submodule it is imported from on first access.
_EXPORTS = {
    "photonics": ("CapacityError", "DimensionMismatch", "FockState", "HybridState", "Mode",
                  "PhotonPolynomial", "RegisterMismatch", "apply_mode_transform",
                  "expand_to_fock", "fock_to_polynomial", "mode"),
    "interferometers": ("MultiportMatrix", "beam_splitter", "inverse", "quarter",
                        "split_polarization_phase", "symmetric_multiport", "tritter",
                        "verify_symmetric", "with_phase_plates"),
    "states": ("GhzIndex", "QubitState", "bell_state", "classify_three_qubit",
               "dicke_state", "entanglement_class", "fidelity", "genuinely_entangled",
               "ghz_basis", "ghz_basis_state", "is_product_state", "reduced_purity",
               "three_tangle", "verify_pair_decomposition"),
    "sources": ("prepare_swap_input", "wpe_fidelity_sim", "wpe_rate_sim",
                "wpe_sector_probabilities", "wpe_state"),
    "herald": ("NUMBER_RESOLVED", "THRESHOLD", "DetectionPattern", "DetectorModel",
               "HeraldRule", "ProjectionRow", "aggregate_heralding", "dicke_family_fidelity",
               "run_gbsa", "subnetwork_swap", "suppressed_patterns", "wpe_herald"),
    "analytics": ("FidelityResult", "FourNodeComparison", "SchemeParams", "compare_4node",
                  "em_false_herald", "em_fidelity", "em_success", "itinerant_fidelity_2",
                  "itinerant_ghz_fidelity_sim", "itinerant_success", "st_fidelity_2",
                  "st_n_node", "st_rate_2", "swap_rate", "wpe_fidelity",
                  "wpe_fidelity_sweep", "wpe_rate"),
    "golden": ("diff_against_golden", "load_golden"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("analytics", "bipartitions", "cli", "golden", "herald", "interferometers",
               "photonics", "sources", "states", "tables")

__all__ = sorted({*_ORIGIN, *_SUBMODULES})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # also binds it here
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
