"""Single-shot multipartite entanglement toolkit for photonic networks.

Simulates heralded entanglement generation across N network nodes: exact
bosonic propagation of atom-photon entangled states through symmetric
multiport interferometers, full detection-pattern tables with projected
atomic states and probabilities, and the closed-form fidelity/rate
expressions of the practical generation schemes.
"""

from .photonics import (CapacityError, DimensionMismatch, FockState, HybridState,
                        Mode, PhotonPolynomial, RegisterMismatch, apply_mode_transform,
                        expand_to_fock, fock_to_polynomial, mode)
from .interferometers import (MultiportMatrix, beam_splitter, inverse, quarter,
                              split_polarization_phase, symmetric_multiport,
                              tritter, verify_symmetric, with_phase_plates)
from .states import (GhzIndex, QubitState, bell_state, classify_three_qubit,
                     dicke_state, entanglement_class, fidelity, genuinely_entangled,
                     ghz_basis, ghz_basis_state, is_product_state, reduced_purity,
                     three_tangle, verify_pair_decomposition)
from .herald import (NUMBER_RESOLVED, THRESHOLD, DetectionPattern, DetectorModel,
                     HeraldRule, ProjectionRow, aggregate_heralding,
                     dicke_family_fidelity, prepare_swap_input, run_gbsa,
                     subnetwork_swap, suppressed_patterns, wpe_fidelity_sim,
                     wpe_herald, wpe_rate_sim, wpe_sector_probabilities, wpe_state)
from .analytics import (FidelityResult, FourNodeComparison, SchemeParams,
                        compare_4node, em_false_herald, em_fidelity, em_success,
                        itinerant_fidelity_2, itinerant_ghz_fidelity_sim,
                        itinerant_success, st_fidelity_2, st_n_node, st_rate_2,
                        swap_rate, wpe_fidelity, wpe_fidelity_sweep, wpe_rate)
from .golden import diff_against_golden, load_golden

__version__ = "0.1.0"
