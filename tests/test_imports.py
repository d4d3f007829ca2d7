"""The package imports lazily: every exported name resolves to its module's own
object, and the numpy-free commands run in fresh processes without numpy."""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entnet

SRC = Path(entnet.__file__).resolve().parents[1]
RECORD = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

# The names ``entnet`` exported while its ``__init__`` imported every module,
# with the module each came from.
EXPORTED = {
    "photonics": ("CapacityError", "DimensionMismatch", "FockState", "HybridState", "Mode",
                  "PhotonPolynomial", "RegisterMismatch", "apply_mode_transform",
                  "expand_to_fock", "fock_to_polynomial", "mode"),
    "interferometers": ("MultiportMatrix", "beam_splitter", "inverse", "quarter",
                        "split_polarization_phase", "symmetric_multiport", "tritter",
                        "verify_symmetric", "with_phase_plates"),
    "states": ("GhzIndex", "QubitState", "bell_state", "classify_three_qubit", "dicke_state",
               "entanglement_class", "fidelity", "genuinely_entangled", "ghz_basis",
               "ghz_basis_state", "is_product_state", "reduced_purity", "three_tangle",
               "verify_pair_decomposition"),
    "herald": ("NUMBER_RESOLVED", "THRESHOLD", "DetectionPattern", "DetectorModel",
               "HeraldRule", "ProjectionRow", "aggregate_heralding", "dicke_family_fidelity",
               "prepare_swap_input", "run_gbsa", "subnetwork_swap", "suppressed_patterns",
               "wpe_fidelity_sim", "wpe_herald", "wpe_rate_sim", "wpe_sector_probabilities",
               "wpe_state"),
    "analytics": ("FidelityResult", "FourNodeComparison", "SchemeParams", "compare_4node",
                  "em_false_herald", "em_fidelity", "em_success", "itinerant_fidelity_2",
                  "itinerant_ghz_fidelity_sim", "itinerant_success", "st_fidelity_2",
                  "st_n_node", "st_rate_2", "swap_rate", "wpe_fidelity", "wpe_fidelity_sweep",
                  "wpe_rate"),
    "golden": ("diff_against_golden", "load_golden"),
}
SUBMODULES = ("analytics", "bipartitions", "cli", "golden", "herald", "interferometers",
              "photonics", "sources", "states", "tables")
# the moved eraser helpers, re-exported by herald for the names above and the tracer
MOVED = ("_product_state", "prepare_swap_input", "wpe_state", "wpe_sector_probabilities",
         "_wpe_tail", "wpe_fidelity_sim", "wpe_rate_sim")

NO_NUMPY = "import sys; sys.modules['numpy'] = None; "


def _run(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd,
                          capture_output=True)


@pytest.mark.parametrize("module", EXPORTED)
def test_every_exported_name_is_its_modules_own_object(module):
    owner = importlib.import_module(f"entnet.{module}")
    for name in EXPORTED[module]:
        assert getattr(entnet, name) is getattr(owner, name), name
        assert name in entnet.__all__ and name in dir(entnet)


def test_submodules_resolve_and_unknown_names_do_not():
    for name in SUBMODULES:
        assert getattr(entnet, name) is importlib.import_module(f"entnet.{name}")
        assert name in dir(entnet)
    assert not hasattr(entnet, "no_such_name")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        entnet.no_such_name


def test_herald_reexports_the_moved_eraser_helpers():
    herald, sources = entnet.herald, entnet.sources
    for name in MOVED:
        assert getattr(herald, name) is getattr(sources, name), name


def test_bare_import_loads_nothing_until_a_name_is_read():
    proc = _run(NO_NUMPY + "import entnet\n"
                "assert 'herald' in dir(entnet) and 'run_gbsa' in entnet.__all__\n"
                "loaded = sorted(m for m in sys.modules if m.startswith('entnet.'))\n"
                "assert loaded == [], loaded\n"
                "sys.modules.pop('numpy')\n"
                "assert entnet.herald is sys.modules['entnet.herald']\n"
                "assert entnet.run_gbsa is sys.modules['entnet.herald'].run_gbsa\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


def _record(command):
    return next(want for want in json.loads(RECORD.read_text())["cli_session"]
                if want["argv"][0] == command)


@pytest.mark.parametrize("argv,want_stdout", [
    ((), b""),
    (("analytics", "wpe-fidelity", "--m", "2", "--n", "4", "--p", "0.06"),
     b"0.958559340421 (absolute)\n"),
    (_record("compare")["argv"], _record("compare")["stdout_sha256"]),
    (_record("wpe")["argv"], _record("wpe")["stdout_sha256"]),
], ids=["import entnet", "analytics wpe-fidelity", "compare", "wpe --simulate"])
def test_numpy_free_commands_run_without_numpy(tmp_path, argv, want_stdout):
    """Each runs in a fresh process where ``import numpy`` fails."""
    code = NO_NUMPY + "import entnet"
    if argv:
        code += "\nfrom entnet.cli import main\nsys.exit(main(sys.argv[1:]))"
    proc = _run(code, *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if isinstance(want_stdout, str):  # a SHA-256 of the benchmark record
        assert hashlib.sha256(proc.stdout).hexdigest() == want_stdout
    else:
        assert proc.stdout == want_stdout


def test_one_norm_tolerance_is_shared():
    photonics = entnet.photonics
    assert entnet.states.NORM_TOL is photonics.NORM_TOL is entnet.herald.NORM_TOL
    assert entnet.states.NORM_TOL == 1e-9


def test_swap_table_does_not_import_numpy_ma(tmp_path):
    """``numpy.ma``, which a bare ``np.unique`` imports (and ``np.isin``, on some
    inputs), costs a ``swap-table`` process about 1 MB of its peak RSS."""
    proc = _run("import sys\nfrom entnet.cli import main\nstatus = main(sys.argv[1:])\n"
                "assert 'numpy.ma' not in sys.modules\nsys.exit(status)",
                "swap-table", "--n", "4", "--output", str(tmp_path / "f.csv"), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (tmp_path / "f.csv").stat().st_size > 0


def test_herald_reads_no_private_photonics_helper():
    """``herald`` reaches the expansion through ``propagate``'s cells and
    ``orbit_keys`` only, so no pattern table or its cache leaks into it."""
    tree = ast.parse((SRC / "entnet" / "herald.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.level == 1 and node.module == "photonics" for alias in node.names]
    assert "propagate" in imported
    assert [name for name in imported if name.startswith("_")] == ["_is_integer"]
    # nor through the module itself
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "photonics"]
