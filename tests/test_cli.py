import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

import entnet.golden
from entnet.cli import main


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_multiport_quarter_verify(capsys):
    code, out, _ = run_cli("multiport", "quarter", "--verify", capsys=capsys)
    assert code == 0
    assert "unitarity residual" in out and "symmetry residual" in out
    doc = json.loads(out[out.index("{"):])
    assert doc["matrix"]["dim"] == 4
    assert doc["inverse"]["entries"][0][0] == [0.5, 0.0]
    assert doc["inverse"]["entries"][0][1] == [0.0, -0.5]


def test_multiport_sym2d_shape(capsys):
    code, out, _ = run_cli("multiport", "sym2d", "--d", "3", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"]["dim"] == 8
    assert len(doc["matrix"]["entries"]) == 8


def test_multiport_sym2d_capacity_guard(capsys):
    code, _, err = run_cli("multiport", "sym2d", "--d", "9", capsys=capsys)
    assert code == 2
    assert "1..5" in err


def test_multiport_requires_d_for_sym2d(capsys):
    code, _, err = run_cli("multiport", "sym2d", capsys=capsys)
    assert code == 2


def test_multiport_csv_format(capsys):
    code, out, _ = run_cli("multiport", "bs", "--format", "csv", capsys=capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["part"] == "matrix"
    assert float(rows[0]["re"]) == pytest.approx(2 ** -0.5, abs=1e-9)


def test_swap_table_golden_quarter(capsys):
    code, out, _ = run_cli("swap-table", "--n", "4", "--golden", capsys=capsys)
    assert code == 0
    assert "reproduced" in out


def test_swap_table_golden_tritter_reports_known_defect(capsys):
    code, _, err = run_cli("swap-table", "--n", "3", "--golden", capsys=capsys)
    assert code == 4
    assert "72 mismatches" in err


def test_swap_table_two_nodes(capsys):
    code, out, _ = run_cli("swap-table", "--n", "2", capsys=capsys)
    assert code == 0
    assert "p_BSA threshold/distinct: 0.5 (1/2)" in out
    assert "p_BSA number-resolved:    0.5 (1/2)" in out


def test_swap_table_rejects_large_n(capsys):
    code, _, err = run_cli("swap-table", "--n", "5", capsys=capsys)
    assert code == 2


def test_swap_table_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli("swap-table", "--n", "4", "--output", str(out1), capsys=capsys)[0] == 0
    assert run_cli("swap-table", "--n", "4", "--output", str(out2), capsys=capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.DictReader(out1.read_text().splitlines()))
    assert len(rows) == 258 + 72
    byname = {r["pattern"]: r for r in rows}
    assert byname["h1 h2 h3 h4"]["probability_rational"] == "1/64"
    assert byname["h1 h2 h3 h4"]["class"] == "product"
    assert byname["h1 h2 v1 v2"]["class"] == "entangled"
    assert byname["h1 h2 v1 v3"]["class"] == "suppressed"


def test_swap_table_max_clicks_filter(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, _, _ = run_cli("swap-table", "--n", "4", "--max-clicks-per-detector", "1",
                         "--format", "json", "--output", str(out), capsys=capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 46
    assert doc["aggregate"]["threshold_distinct"] == pytest.approx(7 / 32)
    assert doc["aggregate"]["number_resolved"] == pytest.approx(7 / 8)


def test_swap_table_rejects_negative_max_clicks(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli("swap-table", "--n", "2", "--max-clicks-per-detector", "-1",
                                "--output", str(out), capsys=capsys)
    assert code == 2
    assert "--max-clicks-per-detector must be >= 0" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("m", ["3..1", ",", ""])
def test_wpe_rejects_empty_m_list(tmp_path, capsys, m):
    out = tmp_path / "w.csv"
    code, stdout, err = run_cli("wpe", "--n", "4", "--m", m, "--p", "0.1",
                                "--output", str(out), capsys=capsys)
    assert code == 2
    assert "selects no excitation number" in err
    assert stdout == "" and not out.exists()


def test_wpe_point_and_simulate(capsys):
    code, out, _ = run_cli("wpe", "--n", "2", "--m", "1", "--p", "0.06",
                           "--simulate", capsys=capsys)
    assert code == 0
    assert "max |analytic - simulated| fidelity" in out
    reader = csv.DictReader(io.StringIO(out[out.index("p,m,"):]))
    row = next(reader)
    assert float(row["fidelity"]) == pytest.approx(0.969, abs=5e-4)


def test_wpe_requires_p_or_sweep(capsys):
    code, _, err = run_cli("wpe", "--n", "2", "--m", "1", capsys=capsys)
    assert code == 2


def test_wpe_range_error(capsys):
    code, _, err = run_cli("wpe", "--n", "2", "--m", "1", "--p", "1.5", capsys=capsys)
    assert code == 2
    assert "p must be in" in err


def test_wpe_sweep_deterministic(tmp_path, capsys):
    args = ("wpe", "--n", "4", "--m", "1..3", "--sweep", "0.01:0.5:25",
            "--eta", "0.05", "--output")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, str(a), capsys=capsys)[0] == 0
    assert run_cli(*args, str(b), capsys=capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    rows = list(csv.DictReader(a.read_text().splitlines()))
    assert len(rows) == 75
    assert {r["m"] for r in rows} == {"1", "2", "3"}


def test_compare_outputs_crossover(capsys):
    code, out, _ = run_cli("compare", "--eta-grid", "0:1:5", capsys=capsys)
    assert code == 0
    assert "crossover eta: 0.755928946018" in out
    rows = list(csv.DictReader(io.StringIO(out[out.index("eta_det"):])))
    last = rows[-1]
    assert float(last["r_bell_chain4"]) == pytest.approx(0.125)
    assert float(last["r_quad"]) == pytest.approx(0.21875)


def test_compare_empty_grid(capsys):
    code, _, _ = run_cli("compare", "--eta-grid", ",", capsys=capsys)
    assert code == 2


def test_analytics_list_and_eval(capsys):
    code, out, _ = run_cli("analytics", "--list", capsys=capsys)
    assert code == 0
    assert "wpe-fidelity" in out and "st-fidelity-2" in out
    code, out, _ = run_cli("analytics", "st-fidelity-2", "--eta", "1", capsys=capsys)
    assert code == 0
    assert out.strip() == "1 (absolute)"
    code, out, _ = run_cli("analytics", "wpe-fidelity", "--m", "1", "--n", "3",
                           "--p", "0.06", capsys=capsys)
    assert out.startswith("0.938801529962")
    code, out, _ = run_cli("analytics", "em-fidelity", "--n", "2", "--f-ph", "0.95",
                           "--p-em", "1e-13", "--p-false", "1e-13", capsys=capsys)
    assert out.strip() == "0.6 (absolute)"
    code, out, _ = run_cli("analytics", "wpe-rate", "--m", "1", "--n", "2",
                           "--p", "0.06", "--eta", "0.5", capsys=capsys)
    assert out.strip().endswith("(proportional factor)")


def test_analytics_unknown_name_suggests(capsys):
    code, _, err = run_cli("analytics", "wpe-fidelty", capsys=capsys)
    assert code == 2
    assert "did you mean" in err and "wpe-fidelity" in err


def test_analytics_validates_ranges_and_flags(capsys):
    code, _, err = run_cli("analytics", "st-fidelity-2", "--eta", "1.5", capsys=capsys)
    assert code == 2
    assert "eta" in err
    code, _, err = run_cli("analytics", "st-fidelity-2", "--eta", "1", "--bogus", "2",
                           capsys=capsys)
    assert code == 2
    assert "bogus" in err
    code, _, err = run_cli("analytics", "st-fidelity-2", capsys=capsys)
    assert code == 2
    assert "eta" in err


def test_golden_env_override(tmp_path, monkeypatch, capsys):
    shutil.copy(entnet.golden.golden_path("quarter"), tmp_path / "quarter.json")
    monkeypatch.setenv(entnet.golden.GOLDEN_ENV, str(tmp_path))
    code, out, _ = run_cli("swap-table", "--n", "4", "--golden", capsys=capsys)
    assert code == 0
    monkeypatch.setenv(entnet.golden.GOLDEN_ENV, str(tmp_path / "missing"))
    code, _, err = run_cli("swap-table", "--n", "4", "--golden", capsys=capsys)
    assert code == 3


def test_output_io_failure(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, _, err = run_cli("swap-table", "--n", "2", "--output", str(target),
                           capsys=capsys)
    assert code == 3


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "entnet.cli", "analytics",
                           "st-fidelity-2", "--eta", "0.81"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.9025 (absolute)"
