import csv
import hashlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import entnet.golden
from entnet.cli import main
from entnet.tables import fmt


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


def test_swap_table_golden_for_two_nodes_is_refused_before_any_work(monkeypatch, capsys):
    import entnet.herald

    def no_work(*args):
        raise AssertionError("run_gbsa ran")

    monkeypatch.setattr(entnet.herald, "run_gbsa", no_work)
    code, out, err = run_cli("swap-table", "--n", "2", "--golden", capsys=capsys)
    assert code == 2
    assert err == "error: no golden table ships for --n 2\n" and out == ""


@pytest.mark.parametrize("m", ["3..1", ",", ""])
def test_wpe_rejects_empty_m_list(tmp_path, capsys, m):
    out = tmp_path / "w.csv"
    code, stdout, err = run_cli("wpe", "--n", "4", "--m", m, "--p", "0.1",
                                "--output", str(out), capsys=capsys)
    assert code == 2
    assert "selects no excitation number" in err
    assert stdout == "" and not out.exists()


@pytest.mark.parametrize("argv,want", [
    ("wpe --n 4 --m 1..x --p 0.1", "error: bad range --m '1..x'; use lo..hi with integer ends\n"),
    ("wpe --n 4 --m 1..2..3 --p 0.1",
     "error: bad range --m '1..2..3'; use lo..hi with integer ends\n"),
    ("wpe --n 4 --m 1 --sweep 0:1:2.5", "error: bad grid '0:1:2.5'; use start:stop[:num]\n"),
    ("compare --eta-grid 0:1:2.5", "error: bad grid '0:1:2.5'; use start:stop[:num]\n"),
    ("compare --eta-grid 0:x", "error: bad grid '0:x'; use start:stop[:num]\n"),
    ("wpe --n 4 --m 1,x --p 0.1", "error: bad list --m '1,x'; use comma-separated integers\n"),
    ("compare --eta-grid 0.1,x", "error: bad list '0.1,x'; use comma-separated numbers\n"),
])
def test_parse_errors_name_the_flag_value(capsys, argv, want):
    assert run_cli(*shlex.split(argv), capsys=capsys) == (2, "", want)


# each refusal raises in a handler, and main alone prints it and exits 2
@pytest.mark.parametrize("argv,err", [
    ("multiport sym2d --d 6", "d must be an integer in 1..5 (got 6); dim 2^d is capped at 32"),
    ("wpe --n 9 --m 1 --p 0.1 --simulate", "n_nodes must be in 1..8, got 9"),
    ("wpe --n 8 --m 8 --p 1e-300 --simulate",
     "the weight of 8 or more photons underflows to 0 at p=1e-300"),
    ("wpe --n 2000 --m 1 --p 0.5",
     "n_nodes=2000 is too large: C(2000, 230) does not fit in a float"),
    ("wpe --n 0 --m 1 --p 0.1", "need at least 1 node, got n_nodes=0"),
    ("wpe --n 4 --m 5 --p 0.1", "need 1 <= m <= 4, got m=5"),
    ("wpe --n 4 --m 3..1 --p 0.1", "--m '3..1' selects no excitation number"),
    ("wpe --n 4 --m x --p 0.1", "bad list --m 'x'; use comma-separated integers"),
    ("wpe --n 4 --m 1 --sweep 0.1:0.5:0", "grid needs at least one point"),
    ("wpe --n 4 --m 1 --sweep 0:1:2:3", "bad grid '0:1:2:3'; use start:stop[:num]"),
    ("wpe --n 4 --m 1 --sweep 0.1:0.5:3 --eta 2", "eta_det must be in [0, 1], got 2.0"),
    ("compare --eta-grid 1.5", "eta_det must be in [0, 1], got 1.5"),
    ("compare --eta-grid 0.5 --r-t -1", "r_t must be finite and nonnegative, got -1.0"),
    ("compare --eta-grid x", "bad list 'x'; use comma-separated numbers"),
    ("analytics em-fidelity --n 3 --f-ph 0.9 --p-em 0 --p-false 0",
     "p_em + p_false must be positive"),
    ("analytics em-fidelity --n 0 --f-ph 0.9 --p-em 1 --p-false 0", "need at least 1 node"),
    ("analytics em-fidelity --n 3 --f-ph 0.9 --p-em -1 --p-false 0",
     "p_em must be finite and nonnegative, got -1.0"),
    ("analytics st-fidelity-2 --eta 1.5", "eta must be in [0, 1], got 1.5"),
    ("analytics st-rate-2 --eta-p 2 --eta-out 1 --eta-net 1 --eta-ent 1 --eta-det 1",
     "eta_p must be in [0, 1], got 2.0"),
    ("analytics st-n-fidelity --eta-a0an 2", "eta_a0an must be in [0, 1], got 2.0"),
    ("analytics st-n-rate --n 1 --eta-p 1 --eta-out 1 --eta-net 1 --eta-a0an 1 --eta-ent 1"
     " --eta-det 1", "need at least 2 receiving nodes"),
    ("analytics st-n-rate --n 3 --eta-p 1 --eta-out 1 --eta-net 1 --eta-a0an 1 --eta-ent 1"
     " --eta-det -1", "eta_det must be in [0, 1], got -1.0"),
    ("analytics itinerant-fidelity-2 --f-pa 0.4", "f_pa must be in [0.5, 1], got 0.4"),
    ("analytics itinerant-success --n 1 --eta-t 1 --eta-c 1 --eta-det 1",
     "need at least 2 nodes"),
    ("analytics itinerant-success --n 3 --eta-t 1 --eta-c 1.5 --eta-det 1",
     "eta_c must be in [0, 1], got 1.5"),
    ("analytics itinerant-ghz-sim --n 11 --f-pa 0.9", "n_nodes must be in 2..10"),
    ("analytics itinerant-ghz-sim --n 3 --f-pa 0.6",
     "f_pa must be in (0.625, 1]: a single-qubit depolarizing channel cannot reach "
     "two-node fidelities at or below 1/4"),
    ("analytics em-success --n 1 --eta-abs 1 --eta-det 1 --p-src 1", "need at least 2 nodes"),
    ("analytics em-success --n 2 --eta-abs 1 --eta-det 1 --p-src 2",
     "p_epr must be in [0, 1], got 2.0"),
    ("analytics em-false-herald --n 0 --p-real 0.5 --p-dark 0.5", "need at least 1 detector"),
    ("analytics em-false-herald --n 3 --p-real 0.5 --p-dark 1.5",
     "p_dark must be in [0, 1], got 1.5"),
    ("analytics swap-rate --n 1 --p-bsa 0.5 --eta 0.9", "need at least 2 nodes"),
    ("analytics swap-rate --n 3 --p-bsa 1.5 --eta 0.9", "p_bsa must be in [0, 1], got 1.5"),
    ("analytics wpe-rate --m 1 --n 3 --p 0.1 --eta 2", "eta_det must be in [0, 1], got 2.0"),
])
def test_refused_input_exits_2_with_the_message(capsys, argv, err):
    assert run_cli(*shlex.split(argv), capsys=capsys) == (2, "", f"error: {err}\n")


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
    code, out, err = run_cli("wpe", "--n", "4", "--m", "1", "--p", "0.5", "--sweep", "0.1",
                             capsys=capsys)
    assert code == 2
    assert "not allowed with argument" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("wpe", "--n", "0", "--m", "1", "--p", "0.1"),
    ("analytics", "wpe-fidelity", "--m", "1", "--n", "0", "--p", "0.1"),
    ("analytics", "wpe-rate", "--m", "1", "--n", "0", "--p", "0.1", "--eta", "1"),
])
def test_wpe_zero_nodes_blames_the_node_count(capsys, argv):
    code, _, err = run_cli(*argv, capsys=capsys)
    assert code == 2
    assert err == "error: need at least 1 node, got n_nodes=0\n"


@pytest.mark.parametrize("argv", [
    ("wpe", "--n", "2000", "--m", "1", "--p", "0.5"),
    ("analytics", "wpe-fidelity", "--m", "1", "--n", "2000", "--p", "0.5"),
    ("analytics", "em-false-herald", "--n", "2000", "--p-real", "0.5", "--p-dark", "0.5"),
])
def test_closed_forms_refuse_a_binomial_past_float_range(capsys, argv):
    code, out, err = run_cli(*argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: n_nodes=2000 is too large: C(2000, ")


@pytest.mark.parametrize("argv,want", [
    (("wpe", "--n", "10", "--m", "5", "--p", "1e-200"), "p,m,fidelity,rate\r\n1e-200,5,1,0\r\n"),
    (("analytics", "wpe-fidelity", "--m", "1099", "--n", "1100", "--p", "0.5"),
     "0.999091734787 (absolute)\n"),
    (("analytics", "wpe-fidelity", "--m", "5", "--n", "10", "--p", "1e-200"),
     "1 (absolute)\n"),
])
def test_wpe_fidelity_with_an_underflowing_tail(capsys, argv, want):
    assert run_cli(*argv, capsys=capsys)[:2] == (0, want)


def test_wpe_simulation_refuses_an_underflowing_tail(capsys):
    code, out, err = run_cli("wpe", "--n", "8", "--m", "4", "--p", "1e-200", "--simulate",
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: the weight of 4 or more photons underflows to 0 at p=1e-200\n"


def test_wpe_simulation_keeps_sectors_below_the_merge_tolerance(capsys):
    # the 5-photon sector at p = 1e-5 has amplitudes near 3e-13; at p = 1e-7 the
    # 4-or-more tail is about 7e-27, far from an underflow
    code, out, _ = run_cli("wpe", "--n", "8", "--m", "4", "--p", "1e-5", "--simulate",
                           capsys=capsys)
    assert code == 0
    deviation = out.splitlines()[0].rsplit(" ", 1)[1]
    assert out.startswith("max |analytic - simulated| fidelity:") and float(deviation) <= 1e-12
    assert run_cli("wpe", "--n", "8", "--m", "4", "--p", "1e-7", "--simulate",
                   capsys=capsys)[0] == 0


def test_wpe_simulation_refuses_more_than_eight_nodes(capsys):
    code, out, err = run_cli("wpe", "--n", "9", "--m", "1", "--p", "0.1", "--simulate",
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: n_nodes must be in 1..8, got 9\n"


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


@pytest.mark.parametrize("r_t", ["nan", "inf"])
def test_compare_refuses_non_finite_trial_rate(capsys, r_t):
    code, out, err = run_cli("compare", "--eta-grid", "0:1:5", "--r-t", r_t, capsys=capsys)
    assert (code, out) == (2, "")
    assert f"r_t must be finite and nonnegative, got {r_t}" in err


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


@pytest.mark.parametrize("text,cause", [('{"rows": []}', "IndexError"),
                                        ("not json", "JSONDecodeError")])
def test_malformed_golden_table_is_an_io_failure(tmp_path, monkeypatch, capsys, text, cause):
    (tmp_path / "quarter.json").write_text(text)
    monkeypatch.setenv(entnet.golden.GOLDEN_ENV, str(tmp_path))
    code, out, err = run_cli("swap-table", "--n", "4", "--golden", capsys=capsys)
    assert code == 3
    assert err.startswith("error: cannot read golden table: ")
    assert cause in err and "Traceback" not in err
    assert out == ""


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wpe_rejects_empty_sweep(tmp_path, capsys, fmt):
    out = tmp_path / "w.out"
    code, stdout, err = run_cli("wpe", "--n", "4", "--m", "1", "--sweep", ",",
                                "--format", fmt, "--output", str(out), capsys=capsys)
    assert code == 2
    assert "selects no p" in err
    assert stdout == "" and not out.exists()


def test_analytics_accepts_flag_equals_value(capsys):
    code, out, err = run_cli("analytics", "st-fidelity-2", "--eta=0.81", capsys=capsys)
    assert code == 0, err
    assert out == "0.9025 (absolute)\n"


def test_analytics_formula_help(capsys):
    code, out, _ = run_cli("analytics", "st-fidelity-2", "--help", capsys=capsys)
    assert code == 0
    assert "--eta" in out


def _state_parts(cell):
    return {bits: (re, im) for bits, re, im in
            (part.split(":") for part in cell.split(";") if part)}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_table_csv_and_json_agree(tmp_path, capsys, n):
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert run_cli("swap-table", "--n", str(n), "--output", str(csv_out), capsys=capsys)[0] == 0
    assert run_cli("swap-table", "--n", str(n), "--format", "json",
                   "--output", str(json_out), capsys=capsys)[0] == 0
    records = list(csv.DictReader(io.StringIO(csv_out.read_text(), newline="")))
    doc = json.loads(json_out.read_text())
    shown = [r for r in records if r["class"] != "suppressed"]
    assert records[:len(shown)] == shown
    assert [r["pattern"] for r in records[len(shown):]] == doc["suppressed"]
    assert [r["pattern"] for r in shown] == [row["pattern"] for row in doc["rows"]]
    for rec, row in zip(shown, doc["rows"]):
        assert rec["class"] == row["class"]
        assert rec["probability_rational"] == row["probability_rational"]
        assert rec["probability"] == fmt(row["probability"])
        assert _state_parts(rec["state"]) == {
            bits: (fmt(re), fmt(im)) for bits, (re, im) in row["state"].items()}


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("entnet ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    want = 4 if argv == ["swap-table", "--n", "3", "--golden"] else 0
    assert run_cli(*argv, capsys=capsys)[0] == want


def _cli_session_record():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    return json.loads(path.read_text())["cli_session"]


def _sha256(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


# the benchmark's seven cli_session commands in-process, so a byte change fails here too
@pytest.mark.parametrize("want", _cli_session_record(),
                         ids=lambda want: " ".join(want["argv"]))
def test_cli_session_matches_the_benchmark_record(tmp_path, capsys, want):
    argv = [arg.format(work=tmp_path) for arg in want["argv"]]
    code, out, _ = run_cli(*argv, capsys=capsys)
    data = Path(argv[argv.index("--output") + 1]).read_bytes() if "--output" in argv else None
    assert code == want["exit"]
    assert _sha256(out.encode()) == want["stdout_sha256"]
    assert _sha256(data) == want["output_sha256"]


# the same seven commands as fresh processes, as the benchmark runs them: a handler
# that misses one of its own imports passes in-process but fails here
@pytest.mark.parametrize("want", _cli_session_record(),
                         ids=lambda want: " ".join(want["argv"]))
def test_cli_session_processes_match_the_benchmark_record(tmp_path, want):
    argv = [arg.format(work=tmp_path) for arg in want["argv"]]
    src = Path(entnet.golden.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "entnet.cli", *argv], env=env,
                          cwd=tmp_path, capture_output=True)
    data = Path(argv[argv.index("--output") + 1]).read_bytes() if "--output" in argv else None
    assert proc.returncode == want["exit"]
    assert _sha256(proc.stdout) == want["stdout_sha256"]
    assert _sha256(data) == want["output_sha256"]
