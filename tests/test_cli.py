import csv
import json

import numpy as np
import pytest

from hubsim import dyson, netgraph, refcheck
from hubsim.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def graph_file(tmp_path):
    path = tmp_path / "g.json"
    netgraph.save_graph(netgraph.dg8(), str(path))
    return str(path)


def test_gen_then_validate_roundtrip(tmp_path):
    out = tmp_path / "gen.json"
    assert run_cli("gen", "--n", "8", "--m", "2", "--s", "4", "--h", "2",
                   "--seed", "7", "-o", str(out)) == 0
    report = tmp_path / "report.json"
    assert run_cli("validate", str(out), "-o", str(report)) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True


def test_gen_infeasible_exits_2(tmp_path):
    rc = run_cli("gen", "--n", "16", "--m", "8", "--s", "4", "--h", "2",
                 "--seed", "0", "-o", str(tmp_path / "x.json"))
    assert rc == 2


def test_validate_failure_exits_1(tmp_path):
    doc = netgraph.to_json_dict(netgraph.dg8())
    doc["params"]["s"] = 1  # regular degree cap now violated
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("validate", str(path)) == 1


def test_split_output(graph_file, tmp_path, capsys):
    assert run_cli("split", graph_file) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["a_minus"] == [[6, 0]]
    assert doc["a_h"] == [[6, 7]]
    assert doc["a_r"] == [[1, 2]]
    assert doc["identity_holds"] is True


def test_spectrum_output(graph_file, capsys):
    assert run_cli("spectrum", graph_file) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda_plus"] == pytest.approx(np.sqrt(12))
    assert doc["zero_eigenvalue_count"] == 6


def test_spectrum_hub_free_exits_2(tmp_path):
    path = tmp_path / "g0.json"
    netgraph.save_graph(netgraph.generate(8, 0, 2, 1, 0), str(path))
    assert run_cli("spectrum", str(path)) == 2


def test_bad_hub_list_exits_2(tmp_path):
    doc = netgraph.to_json_dict(netgraph.dg8())
    path = tmp_path / "bad_hubs.json"
    for hubs in ([6, 9], [6, 6], [6], [5, 6, 7]):
        path.write_text(json.dumps({**doc, "hubs": hubs}))
        assert run_cli("validate", str(path)) == 2
        assert run_cli("spectrum", str(path)) == 2


def test_verify_be_passes(graph_file, tmp_path):
    out = tmp_path / "verify.json"
    assert run_cli("verify-be", graph_file, "--t", "0.9", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["failures"] == []
    # every encoding is exact and claims eps 0: no eps to set or report
    assert set(doc) == {"graph", "t", "encodings", "failures"}
    assert set(doc["encodings"]) == {"a_hub", "a_reg", "a_minus", "h2",
                                     "exp_g"}
    assert doc["encodings"]["a_hub"]["error"] <= 1e-10
    # the exact rank-two circuit: no ancilla, error at rounding level
    assert doc["encodings"]["exp_g"]["ancillas"] == 0
    assert doc["encodings"]["exp_g"]["error"] <= 1e-12


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_verify_be_non_finite_t_exits_2(graph_file, t, capsys):
    assert run_cli("verify-be", graph_file, "--t", t) == 2
    assert "t must be finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", ["inf", "nan"])
def test_non_finite_t_is_refused_before_any_reference(graph_file, t, capsys,
                                                      tmp_path):
    # no NaN reference is computed first: numpy would warn on it
    assert run_cli("verify-be", graph_file, "--t", t) == 2
    assert "t must be finite" in capsys.readouterr().err
    assert run_cli("simulate", graph_file, "--t", t, "--method", "dense",
                   "-o", str(tmp_path / "r.json")) == 2
    assert "t must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("method", ["dense", "classical-ff", "circuit"])
def test_simulate_negative_t_exits_2(graph_file, method, capsys, tmp_path):
    # every method refuses a backward evolution, the dense reference too
    assert run_cli("simulate", graph_file, "--t", "-1", "--method", method,
                   "--check", "-o", str(tmp_path / "r.json")) == 2
    assert "t must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_simulate_t0_state_passthrough(graph_file, tmp_path):
    state_out = tmp_path / "state.json"
    assert run_cli("simulate", graph_file, "--t", "0", "--method", "circuit",
                   "--psi0", "basis:3", "--state-out", str(state_out),
                   "-o", str(tmp_path / "rep.json")) == 0
    doc = json.loads(state_out.read_text())
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    expected = np.zeros(8, dtype=complex)
    expected[3] = 1.0
    assert np.array_equal(amps, expected)


def test_simulate_check_small_error(graph_file, tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli("simulate", graph_file, "--t", "1", "--eps", "1e-3",
                   "--method", "classical-ff", "--check", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["final_error_vs_reference"] <= 1e-3
    assert doc["segments"] == 16


def test_simulate_dense_method(graph_file, tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli("simulate", graph_file, "--t", "0.8", "--method", "dense",
                   "--check", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["final_error_vs_reference"] <= 1e-12


def test_simulate_reports_byte_identical(graph_file, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert run_cli("simulate", graph_file, "--t", "0.5", "--eps", "1e-2",
                       "--method", "classical-ff", "--check",
                       "-o", str(out)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_psi0_file(graph_file, tmp_path):
    psi = np.full(8, 1.0 / np.sqrt(8.0))
    state = {"n": 8, "amplitudes": [[float(x), 0.0] for x in psi]}
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(json.dumps(state))
    assert run_cli("simulate", graph_file, "--t", "0.25", "--eps", "1e-2",
                   "--method", "classical-ff", "--check",
                   "--psi0", f"file:{psi_path}",
                   "-o", str(tmp_path / "rep.json")) == 0


def test_simulate_bad_psi0_exits_2(graph_file, tmp_path):
    assert run_cli("simulate", graph_file, "--t", "1",
                   "--psi0", "basis:99", "-o", str(tmp_path / "r.json")) == 2
    assert run_cli("simulate", graph_file, "--t", "1",
                   "--psi0", "wat", "-o", str(tmp_path / "r.json")) == 2
    bad = tmp_path / "bad_state.json"
    bad.write_text(json.dumps({"n": 8}))
    assert run_cli("simulate", graph_file, "--t", "1",
                   "--psi0", f"file:{bad}", "-o", str(tmp_path / "r.json")) == 2
    bad.write_text(json.dumps({"amplitudes": [1, 0, 0, 0, 0, 0, 0, 0]}))
    assert run_cli("simulate", graph_file, "--t", "1",
                   "--psi0", f"file:{bad}", "-o", str(tmp_path / "r.json")) == 2
    for time_eps in (("--t", "1", "--eps", "0"), ("--t", "1", "--eps", "nan"),
                     ("--t", "inf"), ("--t", "nan")):
        assert run_cli("simulate", graph_file, *time_eps,
                       "--method", "classical-ff",
                       "-o", str(tmp_path / "r.json")) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", ["classical-ff", "circuit"])
def test_simulate_unreachable_eps_exits_2_without_warnings(graph_file,
                                                           tmp_path, capsys,
                                                           method):
    # eps=1e-16 asks the amplification for 6.25e-19: refused before the
    # series totals of K=21, D=2^58 overflow, naming the eps given
    out = tmp_path / "r.json"
    assert run_cli("simulate", graph_file, "--t", "1", "--eps", "1e-16",
                   "--method", method, "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert "eps=1e-16" in err and "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["dense", "classical-ff", "circuit"])
def test_simulate_refuses_bad_input_before_solving(graph_file, tmp_path,
                                                   monkeypatch, capsys,
                                                   method):
    # a NaN amplitude and a bad eps exit 2 with the check's own message,
    # before either the solve or the dense reference runs
    def refuse(*args, **kwargs):
        raise AssertionError("solved a rejected input")

    monkeypatch.setattr(dyson, "simulate_full", refuse)
    monkeypatch.setattr(refcheck, "dense_expm", refuse)
    out = str(tmp_path / "r.json")
    nan_state = tmp_path / "nan_state.json"
    nan_state.write_text(json.dumps(
        {"amplitudes": [[float("nan"), 0.0]] + [[0.0, 0.0]] * 7}))
    assert run_cli("simulate", graph_file, "--t", "1", "--method", method,
                   "--check", "--psi0", f"file:{nan_state}", "-o", out) == 2
    assert "state file norm nan is not 1" in capsys.readouterr().err
    for eps in ("0", "-1", "nan"):
        assert run_cli("simulate", graph_file, "--t", "1", "--eps", eps,
                       "--method", method, "--check", "-o", out) == 2
        assert "eps must be finite and positive" in capsys.readouterr().err


def test_unknown_flag_exits_2(graph_file):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", graph_file, "--badflag")
    assert exc.value.code == 2


def test_resource_cap_exits_3(graph_file, monkeypatch, tmp_path):
    monkeypatch.setenv("HUBSIM_QUBIT_CAP", "6")
    rc = run_cli("simulate", graph_file, "--t", "0.5", "--eps", "1e-2",
                 "--method", "circuit", "-o", str(tmp_path / "r.json"))
    assert rc == 3


def test_simulate_past_dense_cap_exits_3(monkeypatch, tmp_path, capsys):
    # 8192 nodes = 13 qubits, one past the dense-block cap; nothing the
    # leaf source would build may run
    def refuse(*args, **kwargs):
        raise AssertionError("built past the dense-block cap")

    monkeypatch.setattr(dyson, "build_oracle_set", refuse)
    monkeypatch.setattr(dyson, "classical_expG_apply", refuse)
    path = tmp_path / "big.json"
    netgraph.save_graph(netgraph._from_edges(8192, [], set(), 0, 1, 2),
                        str(path))
    for method in ("circuit", "classical-ff"):
        assert run_cli("simulate", str(path), "--t", "0.5", "--eps", "1e-2",
                       "--method", method, "-o", str(tmp_path / "r.json")) == 3
        assert "leaf_blocks" in capsys.readouterr().err


def test_bench_deterministic_counts(graph_file, tmp_path):
    csv1, csv2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    for path in (csv1, csv2):
        assert run_cli("bench", graph_file, "--suite", "t",
                       "--values", "1,2", "--eps", "1e-2",
                       "-o", str(path)) == 0

    def stable_rows(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in rows]

    rows = stable_rows(csv1)
    assert rows == stable_rows(csv2)
    stage = {float(r["t"]): int(r["query_count"])
             for r in rows if r["oracle"] == "expG_stage"}
    assert stage[2.0] == 2 * stage[1.0]


def test_bench_n_suite(tmp_path):
    out = tmp_path / "bn.csv"
    assert run_cli("bench", "--suite", "n", "--values", "8,16",
                   "--t", "0.5", "--eps", "1e-2", "-o", str(out)) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["N"] for r in rows} == {"8", "16"}


def test_missing_file_exits_2(tmp_path):
    assert run_cli("validate", str(tmp_path / "nope.json")) == 2
