import json
from fractions import Fraction

import numpy as np
import pytest

from fareyflow.cli import UsageError, load_config, main, parse_theta
from fareyflow.reporting import ReportRecord, read_journal, stable_view


def test_parse_theta_notations():
    cf = parse_theta("rational:22/7")
    assert cf.source == "finite" and cf.digits(1) == [3, 7]
    cf = parse_theta("periodic:1|1")
    assert (cf.a0, cf.period) == (1, (1,))
    cf = parse_theta("periodic:2,1|3,4")
    assert (cf.a0, cf.tail, cf.period) == (2, (1,), (3, 4))
    cf = parse_theta("decimal:3.14159@12")
    assert cf.digits(1) == [3, 7]
    cf = parse_theta("surd:1,1,5,2")
    assert cf.period == (1,)
    for bad in ("periodic:|2", "periodic:1|", "nope:3", "surd:1,2,3",
                "rational:1/0"):
        with pytest.raises(UsageError):
            parse_theta(bad)


def test_load_config_layers(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[lagrange]\ndepth = 7\nparity = odd\n")
    params = load_config("lagrange", {"parity": "even", "theta": None,
                                      "depth": None, "tail_depth": None, "L": None},
                         str(cfg))
    assert params["depth"] == "7"          # file overrides default
    assert params["parity"] == "even"      # flag overrides file
    with pytest.raises(UsageError):
        load_config("lagrange", {}, str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("[lagrange]\nwat = 1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        load_config("lagrange", {}, str(bad))
    with pytest.raises(UsageError):
        load_config("unknown-sub", {}, None)


def test_every_default_has_a_flag_of_its_type():
    from fareyflow.cli import DEFAULTS, _build_parser
    ap = _build_parser()
    for sub, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            value = "1" if default is None else str(default)
            ns = ap.parse_args([sub, "--" + key.replace("_", "-"), value])
            got = getattr(ns, key)
            assert type(got) is (str if default is None else type(default)), (sub, key)
            assert got == (value if default is None else default)


def test_exit_codes(tmp_path):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "farey", "--triangle", "0/1,1/2,1/1"]) == 0
    assert main(["--out", j, "farey", "--triangle", "0/1,2/3,1/1"]) == 2
    assert main(["--out", j, "lagrange", "--theta", "bogus:1"]) == 1
    assert main([]) == 1


def test_failed_run_appends_error_record(tmp_path):
    argv = ["density", "--samples", "10", "--depth", "5"]
    views = []
    for name in ("a.jsonl", "b.jsonl"):
        j = str(tmp_path / name)
        assert main(["--out", j] + argv) == 2
        recs = read_journal(j)
        assert len(recs) == 1
        rec = recs[0]
        assert rec["verdict"] == "error" and rec["op"] == "density"
        assert rec["outputs"] == {"error": "ValueError: depth must be >= 10"}
        assert rec["config"]["depth"] == 5
        views.append(stable_view(rec))
    assert views[0] == views[1]


def test_record_plains_numpy_scalars_and_rejects_arrays():
    rec = ReportRecord("op", {"n": np.int64(3)}, {"x": np.float64(0.5)}, {}, "pass", "")
    data = rec.to_dict()
    assert data["config"] == {"n": 3} and type(data["outputs"]["x"]) is float
    with pytest.raises(ValueError, match="size 1"):
        ReportRecord("op", {}, {"x": np.zeros(2)}, {}, "pass", "").to_dict()


def test_journal_records_same_hash(tmp_path):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "convergents", "--theta", "periodic:1|2", "--depth", "6"]) == 0
    assert main(["--out", j, "convergents", "--theta", "periodic:1|2", "--depth", "6"]) == 0
    recs = read_journal(j)
    assert len(recs) == 2
    assert recs[0]["config_hash"] == recs[1]["config_hash"]
    assert recs[0]["schema"] == 1
    assert stable_view(recs[0]) == stable_view(recs[1])
    assert "timestamp" in recs[0] and "timestamp" not in stable_view(recs[0])


def test_lagrange_record_contents(tmp_path):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "lagrange", "--theta", "periodic:1|1",
                 "--parity", "even", "--depth", "8"]) == 0
    rec = read_journal(j)[0]
    lag = rec["outputs"]["lagrange"]
    assert lag["parity"] == "even"
    assert abs(lag["value"] - 5 ** 0.5) < 1e-12
    assert lag["lo"] <= lag["value"] <= lag["hi"]
    assert rec["identity"]
    assert rec["outputs"]["digits"][:3] == [1, 1, 1]


def test_sequence_record_schema(tmp_path):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "sequence", "--theta", "periodic:1|1",
                 "--L", "1", "--count", "5"]) == 0
    rec = read_journal(j)[0]
    rows = rec["outputs"]["sequence"]
    assert [set(r) for r in rows] == [{"i", "p", "q", "product", "pass"}] * 5
    assert all(r["pass"] for r in rows)


def test_density_determinism(tmp_path):
    j = str(tmp_path / "j.jsonl")
    args = ["--out", j, "density", "--samples", "3000", "--depth", "100",
            "--digit", "1", "--parity", "odd", "--seed", "9"]
    assert main(args) == 0
    assert main(args) == 0
    r1, r2 = read_journal(j)
    assert stable_view(r1) == stable_view(r2)


def test_torus_he_subcommand(tmp_path):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "torus-he", "--rank", "3", "--degree", "1",
                 "--N", "32"]) == 0
    rec = read_journal(j)[0]
    assert rec["residuals"]["he_residual"] < 1e-10


def test_chern_weil_subcommand_with_dump(tmp_path):
    j = str(tmp_path / "j.jsonl")
    dump = str(tmp_path / "beta.csv")
    assert main(["--out", j, "chern-weil", "--N", "32", "--tol", "0.01",
                 "--dump-grid", dump]) == 0
    rec = read_journal(j)[0]
    assert abs(rec["outputs"]["rhs"] - 3.14159265) < 1e-6
    from fareyflow.torus_he import load_grid_csv
    header, data = load_grid_csv(dump)
    assert header["N"] == 32 and data.shape == (32, 32, 2, 2)


def test_coulomb_subcommand(tmp_path):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "coulomb", "--rank", "1", "--N", "32",
                 "--samples", "2", "--seed", "4", "--tol", "1e-5"]) == 0
    rec = read_journal(j)[0]
    rows = rec["outputs"]["samples"]
    assert len(rows) == 2
    assert {"seed", "rank", "eps", "iterations", "d_star_residual",
            "boundary_residual", "ratio"} <= set(rows[0])


def test_coulomb_record_trace_and_timings(tmp_path):
    argv = ["coulomb", "--rank", "1", "--N", "32", "--samples", "2", "--seed", "4",
            "--tol", "1e-5"]
    recs = []
    for name in ("a.jsonl", "b.jsonl"):
        j = str(tmp_path / name)
        assert main(["--out", j] + argv) == 0
        recs += read_journal(j)
    a, b = recs
    rows = a["outputs"]["samples"]
    history, fix_s = a["trace"]["history"], a["timings"]["fix_s"]
    assert len(history) == len(fix_s) == len(rows) == 2
    for row, hist in zip(rows, history):
        assert len(hist) == row["iterations"] + 1
        assert hist[-1] == [row["d_star_residual"], row["boundary_residual"]]
    assert all(t >= 0 for t in fix_s)
    assert a["trace"] == b["trace"]
    # the volatile fields leave the stable view and the config hash as before
    assert set(stable_view(a)) == {"schema", "op", "config_hash", "config", "outputs",
                                   "residuals", "verdict", "identity"}
    assert stable_view(a) == stable_view(b)
    assert a["config_hash"] == "cd0774341735c9dd"


def test_donaldson_record_trace_and_timings(tmp_path):
    argv = ["donaldson", "--N", "32", "--seed", "3", "--tol", "1e-5"]
    recs = []
    for name in ("a.jsonl", "b.jsonl"):
        j = str(tmp_path / name)
        assert main(["--out", j] + argv) == 0
        recs += read_journal(j)
    a, b = recs
    trace = a["trace"]
    n = a["outputs"]["iterations"]
    assert len(trace["residuals"]) == len(trace["functional"]) == n + 1
    assert len(trace["steps"]) == n
    assert trace["residuals"][-1] == a["residuals"]["final_residual"] < 1e-5
    assert trace["functional"][-1] == a["outputs"]["functional_end"]
    rises = [y - x for x, y in zip(trace["functional"], trace["functional"][1:]) if y > x]
    assert trace["uphill_steps"] == len(rises)
    assert trace["uphill_rise"] == sum(rises)
    assert rises and max(rises) == a["residuals"]["monotone_defect"]
    assert set(a["timings"]) == {"setup_s", "flow_s"}
    assert all(v >= 0 for v in a["timings"].values())
    assert trace == b["trace"]
    for key in ("trace", "timings"):
        assert key not in stable_view(a)
    assert stable_view(a) == stable_view(b)
