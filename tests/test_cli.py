import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fareyflow.cli import UsageError, load_config, main, parse_theta
from fareyflow.coulomb import COMPAT_TOL
from fareyflow.reporting import ReportRecord, read_journal, stable_view, write_report


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
    cfg.write_text("[lagrange]\ndepth = 7\ntail-depth = 9\nparity = odd\n")
    params = load_config("lagrange", {"parity": "even", "theta": None,
                                      "depth": None, "tail_depth": "11", "L": None},
                         str(cfg))
    assert params["depth"] == 7            # file overrides default, typed as it
    assert params["tail_depth"] == 11      # flag overrides file, typed as it
    assert params["parity"] == "even"      # flag overrides file
    with pytest.raises(UsageError):
        load_config("lagrange", {}, str(tmp_path / "missing.cfg"))
    bad = tmp_path / "bad.cfg"
    bad.write_text("[lagrange]\nwat = 1\n")
    with pytest.raises(UsageError, match="unknown config key"):
        load_config("lagrange", {}, str(bad))
    with pytest.raises(UsageError):
        load_config("unknown-sub", {}, None)


def test_every_default_has_a_flag_of_its_type(tmp_path):
    # the flag and the config-file key of every parameter resolve to the
    # default's type and value
    from fareyflow.cli import DEFAULTS, _build_parser
    ap = _build_parser()
    cfg = tmp_path / "run.cfg"
    for sub, defaults in DEFAULTS.items():
        for key, default in defaults.items():
            value = "1" if default is None else str(default)
            flag = "--" + key.replace("_", "-")
            ns = vars(ap.parse_args([sub, flag, value]))
            flags = {k: v for k, v in ns.items() if k not in ("subcommand", "out", "config")}
            cfg.write_text("[%s]\n%s = %s\n" % (sub, key, value))
            for got in (load_config(sub, flags, None)[key],
                        load_config(sub, {}, str(cfg))[key]):
                assert type(got) is (str if default is None else type(default)), (sub, key)
                assert got == (value if default is None else default)


@pytest.mark.parametrize("route", ["flag", "file"])
def test_malformed_number_is_a_usage_error(tmp_path, capsys, route):
    # by either route: exit 1, the key and the value named, no record
    j, cfg = tmp_path / "j.jsonl", tmp_path / "run.cfg"
    cfg.write_text("[density]\nsamples = 1e3\n")
    argv = (["density", "--samples", "1e3"] if route == "flag"
            else ["--config", str(cfg), "density"])
    assert main(["--out", str(j)] + argv) == 1
    assert "samples = '1e3' is not a valid int" in capsys.readouterr().err
    assert not j.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("sub", ["coulomb", "torus-he", "chern-weil", "donaldson"])
def test_non_finite_tol_is_a_usage_error(tmp_path, capsys, sub, value):
    # a bound of inf passes every check and nan fails all: no verdict, no record
    j = tmp_path / "j.jsonl"
    assert main(["--out", str(j), sub, "--tol", value]) == 1
    assert "tol = %s is not finite" % value in capsys.readouterr().err
    assert not j.exists()


def test_zero_curvature_target_journals_an_error(tmp_path):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "coulomb", "--N", "16", "--samples", "1",
                 "--curvature", "0"]) == 2
    rec, = read_journal(j)
    assert rec["verdict"] == "error"
    assert rec["outputs"] == {
        "error": "ValueError: curvature target 0.0 is not positive and finite"}


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


@pytest.mark.parametrize("argv, error", [
    (["convergents", "--depth", "-1"], "ValueError: convergent index n = -1 is negative"),
    (["density", "--samples", "-5"], "ValueError: samples must be >= 0, got -5"),
    (["lagrange", "--tail-depth", "-3"], "ValueError: tail depth must be >= 0, got -3"),
], ids=["convergents", "density", "lagrange"])
def test_negative_counts_are_refused(tmp_path, argv, error):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j] + argv) == 2
    rec, = read_journal(j)
    assert rec["verdict"] == "error" and rec["outputs"] == {"error": error}


@pytest.mark.parametrize("sub", ["lagrange", "stability", "sequence"])
def test_zero_denominator_L_journals_an_error(tmp_path, sub):
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, sub, "--L", "1/0"]) == 2
    rec, = read_journal(j)
    assert rec["verdict"] == "error"
    assert rec["outputs"] == {"error": "ZeroDivisionError: Fraction(1, 0)"}


def test_overflow_journals_an_error(tmp_path, capsys):
    # the exact product L |theta - p/q| q^2 of a late golden-ratio
    # convergent is a surd whose float conversion overflows; the run still
    # leaves a record
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "sequence", "--theta", "periodic:1|1", "--L", "1",
                 "--count", "370"]) == 2
    assert "numerical failure: int too large to convert to float" in capsys.readouterr().err
    rec, = read_journal(j)
    assert rec["verdict"] == "error" and rec["op"] == "sequence"
    assert rec["outputs"] == {"error": "OverflowError: int too large to convert to float"}


def test_lagrange_without_a_term_journals_an_error(tmp_path):
    # decimal:0.5 expands to [0] alone: even term 0 needs a_1 and a_2
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "lagrange", "--theta", "decimal:0.5"]) == 2
    (rec,) = read_journal(j)
    assert rec["verdict"] == "error"
    assert rec["outputs"] == {"error": "ValueError: no term to estimate from: term 0 "
                                       "needs 2 digits after a_0, the source has 0"}


def test_record_plains_numpy_scalars_and_rejects_arrays():
    rec = ReportRecord("op", {"n": np.int64(3)}, {"x": np.float64(0.5)}, {}, "pass", "")
    data = rec.to_dict()
    assert data["config"] == {"n": 3} and type(data["outputs"]["x"]) is float
    with pytest.raises(ValueError, match="size 1"):
        ReportRecord("op", {}, {"x": np.zeros(2)}, {}, "pass", "").to_dict()


def test_record_writes_non_finite_floats_as_null(tmp_path):
    outputs = {"a": math.inf, "b": [np.float64(-np.inf), np.nan], "c": np.float32(np.nan),
               "d": 1.5}
    data = write_report(ReportRecord("op", {}, outputs, {}, "fail", ""), tmp_path / "j.jsonl")
    assert data["outputs"] == {"a": None, "b": [None, None], "c": None, "d": 1.5}
    # a coulomb run with no fixed sample has no ratio spread: null, and still a failure
    j = tmp_path / "c.jsonl"
    assert main(["--out", str(j), "coulomb", "--samples", "0"]) == 2
    (line,) = j.read_text().splitlines()
    rec = json.loads(line, parse_constant=pytest.fail)
    assert rec["outputs"]["ratio_max_over_median"] is None
    assert rec["residuals"] == {"ratio_spread": None} and rec["verdict"] == "fail"


def test_journal_records_same_hash(tmp_path):
    j = str(tmp_path / "j.jsonl")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[convergents]\ntheta = periodic:1|2\ndepth = 6\n")
    assert main(["--out", j, "convergents", "--theta", "periodic:1|2", "--depth", "6"]) == 0
    assert main(["--out", j, "convergents", "--theta", "periodic:1|2", "--depth", "6"]) == 0
    assert main(["--out", j, "--config", str(cfg), "convergents"]) == 0
    recs = read_journal(j)
    assert len(recs) == 3
    assert recs[0]["config"] == recs[2]["config"] == {"theta": "periodic:1|2", "depth": 6}
    assert recs[0]["config_hash"] == recs[1]["config_hash"] == recs[2]["config_hash"]
    assert recs[0]["schema"] == 1
    assert stable_view(recs[0]) == stable_view(recs[1]) == stable_view(recs[2])
    assert "timestamp" in recs[0] and "timestamp" not in stable_view(recs[0])


def test_exact_arith_records_match_the_benchmark_references(tmp_path, capsys):
    # the records exact_arith pins: a drift shows here, not only in a benchmark run
    refs = json.loads((Path(__file__).resolve().parent.parent / "perfbench" /
                       "references.json").read_text())["exact_arith"]["cli"]
    j = str(tmp_path / "j.jsonl")
    ops = ["lagrange", "sequence", "farey", "stability"]
    assert sorted(refs) == sorted(ops)
    for op in ops:
        assert main(["--out", j, op]) == 0
    assert [stable_view(r) for r in read_journal(j)] == [refs[op] for op in ops]


def test_lagrange_on_a_period_with_a_large_discriminant(tmp_path):
    # the discriminant 25331599771546750560 leaves a cofactor near 1.8e16
    # after its small primes, which trial division up to its square root
    # does not finish factoring
    j = str(tmp_path / "j.jsonl")
    assert main(["--out", j, "lagrange", "--theta", "periodic:0|64,65,51,76,5,62"]) == 0


def test_rational_surd_theta_matches_rational(tmp_path):
    # surd:3,0,5,2 is (3 + 0 sqrt 5)/2, expanded through its exact fraction 3/2
    j = str(tmp_path / "j.jsonl")
    for theta in ("surd:3,0,5,2", "rational:3/2"):
        assert main(["--out", j, "convergents", "--theta", theta]) == 0
    surd, rational = read_journal(j)
    assert surd["outputs"]["digits"] == rational["outputs"]["digits"] == [1, 2]


def test_decimal_exponent_theta_matches_plain(tmp_path):
    # the exponent counts toward the last digit place, so both spellings fix
    # the value to the same +-5e-6 and journal the same digits
    j = str(tmp_path / "j.jsonl")
    for theta in ("decimal:0.314159e1@12", "decimal:3.14159@12"):
        assert main(["--out", j, "convergents", "--theta", theta]) == 0
    scaled, plain = read_journal(j)
    assert scaled["outputs"]["digits"] == plain["outputs"]["digits"] == [3, 7]


def test_lagrange_record_journals_undecided_indices(tmp_path):
    # a truncated theta decides some definition indices and leaves the rest
    # undecided; without --L the record carries neither list
    j = str(tmp_path / "j.jsonl")
    theta = ["lagrange", "--theta", "decimal:1.6180339887@30"]
    assert main(["--out", j] + theta + ["--L", "2.236"]) == 2
    assert main(["--out", j] + theta) == 2
    with_L, without = (rec["outputs"]["lagrange"] for rec in read_journal(j))
    assert with_L["definition_pass_indices"] == [5, 6]
    assert with_L["definition_undecided_indices"] == [7, 8, 9, 10]
    assert not {"definition_pass_indices", "definition_undecided_indices"} & set(without)


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


@pytest.mark.parametrize("argv, phases", [
    (["torus-he", "--rank", "3", "--N", "32"], {"setup_s", "residual_s"}),
    (["chern-weil", "--N", "32", "--tol", "0.01"], {"setup_s", "sff_s"}),
])
def test_torus_records_carry_timings(tmp_path, argv, phases):
    recs = []
    for name in ("a.jsonl", "b.jsonl"):
        j = str(tmp_path / name)
        assert main(["--out", j] + argv) == 0
        recs += read_journal(j)
    a, b = recs
    assert set(a["timings"]) == phases
    assert all(v >= 0 for v in a["timings"].values())
    assert "timings" not in stable_view(a)
    assert stable_view(a) == stable_view(b)


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
    compat = a["trace"]["compat_defect"]
    assert len(history) == len(fix_s) == len(rows) == len(compat) == 2
    for row, hist, defect in zip(rows, history, compat):
        assert len(hist) == row["iterations"] + 1
        assert hist[-1] == [row["d_star_residual"], row["boundary_residual"]]
        # the worst Neumann compatibility defect the sweeps measured, under COMPAT_TOL
        assert row["iterations"] >= 1 and 0 < defect <= COMPAT_TOL
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
    assert trace["evaluations"] == n + trace["rejected"]
    assert rises and max(rises) == a["residuals"]["monotone_defect"]
    assert set(a["timings"]) == {"setup_s", "flow_s"}
    assert all(v >= 0 for v in a["timings"].values())
    assert trace == b["trace"]
    for key in ("trace", "timings"):
        assert key not in stable_view(a)
    assert stable_view(a) == stable_view(b)
