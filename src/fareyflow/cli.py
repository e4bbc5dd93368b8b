"""Command-line front end: reproducible runs of every subsystem with an
append-only JSON-lines journal.

Exit codes: 0 when the run's numerical verdict passes, 2 on a numerical
fail or a numerical error (which still appends a record with verdict
"error"), 1 on usage errors.  All randomness is seeded; records are bit-stable
for a fixed configuration apart from timestamps and timings.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from fractions import Fraction

from . import contfrac, coulomb, farey, stability
from .contfrac import ContinuedFraction, cf_expand, convergents, lagrange_estimate
from .reporting import ReportRecord, write_report
from .surd import QuadraticSurd

DEFAULTS = {
    "lagrange": {"theta": "periodic:1|1", "parity": "even", "depth": 20,
                 "tail_depth": 40, "L": None},
    "convergents": {"theta": "periodic:1|1", "depth": 10},
    "farey": {"triangle": "0/1,1/2,1/1"},
    "stability": {"theta": "surd:-1,1,5,2", "L": "1", "genus": 1,
                  "S": "1,2", "S0": "0,1"},
    "sequence": {"theta": "periodic:1|1", "L": "1", "count": 10},
    "torus-he": {"rank": 2, "degree": 1, "N": 64, "tau": "1j", "tol": 1e-10},
    "chern-weil": {"rank": 2, "degree": 1, "N": 128, "tau": "1j", "tol": 1e-3,
                   "dump_grid": None},
    "donaldson": {"rank": 2, "degree": 1, "N": 64, "tau": "1j", "tol": 1e-6,
                  "seed": 0, "amplitude": 0.5, "max_iter": 2000},
    "coulomb": {"rank": 2, "N": 64, "samples": 5, "seed": 0, "tol": 1e-6,
                "eps0": 0.1, "curvature": 0.03, "dump_trajectory": None},
    "density": {"samples": 10000, "depth": 200, "digit": 1, "parity": "odd",
                "seed": 0, "burn_in": 32},
}


class UsageError(Exception):
    pass


def parse_theta(text: str, depth: int = 64) -> ContinuedFraction:
    """`rational:p/q`, `periodic:pre|per`, `decimal:x@depth`, `surd:a,b,D,c`."""
    kind, _, body = text.partition(":")
    try:
        if kind == "rational":
            p, q = body.split("/")
            return cf_expand(Fraction(int(p), int(q)), depth)
        if kind == "periodic":
            pre, _, per = body.partition("|")
            pre_digits = [int(t) for t in pre.split(",") if t != ""]
            per_digits = [int(t) for t in per.split(",") if t != ""]
            if not pre_digits or not per_digits:
                raise ValueError("need `periodic:a0,...|p1,...` with both parts")
            return ContinuedFraction(pre_digits[0], tuple(pre_digits[1:]),
                                     tuple(per_digits))
        if kind == "decimal":
            value, _, d = body.partition("@")
            return cf_expand(value, int(d) if d else depth)
        if kind == "surd":
            a, b, D, c = (int(t) for t in body.split(","))
            return cf_expand(QuadraticSurd(a, b, D, c), depth)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("bad theta value %r: %s" % (text, exc)) from exc
    raise UsageError("unknown theta notation %r (use rational:, periodic:, "
                     "decimal:, or surd:)" % text)


def _parse_pair(text: str) -> tuple[int, int]:
    d, r = text.split(",")
    return int(d), int(r)


def _parse_tau(text: str) -> complex:
    return complex(text.replace(" ", ""))


# ----------------------------------------------------------------------------
# subcommand runners: each returns (outputs, residuals, verdict, identity)


def _run_lagrange(p):
    cf = parse_theta(p["theta"], depth=2 * p["depth"] + p["tail_depth"] + 4)
    L = Fraction(p["L"]) if p["L"] not in (None, "") else None
    est = lagrange_estimate(cf, p["parity"], p["depth"], p["tail_depth"], check_L=L)
    n_digits = min(2 * p["depth"] + 2, cf.available)
    cs = convergents(cf, n_digits)
    out = {
        "digits": cf.digits(min(n_digits, 40)),
        "convergents": [[c.p, c.q] for c in cs[:20]],
        "lagrange": {"parity": est.parity, "depth": est.depth,
                     "lo": float(est.estimate.lo), "hi": float(est.estimate.hi),
                     "value": float(est.estimate), "attainable": est.attainable},
    }
    if est.estimate.exact is not None:
        out["lagrange"]["exact"] = repr(est.estimate.exact)
    if L is not None:
        out["lagrange"]["definition_pass_indices"] = est.definition_indices
        out["lagrange"]["definition_undecided_indices"] = est.definition_undecided
    verdict = "pass" if (est.depth > 0 and not est.truncated) else "fail"
    return out, {"enclosure_width": float(est.estimate.width)}, verdict, \
        "limsup of forward-tail plus reversed-tail sums over one parity class"


def _run_convergents(p):
    cf = parse_theta(p["theta"], depth=p["depth"] + 2)
    n = min(p["depth"], cf.available)
    cs = convergents(cf, n)
    dets = [cs[i].p * cs[i + 1].q - cs[i + 1].p * cs[i].q for i in range(len(cs) - 1)]
    ok = all(d == (-1) ** (i + 1) for i, d in enumerate(dets))
    out = {"digits": cf.digits(n), "convergents": [[c.p, c.q] for c in cs]}
    return out, {"unimodular_defect": 0 if ok else 1}, "pass" if ok else "fail", \
        "consecutive convergents satisfy p_i q_{i+1} - p_{i+1} q_i = (-1)^(i+1)"


def _run_farey(p):
    parts = [s.strip() for s in p["triangle"].split(",")]
    if len(parts) != 3:
        raise UsageError("triangle needs three fractions, got %r" % p["triangle"])
    vecs = []
    for s in parts:
        num, _, den = s.partition("/")
        vecs.append(farey.PrimitiveVector.make(int(num), int(den or "1")))
    ok, why = farey.is_farey_triangle(*vecs)
    out = {"triangle": parts, "farey": ok, "violated": why}
    return out, {}, "pass" if ok else "fail", \
        "mediant and unimodularity conditions of a Farey triangle"


def _run_stability(p):
    cf = parse_theta(p["theta"])
    S = stability.KClass(*_parse_pair(p["S"]))
    S0 = stability.KClass(*_parse_pair(p["S0"]))
    params = stability.WellApproxParams(Fraction(p["L"]), cf.value(), p["genus"])
    v = stability.well_approx_check(S, S0, params)
    out = {"S": [S.deg, S.rk], "S0": [S0.deg, S0.rk], "L": str(params.L),
           "passes": v.passes, "lhs": float(v.lhs), "rhs": float(v.rhs),
           "margin": float(v.margin)}
    verdict = "pass" if v.passes is True else "fail"
    return out, {}, verdict, \
        "strict inequality L (theta - mu(S)) rk S < rk S0 (mu(S) - mu(S0))"


def _run_sequence(p):
    count = p["count"]
    cf = parse_theta(p["theta"], depth=2 * count + 40)
    rep = stability.select_subsequence(cf, stability.WellApproxParams(Fraction(p["L"])),
                                       count)
    out = {"theta": p["theta"], "L": float(Fraction(p["L"])),
           "sequence": [{"i": e.i, "p": e.p, "q": e.q,
                         "product": e.product_float, "pass": e.passes}
                        for e in rep.entries]}
    verdict = "pass" if not rep.undecided else "fail"
    return out, {"undecided": len(rep.undecided)}, verdict, \
        "even convergents with L |theta - p/q| q^2 < 1 decided exactly"


def _torus_setup(p):
    from .torus_he import TorusGrid, build_model_bundle
    grid = TorusGrid(_parse_tau(p["tau"]), p["N"])
    bundle = build_model_bundle(p["rank"], p["degree"], grid)
    return grid, bundle


def _run_torus_he(p):
    from .torus_he import he_residual
    from .torus_he.hermitian import _einstein_constant
    t0 = time.perf_counter()
    grid, (twist, conn, H0) = _torus_setup(p)
    t1 = time.perf_counter()
    res = he_residual(conn, H0, twist.mu)
    t2 = time.perf_counter()
    out = {"rank": twist.rank, "degree": twist.degree, "N": grid.N,
           "einstein_factor": _einstein_constant(twist.mu)}
    verdict = "pass" if res < p["tol"] else "fail"
    extra = {"timings": {"setup_s": round(t1 - t0, 4), "residual_s": round(t2 - t1, 4)}}
    return out, {"he_residual": res}, verdict, \
        "i Lambda F equals 2 pi deg/rk times the identity for the model metric", extra


def _run_chern_weil(p):
    from .torus_he import (chern_weil_check, dump_grid_csv, second_fundamental_form,
                           theta_section, threshold_probe)
    t0 = time.perf_counter()
    grid, (twist, conn, H0) = _torus_setup(p)
    t1 = time.perf_counter()
    sec = theta_section(twist, grid, (0, 0))
    sff = second_fundamental_form(sec, H0, conn)
    lhs, rhs, rel = chern_weil_check(sff, H0, twist.mu, 0, 1)
    t2 = time.perf_counter()
    probe = threshold_probe(sff)
    if p.get("dump_grid"):
        dump_grid_csv(p["dump_grid"], sff.beta, grid, twist)
    out = {"rank": twist.rank, "degree": twist.degree, "N": grid.N,
           "lhs": lhs, "rhs": rhs, "sup_over_mean": probe.ratio}
    verdict = "pass" if rel < p["tol"] else "fail"
    extra = {"timings": {"setup_s": round(t1 - t0, 4), "sff_s": round(t2 - t1, 4)}}
    return out, {"relative_error": rel,
                 "section_automorphy": sec.automorphy_residual}, verdict, \
        "integral of |beta|^2 equals 2 pi (mu_E - mu_S) rk S", extra


def _run_donaldson(p):
    from . import fiber
    from .torus_he import MetricField, donaldson_flow, random_twisted_hermitian
    t0 = time.perf_counter()
    grid, (twist, conn, H0) = _torus_setup(p)
    s = random_twisted_hermitian(grid, twist, p["seed"], amplitude=p["amplitude"])
    K = MetricField(grid, twist, fiber.herm_apply(fiber.exp(1.0), s.data))
    t1 = time.perf_counter()
    fr = donaldson_flow(K, twist.mu, conn, tol=p["tol"], max_iter=p["max_iter"])
    t2 = time.perf_counter()
    out = {"rank": twist.rank, "degree": twist.degree, "N": grid.N,
           "seed": p["seed"], "iterations": fr.iterations,
           "converged": fr.converged,
           "functional_start": fr.functional[1] if len(fr.functional) > 1 else 0.0,
           "functional_end": fr.functional[-1]}
    verdict = "pass" if fr.converged and fr.monotone_defect() <= 1e-10 else "fail"
    extra = {"trace": {"residuals": fr.residuals, "functional": fr.functional,
                       "steps": fr.steps, "uphill_steps": fr.uphill_steps(),
                       "uphill_rise": fr.uphill_rise(), "evaluations": fr.evaluations,
                       "rejected": fr.rejected},
             "timings": {"setup_s": round(t1 - t0, 4), "flow_s": round(t2 - t1, 4)}}
    return out, {"final_residual": fr.final_residual,
                 "monotone_defect": fr.monotone_defect()}, verdict, \
        "descent on the metric energy reaches the constant-curvature equation", extra


def _run_coulomb(p):
    import numpy as np
    import scipy.fft    # loaded before the timed fixes: each fix_s times only its fix
    grid = coulomb.SquareGrid(p["N"])
    rows, ratios, histories, compat, fix_s = [], [], [], [], []
    ok = True
    for k in range(p["samples"]):
        seed = p["seed"] + k
        A = coulomb.random_gauge_field(grid, p["rank"], seed,
                                       curvature_target=p["curvature"])
        t0 = time.perf_counter()
        try:
            _, _, rep = coulomb.coulomb_fix(A, tol=p["tol"], eps0=p["eps0"])
        except (RuntimeError, ValueError) as exc:
            rep = None
            rows.append({"seed": seed, "rank": p["rank"], "error": str(exc)})
            ok = False
        fix_s.append(round(time.perf_counter() - t0, 4))
        if rep is None:
            histories.append(None)
            compat.append(None)
            continue
        histories.append(rep.history)
        compat.append(rep.compat_defect)
        if p.get("dump_trajectory"):
            rep.dump_trajectory_csv(p["dump_trajectory"], seed=seed, rank=p["rank"])
        rows.append({"seed": seed, "rank": p["rank"],
                     "eps": rep.curvature_l2, "iterations": rep.iterations,
                     "d_star_residual": rep.div_residual,
                     "boundary_residual": rep.boundary_residual,
                     "ratio": rep.ratio})
        ratios.append(rep.ratio)
    spread = float(np.max(ratios) / np.median(ratios)) if ratios else float("inf")
    out = {"N": grid.N, "rank": p["rank"], "samples": rows,
           "ratio_max_over_median": spread}
    verdict = "pass" if ok and spread < 5 else "fail"
    extra = {"trace": {"history": histories, "compat_defect": compat},
             "timings": {"fix_s": fix_s}}
    return out, {"ratio_spread": spread}, verdict, \
        "gauge-fixed field obeys the divergence-free and normal-trace conditions " \
        "with a sample-stable norm ratio", extra


def _run_density(p):
    t0 = time.perf_counter()
    d = contfrac.gauss_digit_density(p["samples"], p["depth"], p["digit"], p["parity"],
                                     p["seed"], burn_in=p["burn_in"])
    extra = {"trace": {"euclid_steps": d.euclid_steps,
                       "short_expansions": d.short_expansions, "batches": d.batches,
                       "helper_batches": d.helper_batches,
                       "lehmer_rounds": d.lehmer_rounds,
                       "divmod_fallbacks": d.divmod_fallbacks},
             "timings": {"expansion_s": round(time.perf_counter() - t0, 4)}}
    if d.empirical is None:
        return ({"empirical": None, "note": "no-data"}, {}, "pass",
                "digit frequency under the invariant measure of the shift map", extra)
    dev = abs(d.empirical - d.reference)
    within = d.stderr is not None and dev <= 3 * d.stderr
    out = {"digit": d.digit, "parity": d.parity, "empirical": d.empirical,
           "reference": d.reference, "stderr": d.stderr, "samples": d.samples,
           "positions_per_sample": d.positions_per_sample}
    return out, {"deviation": dev, "three_sigma": 3 * (d.stderr or 0.0)}, \
        "pass" if within else "fail", \
        "digit frequency matches log2((d+1)^2/(d(d+2))) within three standard errors", \
        extra


RUNNERS = {
    "lagrange": _run_lagrange,
    "convergents": _run_convergents,
    "farey": _run_farey,
    "stability": _run_stability,
    "sequence": _run_sequence,
    "torus-he": _run_torus_he,
    "chern-weil": _run_chern_weil,
    "donaldson": _run_donaldson,
    "coulomb": _run_coulomb,
    "density": _run_density,
}


# ----------------------------------------------------------------------------
# configuration resolution


def load_config(subcommand: str, flag_params: dict, config_path: str | None) -> dict:
    """Defaults, overridden by the config-file section, overridden by flags;
    then each value whose default is an int or a float gets that type, by
    whichever route it came (flags and file values arrive as strings), and a
    float that is not finite is refused as a usage error."""
    if subcommand not in DEFAULTS:
        raise UsageError("unknown subcommand %r" % subcommand)
    params = dict(DEFAULTS[subcommand])
    if config_path:
        cp = configparser.ConfigParser()
        cp.optionxform = str        # keys keep their case: L, S, S0, N
        read = cp.read(config_path)
        if not read:
            raise UsageError("config file %r not found" % config_path)
        if cp.has_section(subcommand):
            for key, val in cp.items(subcommand):
                key = key.replace("-", "_")
                if key not in params:
                    raise UsageError("unknown config key %r in [%s]" % (key, subcommand))
                params[key] = val
    for key, val in flag_params.items():
        if val is not None:
            params[key] = val
    for key, default in DEFAULTS[subcommand].items():
        kind = type(default)
        if kind in (int, float):
            try:
                params[key] = kind(params[key])
            except ValueError:
                raise UsageError("%s = %r is not a valid %s"
                                 % (key, params[key], kind.__name__)) from None
            if kind is float and not math.isfinite(params[key]):   # inf/nan decide nothing
                raise UsageError("%s = %r is not finite" % (key, params[key]))
    return params


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fareyflow", exit_on_error=False,
                                 description=__doc__)
    ap.add_argument("--out", default="fareyflow-journal.jsonl",
                    help="journal path (JSON lines, appended)")
    ap.add_argument("--config", default=None, help="ini-style config file")
    sub = ap.add_subparsers(dest="subcommand")
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name, exit_on_error=False)
        for key in defaults:
            p.add_argument("--" + key.replace("_", "-"), default=None)
    return ap


def run(subcommand: str, params: dict, out_path) -> tuple[dict, int]:
    """Dispatch one run, append its record, and return (record, exit code).

    A run that raises ValueError, RuntimeError or ArithmeticError (`--L 1/0`,
    or a float conversion that overflows) still appends a record, with
    verdict "error" and the exception message, before the exception goes on.
    A runner may return a fifth item, the volatile `trace`/`timings` fields.
    """
    t0 = time.perf_counter()
    try:
        outputs, residuals, verdict, identity, *extra = RUNNERS[subcommand](params)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        write_report(ReportRecord(op=subcommand, params=params,
                                  outputs={"error": "%s: %s" % (type(exc).__name__, exc)},
                                  residuals={}, verdict="error",
                                  identity="the run raised before reaching its check",
                                  elapsed_s=time.perf_counter() - t0), out_path)
        raise
    record = ReportRecord(op=subcommand, params=params, outputs=outputs,
                          residuals=residuals, verdict=verdict,
                          identity=identity, elapsed_s=time.perf_counter() - t0,
                          **(extra[0] if extra else {}))
    written = write_report(record, out_path)
    return written, 0 if verdict == "pass" else 2


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except (argparse.ArgumentError, SystemExit) as exc:
        if isinstance(exc, SystemExit) and exc.code == 0:
            return 0
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    if not ns.subcommand:
        ap.print_usage(sys.stderr)
        return 1
    flag_params = {k.replace("-", "_"): v for k, v in vars(ns).items()
                   if k not in ("subcommand", "out", "config")}
    try:
        params = load_config(ns.subcommand, flag_params, ns.config)
        record, code = run(ns.subcommand, params, ns.out)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    print("%s: %s (journal: %s)" % (ns.subcommand, record["verdict"], ns.out))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
