"""The four benchmark workloads, their seeded inputs and their output checks.

Each workload turns a seed and the recorded references into a fixed task
list (`setup`), solves the whole list once per pass (`run_pass`, the timed
part), and checks every unit of a pass against the references (`check`).
`record` computes the references at the current commit; `perfbench/record.py`
stores them in `references.json`.

Seeds choose inputs from recorded pools whose members do the same amount of
solver work (same Coulomb sweep counts, same flow iteration and functional
evaluation counts, same number of Euclid steps), so a different seed changes
the data but not the cost, and wall-time differences between seeds measure
speed rather than convergence luck.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from fareyflow import cli, coulomb, farey, stability, torus_he
from fareyflow.reporting import stable_view
from fareyflow.surd import QuadraticSurd

# Full size is what the benchmark measures; smoke size is the same task list
# shrunk so that perfbench/smoke.py runs every workload in seconds.
SIZES = {
    "full": {
        "coulomb_gauge": {"N": 64, "tol": 1e-6, "stream": 51},
        "torus_flow": {"N": 64, "tol": 1e-6, "seeds": 48},
        "torus_geometry": {"N": 64, "ranks": 8, "dmax": 8, "per_rank": 2,
                           "cw_grids": [128, 256]},
        "exact_arith": {"samples": 50_000, "depth": 200, "seeds": 12, "max_q": 60},
    },
    "smoke": {
        "coulomb_gauge": {"N": 32, "tol": 1e-5, "stream": 6},
        "torus_flow": {"N": 32, "tol": 1e-6, "seeds": 1},
        "torus_geometry": {"N": 32, "ranks": 3, "dmax": 3, "per_rank": 1,
                           "cw_grids": [64, 128]},
        "exact_arith": {"samples": 500, "depth": 200, "seeds": 2, "max_q": 12},
    },
}

RATIO_RTOL = 1e-9          # Coulomb norm ratio against its reference
LHS_RTOL = 1e-9            # Chern-Weil integral against its reference
HE_TOL = 1e-10             # model-bundle residual
CW_TOL = 1e-3              # Chern-Weil relative error at the coarser grid
CW_ORDER = (3.2, 4.8)      # refinement order 4 +- 0.8
MONOTONE_TOL = 1e-10       # largest functional increase along the flow


def _run_unit(fn):
    """Run one unit; a unit that raises is a failed unit, not a crash."""
    try:
        return fn()
    except Exception as exc:       # counted in failed_frac and reported
        return exc


def _modal(entries, key):
    """Entries sharing the most common value of key (ties: smallest value)."""
    counts = Counter(key(e) for e in entries)
    best = min(counts, key=lambda v: (-counts[v], v))
    return [e for e in entries if key(e) == best]


def _verdict(result, ok, why):
    """(passed, reason) for one unit; ok and why are called on its result."""
    if isinstance(result, Exception):
        return False, "raised %s: %s" % (type(result).__name__, result)
    passed = bool(ok(result))
    return passed, None if passed else why(result)


class CoulombGauge:
    """coulomb_fix on the criterion-12 stream: sample k has rank (1, 2, 4)[k % 3],
    curvature 0.02 + 0.01 (k % 3) and field seed 7000 + k."""

    name = "coulomb_gauge"
    RANKS = (1, 2, 4)

    def __init__(self, size):
        self.p = size

    def _field(self, grid, k):
        return coulomb.random_gauge_field(grid, self.RANKS[k % 3], seed=7000 + k,
                                          curvature_target=0.02 + 0.01 * (k % 3))

    def setup(self, refs, seed):
        rng = random.Random(seed)
        grid = coulomb.SquareGrid(self.p["N"])
        units = []
        for rank in self.RANKS:
            pool = _modal([e for e in refs["stream"] if e["rank"] == rank],
                          lambda e: e["sweeps"])
            ref = rng.choice(pool)
            units.append((ref, self._field(grid, ref["k"])))
        return units

    def run_pass(self, units):
        tol = self.p["tol"]
        return [_run_unit(lambda A=A: coulomb.coulomb_fix(A, tol=tol)[2])
                for _, A in units]

    def check(self, units, results):
        tol = self.p["tol"]
        return [_verdict(
            rep,
            lambda rep: rep.div_residual < tol and rep.boundary_residual < tol
            and abs(rep.ratio - ref["ratio"]) <= RATIO_RTOL * abs(ref["ratio"])
            and rep.iterations == ref["sweeps"],
            lambda rep: "k=%d: residuals %.2e/%.2e, ratio %r vs %r, sweeps %d vs %d"
            % (ref["k"], rep.div_residual, rep.boundary_residual, rep.ratio,
               ref["ratio"], rep.iterations, ref["sweeps"]))
            for (ref, _), rep in zip(units, results)]

    def counts(self, results):
        return {"coulomb.sweeps": sum(r.iterations for r in results
                                      if not isinstance(r, Exception))}

    def record(self):
        grid = coulomb.SquareGrid(self.p["N"])
        stream = []
        for k in range(self.p["stream"]):
            rep = coulomb.coulomb_fix(self._field(grid, k), tol=self.p["tol"])[2]
            stream.append({"k": k, "rank": self.RANKS[k % 3], "sweeps": rep.iterations,
                           "ratio": rep.ratio})
        return {"stream": stream}


class TorusFlow:
    """donaldson_flow at criterion-10 settings (rank 2, degree 1, tol 1e-6)
    from the seeded initial metric exp(s), s = random_twisted_hermitian."""

    name = "torus_flow"

    def __init__(self, size):
        self.p = size

    def _initial(self, flow_seed):
        grid = torus_he.TorusGrid(1j, self.p["N"])
        tw, conn, H0 = torus_he.build_model_bundle(2, 1, grid)
        s = torus_he.random_twisted_hermitian(grid, tw, flow_seed, amplitude=0.5)
        lam, P = np.linalg.eigh(s.data)
        K = torus_he.MetricField(grid, tw, np.einsum("...ab,...b,...cb->...ac",
                                                     P, np.exp(lam), P.conj()))
        return K, tw.mu, conn

    def _flow(self, K, mu, conn):
        return torus_he.donaldson_flow(K, mu, conn, tol=self.p["tol"], max_iter=2000)

    def setup(self, refs, seed):
        pool = _modal(refs["flows"], lambda e: (e["iterations"], e["evaluations"]))
        ref = random.Random(seed).choice(pool)
        return [(ref, self._initial(ref["seed"]))]

    def run_pass(self, units):
        return [_run_unit(lambda x=x: self._flow(*x)) for _, x in units]

    def check(self, units, results):
        return [_verdict(
            fr,
            lambda fr: fr.converged and fr.monotone_defect() <= MONOTONE_TOL
            and fr.iterations == ref["iterations"],
            lambda fr: "seed %d: converged %s, monotone defect %.2e, iterations %d vs %d"
            % (ref["seed"], fr.converged, fr.monotone_defect(), fr.iterations,
               ref["iterations"]))
            for (ref, _), fr in zip(units, results)]

    def counts(self, results):
        done = [r for r in results if not isinstance(r, Exception)]
        return {"torus_he.flow.iterations": sum(r.iterations for r in done),
                "torus_he.flow.accepted": sum(len(r.steps) for r in done)}

    def record(self):
        from tracer import Tracer, layer_totals
        flows = []
        for flow_seed in range(1, self.p["seeds"] + 1):
            x = self._initial(flow_seed)
            with Tracer() as tr:
                fr = self._flow(*x)
            evals = layer_totals(tr.take()[0]).get("torus_he.donaldson_functional",
                                                   {"calls": 0})["calls"]
            if fr.converged:
                flows.append({"seed": flow_seed, "iterations": fr.iterations,
                              "evaluations": evals})
        return {"flows": flows}


class TorusGeometry:
    """Criterion-6 model bundles and residuals on seed-chosen (r, d) pairs, plus
    the theta-line second fundamental form and Chern-Weil integral on two grids."""

    name = "torus_geometry"

    def __init__(self, size):
        self.p = size

    def setup(self, refs, seed):
        rng = random.Random(seed)
        dmax = self.p["dmax"]
        pairs = []
        for r in range(1, self.p["ranks"] + 1):
            ds = [d for d in range(-dmax, dmax + 1) if math.gcd(r, d) == 1]
            pairs += [(r, d) for d in rng.sample(ds, self.p["per_rank"])]
        grids = {N: torus_he.TorusGrid(1j, N) for N in [self.p["N"]] + self.p["cw_grids"]}
        return {"pairs": pairs, "grids": grids, "ref": refs}

    def _residual(self, grid, r, d):
        tw, conn, H0 = torus_he.build_model_bundle(r, d, grid)
        return torus_he.he_residual(conn, H0, Fraction(d, r))

    def _theta_line(self, grids):
        out = []
        for N in self.p["cw_grids"]:
            tw, conn, H0 = torus_he.build_model_bundle(2, 1, grids[N])
            sec = torus_he.theta_section(tw, grids[N], (0, 0))
            sff = torus_he.second_fundamental_form(sec, H0, conn)
            out.append(torus_he.chern_weil_check(sff, H0, Fraction(1, 2), 0, 1))
        return out

    def run_pass(self, units):
        grid = units["grids"][self.p["N"]]
        res = [_run_unit(lambda r=r, d=d: self._residual(grid, r, d))
               for r, d in units["pairs"]]
        return res + [_run_unit(lambda: self._theta_line(units["grids"]))]

    def check(self, units, results):
        out = [_verdict(res, lambda res: res < HE_TOL,
                        lambda res: "(%d, %d): residual %.2e" % (r, d, res))
               for (r, d), res in zip(units["pairs"], results)]
        refs = units["ref"]["lhs"]

        def cw_ok(cw):
            (lhs1, rhs, rel1), (lhs2, _, rel2) = cw
            order = math.log2(rel1 / rel2)
            return abs(rhs - math.pi) < 1e-14 and rel1 < CW_TOL \
                and CW_ORDER[0] <= order <= CW_ORDER[1] \
                and all(abs(v - ref) <= LHS_RTOL * abs(ref)
                        for v, ref in zip((lhs1, lhs2), refs))
        return out + [_verdict(results[-1], cw_ok,
                               lambda cw: "Chern-Weil: %r vs lhs references %r" % (cw, refs))]

    def counts(self, results):
        return {}

    def record(self):
        grids = {N: torus_he.TorusGrid(1j, N) for N in self.p["cw_grids"]}
        return {"lhs": [lhs for lhs, _, _ in self._theta_line(grids)]}


class ExactArith:
    """A batch of CLI runs appending to a scratch journal (density, lagrange,
    sequence, farey, stability) and the exhaustive Farey-triangle checks."""

    name = "exact_arith"
    FIXED = {"lagrange": ["lagrange"], "sequence": ["sequence"], "farey": ["farey"],
             "stability": ["stability"]}
    SQRT5 = repr(QuadraticSurd(0, 1, 5, 1))

    def __init__(self, size, journal):
        self.p = size
        self.journal = journal

    def _density_argv(self, seed):
        return ["density", "--samples", str(self.p["samples"]), "--depth",
                str(self.p["depth"]), "--digit", "1", "--parity", "odd", "--seed", str(seed)]

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--out", self.journal] + argv)

    def _triangles(self):
        count = 0
        for t in farey.enumerate_triangles(self.p["max_q"]):
            ok, why = farey.is_farey_triangle(t.left, t.middle, t.right)
            if not ok or t.middle != farey.mediant(t.left, t.right) \
                    or stability.lattice_interior_count((-t.left.p, t.left.q),
                                                        (-t.right.p, t.right.q)) != 0:
                raise ValueError("triangle %s fails: %s" % (t, why))
            count += 1
        return count

    def setup(self, refs, seed):
        entry = random.Random(seed).choice(refs["density"])
        runs = [("density", self._density_argv(entry["seed"]), entry["record"])]
        runs += [(name, argv, refs["cli"][name]) for name, argv in self.FIXED.items()]
        return {"runs": runs, "triangles": refs["triangles"], "lines": 0}

    def run_pass(self, units):
        codes = [_run_unit(lambda a=argv: self._cli(a)) for _, argv, _ in units["runs"]]
        return codes + [_run_unit(self._triangles)]

    def check(self, units, results):
        try:
            with open(self.journal, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:      # no run of the pass wrote a record
            lines = []
        new, units["lines"] = lines[units["lines"]:], len(lines)
        records = {}
        for line in new:
            rec = json.loads(line)
            records[rec["op"]] = rec
        out = []
        for (name, _, ref), code in zip(units["runs"], results):
            rec = records.get(name)
            out.append(_verdict(
                code,
                lambda code: code == 0 and rec is not None and rec["verdict"] == "pass"
                and stable_view(rec) == ref
                and (name != "lagrange" or rec["outputs"]["lagrange"].get("exact") == self.SQRT5),
                lambda code: "%s: exit %r, record differs from its reference" % (name, code)))
        return out + [_verdict(results[-1], lambda n: n == units["triangles"],
                               lambda n: "%d triangles, expected %d" % (n, units["triangles"]))]

    def counts(self, results):
        return {}

    def record(self):
        seeds = range(1, self.p["seeds"] + 1)
        for seed in seeds:
            self._cli(self._density_argv(seed))
        for argv in self.FIXED.values():
            self._cli(argv)
        with open(self.journal, encoding="utf-8") as fh:
            views = [stable_view(json.loads(line)) for line in fh]
        return {"density": [{"seed": s, "record": v} for s, v in zip(seeds, views)],
                "cli": dict(zip(self.FIXED, views[len(seeds):])),
                "triangles": self._triangles()}


def make(name: str, size: str, scratch: str):
    """The workload object for a name at a size ("full" or "smoke"); scratch is
    a directory of the run's own, where exact_arith keeps its journal."""
    p = SIZES[size][name]
    if name == "exact_arith":
        return ExactArith(p, os.path.join(scratch, "journal.jsonl"))
    return {"coulomb_gauge": CoulombGauge, "torus_flow": TorusFlow,
            "torus_geometry": TorusGeometry}[name](p)


NAMES = ("coulomb_gauge", "torus_flow", "torus_geometry", "exact_arith")
