"""The three workloads: seeded inputs, jobs, and each job's output checks.

A run repeats rounds. A round is a fixed mix of jobs with fresh inputs
drawn from ``(seed, round)``, so every run sees the same mix whatever its
length, and the same seed gives the same inputs. Inputs are generated with
the benchmark's own numpy; the package receives only the generated arrays
or files.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks

# Annealer settings for the CLI roof commands of spin1-session. The CLI
# default (40 restarts x 2000 steps) takes about 10 s per command.
ANNEAL = {"seed": 0, "restarts": 4, "steps": 300}

# Excluded states rho_lambda use lambda in [LAMBDA_MIN, 4/7): below about
# 0.05 the hull margin approaches the indeterminate threshold.
LAMBDA_MIN = 0.05
LAMBDA_MAX = 4.0 / 7.0


# -- the spin-1 system, from the paper's rational data ---------------------

def _unit(v):
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


SPIN1_U = np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]], dtype=float) / 3
SPIN1_W = np.array([[2, -2, -3], [-2, 6, -1], [-3, -1, 4]], dtype=float) / 12
# a1..a3, b1..b3, phi1..phi3 (KD positive), then psi1..psi6.
SPIN1_STATES = np.array(
    [np.eye(3)[i] for i in range(3)]
    + [SPIN1_U[:, j] for j in range(3)]
    + [_unit(v) for v in ([0, 1, -1], [1, 0, -1], [1, -1, 0])]
    + [_unit(v) for v in ([1, 2, 0], [2, 1, 0], [1, 0, 2], [2, 0, 1], [0, 1, 2], [0, 2, 1])],
    dtype=complex,
)
SPIN1_POSITIVE = SPIN1_STATES[:9]
SPIN1_FACETS = 28


def rho_lambda(lam: float) -> np.ndarray:
    """lam W + (1 - lam)/3 (P_a2 + P_b1 + P_phi3): KD positive, outside the
    hull of the pure KD-positive states for lam in (0, 4/7]."""
    mix = checks.projectors(SPIN1_STATES[[1, 3, 8]]).sum(axis=0)
    return lam * SPIN1_W + (1 - lam) / 3 * mix


# -- seeded generators --------------------------------------------------------

def haar_unitary(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_state(d: int, rng) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def mixture(states, weights) -> np.ndarray:
    rho = np.einsum("k,kij->ij", weights, checks.projectors(states))
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def write_matrix(path, array, kind: str) -> str:
    a = np.asarray(array, dtype=complex)
    entries = [_pair(z) for z in a] if a.ndim == 1 else [[_pair(z) for z in row] for row in a]
    path.write_text(json.dumps({"dim": int(a.shape[0]), "kind": kind, "entries": entries}))
    return str(path)


def read_matrix(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


# -- jobs ---------------------------------------------------------------------

@dataclass
class Observed:
    """Quality observations of one job."""

    verdicts: list = field(default_factory=list)
    support_upper: list = field(default_factory=list)
    nonpos_upper: list = field(default_factory=list)
    near_degenerate: int = 0  # generator sets checked as near-degenerate (checks.facets)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Observed]


class Workload:
    name = ""
    why = ""
    mixes: dict = {}
    # job_tail_ms is this percentile. It lies inside one job kind of the
    # full-size round however many rounds a run holds, so the tail does not
    # jump between kinds with the run's length.
    tail_percentile: int

    def __init__(self, pkg, seed: int, size: str, work_dir):
        self.pkg = pkg
        self.seed = seed
        self.mix = self.mixes[size]
        self.work_dir = work_dir

    def rng(self, round_index: int):
        return np.random.default_rng([self.seed, round_index])

    def round(self, round_index: int) -> list:
        raise NotImplementedError

    def validate_decomposition(self, weights, states, rho):
        self.pkg.roof.Decomposition(weights, states).validate(rho)


class Spin1Session(Workload):
    """The paper as a user reproduces it, one CLI command per job."""

    name = "spin1-session"
    why = ("annealer-bound roof commands plus per-basis work repeated by every "
           "command; the only workload through cli and io_json")
    # size -> (excluded rho_lambda states, inside mixtures) per round
    mixes = {"full": (4, 4), "tiny": (1, 1)}
    tail_percentile = 90  # 3 of 30 jobs: the 8 annealed roofs, below the spin1 report

    def __init__(self, pkg, seed, size, work_dir):
        super().__init__(pkg, seed, size, work_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        self.basis = write_matrix(work_dir / "basis.json", SPIN1_U, "unitary")
        self.gens = [write_matrix(work_dir / f"g{k:02d}.json", s, "pure_state")
                     for k, s in enumerate(SPIN1_STATES)]
        self.gen_projectors = checks.projectors(SPIN1_STATES)

    def round(self, r):
        rng = self.rng(r)
        n_out, n_in = self.mix
        jobs = [self._cli("spin1", ["spin1"], self._check_spin1),
                self._cli("facets", ["facets", "--generators", *self.gens], self._check_facets)]
        lams = LAMBDA_MIN + (LAMBDA_MAX - LAMBDA_MIN) * (np.arange(n_out) + rng.random(n_out)) / n_out
        excluded = [rho_lambda(lam) for lam in lams]
        inside = [mixture(SPIN1_POSITIVE, rng.dirichlet(np.ones(9))) for _ in range(n_in)]
        states = [(rho, False) for rho in excluded] + [(rho, True) for rho in inside]
        order = rng.permutation(len(states))
        for k in order:
            rho, is_inside = states[k]
            path = write_matrix(self.work_dir / f"r{r}s{k}.json", rho, "density")
            jobs += self._state_jobs(path, rho, is_inside)
        return jobs

    def _cli(self, kind, argv, check):
        cli = self.pkg.cli

        def run():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--json"])
            return code, out.getvalue()

        def checked(output):
            code, text = output
            checks.require(code == 0, f"{kind} exited with code {code}")
            return check(json.loads(text))

        return Job(kind, run, checked)

    def _state_jobs(self, path, rho, is_inside):
        state = ["--state", path, "--basis", self.basis]
        anneal = [f"--{k}={v}" for k, v in ANNEAL.items()]
        where = "inside" if is_inside else "excluded"
        jobs = [
            self._cli(f"hull/{where}", ["hull", "--state", path, "--generators", *self.gens],
                      lambda rep: self._check_hull(rep, rho, is_inside)),
            self._cli(f"roof-support/{where}", ["roof-support", *state, *anneal],
                      lambda rep: self._check_roof(rep, rho, is_inside, support=True)),
            self._cli(f"roof-nonpos/{where}", ["roof-nonpos", *state, *anneal],
                      lambda rep: self._check_roof(rep, rho, is_inside, support=False)),
        ]
        if not is_inside:
            # The table shows rho_lambda is KD positive, which makes the
            # exclusion the paper's counterexample.
            jobs.insert(0, self._cli("table/excluded", ["table", *state],
                                     lambda rep: self._check_table(rep, rho)))
        return jobs

    @staticmethod
    def _check_spin1(rep):
        res = rep["results"]
        failed = [c["name"] for c in res["checks"] if not c["passed"]]
        checks.require(res["passed"] and not failed, f"spin-1 checks failed: {failed}")
        checks.require(res["facet_count"] == SPIN1_FACETS, f"{res['facet_count']} facets")
        return Observed()

    def _check_facets(self, rep):
        found = rep["results"]["facets"]
        degenerate = checks.facets([read_matrix(f["functional"]) for f in found],
                                   [f["offset"] for f in found], [tuple(f["active"]) for f in found],
                                   self.gen_projectors, expect_count=SPIN1_FACETS)
        return Observed(near_degenerate=int(degenerate))

    @staticmethod
    def _check_table(rep, rho):
        res = rep["results"]
        q = checks.kd_table(rho, SPIN1_U)
        checks.require(np.abs(read_matrix(res["kd_table"]) - q).max() <= 1e-12, "KD table differs")
        checks.require(res["kd_positive"]["value"], "a KD-positive state reported nonpositive")
        checks.require(abs(res["total_nonpositivity"] - np.abs(q).sum()) <= 1e-12,
                       "total nonpositivity differs")
        return Observed()

    def _check_hull(self, rep, rho, is_inside):
        cert = dict(rep["certificates"]["membership"])
        if cert["functional"] is not None:
            cert["functional"] = read_matrix(cert["functional"])
        checks.membership("inside" if is_inside else "outside", SimpleNamespace(**cert),
                          self.gen_projectors, rho)
        return Observed(verdicts=[cert["verdict"]])

    def _check_roof(self, rep, rho, is_inside, support):
        res = rep["results"]
        floor = 4.0 if support else 1.0
        if is_inside:
            checks.require(res["exact"] and res["lower_bound"] == floor == res["upper_bound"],
                           f"inside mixture roof not exactly {floor}: {res['upper_bound']!r}")
        elif support:
            checks.require(res["lower_strict"] and res["lower_bound"] == 4.0,
                           "rho_lambda support roof lacks the strict lower bound 4")
        else:
            checks.require(res["lower_strict"] and res["upper_bound"] > 1.0,
                           "rho_lambda nonpositivity roof is not strictly above 1")
        dec = res["decomposition"]
        objective = ((lambda s: checks.support_uncertainty(s, SPIN1_U)) if support
                     else (lambda s: checks.total_nonpositivity(s, SPIN1_U)))
        checks.decomposition(dec["weights"], read_matrix(dec["states"]), rho, objective,
                             res["upper_bound"], self.validate_decomposition)
        obs = Observed(verdicts=[rep["certificates"]["membership"]["verdict"]])
        if not is_inside:
            (obs.support_upper if support else obs.nonpos_upper).append(res["upper_bound"])
        return obs


class HaarCertify(Workload):
    """One pass of certificates per seeded Haar basis."""

    name = "haar-certify"
    why = ("enumeration, simplex feasibility and minor enumeration on fresh bases; "
           "the annealer never runs")
    # size -> dimensions of the bases in one round
    mixes = {"full": (6,) + (5,) * 3 + (4, 7, 8) * 10, "tiny": (4, 7)}
    tail_percentile = 80  # 6.8 of 34 jobs: the 10 d = 8 bases, below d = 5 and 6

    def round(self, r):
        rng = self.rng(r)
        jobs = []
        for d in self.mix:
            u = haar_unitary(d, rng)
            psi = haar_state(d, rng)
            mix_seed = int(rng.integers(2**32))
            jobs.append(Job(f"d{d}", self._runner(u, psi, mix_seed),
                            self._checker(u, psi, np.random.default_rng(mix_seed + 1))))
        return jobs

    def _runner(self, u, psi, mix_seed):
        kw = self.pkg.kdwitness

        def run():
            out = {"incompat": kw.complete_incompatibility(u)}
            if u.shape[0] > 6:
                return out
            minimal = kw.enumerate_min_uncertainty_states(u)
            positive = kw.filter_kd_positive_pure(minimal, u)
            weights = np.random.default_rng(mix_seed).dirichlet(np.ones(len(positive)))
            rho = mixture(positive.states, weights)
            gens = checks.projectors(minimal.states)
            out.update(
                minimal=minimal, positive=positive, rho=rho, gens=gens,
                inside=kw.membership_lp(rho, gens),
                outside=kw.membership_lp(np.outer(psi, psi.conj()), gens),
                support=kw.support_roof_bounds(rho, u),
                nonpos=kw.nonpositivity_roof_bounds(rho, u),
            )
            return out

        return run

    def _checker(self, u, psi, rng):
        d = u.shape[0]

        def check(out):
            checks.incompatibility(out["incompat"], u, rng)
            if d > 6:
                return Observed()
            checks.minimal_states(out["minimal"].states, u)
            checks.require(len(out["positive"]) >= 2, "fewer than two KD-positive minimal states")
            checks.kd_positive_states(out["positive"].states, u)
            rho, gens = out["rho"], out["gens"]
            inside, outside = out["inside"], out["outside"]
            checks.membership("inside", inside, gens, rho)
            checks.membership("outside", outside, gens, np.outer(psi, psi.conj()))
            obs = Observed(verdicts=[inside.verdict, outside.verdict])
            for est, floor, objective in (
                (out["support"], d + 1.0, lambda s: checks.support_uncertainty(s, u)),
                (out["nonpos"], 1.0, lambda s: checks.total_nonpositivity(s, u)),
            ):
                checks.require(est.exact and est.lower_bound == floor == est.upper_bound,
                               f"inside mixture roof {est.upper_bound!r}, expected {floor}")
                dec = est.upper_decomposition
                checks.decomposition(dec.weights, dec.states, rho, objective, est.upper_bound,
                                     self.validate_decomposition)
                obs.verdicts.append(est.membership.verdict)
            obs.support_upper.append(out["support"].upper_bound)
            obs.nonpos_upper.append(out["nonpos"].upper_bound)
            return obs

        return check


class HullGeometry(Workload):
    """Basis-free convex geometry over d = 3 pure-state projectors."""

    name = "hull-geometry"
    why = ("facet subset loop and phase-two simplex; no basis work, no annealing, "
           "no per-basis caching")
    # size -> generic set sizes per round; each round also has the spin-1 set
    mixes = {"full": (11, 11, 12, 13, 14, 15, 16, 16), "tiny": (11,)}
    tail_percentile = 85  # 1.35 of 9 jobs: the 2 sets of 16

    def round(self, r):
        rng = self.rng(r)
        sets = [(SPIN1_STATES, SPIN1_FACETS)]
        sets += [(np.array([haar_state(3, rng) for _ in range(n)]), None) for n in self.mix]
        return [self._job(states, facet_count, rng) for states, facet_count in sets]

    def _job(self, states, facet_count, rng):
        kw = self.pkg.kdwitness
        gens = checks.projectors(states)
        weights = rng.dirichlet(np.ones(len(states)))
        target = mixture(states, weights)
        psi = haar_state(3, rng)
        outside_target = np.outer(psi, psi.conj())
        # Roof values: the paper's two witnesses on each generator, in the
        # spin-1 basis pair, so the finite roofs bound the same convex roofs
        # spin1-session anneals.
        support = checks.support_uncertainty(states, SPIN1_U)
        nonpos = checks.total_nonpositivity(states, SPIN1_U)

        def run():
            return {
                "facets": kw.facet_enumeration(gens),
                "inside": kw.membership_lp(target, gens),
                "outside": kw.membership_lp(outside_target, gens),
                "support": kw.finite_convex_roof(support, target, gens),
                "nonpos": kw.finite_convex_roof(nonpos, target, gens),
            }

        def check(out):
            found = out["facets"]
            degenerate = checks.facets([f.functional for f in found], [f.offset for f in found],
                                       [f.active for f in found], gens, expect_count=facet_count)
            inside, outside = out["inside"], out["outside"]
            checks.membership("inside", inside, gens, target)
            checks.membership("outside", outside, gens, outside_target)
            checks.finite_roof(out["support"], support, weights, target, gens)
            checks.finite_roof(out["nonpos"], nonpos, weights, target, gens)
            return Observed(verdicts=[inside.verdict, outside.verdict],
                            support_upper=[out["support"]], nonpos_upper=[out["nonpos"]],
                            near_degenerate=int(degenerate))

        kind = "spin1-set" if facet_count else f"n{len(states)}"
        return Job(kind, run, check)


WORKLOADS = {w.name: w for w in (Spin1Session, HaarCertify, HullGeometry)}
