"""Layer timings: minimal-state enumeration, the KD-positive filter, the annealer, minors, hull LPs, facets, repeat calls.

Packages that keep per-basis work for reuse (``kdwitness.basis``) get their
cache cleared before every timed call of a cached layer, so each layer is
timed doing its work, not reading it back; the "same basis again" layer
times the reuse itself.

For each d = 3..6, on the Haar basis ``haar_unitary(d, 1000 + d)`` with BLAS
pinned to one thread, times

- ``enumerate_min_uncertainty_states`` and ``filter_kd_positive_pure``;
- ``roof_upper_bound`` with the nonpositivity objective on the full-rank
  state ``random_density(d, default_rng(2000 + d))``, anchored at the
  KD-positive minimal states (as ``nonpositivity_roof_bounds`` anchors it),
  at ``ROOF_CONFIG`` (4 restarts x 300 steps); its time is also given in µs
  per step, one step being one restart's proposal, score and accept test.

It times ``complete_incompatibility`` on ``haar_unitary(d, 1000 + d)`` at
d = 3..8, with the number of minors checked, and ``membership_lp`` at
d = 4..6 over the projectors of that basis's minimal states, for the inside
target ``MEMBERSHIP_INSIDE`` (their uniform mixture) and the outside target
``MEMBERSHIP_OUTSIDE`` (the pure state ``random_pure_state(d,
default_rng(4000 + d))``), with the verdict and the iterations of the
simplex behind it.

At d = 4..6 (``AGAIN_DIMS``) it times the dedup of the enumeration alone
(``pure_positive._drop_near_repeats`` on all realized candidates, which
``dedup_tol=-1`` returns, at the default dedup tolerance), and the "same
basis again" layer: ``enumerate_min_uncertainty_states`` plus
``support_roof_bounds`` and ``nonpositivity_roof_bounds`` on the inside
mixture (the uniform mixture of the KD-positive minimal states), once on a
fresh cache ("first") and once more on the same basis ("repeat").

It also times ``facet_enumeration_points`` on the real-embedded projectors
of the 15 spin-1 minimal states and of ``FACET_SET_SIZES`` generic d = 3
pure states ``random_pure_state(3, default_rng(3000 + n))``, with the facet
count, the number C(n, affine rank) of subsets tested, and how many of them
reach the stacked SVD and the prefilter's stacked QR (counted on one more
untimed call, by wrapping ``numpy.linalg.svd`` and ``numpy.linalg.qr`` and
adding up the matrices of their stacked calls). It times the Hermitian
wrapper ``facet_enumeration`` on the projectors themselves, so the cost of
embedding the generators and converting the functionals shows next to the
points function.

It prints one JSON record: per layer and dimension or set the median and
quartiles of ``RUNS`` timed calls (after one untimed warm-up call), the
state counts, the annealed bound, the minor counts, the hull verdicts and
simplex iterations, the facet, subset, SVD-subset and QR-subset counts, and
the machine, Python and numpy versions. Run it against the package on
``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/layers.py --label change > change-1.json

The quartiles are those of consecutive calls in one process; they do not
measure the spread between runs, which on a shared machine is often larger.
To compare two checkouts, run the script at least three times per side,
alternating which side runs first, and combine the records:

    python benchmarks/layers.py --combine parent-*.json change-*.json

which prints, per label and timed layer, the median of the run medians and
their range across runs.
"""

import argparse
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUNS = 15
ROOF_CONFIG = {"restarts": 4, "steps": 300, "seed": 0}
FACET_SET_SIZES = (12, 14, 16)
MINOR_DIMS = range(3, 9)
MEMBERSHIP_DIMS = range(4, 7)
AGAIN_DIMS = range(4, 7)
MEMBERSHIP_INSIDE = "uniform mixture of the minimal states"
MEMBERSHIP_OUTSIDE = "random_pure_state(d, default_rng(4000 + d))"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summary_ms(times) -> dict:
    ms = sorted(t * 1e3 for t in times)
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median_ms": round(median, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def _cache_clear():
    """The package's per-basis cache reset, or a no-op for packages without one."""
    try:
        return importlib.import_module("kdwitness.basis").clear_cache
    except ImportError:
        return lambda: None


def timed(fn, *args, fresh=True, **kwargs):
    """Result of one untimed warm-up call and the times of ``RUNS`` more.

    With ``fresh`` the per-basis cache is cleared, untimed, before each call.
    """
    clear = _cache_clear() if fresh else (lambda: None)
    clear()
    result = fn(*args, **kwargs)
    times = []
    for _ in range(RUNS):
        clear()
        start = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return result, times


def stacked_matrices(fn, *args):
    """Result of one call of ``fn`` and the matrices it passed, stacked, to ``svd`` and ``qr``."""
    import numpy as np

    originals = {name: getattr(np.linalg, name) for name in ("svd", "qr")}
    counts = dict.fromkeys(originals, 0)

    def counted(name):
        def call(a, *f_args, **f_kwargs):
            if np.ndim(a) > 2:
                counts[name] += math.prod(np.shape(a)[:-2])
            return originals[name](a, *f_args, **f_kwargs)

        return call

    for name in originals:
        setattr(np.linalg, name, counted(name))
    try:
        return fn(*args), counts
    finally:
        for name, original in originals.items():
            setattr(np.linalg, name, original)


def combine(paths) -> dict:
    """Per label, each timed layer's median of the run medians and their range across runs.

    Other values come from the label's first record.
    """
    by_label = {}
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        by_label.setdefault(record["label"], []).append(record["layers"])

    def merge(nodes):
        first = nodes[0]
        if isinstance(first, dict) and "median_ms" in first:
            medians = [node["median_ms"] for node in nodes]
            rest = {k: v for k, v in first.items() if not k.endswith("_ms")}
            return {
                "median_of_run_medians_ms": round(statistics.median(medians), 4),
                "run_median_range_ms": [min(medians), max(medians)],
                **rest,
            }
        if isinstance(first, dict):
            return {key: merge([node[key] for node in nodes]) for key in first}
        return first

    return {
        "runs_per_label": {label: len(runs) for label, runs in by_label.items()},
        "layers": {label: merge(runs) for label, runs in by_label.items()},
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="free text stored in the record")
    parser.add_argument("--combine", nargs="+", metavar="RECORD",
                        help="combine the JSON records of earlier runs instead of timing")
    args = parser.parse_args(argv)
    if args.combine:
        return combine(args.combine)

    import numpy as np

    import kdwitness
    from kdwitness import config, pure_positive
    from kdwitness.geometry import _hull_lp, facet_enumeration, facet_enumeration_points
    from kdwitness.linalg import projector, random_density, random_pure_state
    from kdwitness.roof import nonpositivity_values_fn

    layers = {}
    cfg = kdwitness.AnnealConfig(**ROOF_CONFIG)
    steps = cfg.restarts * cfg.steps
    for d in range(3, 7):
        u = kdwitness.haar_unitary(d, 1000 + d)
        minimal, enum_times = timed(kdwitness.enumerate_min_uncertainty_states, u)
        positive, filter_times = timed(kdwitness.filter_kd_positive_pure, minimal, u)
        rho = random_density(d, np.random.default_rng(2000 + d))
        search, roof_times = timed(
            kdwitness.roof_upper_bound, rho, nonpositivity_values_fn(u), cfg,
            anchors=positive.states,
        )
        roof = summary_ms(roof_times)
        layers[f"d{d}"] = {
            "states": len(minimal),
            "kd_positive_states": len(positive),
            "enumerate_min_uncertainty_states": summary_ms(enum_times),
            "filter_kd_positive_pure": summary_ms(filter_times),
            "roof_upper_bound": {
                **roof,
                "us_per_step": round(roof["median_ms"] * 1e3 / steps, 2),
                "upper_bound": search.value,
            },
        }

    layers["complete_incompatibility"] = {}
    for d in MINOR_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
        report, minor_times = timed(kdwitness.complete_incompatibility, u)
        layers["complete_incompatibility"][f"d{d}"] = {
            **summary_ms(minor_times),
            "minors_checked": report.minors_checked,
        }

    layers["membership_lp"] = {}
    for d in MEMBERSHIP_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
        gens = [projector(s) for s in kdwitness.enumerate_min_uncertainty_states(u).states]
        psi = random_pure_state(d, np.random.default_rng(4000 + d))
        targets = {"inside": sum(gens) / len(gens), "outside": projector(psi)}
        # Per matrix, so that the script also runs against packages whose
        # hermitian_to_real takes one matrix only.
        points = np.array([kdwitness.hermitian_to_real(g) for g in gens])
        for side, target in targets.items():
            cert, lp_times = timed(kdwitness.membership_lp, target, gens)
            # The phase-one LP that membership_lp solves, for its iteration count.
            lp = _hull_lp(points, kdwitness.hermitian_to_real(target), None,
                          config.FEASIBILITY_TOL)
            layers["membership_lp"][f"d{d}_{side}"] = {
                **summary_ms(lp_times),
                "generators": len(gens),
                "verdict": cert.verdict,
                "simplex_iterations": lp.iterations,
            }

    layers["same_basis_again"] = {}
    for d in AGAIN_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
        candidates = kdwitness.enumerate_min_uncertainty_states(u, dedup_tol=-1.0).states
        _, dedup_times = timed(pure_positive._drop_near_repeats, candidates,
                               config.STATE_DEDUP_TOL)
        minimal = kdwitness.enumerate_min_uncertainty_states(u)
        positive = kdwitness.filter_kd_positive_pure(minimal, u)
        rho = np.einsum("ki,kj->ij", positive.states, positive.states.conj()) / len(positive)

        def again(u=u, rho=rho):
            kdwitness.enumerate_min_uncertainty_states(u)
            kdwitness.support_roof_bounds(rho, u)
            return kdwitness.nonpositivity_roof_bounds(rho, u)

        estimate, first_times = timed(again)
        _, repeat_times = timed(again, fresh=False)
        layers["same_basis_again"][f"d{d}"] = {
            "candidates": len(candidates),
            "states": len(minimal),
            "dedup": summary_ms(dedup_times),
            "first": summary_ms(first_times),
            "repeat": summary_ms(repeat_times),
            "nonpositivity_exact": estimate.exact,
        }

    facet_sets = {"spin1": kdwitness.SPIN1.min_uncertainty_states}
    for n in FACET_SET_SIZES:
        rng = np.random.default_rng(3000 + n)
        facet_sets[f"generic_{n}"] = [random_pure_state(3, rng) for _ in range(n)]
    layers["facet_enumeration_points"] = {}
    layers["facet_enumeration"] = {}
    for name, states in facet_sets.items():
        generators = [projector(s) for s in states]
        points = np.array([kdwitness.hermitian_to_real(g) for g in generators])
        rank = int(np.linalg.matrix_rank(points - points.mean(axis=0)))
        facets, facet_times = timed(facet_enumeration_points, points)
        _, stacked = stacked_matrices(facet_enumeration_points, points)
        layers["facet_enumeration_points"][name] = {
            **summary_ms(facet_times),
            "facets": len(facets),
            "subsets": math.comb(len(states), rank),
            "subsets_to_svd": stacked["svd"],
            "subsets_to_qr": stacked["qr"],
        }
        hermitian, wrapper_times = timed(facet_enumeration, generators)
        layers["facet_enumeration"][name] = {**summary_ms(wrapper_times), "facets": len(hermitian)}
    return {
        "label": args.label,
        "runs": RUNS,
        "roof_config": ROOF_CONFIG,
        "facet_set_sizes": FACET_SET_SIZES,
        "minor_dims": list(MINOR_DIMS),
        "membership_dims": list(MEMBERSHIP_DIMS),
        "again_dims": list(AGAIN_DIMS),
        "membership_targets": {"inside": MEMBERSHIP_INSIDE, "outside": MEMBERSHIP_OUTSIDE},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": {
            "cpu": cpu_model(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layers": layers,
    }


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    json.dump(main(), sys.stdout, indent=2)
    print()
