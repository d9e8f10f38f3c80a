"""Layer timings: minimal-state enumeration, the pattern solve at d = 7 and 8, the KD-positive filter, the annealer, minors, hull LPs, finite roofs, facets, repeat calls, both convex roofs, the command line.

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

At d = 7 and 8 (``PATTERN_SOLVE_DIMS``) it times the pattern solve alone,
``pure_positive._solve_patterns`` at the default tolerances, without the
incompatibility check that enumeration runs first (so packages whose
enumeration stops at d = 6 run these rows too), on ``haar_unitary(d, 1000 +
d)``, with the number of patterns, C(2d, d + 1), and of states.

It times ``complete_incompatibility`` on ``haar_unitary(d, 1000 + d)`` at
d = 3..8 and on the DFT matrix ``dft_matrix(8)`` ("dft8", whose many
vanishing minors make it the worst case for a search that re-evaluates the
minors near the minimum), with the number of minors checked. It times
``membership_lp`` at d = 4..6 over the projectors of that basis's minimal
states, for the inside target ``MEMBERSHIP_INSIDE`` (their uniform mixture)
and the outside target ``MEMBERSHIP_OUTSIDE`` (the pure state
``random_pure_state(d, default_rng(4000 + d))``), with the verdict and the
iterations of the simplex behind it. At d = 7 and 8 (``HULL_LP_DIMS``), the
"hull_lp" layer times
``membership_lp_points`` over the projector points of the states that
``pure_positive._solve_patterns`` gives on ``haar_unitary(d, 1000 + d)`` (as
the pattern-solve rows call it), for the inside target ``HULL_LP_INSIDE`` (a
``default_rng(d).dirichlet`` mixture of the KD-positive ones among them) and
the outside target ``MEMBERSHIP_OUTSIDE``, with the verdict and the simplex
pivots (calls of the simplex module's ``_pivot``, drive-out pivots included)
of one more untimed call. At the same d as the membership rows it times the phase-two LP
``finite_convex_roof`` over those projectors, with the total nonpositivity
(``nonpositivity_values_fn``) of each minimal state as its value, on the
inside target, with the roof value and the iterations of the simplex behind
it (phase one and phase two together). The same layer runs ``finite_convex_roof``
once per record on six d = 6 inside mixtures whose exact roof is 1
(``POSITIVE_MIXTURE_SEEDS``): for seed s, the total nonpositivity over the
projectors of the minimal states of ``haar_unitary(6, 300 + s)``, at the
mixture of its KD-positive minimal states with weights
``default_rng(s).dirichlet``. Such a call can take seconds to fail, so each row
is one timed call, with its value or the type of the package error it raised,
and the simplex pivots it made (calls of the simplex module's ``_pivot``, the
pivots that drive artificials out after phase one included).

At d = 4..6 (``AGAIN_DIMS``) it times the "same basis again" layer:
``enumerate_min_uncertainty_states`` plus
``support_roof_bounds`` and ``nonpositivity_roof_bounds`` on the inside
mixture (the uniform mixture of the KD-positive minimal states), once on a
fresh cache ("first") and once more on the same basis ("repeat").

It also times ``facet_enumeration_points`` on the real-embedded projectors
of the 15 spin-1 minimal states, of ``FACET_SET_SIZES`` generic d = 3
pure states ``random_pure_state(3, default_rng(3000 + n))``, and of the
near-degenerate set ``generic_14_near_facet``: those of ``generic_14`` plus
the mixture of the members of its first facet (in the package's canonical
order), moved ``NEAR_FACET_DEPTH`` inside that facet along its functional,
so that one generator lies within the active tolerance of a facet it does
not span. Each row has the facet count, the number C(n, affine rank) of
subsets, and how many matrices reach a stacked SVD (counted on one more
untimed call on a cleared cache, by wrapping ``numpy.linalg.svd`` and adding
up the matrices of its stacked calls). It times the Hermitian wrapper ``facet_enumeration``
on the generators themselves, so the cost of embedding the generators and
converting the functionals shows next to the points function.

It times ``support_roof_bounds`` (the "support_roof" layer) on the spin-1
states ``rho_lambda`` at ``COUNTEREXAMPLE_LAMBDAS`` and on hull-excluded
states of ``haar_unitary(d, 1000 + d)`` at d = 4, 5 and ranks 2, 3 and d (the
first state ``G G^H / Tr`` with ``G`` a d x r complex Gaussian from
``default_rng(5000 + 10 d + r)`` that ``membership_lp`` puts outside the
hull of the minimal states), with the upper bound, the dual bound where the
package reports one, and, counted on one more untimed call by wrapping the
roof module's ``solve_equality_lp``, the master LPs solved (rounds), the
columns of the last one and the simplex pivots of all of them (master
pivots). Packages whose ``support_roof_bounds`` takes ``cfg`` anneal at
``ROOF_CONFIG``.

It times ``nonpositivity_roof_bounds`` (the "nonpos_roof" layer) on the
same spin-1 states and on states of ``haar_unitary(d, 1000 + d)`` at d = 4..6
(``NONPOS_DIMS``) and ranks 2, 3 and d, ``NONPOS_SEEDS`` of each: the first
``G G^H / Tr``, ``G`` from ``default_rng(6000 + 100 s + 10 d + r)`` for seed
s, that ``membership_lp`` puts outside the hull of the KD-positive minimal
states. Three more rows have no hull route (``no_hull_states``): "nohull_dft4",
the state of ``test_nonpositivity_roof_without_hull_route`` on ``dft_matrix(4)``
(not completely incompatible); "nohull_dft6_rank6", ``G G^H / Tr`` on
``dft_matrix(6)`` with ``G`` a 6 x 6 complex Gaussian from ``default_rng(2006)``;
and "nohull_haar9", ``random_density(9, default_rng(9))`` on
``haar_unitary(9, 9)`` (past the minor-count guard). Packages whose
``nonpositivity_roof_bounds`` takes ``cfg`` anneal at ``ROOF_CONFIG`` where
there is no hull route. Its rows carry the
upper bound, the same master-LP counts and, on one more untimed call, the
time spent inside the roof module's nonpositivity pricer (``pricing_ms``,
None for a package without ``_nonpositivity_pricer``). Being slow at full
rank, its calls are timed ``NONPOS_RUNS`` times each.

It times the command line (the "cli" layer) as kdbench's ``spin1-session``
runs it: ``cli.main([..., "--json"])`` in process, with stdout and stderr
captured, on spin-1 files written once per run (the basis, the 15 minimal
states as pure-state files, the excluded state ``rho_lambda(CLI_LAMBDA)`` and
the inside mixture of the 9 KD-positive states with weights
``default_rng(0).dirichlet``): ``table``, ``hull``, ``roof-support`` and
``roof-nonpos`` on both states (the roofs at ``CLI_ROOF_ARGS``, kdbench's
settings), ``facets`` over the 15 minimal states, and ``spin1``, each with its
exit code; ``roof-nonpos`` at the command's defaults (no annealer flags) on
the "nohull_dft4" state and basis ("roof-nonpos.dft4_defaults"); and
``cli.build_parser()`` alone. The per-basis
cache is kept between these calls, as in a session of commands on one basis.

It prints one JSON record: per layer and dimension or set the median and
quartiles of ``RUNS`` timed calls (after one untimed warm-up call), the
state counts, the annealed bound, the minor counts, the hull verdicts, finite
roof values and simplex iterations, the facet, subset and SVD-subset
counts, the support-roof bounds, rounds and columns, and the machine,
Python and numpy versions. Run it against the
package on ``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/layers.py --label change > change-1.json

The quartiles are those of consecutive calls in one process; they do not
measure the spread between runs, which on a shared machine is often larger.
To compare two checkouts, run the script at least three times per side,
alternating which side runs first, and combine the records:

    python benchmarks/layers.py --combine parent-*.json change-*.json

which prints, per label and timed layer, the median of the run medians and
their range across runs.

Runs in separate processes also see the machine's speed drift between
them. ``--against CHECKOUT`` cancels that for the support-roof rows and the
annealer rows (``roof_upper_bound`` at d = 3..6, which serve as controls):
it imports the other checkout's package under a second name and times the
two packages in one process, one call each per block, the order turning
every block, and adds an "alternating" entry with both medians and their
ratio. The enumeration rows at d = 3..6 and the pattern-solve rows at d = 7
and 8 are timed the same way, and their entries say whether both packages
gave the same states bytes, patterns and degenerate patterns
(``same_states``), whether they gave the same patterns and degenerate
patterns (``same_patterns``), and the largest entrywise |difference|
between the two packages' states, compared pattern by pattern
(``max_state_diff``); the nonpositivity-roof rows are timed the same way, in
``NONPOS_RUNS`` blocks, and so are the cli rows, whose entries also say
whether both packages wrote the same report apart from ``timing_seconds``
(``same_report``) and give each package's report bytes, the length of its
stdout (``report_bytes``), and the ``membership_lp`` and ``hull_lp`` rows, whose
entries say whether both packages gave the same verdict (``same_verdict``) and
give each package's simplex pivots, and the ``facet_enumeration_points`` rows, timed on
a cleared cache like the other cached layers, whose entries
say whether both packages gave the same facets: the same active sets in the
same order, and functionals and offsets with the same bytes (``same_facets``):

    PYTHONPATH=src python benchmarks/layers.py --label change \
        --against ../parent --against-label parent > change.json
"""

import argparse
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUNS = 15
ROOF_CONFIG = {"restarts": 4, "steps": 300, "seed": 0}
FACET_SET_SIZES = (11, 12, 13, 14, 15, 16, 18)
NEAR_FACET_DEPTH = 1e-8
MINOR_DIMS = range(3, 9)
MEMBERSHIP_DIMS = range(4, 7)
AGAIN_DIMS = range(4, 7)
PATTERN_SOLVE_DIMS = (7, 8)
HULL_LP_DIMS = (7, 8)
SUPPORT_DIMS = (4, 5)
SUPPORT_RANKS = (2, 3)  # and full rank, where column generation takes the most rounds
NONPOS_DIMS = (4, 5, 6)
NONPOS_SEEDS = 3
NONPOS_RUNS = 5
POSITIVE_MIXTURE_SEEDS = range(6)
CLI_LAMBDA = 0.25
CLI_ROOF_ARGS = ("--seed=0", "--restarts=4", "--steps=300")
MEMBERSHIP_INSIDE = "uniform mixture of the minimal states"
MEMBERSHIP_OUTSIDE = "random_pure_state(d, default_rng(4000 + d))"
HULL_LP_INSIDE = "default_rng(d).dirichlet mixture of the KD-positive states"


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
    # Significant digits, not decimals, so that sub-microsecond calls keep theirs.
    return {"median_ms": float(f"{median:.5g}"), "q1_ms": float(f"{q1:.5g}"),
            "q3_ms": float(f"{q3:.5g}")}


def _cache_clear(package="kdwitness"):
    """The package's per-basis cache reset, or a no-op for packages without one."""
    try:
        return importlib.import_module(f"{package}.basis").clear_cache
    except ImportError:
        return lambda: None


def timed(fn, *args, fresh=True, runs=RUNS, **kwargs):
    """Result of one untimed warm-up call and the times of ``runs`` more.

    With ``fresh`` the per-basis cache is cleared, untimed, before each call.
    """
    clear = _cache_clear() if fresh else (lambda: None)
    clear()
    result = fn(*args, **kwargs)
    times = []
    for _ in range(runs):
        clear()
        start = time.perf_counter()
        fn(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return result, times


def load_checkout(path: str, name: str):
    """The ``kdwitness`` package of the checkout at ``path``, imported as ``name``.

    Its imports are relative, so its modules load as ``name.<module>``, next
    to the package on ``PYTHONPATH``.
    """
    init = os.path.join(path, "src", "kdwitness", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def alternated(calls, clears, runs=RUNS):
    """Times of ``runs`` blocks, each running every call once, after one untimed warm-up each.

    The order of the calls turns by one every block; each call's cache is
    cleared, untimed, before it runs.
    """
    for call, clear in zip(calls, clears):
        clear()
        call()
    times = [[] for _ in calls]
    for block in range(runs):
        for k in range(len(calls)):
            i = (block + k) % len(calls)
            clears[i]()
            start = time.perf_counter()
            calls[i]()
            times[i].append(time.perf_counter() - start)
    return times


def support_call(package, rho, u):
    """A call of the package's ``support_roof_bounds``, at ``ROOF_CONFIG`` where it anneals."""
    bounds = package.support_roof_bounds
    kwargs = {}
    if "cfg" in inspect.signature(bounds).parameters:
        kwargs["cfg"] = package.AnnealConfig(**ROOF_CONFIG)
    return lambda: bounds(rho, u, **kwargs)


def nonpos_call(package, rho, u):
    """A call of the package's ``nonpositivity_roof_bounds``, at ``ROOF_CONFIG`` where it anneals."""
    bounds = package.nonpositivity_roof_bounds
    kwargs = {}
    if "cfg" in inspect.signature(bounds).parameters:
        kwargs["cfg"] = package.AnnealConfig(**ROOF_CONFIG)
    return lambda: bounds(rho, u, **kwargs)


def master_lps(package, call) -> dict:
    """Master LPs one call of ``call`` solves in the roof module: rounds, last columns, pivots.

    Every count is None for a package whose roof module solves none.
    """
    roof = sys.modules[f"{package.__name__}.roof"]
    solve = getattr(roof, "solve_equality_lp", None)
    columns, pivots = [], []

    def counted(a, *args, **kwargs):
        result = solve(a, *args, **kwargs)
        columns.append(int(a.shape[1]))
        pivots.append(result.iterations)
        return result

    if solve is not None:
        roof.solve_equality_lp = counted
        try:
            call()
        finally:
            roof.solve_equality_lp = solve
    if not columns:
        return {"rounds": None, "columns": None, "master_pivots": None}
    return {"rounds": len(columns), "columns": columns[-1], "master_pivots": sum(pivots)}


def pricing_ms(package, call) -> dict:
    """Milliseconds one call of ``call`` spends inside the nonpositivity pricer's ``price``.

    None for a package whose roof module has no ``_nonpositivity_pricer``.
    """
    roof = sys.modules[f"{package.__name__}.roof"]
    pricer = getattr(roof, "_nonpositivity_pricer", None)
    if pricer is None:
        return {"pricing_ms": None}
    spent = []

    def timed_pricer(*args, **kwargs):
        price = pricer(*args, **kwargs)

        def timed_price(w):
            start = time.perf_counter()
            result = price(w)
            spent.append(time.perf_counter() - start)
            return result

        return timed_price

    roof._nonpositivity_pricer = timed_pricer
    try:
        call()
    finally:
        roof._nonpositivity_pricer = pricer
    return {"pricing_ms": round(sum(spent) * 1e3, 3)}


def support_states(kdwitness):
    """The support-roof layer's states: name -> (rho, u)."""
    import numpy as np

    from kdwitness.linalg import complex_gaussian, projector

    u3 = kdwitness.SPIN1.transition
    states = {f"spin1_{lam:.4f}": (kdwitness.rho_lambda(lam), u3)
              for lam in kdwitness.spin1.COUNTEREXAMPLE_LAMBDAS}
    for d in SUPPORT_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
        gens = [projector(s) for s in kdwitness.enumerate_min_uncertainty_states(u).states]
        for r in (*SUPPORT_RANKS, d):
            rng = np.random.default_rng(5000 + 10 * d + r)
            while True:
                g = complex_gaussian((d, r), rng)
                rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
                if kdwitness.membership_lp(rho, gens).verdict == "outside":
                    break
            states[f"d{d}_rank{r}"] = (rho, u)
    return states


def nonpos_states(kdwitness):
    """The nonpositivity-roof layer's states: name -> (rho, u)."""
    import numpy as np

    from kdwitness.linalg import complex_gaussian, projector

    u3 = kdwitness.SPIN1.transition
    states = {f"spin1_{lam:.4f}": (kdwitness.rho_lambda(lam), u3)
              for lam in kdwitness.spin1.COUNTEREXAMPLE_LAMBDAS}
    for d in NONPOS_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
        positive = kdwitness.filter_kd_positive_pure(
            kdwitness.enumerate_min_uncertainty_states(u), u).states
        gens = [projector(s) for s in positive]
        for r in (2, 3, d):
            for seed in range(NONPOS_SEEDS):
                rng = np.random.default_rng(6000 + 100 * seed + 10 * d + r)
                while True:
                    g = complex_gaussian((d, r), rng)
                    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
                    if kdwitness.membership_lp(rho, gens).verdict == "outside":
                        break
                states[f"d{d}_rank{r}_s{seed}"] = (rho, u)
    return {**states, **no_hull_states(kdwitness)}


def no_hull_states(kdwitness):
    """The nonpositivity-roof layer's states without a hull route: name -> (rho, u)."""
    import numpy as np

    from kdwitness.linalg import complex_gaussian, projector, random_density

    rng = np.random.default_rng(2)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    g = complex_gaussian((6, 6), np.random.default_rng(2006))
    return {
        "nohull_dft4": (0.7 * projector(psi) + 0.3 * np.eye(4) / 4.0, kdwitness.dft_matrix(4)),
        "nohull_dft6_rank6": (g @ g.conj().T / np.trace(g @ g.conj().T).real,
                              kdwitness.dft_matrix(6)),
        "nohull_haar9": (random_density(9, np.random.default_rng(9)),
                         kdwitness.haar_unitary(9, 9)),
    }


def cli_commands(kdwitness, root) -> dict:
    """The cli layer's commands on spin-1 files written under ``root``: name -> argv."""
    import numpy as np

    from kdwitness.io_json import save_matrix_file
    from kdwitness.linalg import projector

    def saved(name, array, kind):
        path = os.path.join(root, f"{name}.json")
        save_matrix_file(path, array, kind)
        return path

    spin1 = kdwitness.SPIN1
    basis = saved("basis", spin1.transition, "unitary")
    gens = [saved(f"g{k:02d}", s, "pure_state")
            for k, s in enumerate(spin1.min_uncertainty_states)]
    weights = np.random.default_rng(0).dirichlet(np.ones(len(spin1.positive_states)))
    inside = sum(w * projector(s) for w, s in zip(weights, spin1.positive_states))
    states = {"excluded": saved("excluded", kdwitness.rho_lambda(CLI_LAMBDA), "density"),
              "inside": saved("inside", inside, "density")}
    commands = {}
    for where, path in states.items():
        state = ["--state", path, "--basis", basis]
        commands[f"table.{where}"] = ["table", *state]
        commands[f"hull.{where}"] = ["hull", "--state", path, "--generators", *gens]
        for roof in ("roof-support", "roof-nonpos"):
            commands[f"{roof}.{where}"] = [roof, *state, *CLI_ROOF_ARGS]
    commands["facets"] = ["facets", "--generators", *gens]
    commands["spin1"] = ["spin1"]
    dft4_state, dft4_basis = no_hull_states(kdwitness)["nohull_dft4"]
    commands["roof-nonpos.dft4_defaults"] = [
        "roof-nonpos", "--state", saved("dft4_state", dft4_state, "density"),
        "--basis", saved("dft4_basis", dft4_basis, "unitary")]
    return {name: [*argv, "--json"] for name, argv in commands.items()}


def cli_call(package, argv):
    """The package's ``cli.main(argv)``, capturing stdout and stderr: (exit code, stdout)."""
    main = importlib.import_module(f"{package.__name__}.cli").main

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, out.getvalue()

    return call


def facet_generators(kdwitness) -> dict:
    """The facet layers' generator sets, Hermitian matrices: name -> list."""
    import numpy as np

    from kdwitness.linalg import projector, random_pure_state

    sets = {"spin1": [projector(s) for s in kdwitness.SPIN1.min_uncertainty_states]}
    for n in FACET_SET_SIZES:
        rng = np.random.default_rng(3000 + n)
        sets[f"generic_{n}"] = [projector(random_pure_state(3, rng)) for _ in range(n)]
    base = sets["generic_14"]
    first = kdwitness.facet_enumeration(base)[0]
    inside = sum(base[k] for k in first.active) / len(first.active)
    sets["generic_14_near_facet"] = [*base, inside - NEAR_FACET_DEPTH * first.functional]
    return sets


def facet_call(package, points):
    """A call of the package's ``facet_enumeration_points`` on ``points``."""
    geometry = importlib.import_module(f"{package.__name__}.geometry")
    return lambda: geometry.facet_enumeration_points(points)


def same_facets(ours, theirs) -> bool:
    """Whether two facet lists hold the same active sets in the same order, and the same bytes."""
    return len(ours) == len(theirs) and all(
        f.active == g.active and f.functional.tobytes() == g.functional.tobytes()
        and float(f.offset).hex() == float(g.offset).hex() for f, g in zip(ours, theirs))


def solve_call(package, u):
    """A call of the package's pattern solve at the default tolerances, no incompatibility check.

    A package whose pattern solve takes the base tolerance as an argument
    gets ``BASE_TOL``; one whose solve also deduplicates the solved states
    takes the tolerance of that, 1e-8 by default, as a third argument.
    """
    pure = importlib.import_module(f"{package.__name__}.pure_positive")
    config = importlib.import_module(f"{package.__name__}.config")
    extra = (config.BASE_TOL, 1e-8)[:len(inspect.signature(pure._solve_patterns).parameters) - 1]
    return lambda: pure._solve_patterns(u, *extra)


def _pattern_keys(result) -> tuple:
    return ([(p.a_support, p.b_support) for p in result.patterns],
            [(p.a_support, p.b_support, n) for p, n in result.degenerate_patterns])


def same_states(ours, theirs) -> bool:
    """Whether two state lists hold the same states bytes, patterns and degenerate patterns."""
    return (ours.states.tobytes() == theirs.states.tobytes()
            and _pattern_keys(ours) == _pattern_keys(theirs))


def state_diff(ours, theirs) -> dict:
    """Whether two state lists hold the same patterns and degenerate patterns, and how far their states are.

    ``max_state_diff`` is the largest entrywise |difference| between the
    states of the patterns both lists hold, compared pattern by pattern
    (None when they share none).
    """
    import numpy as np

    keys = [_pattern_keys(result)[0] for result in (ours, theirs)]
    rows = {key: k for k, key in enumerate(keys[1])}
    common = [(k, rows[key]) for k, key in enumerate(keys[0]) if key in rows]
    diff = None
    if common:
        mine, their = (list(index) for index in zip(*common))
        diff = float(np.max(np.abs(ours.states[mine] - theirs.states[their])))
    return {"same_patterns": _pattern_keys(ours) == _pattern_keys(theirs), "max_state_diff": diff}


@contextlib.contextmanager
def counting_pivots(package):
    """A one-item list that counts the calls of the package's ``simplex._pivot`` in the block."""
    simplex = sys.modules[f"{package.__name__}.simplex"]
    pivot = simplex._pivot
    pivots = [0]

    def counted(*args, **kwargs):
        pivots[0] += 1
        return pivot(*args, **kwargs)

    simplex._pivot = counted
    try:
        yield pivots
    finally:
        simplex._pivot = pivot


def once_with_pivots(package, call) -> dict:
    """One timed call of ``call``: its value or package error type, and its simplex pivots."""
    errors = sys.modules[f"{package.__name__}.errors"]
    value = error = None
    with counting_pivots(package) as pivots:
        start = time.perf_counter()
        try:
            value = call()
        except errors.KDError as exc:
            error = type(exc).__name__
        finally:
            elapsed = time.perf_counter() - start
    return {"once_ms": round(elapsed * 1e3, 3), "roof": value, "error": error,
            "simplex_pivots": pivots[0]}


def verdict_and_pivots(package, call) -> tuple:
    """The verdict of one call of the membership call ``call`` and the simplex pivots it made."""
    with counting_pivots(package) as pivots:
        verdict = call().verdict
    return verdict, pivots[0]


def membership_inputs(kdwitness, d):
    """The membership layer's generators at d and its targets: (generators, side -> target)."""
    import numpy as np

    from kdwitness.linalg import projector, random_pure_state

    u = kdwitness.haar_unitary(d, 1000 + d)
    gens = [projector(s) for s in kdwitness.enumerate_min_uncertainty_states(u).states]
    psi = random_pure_state(d, np.random.default_rng(4000 + d))
    return gens, {"inside": sum(gens) / len(gens), "outside": projector(psi)}


def hull_lp_inputs(kdwitness, d):
    """The hull_lp layer's generator points at d and its target points: (points, side -> x)."""
    import numpy as np

    from kdwitness.linalg import projector, random_pure_state

    u = kdwitness.haar_unitary(d, 1000 + d)
    minimal = solve_call(kdwitness, u)()
    positive = kdwitness.filter_kd_positive_pure(minimal, u).states
    weights = np.random.default_rng(d).dirichlet(np.ones(len(positive)))
    psi = random_pure_state(d, np.random.default_rng(4000 + d))
    targets = {"inside": np.einsum("k,ki,kj->ij", weights, positive, positive.conj()),
               "outside": projector(psi)}
    points = kdwitness.hermitian_to_real(
        np.einsum("ki,kj->kij", minimal.states, minimal.states.conj()))
    return points, {side: kdwitness.hermitian_to_real(t) for side, t in targets.items()}


def hull_lp_call(package, x, points):
    """A call of the package's ``membership_lp_points`` on ``x`` over ``points``."""
    geometry = importlib.import_module(f"{package.__name__}.geometry")
    return lambda: geometry.membership_lp_points(x, points)


def report_without_timing(output) -> str:
    """A cli call's report with ``timing_seconds`` left out, as canonical JSON."""
    report = json.loads(output[1])
    report.pop("timing_seconds", None)
    return json.dumps(report, sort_keys=True)


def svd_subsets(fn, *args):
    """Result of one call of ``fn`` and the number of matrices it passed, stacked, to ``svd``.

    The per-basis cache is cleared first, so that the call does its work.
    """
    import numpy as np

    _cache_clear()()
    original = np.linalg.svd
    count = 0

    def counted(a, *f_args, **f_kwargs):
        nonlocal count
        if np.ndim(a) > 2:
            count += math.prod(np.shape(a)[:-2])
        return original(a, *f_args, **f_kwargs)

    np.linalg.svd = counted
    try:
        return fn(*args), count
    finally:
        np.linalg.svd = original


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
    parser.add_argument("--against", metavar="CHECKOUT",
                        help="also time this checkout's package, alternating, in this process")
    parser.add_argument("--against-label", default="against",
                        help="free text naming the --against checkout in the record")
    args = parser.parse_args(argv)
    if args.combine:
        return combine(args.combine)
    with tempfile.TemporaryDirectory() as cli_root:
        return record(args, cli_root)


def record(args, cli_root) -> dict:
    """The record of one timing run; the cli layer's files are written under ``cli_root``."""
    import numpy as np

    import kdwitness
    from kdwitness import cli, config
    from kdwitness.geometry import _hull_lp, facet_enumeration, facet_enumeration_points
    from kdwitness.linalg import projector, random_density
    from kdwitness.roof import nonpositivity_values_fn
    from kdwitness.studies import dft_matrix

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

    layers["pattern_solve"] = {}
    for d in PATTERN_SOLVE_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
        solved, solve_times = timed(solve_call(kdwitness, u))
        layers["pattern_solve"][f"d{d}"] = {
            **summary_ms(solve_times),
            "patterns": math.comb(2 * d, d + 1),
            "states": len(solved),
        }

    layers["complete_incompatibility"] = {}
    minor_bases = {f"d{d}": kdwitness.haar_unitary(d, 1000 + d) for d in MINOR_DIMS}
    minor_bases["dft8"] = dft_matrix(8)
    for name, u in minor_bases.items():
        report, minor_times = timed(kdwitness.complete_incompatibility, u)
        layers["complete_incompatibility"][name] = {
            **summary_ms(minor_times),
            "minors_checked": report.minors_checked,
        }

    layers["membership_lp"] = {}
    layers["finite_convex_roof"] = {}
    for d in MEMBERSHIP_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
        minimal = kdwitness.enumerate_min_uncertainty_states(u).states
        gens, targets = membership_inputs(kdwitness, d)
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
        values = nonpositivity_values_fn(u)(minimal)
        inside = targets["inside"]
        roof, roof_times = timed(kdwitness.finite_convex_roof, values, inside, gens)
        # The phase-two LP that finite_convex_roof solves, for its iteration count.
        lp = _hull_lp(points, kdwitness.hermitian_to_real(inside), values,
                      config.FEASIBILITY_TOL)
        layers["finite_convex_roof"][f"d{d}_inside"] = {
            **summary_ms(roof_times),
            "generators": len(gens),
            "roof": roof,
            "simplex_iterations": lp.iterations,
        }
    for s in POSITIVE_MIXTURE_SEEDS:
        u = kdwitness.haar_unitary(6, 300 + s)
        minimal = kdwitness.enumerate_min_uncertainty_states(u)
        positive = kdwitness.filter_kd_positive_pure(minimal, u)
        weights = np.random.default_rng(s).dirichlet(np.ones(len(positive)))
        mixture = sum(w * projector(state) for w, state in zip(weights, positive.states))
        values = nonpositivity_values_fn(u)(minimal.states)
        gens = [projector(state) for state in minimal.states]
        layers["finite_convex_roof"][f"d6_haar{300 + s}_positive_mixture"] = {
            "generators": len(gens),
            **once_with_pivots(kdwitness, lambda: kdwitness.finite_convex_roof(
                values, mixture, gens)),
        }

    layers["hull_lp"] = {}
    for d in HULL_LP_DIMS:
        points, targets = hull_lp_inputs(kdwitness, d)
        for side, x in targets.items():
            call = hull_lp_call(kdwitness, x, points)
            _, lp_times = timed(call)
            verdict, pivots = verdict_and_pivots(kdwitness, call)
            layers["hull_lp"][f"d{d}_{side}"] = {
                **summary_ms(lp_times),
                "generators": len(points),
                "verdict": verdict,
                "simplex_pivots": pivots,
            }

    layers["same_basis_again"] = {}
    for d in AGAIN_DIMS:
        u = kdwitness.haar_unitary(d, 1000 + d)
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
            "states": len(minimal),
            "first": summary_ms(first_times),
            "repeat": summary_ms(repeat_times),
            "nonpositivity_exact": estimate.exact,
        }

    layers["support_roof"] = {}
    support = support_states(kdwitness)
    for name, (rho, u) in support.items():
        call = support_call(kdwitness, rho, u)
        estimate, support_times = timed(call)
        layers["support_roof"][name] = {
            **summary_ms(support_times),
            "upper_bound": estimate.upper_bound,
            "dual_bound": getattr(estimate, "dual_bound", None),
            **master_lps(kdwitness, call),
        }

    layers["nonpos_roof"] = {}
    nonpos = nonpos_states(kdwitness)
    for name, (rho, u) in nonpos.items():
        call = nonpos_call(kdwitness, rho, u)
        estimate, nonpos_times = timed(call, runs=NONPOS_RUNS)
        layers["nonpos_roof"][name] = {
            **summary_ms(nonpos_times),
            "upper_bound": estimate.upper_bound,
            **master_lps(kdwitness, call),
            **pricing_ms(kdwitness, call),
        }

    # The per-basis cache is kept, as in a session of commands on one basis.
    commands = cli_commands(kdwitness, cli_root)
    _, parser_times = timed(cli.build_parser, fresh=False)
    layers["cli"] = {"build_parser": summary_ms(parser_times)}
    for name, argv in commands.items():
        (code, _), cli_times = timed(cli_call(kdwitness, argv), fresh=False)
        layers["cli"][name] = {**summary_ms(cli_times), "exit_code": code}

    alternating = None
    if args.against:
        other = load_checkout(args.against, "kdwitness_against")
        pairs = {f"support_roof.{name}": [support_call(k, rho, u) for k in (kdwitness, other)]
                 for name, (rho, u) in support.items()}
        for d in range(3, 7):
            u = kdwitness.haar_unitary(d, 1000 + d)
            rho = random_density(d, np.random.default_rng(2000 + d))
            anchors = kdwitness.filter_kd_positive_pure(
                kdwitness.enumerate_min_uncertainty_states(u), u).states
            pairs[f"roof_upper_bound.d{d}"] = [
                (lambda k=k, u=u, rho=rho, a=anchors: k.roof_upper_bound(
                    rho, k.roof.nonpositivity_values_fn(u), k.AnnealConfig(**ROOF_CONFIG),
                    anchors=a))
                for k in (kdwitness, other)]
        states_rows = {}
        for d in range(3, 7):
            u = kdwitness.haar_unitary(d, 1000 + d)
            states_rows[f"enumerate_min_uncertainty_states.d{d}"] = [
                (lambda k=k, u=u: k.enumerate_min_uncertainty_states(u)) for k in (kdwitness, other)]
        for d in PATTERN_SOLVE_DIMS:
            u = kdwitness.haar_unitary(d, 1000 + d)
            states_rows[f"pattern_solve.d{d}"] = [solve_call(k, u) for k in (kdwitness, other)]
        pairs.update(states_rows)
        verdict_rows = {}
        for d in MEMBERSHIP_DIMS:
            gens, targets = membership_inputs(kdwitness, d)
            for side, target in targets.items():
                verdict_rows[f"membership_lp.d{d}_{side}"] = [
                    (lambda k=k, t=target, g=gens: k.membership_lp(t, g))
                    for k in (kdwitness, other)]
        for d in HULL_LP_DIMS:
            points, targets = hull_lp_inputs(kdwitness, d)
            for side, x in targets.items():
                verdict_rows[f"hull_lp.d{d}_{side}"] = [hull_lp_call(k, x, points)
                                                        for k in (kdwitness, other)]
        pairs.update(verdict_rows)
        for name, (rho, u) in nonpos.items():
            pairs[f"nonpos_roof.{name}"] = [nonpos_call(k, rho, u) for k in (kdwitness, other)]
        pairs["cli.build_parser"] = [importlib.import_module(f"{k.__name__}.cli").build_parser
                                     for k in (kdwitness, other)]
        for name, argv in commands.items():
            pairs[f"cli.{name}"] = [cli_call(k, argv) for k in (kdwitness, other)]
        clears = [_cache_clear(), _cache_clear(other.__name__)]
        keep = [lambda: None] * 2
        alternating = {}
        for name, calls in pairs.items():
            runs = NONPOS_RUNS if name.startswith("nonpos_roof.") else RUNS
            cli_row = name.startswith("cli.")
            times = alternated(calls, keep if cli_row else clears, runs)
            mine, theirs = (summary_ms(t) for t in times)
            alternating[name] = {
                args.label or "this": mine,
                args.against_label: theirs,
                "speedup": round(theirs["median_ms"] / mine["median_ms"], 3),
            }
            if cli_row and name != "cli.build_parser":
                outputs = [call() for call in calls]
                reports = [report_without_timing(output) for output in outputs]
                alternating[name]["same_report"] = reports[0] == reports[1]
                alternating[name]["report_bytes"] = {
                    label: len(output[1].encode())
                    for label, output in zip((args.label or "this", args.against_label), outputs)}
            if name in states_rows:
                results = [call() for call in calls]
                alternating[name]["same_states"] = same_states(*results)
                alternating[name].update(state_diff(*results))
            if name in verdict_rows:
                (ours, our_pivots), (theirs, their_pivots) = (
                    verdict_and_pivots(k, call) for k, call in zip((kdwitness, other), calls))
                alternating[name]["same_verdict"] = ours == theirs
                alternating[name]["simplex_pivots"] = {
                    args.label or "this": our_pivots, args.against_label: their_pivots}

    facet_sets = facet_generators(kdwitness)
    layers["facet_enumeration_points"] = {}
    layers["facet_enumeration"] = {}
    for name, generators in facet_sets.items():
        points = np.array([kdwitness.hermitian_to_real(g) for g in generators])
        rank = int(np.linalg.matrix_rank(points - points.mean(axis=0)))
        facets, facet_times = timed(facet_enumeration_points, points)
        _, to_svd = svd_subsets(facet_enumeration_points, points)
        layers["facet_enumeration_points"][name] = {
            **summary_ms(facet_times),
            "facets": len(facets),
            "subsets": math.comb(len(generators), rank),
            "subsets_to_svd": to_svd,
        }
        hermitian, wrapper_times = timed(facet_enumeration, generators)
        layers["facet_enumeration"][name] = {**summary_ms(wrapper_times), "facets": len(hermitian)}
    if args.against:
        for name, generators in facet_sets.items():
            points = np.array([kdwitness.hermitian_to_real(g) for g in generators])
            calls = [facet_call(k, points) for k in (kdwitness, other)]
            mine, theirs = (summary_ms(t) for t in alternated(calls, clears))
            alternating[f"facet_enumeration_points.{name}"] = {
                args.label or "this": mine,
                args.against_label: theirs,
                "speedup": round(theirs["median_ms"] / mine["median_ms"], 3),
                "same_facets": same_facets(*(call() for call in calls)),
            }
    return {
        "label": args.label,
        "runs": RUNS,
        "roof_config": ROOF_CONFIG,
        "facet_set_sizes": FACET_SET_SIZES,
        "near_facet_depth": NEAR_FACET_DEPTH,
        "minor_dims": list(MINOR_DIMS),
        "membership_dims": list(MEMBERSHIP_DIMS),
        "again_dims": list(AGAIN_DIMS),
        "pattern_solve_dims": list(PATTERN_SOLVE_DIMS),
        "hull_lp_dims": list(HULL_LP_DIMS),
        "nonpos_dims": list(NONPOS_DIMS),
        "nonpos_runs": NONPOS_RUNS,
        "positive_mixture_seeds": list(POSITIVE_MIXTURE_SEEDS),
        "membership_targets": {"inside": MEMBERSHIP_INSIDE, "outside": MEMBERSHIP_OUTSIDE},
        "hull_lp_targets": {"inside": HULL_LP_INSIDE, "outside": MEMBERSHIP_OUTSIDE},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": {
            "cpu": cpu_model(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "layers": layers,
        **({"against": args.against_label, "alternating": alternating} if alternating else {}),
    }


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    json.dump(main(), sys.stdout, indent=2)
    print()
