"""Closed-loop benchmark of kdwitness on three certificate workloads.

    python3 kdbench/run.py --workload spin1-session --seed 1 --seconds 20 --trace 0

One client in one process sends its next job when the previous one has
finished and been checked. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the package's
functions (see tracer.py) and reports the per-layer metrics. Run it from
anywhere: the package is imported from ``src/`` next to this directory.
"""

import os

# Pin BLAS to one thread before numpy loads: the single-threaded baseline.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
# The package's global tolerance override would change every verdict.
os.environ.pop("KD_DEFAULT_TOL", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import ANNEAL, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE_DIR = ROOT / ".kdbench"  # scratch inputs and determinism fingerprints
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # a full-size run lasts until its tail percentile has this many samples above it
# Reference speed: the speed at which one calibrate() call takes this long.
# Job times are reported at reference speed (see measure and README.md).
CAL_REF_S = 0.004
LOCAL_CALIBRATIONS = 3

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "ok_share": "share",
    "decided_share": "share",
    "support_upper_mean": "count",
    "nonpos_upper_mean": "1",
    "peak_rss_mb": "MB",
}

SPANNED_METRICS = [f"{m}.{f}" for m, names in tracing.SPANNED.items() for f in names]
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in SPANNED_METRICS
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))},
    "roof.anneal_steps": "count",
    "roof.us_per_step": "us",
    "roof.decomposition_from_isometry.calls": "count",
    "pure_positive.states_out": "count",
    "pure_positive.phase_invariant_distance.calls": "count",
    "pure_positive.repeat_share": "share",
    "incompatibility.repeat_share": "share",
    "incompatibility.minors_checked": "count",
    "simplex.iterations": "count",
    "simplex.us_per_iteration": "us",
    "simplex.infeasible_share": "share",
    "geometry.facet_subsets": "count",
    "geometry.facets_found": "count",
    "io_json.report_bytes": "count",
    **{f"{m}.self_share": "share" for m in tracing.MODULES},
    "unattributed.self_share": "share",
    "trace.traced_jobs_per_s": "1/s",
    "trace.plain_jobs_per_s": "1/s",
    "trace.overhead_jobs_per_s": "1/s",
}

# Counts that must repeat exactly for one seed (measured over round 0).
EXACT_COUNTS = ("simplex.iterations", "incompatibility.minors_checked",
                "geometry.facet_subsets", "roof.anneal_steps", "pure_positive.states_out")


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((6, 6)) + 1j * _CAL_RNG.standard_normal((6, 6))
_CAL_H = _CAL_A + _CAL_A.conj().T
_CAL_STACK = _CAL_RNG.standard_normal((200, 4, 4))


def calibrate() -> float:
    """Seconds for a fixed mix of Python work and small numpy calls.

    It runs before every job and after every set-up, so the calibrations
    around a job tell how fast the machine ran while the job did."""
    start = time.perf_counter()
    for k in range(12):
        n = 3 + k % 4
        np.linalg.svd(_CAL_A[:n, :n])
        np.linalg.eigh(_CAL_H)
        np.linalg.qr(_CAL_A[:n, :n])
        np.abs(np.linalg.det(_CAL_STACK)).min()
        rows = [{"k": i, "v": [i * 0.5, -i]} for i in range(40)]
        json.dumps(rows)
        sorted((i * 7919) % 101 for i in range(300))
    return time.perf_counter() - start


def import_package():
    """Fresh import of kdwitness from this checkout's src/."""
    for name in [n for n in sys.modules if n == "kdwitness" or n.startswith("kdwitness.")]:
        del sys.modules[name]
    pkg = importlib.import_module("kdwitness")
    if Path(pkg.__file__).resolve().parent != SRC / "kdwitness":
        raise ImportError(f"kdwitness imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(kdwitness=pkg, cli=importlib.import_module("kdwitness.cli"),
                           roof=importlib.import_module("kdwitness.roof"))


def setup(workload_cls, seed, size, work_root):
    """Import, build and write round 0 several times; keep the last. A
    calibration precedes the first set-up and follows each one."""
    times, calibration = [], [calibrate()]
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = workload_cls(import_package(), seed, size, work_root / f"setup{k}")
        first_round = workload.round(0)
        times.append(time.perf_counter() - start)
        calibration.append(calibrate())
    return workload, first_round, times, calibration


class Phase:
    """Jobs of one measured phase: latencies, failures and round-0 quality."""

    def __init__(self):
        self.latencies = []
        self.kinds = []
        self.calibration = []
        self.failed = 0
        self.failures = []
        self.near_degenerate = 0
        self.rounds = 0
        self.quality = None
        self.round0_counts = None

    def scale(self) -> float:
        """How much slower than reference speed the machine ran the phase."""
        return statistics.median(self.calibration) / CAL_REF_S

    def reference_latencies(self) -> list:
        """Job latencies at reference speed, each scaled by the median of the
        calibrations taken around it (LOCAL_CALIBRATIONS on either side)."""
        cal = self.calibration
        return [
            latency * CAL_REF_S / statistics.median(
                cal[max(0, i - LOCAL_CALIBRATIONS):i + LOCAL_CALIBRATIONS + 1])
            for i, latency in enumerate(self.latencies)
        ]

    def jobs_per_s(self) -> float:
        """Jobs per second of job time, at reference speed."""
        return len(self.latencies) / sum(self.reference_latencies())


def measure(rounds, seconds, tail_percentile, min_beyond, tracer=None):
    """Run whole rounds until ``seconds`` have passed and ``min_beyond`` jobs
    lie above ``tail_percentile``.

    ``rounds`` yields the job list of each round. Only the job call is timed; the
    calibration before it and the check after it are the client's own work.
    """
    phase = Phase()
    start = time.perf_counter()
    for jobs in rounds:
        verdicts, support_upper, nonpos_upper = [], [], []
        for job in jobs:
            phase.calibration.append(calibrate())
            span = tracer.open(tracing.JOB) if tracer else None
            t0 = time.perf_counter()
            try:
                output = job.run()
            except Exception as exc:  # a job that raises is a failed job; keep going
                output, error = None, exc
            else:
                error = None
            phase.latencies.append(time.perf_counter() - t0)
            phase.kinds.append(job.kind)
            if tracer:
                tracer.close(span)
            if error is None:
                try:
                    obs = job.check(output)
                    verdicts += obs.verdicts
                    support_upper += obs.support_upper
                    nonpos_upper += obs.nonpos_upper
                    phase.near_degenerate += obs.near_degenerate
                except Exception as exc:
                    error = exc
            if error is not None:
                phase.failed += 1
                if len(phase.failures) < 5:
                    phase.failures.append(
                        f"{job.kind}: " + "".join(traceback.format_exception_only(error)).strip())
        phase.rounds += 1
        if phase.quality is None:
            phase.quality = {
                "decided_share": (sum(v in ("inside", "outside") for v in verdicts)
                                  / len(verdicts)) if verdicts else 0.0,
                "support_upper_mean": float(np.mean(support_upper)) if support_upper else 0.0,
                "nonpos_upper_mean": float(np.mean(nonpos_upper)) if nonpos_upper else 0.0,
            }
            if tracer:
                phase.round0_counts = {k: tracer.counts[k] for k in EXACT_COUNTS}
        if (time.perf_counter() - start >= seconds
                and samples_beyond(len(phase.latencies), tail_percentile) >= min_beyond):
            break
    return phase


def rounds_from(workload, index, jobs=None):
    """Job lists of rounds ``index``, ``index + 1``, ...; ``jobs`` is round ``index``'s
    when it was already built during set-up."""
    while True:
        yield jobs if jobs is not None else workload.round(index)
        jobs = None
        index += 1


def tail_index(n, tail_percentile) -> int:
    """Index of the nearest-rank ``tail_percentile`` in ``n`` sorted samples."""
    return max(0, math.ceil(tail_percentile / 100 * n) - 1)


def samples_beyond(n, tail_percentile) -> int:
    return n - 1 - tail_index(n, tail_percentile)


def percentile_report(latencies, tail_percentile):
    """Median and the workload's tail percentile, with the samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return {
        "p50_ms": 1e3 * statistics.median(ordered),
        "tail_ms": 1e3 * ordered[tail_index(n, tail_percentile)],
        "tail_percentile": tail_percentile,
        "tail_samples_beyond": samples_beyond(n, tail_percentile),
        "samples": n,
    }


def job_kinds(phase):
    """Job count and median latency per job kind: the mix behind the percentiles."""
    by_kind = {}
    for kind, latency in zip(phase.kinds, phase.latencies):
        by_kind.setdefault(kind, []).append(latency)
    return {k: {"jobs": len(v), "p50_ms": 1e3 * statistics.median(v)}
            for k, v in sorted(by_kind.items())}


def layer_metrics(tracer, traced, plain):
    """Per-layer metrics of the traced phase; times at reference speed."""
    counts = tracer.counts
    scale = traced.scale()
    self_s = tracer.self_times()
    incl_s = tracer.inclusive_times()
    out = {}
    for name in SPANNED_METRICS:
        out[f"{name}.calls"] = counts[f"{name}.calls"]
        out[f"{name}.self_ms"] = 1e3 * self_s.get(name, 0.0) / scale
    for name, unit in PER_LAYER.items():
        if unit == "count" and name not in out:
            out[name] = counts[name]

    def ratio(num, den):
        return num / den if den else 0.0

    out["roof.us_per_step"] = 1e6 / scale * ratio(incl_s.get("roof.roof_upper_bound", 0.0),
                                                  counts["roof.anneal_steps"])
    out["simplex.us_per_iteration"] = 1e6 / scale * ratio(
        incl_s.get("simplex.solve_equality_lp", 0.0), counts["simplex.iterations"])
    out["simplex.infeasible_share"] = ratio(counts["simplex.infeasible"],
                                            counts["simplex.solve_equality_lp.calls"])
    out["pure_positive.repeat_share"] = ratio(
        counts["pure_positive.repeat_calls"],
        counts["pure_positive.enumerate_min_uncertainty_states.calls"])
    out["incompatibility.repeat_share"] = ratio(
        counts["incompatibility.repeat_calls"],
        counts["incompatibility.complete_incompatibility.calls"])
    job_s = incl_s.get(tracing.JOB, 0.0)
    for module in tracing.MODULES:
        out[f"{module}.self_share"] = ratio(
            sum(t for n, t in self_s.items() if n.split(".")[0] == module), job_s)
    out["unattributed.self_share"] = ratio(self_s.get(tracing.JOB, 0.0), job_s)
    out["trace.traced_jobs_per_s"] = traced.jobs_per_s()
    out["trace.plain_jobs_per_s"] = plain.jobs_per_s()
    out["trace.overhead_jobs_per_s"] = plain.jobs_per_s() - traced.jobs_per_s()
    return out


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kdwitness").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def determinism_check(name, size, seed, section, values) -> str:
    """Compare ``values`` with what an earlier run of this code and seed saw."""
    path = STATE_DIR / "fingerprints" / f"{name}-{size}-seed{seed}-{code_digest()}.json"
    previous = json.loads(path.read_text()) if path.exists() else {}
    if section in previous and previous[section] != values:
        return f"MISMATCH in {section}: earlier {previous[section]}, now {values}"
    status = "matches an earlier run" if section in previous else "first run of this seed"
    previous[section] = values
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(previous, sort_keys=True))
    return status


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def emit(metrics, units):
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny rounds for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "kdwitness" / "__init__.py").is_file():
        print(f"kdbench: no kdwitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    workload_cls = WORKLOADS[args.workload]
    work_root = STATE_DIR / f"work-{os.getpid()}"
    try:
        workload, first_round, setup_times, setup_cal = setup(
            workload_cls, args.seed, args.size, work_root)
        rounds = rounds_from(workload, 0, first_round)
        tail = (workload_cls.tail_percentile, TAIL_BEYOND if args.size == "full" else 0)
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(rounds, args.seconds, *tail, tracer)
            finally:
                tracer.uninstall()
            plain = measure(rounds_from(workload, traced.rounds), args.seconds, *tail)
            main_phase = traced
        else:
            main_phase = measure(rounds, args.seconds, *tail)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    phases = [main_phase] + ([plain] if args.trace else [])
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    scale = main_phase.scale()
    pct = percentile_report(main_phase.latencies, workload_cls.tail_percentile)
    ref_pct = percentile_report(main_phase.reference_latencies(), workload_cls.tail_percentile)
    determinism = determinism_check(args.workload, args.size, args.seed, "quality",
                                    main_phase.quality)
    if args.trace:
        determinism += "; counts: " + determinism_check(
            args.workload, args.size, args.seed, "counts", main_phase.round0_counts)
        metrics = layer_metrics(tracer, main_phase, plain)
        units = PER_LAYER
    else:
        metrics = {
            # Each set-up at the mean speed of the calibrations around it.
            "setup_s": statistics.median(
                t * CAL_REF_S / statistics.fmean(setup_cal[k:k + 2])
                for k, t in enumerate(setup_times)),
            "jobs_per_s": main_phase.jobs_per_s(),
            "job_p50_ms": ref_pct["p50_ms"],
            "job_tail_ms": ref_pct["tail_ms"],
            "ok_share": 1.0 - failed / attempted,
            **main_phase.quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    record = {
        "workload": args.workload,
        "why": workload_cls.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_commit": git_commit(),
        "code_digest": code_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "anneal": ANNEAL,
        "setup_times_s": setup_times,
        "setup_calibration_ms": 1e3 * statistics.median(setup_cal),
        "rounds": main_phase.rounds,
        "calibration_ms": 1e3 * statistics.median(main_phase.calibration),
        "speed_scale": scale,
        "wall_clock_jobs_per_s": len(main_phase.latencies) / sum(main_phase.latencies),
        "jobs": len(main_phase.latencies),
        "wall_clock_percentiles": pct,
        "job_kinds": job_kinds(main_phase),
        "failed_share": failed / attempted,
        "failures": [f for p in phases for f in p.failures],
        "near_degenerate_sets": sum(p.near_degenerate for p in phases),
        "round0_quality": main_phase.quality,
        "round0_counts": main_phase.round0_counts,
        "determinism": determinism,
        "reference_lp": checks.reference_lp()[1] if args.workload == "hull-geometry" else None,
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    emit(metrics, units)
    print(f"failed_share = {failed / attempted:.6g} share")
    correct = failed == 0 and "MISMATCH" not in determinism
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
