"""Layer timings of minimal-state enumeration and the KD-positive filter.

Times ``enumerate_min_uncertainty_states`` and ``filter_kd_positive_pure``
on the Haar basis ``haar_unitary(d, 1000 + d)`` for each d = 3..6, with BLAS
pinned to one thread, and prints one JSON record: per layer and dimension
the median and quartiles of ``RUNS`` timed calls (after one untimed warm-up
call), the state counts, and the machine, Python and numpy versions. Run it
against the package on ``PYTHONPATH``:

    PYTHONPATH=src python benchmarks/enumeration_layers.py --label change
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUNS = 15


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


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="free text stored in the record")
    args = parser.parse_args(argv)

    import numpy as np

    import kdwitness

    layers = {}
    for d in range(3, 7):
        u = kdwitness.haar_unitary(d, 1000 + d)
        minimal = kdwitness.enumerate_min_uncertainty_states(u)
        positive = kdwitness.filter_kd_positive_pure(minimal, u)
        enum_times, filter_times = [], []
        for _ in range(RUNS):
            start = time.perf_counter()
            minimal = kdwitness.enumerate_min_uncertainty_states(u)
            enum_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            positive = kdwitness.filter_kd_positive_pure(minimal, u)
            filter_times.append(time.perf_counter() - start)
        layers[f"d{d}"] = {
            "states": len(minimal),
            "kd_positive_states": len(positive),
            "enumerate_min_uncertainty_states": summary_ms(enum_times),
            "filter_kd_positive_pure": summary_ms(filter_times),
        }
    return {
        "label": args.label,
        "runs": RUNS,
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
