"""Span and counter recording around kdwitness functions, from outside the package.

The tracer replaces every binding of each listed function in the
``kdwitness`` module namespaces (``roof.enumerate_min_uncertainty_states``,
``spin1.enumerate_min_uncertainty_states`` and ``cli.enumerate_min_uncertainty_states``
are three bindings of one function) with a wrapper, and restores the
originals afterwards. No file of the package changes.

Spanned functions record (name, parent, start, end); a span's self time is
its duration minus the durations of its direct children. Functions called
tens of thousands of times per run are only counted, so the wrapper cost
does not land in their callers' self time.
"""

import hashlib
import sys
import time
from collections import defaultdict
from math import comb

import numpy as np

from checks import affine_rank

# module -> functions that get a span.
SPANNED = {
    "cli": ("main",),
    "io_json": ("load_matrix_file", "dumps_report"),
    "spin1": ("run_spin1_checks",),
    "roof": ("roof_upper_bound", "support_roof_bounds", "nonpositivity_roof_bounds"),
    "pure_positive": ("enumerate_min_uncertainty_states", "filter_kd_positive_pure"),
    "incompatibility": ("complete_incompatibility",),
    "simplex": ("solve_equality_lp",),
    "geometry": ("membership_lp", "facet_enumeration_points", "finite_convex_roof"),
    "kd": ("kd_table",),
    "linalg": ("hermitian_eig",),
}

# module -> functions that are only counted.
COUNTED = {
    "roof": ("decomposition_from_isometry",),
    "pure_positive": ("phase_invariant_distance",),
}

MODULES = tuple(SPANNED)
JOB = "job"


def _basis_key(args, kwargs) -> bytes:
    u = kwargs.get("transition", args[0] if args else None)
    return hashlib.sha1(np.ascontiguousarray(u, dtype=complex).tobytes()).digest()


class Tracer:
    """Spans and counters for one traced phase of a run."""

    def __init__(self):
        self.spans = []  # [name, parent index or None, start, end]
        self.stack = []
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)
        self._patched = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn, pre, post):
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.counts[name + ".calls"] += 1
            if post:
                post(args, kwargs, result, state)
            return result

        return wrapper

    def _counted(self, name, fn):
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that turn results into counts -------------------------------
    def _hooks(self):
        c = self.counts

        def repeat(name):
            def pre(args, kwargs):
                key = _basis_key(args, kwargs)
                c[name + ".repeat_calls"] += key in self.seen[name]
                self.seen[name].add(key)
            return pre

        def minors_post(args, kwargs, result, state):
            c["incompatibility.minors_checked"] += result.minors_checked

        def lp_post(args, kwargs, result, state):
            c["simplex.iterations"] += result.iterations
            c["simplex.infeasible"] += result.status == "infeasible"

        def anneal_pre(args, kwargs):
            return c["roof.decomposition_from_isometry.calls"]

        def anneal_post(args, kwargs, result, before):
            evaluations = c["roof.decomposition_from_isometry.calls"] - before
            if evaluations:
                # One evaluation per restart scores its starting point.
                c["roof.anneal_steps"] += evaluations - len(result.restart_values)

        def subsets_pre(args, kwargs):
            points = kwargs.get("points", args[0] if args else None)
            # affine_rank uses the facet enumeration's rank rule, so this
            # counts the subsets its loop visits.
            c["geometry.facet_subsets"] += comb(len(points), affine_rank(points))

        def count_result(counter):
            def post(args, kwargs, result, state):
                c[counter] += len(result)
            return post

        return {
            "pure_positive.enumerate_min_uncertainty_states": (
                repeat("pure_positive"), count_result("pure_positive.states_out")),
            "incompatibility.complete_incompatibility": (
                repeat("incompatibility"), minors_post),
            "simplex.solve_equality_lp": (None, lp_post),
            "roof.roof_upper_bound": (anneal_pre, anneal_post),
            "geometry.facet_enumeration_points": (
                subsets_pre, count_result("geometry.facets_found")),
            "io_json.dumps_report": (None, count_result("io_json.report_bytes")),
        }

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        hooks = self._hooks()
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "kdwitness" or name.startswith("kdwitness."))
        ]
        replacements = {}
        for module, names in SPANNED.items():
            for fname in names:
                full = f"{module}.{fname}"
                orig = getattr(sys.modules[f"kdwitness.{module}"], fname)
                pre, post = hooks.get(full, (None, None))
                replacements[id(orig)] = (orig, self._spanned(full, orig, pre, post))
        for module, names in COUNTED.items():
            for fname in names:
                orig = getattr(sys.modules[f"kdwitness.{module}"], fname)
                replacements[id(orig)] = (orig, self._counted(f"{module}.{fname}", orig))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._patched):
            setattr(ns, attr, value)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for k, (name, parent, start, end) in enumerate(self.spans):
            totals[name] += end - start - child[k]
        return dict(totals)

    def inclusive_times(self) -> dict:
        totals = defaultdict(float)
        for name, parent, start, end in self.spans:
            totals[name] += end - start
        return dict(totals)
