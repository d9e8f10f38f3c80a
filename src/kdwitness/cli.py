"""Command-line interface.

Exit codes: 0 success (or all checks passing), 1 usage error, 2 validation
error (the input is at fault: malformed, over a size guard, not completely
incompatible, a degenerate hull, or a target outside the hull), 3 numerical
indeterminacy (a hull margin too thin to call), and 4 internal failure.
Every subcommand accepts ``--json`` for a structured report; identical
commands with identical seeds produce byte-identical reports apart from the
timing field.
"""

import argparse
import dataclasses
import functools
import hashlib
import sys
import time

import numpy as np

from . import config
from .errors import (
    DegenerateHull,
    IndeterminateMembership,
    KDError,
    MatrixFileError,
    NotCompletelyIncompatible,
    OutsideHull,
    UsageError,
    ValidationError,
)
from .geometry import facet_enumeration, membership_lp
from .incompatibility import (
    complete_incompatibility,
    support_counts_mixed,
    support_counts_pure,
)
from .io_json import dumps_report, load_matrix_file, read_file
from .kd import is_kd_positive, kd_table, min_overlap, total_nonpositivity, worst_entry
from .pure_positive import enumerate_min_uncertainty_states, filter_kd_positive_pure
from .roof import nonpositivity_roof_bounds, support_roof_bounds
from .spin1 import run_spin1_checks
from .studies import haar_genericity_study

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INDETERMINATE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one: do not modify it."""
    parser = _Parser(prog="kdwitness", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    p = add("table", "quasiprobability table, marginals, and positivity verdict")
    p.add_argument("--state", required=True)
    p.add_argument("--basis", required=True)

    p = add("support", "support counts of a pure or mixed state")
    p.add_argument("--state", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--eps", type=float, default=None)

    p = add("incompat", "complete-incompatibility report with minimizing minor")
    p.add_argument("--basis", required=True)
    p.add_argument("--eps", type=float, default=None)

    p = add("enumerate", "minimal-uncertainty states and the KD-positive filter")
    p.add_argument("--basis", required=True)

    p = add("hull", "convex-hull membership certificate")
    p.add_argument("--state", required=True)
    p.add_argument("--generators", required=True, nargs="+")
    p.add_argument("--tol", type=float, default=None)

    p = add("facets", "bounding hyperplanes of a generator hull")
    p.add_argument("--generators", required=True, nargs="+")

    ignored = "ignored (no roof anneals); parsed and echoed so that older command lines run"
    for name, objective in (("roof-support", "support uncertainty"),
                            ("roof-nonpos", "total nonpositivity")):
        p = add(name, f"convex-roof bounds for the {objective}")
        p.add_argument("--state", required=True)
        p.add_argument("--basis", required=True)
        p.add_argument("--seed", type=int, default=0, help=ignored)
        p.add_argument("--restarts", type=int, default=40, help=ignored)
        p.add_argument("--steps", type=int, default=2000, help=ignored)
    # p is roof-nonpos's parser here.
    p.add_argument("--positive-pure", action="append", default=None,
                   help="pure-state file; repeat for each generator")

    add("spin1", "score every quantitative claim about the built-in spin-1 system")

    p = add("haar-study", "fraction of Haar-random bases that are completely incompatible")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _load(inputs: dict, path: str, expect_kind: str | None = None):
    """A matrix file from the bytes read for the ``inputs`` digest."""
    return load_matrix_file(path, expect_kind, data=inputs[path])


def _load_state(inputs: dict, path: str):
    kind, array = _load(inputs, path)
    if kind not in ("density", "pure_state", "hermitian"):
        raise MatrixFileError(path, f"kind {kind!r} is not usable as a state")
    return kind, array


def _load_density(inputs: dict, path: str):
    """A state file as a matrix; a pure state becomes its projector."""
    _, array = _load_state(inputs, path)
    return np.outer(array, array.conj()) if array.ndim == 1 else array


def _cmd_table(args, report, inputs):
    _, state = _load_state(inputs, args.state)
    _, basis = _load(inputs, args.basis, expect_kind="unitary")
    tol = config.BASE_TOL
    table = kd_table(state, basis)
    i, j, value, offence = worst_entry(table)
    positive = is_kd_positive(table)
    nonpositivity, overlap = total_nonpositivity(table), min_overlap(basis)
    report["results"] = {
        "dim": table.dim,
        "kd_table": table.table,
        "a_marginals": table.a_marginals,
        "b_marginals": table.b_marginals,
        "total": table.total,
        "total_nonpositivity": nonpositivity,
        "min_overlap": overlap,
        "kd_positive": {"value": positive, "tolerance": tol},
        "worst_entry": {"row": i, "col": j, "value": value, "offence": offence},
    }
    lines = [f"dim {table.dim}, basis min overlap {overlap:.6g}"]
    for row in table.table:
        lines.append("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    lines.append(f"a marginals: {np.round(table.a_marginals, 9).tolist()}")
    lines.append(f"b marginals: {np.round(table.b_marginals, 9).tolist()}")
    lines.append(f"total nonpositivity: {nonpositivity:.12g}")
    lines.append(
        f"KD positive: {positive} (tol {tol:g}; worst entry at ({i},{j}) "
        f"value {value:.6g}, offence {offence:.3g})"
    )
    return EXIT_OK, lines


def _cmd_support(args, report, inputs):
    kind, state = _load_state(inputs, args.state)
    _, basis = _load(inputs, args.basis, expect_kind="unitary")
    eps = config.BASE_TOL if args.eps is None else args.eps
    if kind == "pure_state":
        counts = support_counts_pure(state, basis, eps=eps)
    else:
        counts = support_counts_mixed(state, basis, eps=eps)
    report["results"] = {**dataclasses.asdict(counts), "n_ab": counts.n_ab, "state_kind": kind}
    return EXIT_OK, [
        f"{kind} state: n_a={counts.n_a}, n_b={counts.n_b}, n_ab={counts.n_ab} "
        f"(eps {eps:g})",
        f"smallest kept magnitude: {counts.smallest_kept}, "
        f"largest discarded: {counts.largest_discarded}",
    ]


def _cmd_incompat(args, report, inputs):
    _, basis = _load(inputs, args.basis, expect_kind="unitary")
    rep = complete_incompatibility(basis, eps=args.eps)
    report["results"] = {
        "completely_incompatible": rep.completely_incompatible,
        "min_abs_minor": rep.min_abs_minor,
        "argmin": {
            "order": rep.argmin_order,
            "rows": rep.argmin_rows,
            "cols": rep.argmin_cols,
        },
        "minors_checked": rep.minors_checked,
        "eps": rep.eps,
    }
    return EXIT_OK, [
        f"completely incompatible: {rep.completely_incompatible}",
        f"smallest |minor| {rep.min_abs_minor:.6e} at order {rep.argmin_order}, "
        f"rows {list(rep.argmin_rows)}, cols {list(rep.argmin_cols)} "
        f"({rep.minors_checked} minors checked, eps {rep.eps:g})",
    ]


def _cmd_enumerate(args, report, inputs):
    _, basis = _load(inputs, args.basis, expect_kind="unitary")
    minimal = enumerate_min_uncertainty_states(basis)
    positive = filter_kd_positive_pure(minimal, basis)
    # Each pattern yields at most one state, so patterns identify states.
    index_of = {p: k for k, p in enumerate(minimal.patterns)}
    positive_index = [index_of[p] for p in positive.patterns]
    report["results"] = {
        "count": len(minimal),
        "states": minimal.states,
        "patterns": minimal.patterns,
        "degenerate_patterns": [
            {"a_support": p.a_support, "b_support": p.b_support, "null_dim": n}
            for p, n in minimal.degenerate_patterns
        ],
        "kd_positive_count": len(positive),
        "kd_positive_indices": positive_index,
    }
    return EXIT_OK, [
        f"{len(minimal)} minimal-uncertainty states "
        f"({len(minimal.degenerate_patterns)} degenerate patterns)",
        f"{len(positive)} KD positive (indices {positive_index})",
    ]


def _fields_dict(obj, renamed: dict, skipped=()) -> dict:
    """The fields of a dataclass by name, some under another key, some left out."""
    return {renamed.get(f.name, f.name): getattr(obj, f.name)
            for f in dataclasses.fields(obj) if f.name not in skipped}


def _certificate_dict(cert):
    return _fields_dict(cert, {"tol": "tolerance"})


def _cmd_hull(args, report, inputs):
    state = _load_density(inputs, args.state)
    generators = [_load_density(inputs, path) for path in args.generators]
    cert = membership_lp(state, generators, tol=args.tol)
    report["certificates"] = {"membership": _certificate_dict(cert)}
    report["results"] = {"verdict": cert.verdict}
    lines = [f"verdict: {cert.verdict}"]
    if cert.verdict == "inside":
        lines.append(f"weights: {np.round(cert.weights, 10).tolist()}")
    else:
        lines.append(
            f"separating functional threshold {cert.threshold:.9g}, "
            f"margin {cert.margin:.3e} ({cert.normalization})"
        )
    code = EXIT_INDETERMINATE if cert.verdict == "indeterminate" else EXIT_OK
    return code, lines


def _cmd_facets(args, report, inputs):
    facets = facet_enumeration([_load_density(inputs, path) for path in args.generators])
    report["results"] = {"count": len(facets), "facets": facets}
    lines = [f"{len(facets)} facets"]
    for k, f in enumerate(facets):
        lines.append(f"  facet {k}: offset {f.offset:+.9f}, active {list(f.active)}")
    return EXIT_OK, lines


def _roof_report(estimate, report):
    report["results"] = _fields_dict(
        estimate, {"upper_decomposition": "decomposition"}, skipped=("membership",)
    )
    if estimate.membership is not None:
        report["certificates"] = {"membership": _certificate_dict(estimate.membership)}
    relation = ">" if estimate.lower_strict else ">="
    lines = [
        f"objective: {estimate.objective}",
        f"plain value on the state: {estimate.base_value:.9g}",
        f"lower bound: {relation} {estimate.lower_bound:g} "
        f"({estimate.lower_certificate}"
        + (", certified strict" if estimate.lower_strict else "")
        + ")",
        f"upper bound: {estimate.upper_bound:.9g}",
        f"exact: {estimate.exact}",
    ]
    if estimate.dual_bound is not None:
        lines.insert(-2, f"dual lower bound: {estimate.dual_bound:.9g}")
    return lines


def _cmd_roof(args, report, inputs):
    state = _load_density(inputs, args.state)
    _, basis = _load(inputs, args.basis, expect_kind="unitary")
    extra = {}
    if args.command == "roof-nonpos" and args.positive_pure:
        extra["positive_pure"] = [
            _load(inputs, path, expect_kind="pure_state")[1]
            for path in args.positive_pure
        ]
    # Looked up per call, so that a rebound module name is honoured.
    estimate = (support_roof_bounds(state, basis) if args.command == "roof-support"
                else nonpositivity_roof_bounds(state, basis, **extra))
    return EXIT_OK, _roof_report(estimate, report)


def _cmd_spin1(args, report, inputs):
    result = run_spin1_checks()
    report["results"] = {
        "passed": result.passed,
        "facet_count": result.facet_count,
        "witness_expectations": result.witness_expectations,
        "checks": result.checks,
    }
    lines = []
    for c in result.checks:
        tag = "PASS" if c.passed else "FAIL"
        lines.append(f"[{tag}] {c.name}: expected {c.expected}, computed {c.computed}")
    lines.append(
        f"{'all checks passed' if result.passed else 'CHECK FAILURES PRESENT'} "
        f"({len(result.checks)} checks, {result.facet_count} facets, "
        f"{result.runtime_seconds:.2f}s)"
    )
    return (EXIT_OK if result.passed else EXIT_INTERNAL), lines


def _cmd_haar_study(args, report, inputs):
    study = haar_genericity_study(args.dim, args.samples, args.seed)
    report["results"] = study
    return EXIT_OK, [
        f"dim {study.dim}, {study.samples} samples, seed {study.seed}",
        f"fraction completely incompatible: {study.fraction_completely_incompatible}",
        f"min |minor| quantiles: {study.min_minor_quantiles}",
    ]


_HANDLERS = {
    "table": _cmd_table,
    "support": _cmd_support,
    "incompat": _cmd_incompat,
    "enumerate": _cmd_enumerate,
    "hull": _cmd_hull,
    "facets": _cmd_facets,
    "roof-support": _cmd_roof,
    "roof-nonpos": _cmd_roof,
    "spin1": _cmd_spin1,
    "haar-study": _cmd_haar_study,
}

_INPUT_ARGS = ("state", "basis", "generators", "positive_pure")
_CONFIG_ARGS = ("eps", "tol", "seed", "restarts", "steps", "dim", "samples")
_SIMPLEX_TOLERANCES = ("PIVOT_TOL", "BLAND_TIE_TOL", "FARKAS_SLACK_TOL", "LP_PRIMAL_TOL",
                       "LP_DUAL_TOL")
_ROOF_TOLERANCES = (
    "RANK_CUTOFF", "WEIGHT_CUTOFF", "EXACT_GAP_TOL", "WEIGHT_SUM_TOL",
    "RECONSTRUCTION_TOL", "ROOF_ORDER_SLACK", "ROOF_RECHECK_TOL", "ISOMETRY_TOL",
    "ANCHOR_RANGE_CUTOFF", "NONPOSITIVITY_STRICT_SLACK", *_SIMPLEX_TOLERANCES,
)
_ENUMERATION_TOLERANCES = ("NULL_SPACE_ABS_CUTOFF", "NULL_SPACE_REL_CUTOFF", "NULL_RAY_TOL")
_FACET_TOLERANCES = (
    "FACET_ACTIVE_TOL", "FACET_MATCH_TOL", "FACET_RANK_ABS_CUTOFF",
    "FACET_RANK_REL_CUTOFF", "MAX_FACET_SUBSETS", "MAX_FACET_SIDE_ENTRIES",
)
# The config values each command echoes beyond the base and feasibility ones.
_ECHOED_CONFIG = {
    "enumerate": _ENUMERATION_TOLERANCES,
    "hull": _SIMPLEX_TOLERANCES,
    "facets": _FACET_TOLERANCES,
    "roof-support": _ROOF_TOLERANCES,
    "roof-nonpos": _ROOF_TOLERANCES,
}


def _read_inputs(args) -> dict:
    """The bytes of each input file by path, each file read once."""
    paths = []
    for name in _INPUT_ARGS:
        value = getattr(args, name, None)
        if value is not None:
            paths += value if isinstance(value, list) else [value]
    return {path: read_file(path) for path in dict.fromkeys(paths)}


def _config_echo(args) -> dict:
    echo = {"default_tol": config.BASE_TOL,
            "feasibility_tol": config.FEASIBILITY_TOL}
    for name in _CONFIG_ARGS:
        if hasattr(args, name):
            echo[name] = getattr(args, name)
    echo.update(
        (name.lower(), getattr(config, name)) for name in _ECHOED_CONFIG.get(args.command, ())
    )
    return echo


def main(argv=None) -> int:
    json_wanted = False
    try:
        args = build_parser().parse_args(argv)
        json_wanted = getattr(args, "json", False)
        inputs = _read_inputs(args)
        report = {
            "command": args.command,
            "inputs": {path: hashlib.sha256(data).hexdigest() for path, data in inputs.items()},
            "config": _config_echo(args),
            "results": {},
            "certificates": {},
        }
        start = time.perf_counter()
        code, lines = _HANDLERS[args.command](args, report, inputs)
        report["timing_seconds"] = time.perf_counter() - start
        if json_wanted:
            sys.stdout.write(dumps_report(report))
        else:
            for line in lines:
                print(line)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, NotCompletelyIncompatible, DegenerateHull, OutsideHull) as exc:
        _emit_error(json_wanted, "validation", exc)
        return EXIT_VALIDATION
    except IndeterminateMembership as exc:
        _emit_error(json_wanted, "indeterminate", exc)
        return EXIT_INDETERMINATE
    except KDError as exc:
        _emit_error(json_wanted, "internal", exc)
        return EXIT_INTERNAL


def _emit_error(json_wanted: bool, category: str, exc: Exception) -> None:
    if json_wanted:
        sys.stdout.write(
            dumps_report({"error": {"category": category,
                                    "type": type(exc).__name__,
                                    "message": str(exc)}})
        )
    print(f"{category} error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
