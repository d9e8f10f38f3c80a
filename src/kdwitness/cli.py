"""Command-line interface.

Exit codes: 0 success (or all checks passing), 1 usage error, 2 validation
error, 3 numerical indeterminacy (a hull margin too thin to call), and 4
internal failure. Every subcommand accepts ``--json`` for a structured
report; identical commands with identical seeds produce byte-identical
reports apart from the timing field.
"""

import argparse
import sys
import time

import numpy as np

from . import config
from .errors import (
    IndeterminateMembership,
    KDError,
    MatrixFileError,
    UsageError,
    ValidationError,
)
from .geometry import facet_enumeration, membership_lp
from .incompatibility import (
    complete_incompatibility,
    support_counts_mixed,
    support_counts_pure,
)
from .io_json import dumps_report, file_digest, load_matrix_file
from .kd import is_kd_positive, kd_table, min_overlap, total_nonpositivity, worst_entry
from .pure_positive import enumerate_min_uncertainty_states, filter_kd_positive_pure
from .roof import AnnealConfig, nonpositivity_roof_bounds, support_roof_bounds
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


def build_parser() -> argparse.ArgumentParser:
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

    p = add("roof-support", "convex-roof bounds for the support uncertainty")
    p.add_argument("--state", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--steps", type=int, default=2000)

    p = add("roof-nonpos", "convex-roof bounds for the total nonpositivity")
    p.add_argument("--state", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--positive-pure", action="append", default=None,
                   help="pure-state file; repeat for each generator")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=40)
    p.add_argument("--steps", type=int, default=2000)

    add("spin1", "score every quantitative claim about the built-in spin-1 system")

    p = add("haar-study", "fraction of Haar-random bases that are completely incompatible")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _load_state(path: str):
    kind, array = load_matrix_file(path)
    if kind not in ("density", "pure_state", "hermitian"):
        raise MatrixFileError(path, f"kind {kind!r} is not usable as a state")
    return kind, array


def _load_density(path: str):
    """A state file as a matrix; a pure state becomes its projector."""
    _, array = _load_state(path)
    return np.outer(array, array.conj()) if array.ndim == 1 else array


def _cmd_table(args, report):
    _, state = _load_state(args.state)
    _, basis = load_matrix_file(args.basis, expect_kind="unitary")
    tol = config.default_tol()
    table = kd_table(state, basis)
    i, j, value, offence = worst_entry(table)
    positive = is_kd_positive(table, tol=tol)
    report["results"] = {
        "dim": table.dim,
        "kd_table": table.table,
        "a_marginals": table.a_marginals,
        "b_marginals": table.b_marginals,
        "total": table.total,
        "total_nonpositivity": total_nonpositivity(table),
        "min_overlap": min_overlap(basis),
        "kd_positive": {"value": positive, "tolerance": tol},
        "worst_entry": {"row": i, "col": j, "value": value, "offence": offence},
    }
    lines = [f"dim {table.dim}, basis min overlap {min_overlap(basis):.6g}"]
    for row in table.table:
        lines.append("  " + "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    lines.append(f"a marginals: {np.round(table.a_marginals, 9).tolist()}")
    lines.append(f"b marginals: {np.round(table.b_marginals, 9).tolist()}")
    lines.append(f"total nonpositivity: {total_nonpositivity(table):.12g}")
    lines.append(
        f"KD positive: {positive} (tol {tol:g}; worst entry at ({i},{j}) "
        f"value {value:.6g}, offence {offence:.3g})"
    )
    return EXIT_OK, lines


def _cmd_support(args, report):
    kind, state = _load_state(args.state)
    _, basis = load_matrix_file(args.basis, expect_kind="unitary")
    eps = config.default_tol() if args.eps is None else args.eps
    if kind == "pure_state":
        counts = support_counts_pure(state, basis, eps=eps)
    else:
        counts = support_counts_mixed(state, basis, eps=eps)
    report["results"] = {
        "state_kind": kind,
        "n_a": counts.n_a,
        "n_b": counts.n_b,
        "n_ab": counts.n_ab,
        "eps": counts.eps,
        "smallest_kept": counts.smallest_kept,
        "largest_discarded": counts.largest_discarded,
    }
    return EXIT_OK, [
        f"{kind} state: n_a={counts.n_a}, n_b={counts.n_b}, n_ab={counts.n_ab} "
        f"(eps {eps:g})",
        f"smallest kept magnitude: {counts.smallest_kept}, "
        f"largest discarded: {counts.largest_discarded}",
    ]


def _cmd_incompat(args, report):
    _, basis = load_matrix_file(args.basis, expect_kind="unitary")
    rep = complete_incompatibility(basis, eps=args.eps)
    report["results"] = {
        "completely_incompatible": rep.completely_incompatible,
        "min_abs_minor": rep.min_abs_minor,
        "argmin": {
            "order": rep.argmin_order,
            "rows": list(rep.argmin_rows),
            "cols": list(rep.argmin_cols),
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


def _cmd_enumerate(args, report):
    _, basis = load_matrix_file(args.basis, expect_kind="unitary")
    minimal = enumerate_min_uncertainty_states(basis)
    positive = filter_kd_positive_pure(minimal, basis)
    # Each pattern yields at most one state, so patterns identify states.
    index_of = {p: k for k, p in enumerate(minimal.patterns)}
    positive_index = [index_of[p] for p in positive.patterns]
    report["results"] = {
        "count": len(minimal),
        "states": minimal.states,
        "patterns": [
            {"a_support": list(p.a_support), "b_support": list(p.b_support)}
            for p in minimal.patterns
        ],
        "degenerate_patterns": [
            {"a_support": list(p.a_support), "b_support": list(p.b_support),
             "null_dim": n}
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


def _certificate_dict(cert):
    return {
        "verdict": cert.verdict,
        "weights": cert.weights,
        "functional": cert.functional,
        "threshold": cert.threshold,
        "margin": cert.margin,
        "normalization": cert.normalization,
        "tolerance": cert.tol,
    }


def _cmd_hull(args, report):
    state = _load_density(args.state)
    generators = [_load_density(path) for path in args.generators]
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


def _cmd_facets(args, report):
    facets = facet_enumeration([_load_density(path) for path in args.generators])
    report["results"] = {
        "count": len(facets),
        "facets": [
            {"functional": f.functional, "offset": f.offset, "active": list(f.active)}
            for f in facets
        ],
    }
    lines = [f"{len(facets)} facets"]
    for k, f in enumerate(facets):
        lines.append(f"  facet {k}: offset {f.offset:+.9f}, active {list(f.active)}")
    return EXIT_OK, lines


def _roof_report(estimate, report):
    report["results"] = {
        "objective": estimate.objective,
        "base_value": estimate.base_value,
        "lower_bound": estimate.lower_bound,
        "lower_certificate": estimate.lower_certificate,
        "lower_strict": estimate.lower_strict,
        "upper_bound": estimate.upper_bound,
        "exact": estimate.exact,
        "generator_provenance": estimate.generator_provenance,
        "restart_values": list(estimate.restart_values),
    }
    if estimate.membership is not None:
        report["certificates"] = {"membership": _certificate_dict(estimate.membership)}
    if estimate.upper_decomposition is not None:
        report["results"]["decomposition"] = {
            "weights": estimate.upper_decomposition.weights,
            "states": estimate.upper_decomposition.states,
        }
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
    return lines


def _cmd_roof_support(args, report):
    state = _load_density(args.state)
    _, basis = load_matrix_file(args.basis, expect_kind="unitary")
    cfg = AnnealConfig(seed=args.seed, restarts=args.restarts, steps=args.steps)
    estimate = support_roof_bounds(state, basis, cfg=cfg)
    return EXIT_OK, _roof_report(estimate, report)


def _cmd_roof_nonpos(args, report):
    state = _load_density(args.state)
    _, basis = load_matrix_file(args.basis, expect_kind="unitary")
    positive = None
    if args.positive_pure:
        positive = [
            load_matrix_file(path, expect_kind="pure_state")[1]
            for path in args.positive_pure
        ]
    cfg = AnnealConfig(seed=args.seed, restarts=args.restarts, steps=args.steps)
    estimate = nonpositivity_roof_bounds(state, basis, cfg=cfg, positive_pure=positive)
    return EXIT_OK, _roof_report(estimate, report)


def _cmd_spin1(args, report):
    result = run_spin1_checks()
    report["results"] = {
        "passed": result.passed,
        "facet_count": result.facet_count,
        "witness_expectations": list(result.witness_expectations),
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "expected": c.expected,
                "computed": c.computed,
                "tolerance": c.tolerance,
                "claim": c.claim,
            }
            for c in result.checks
        ],
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


def _cmd_haar_study(args, report):
    study = haar_genericity_study(args.dim, args.samples, args.seed)
    report["results"] = {
        "dim": study.dim,
        "samples": study.samples,
        "seed": study.seed,
        "fraction_completely_incompatible": study.fraction_completely_incompatible,
        "min_minor_quantiles": study.min_minor_quantiles,
    }
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
    "roof-support": _cmd_roof_support,
    "roof-nonpos": _cmd_roof_nonpos,
    "spin1": _cmd_spin1,
    "haar-study": _cmd_haar_study,
}

_INPUT_ARGS = ("state", "basis", "generators", "positive_pure")
_CONFIG_ARGS = ("eps", "tol", "seed", "restarts", "steps", "dim", "samples")


def _input_digests(args) -> dict:
    digests = {}
    for name in _INPUT_ARGS:
        value = getattr(args, name, None)
        if value is None:
            continue
        paths = value if isinstance(value, list) else [value]
        for path in paths:
            digests[path] = file_digest(path)
    return digests


def _config_echo(args) -> dict:
    echo = {"default_tol": config.default_tol(),
            "feasibility_tol": config.FEASIBILITY_TOL}
    for name in _CONFIG_ARGS:
        if hasattr(args, name):
            echo[name] = getattr(args, name)
    return echo


def main(argv=None) -> int:
    parser = build_parser()
    json_wanted = False
    try:
        args = parser.parse_args(argv)
        json_wanted = getattr(args, "json", False)
        report = {
            "command": args.command,
            "inputs": _input_digests(args),
            "config": _config_echo(args),
            "results": {},
            "certificates": {},
        }
        start = time.perf_counter()
        code, lines = _HANDLERS[args.command](args, report)
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
    except (MatrixFileError, ValidationError) as exc:
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
