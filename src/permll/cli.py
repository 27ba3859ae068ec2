"""Command line front end: dims, check, fit, gof, sample, search-labels, bases."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .classic import classic_distribution, sample, spec_from_json
from .decompose import DEFAULT_TOL, decomposability_report, inverse_distribution
from .errors import InternalCheckError, ParseError, PermllError, ValidationError
from .fit import (
    EmpiricalData,
    FitOptions,
    SearchSide,
    empirical,
    fit_family,
    gof_report,
    search_relabelling,
)
from .perms import DistributionTable, check_permutation, inverse_index, perm_array
from .subspaces import (
    BasisKind,
    GeneratorFamily,
    basis_vector,
    dimension_report,
    mu_vectors,
    nontrivial_pairs,
    parse_family_kind,
)


def parse_counts(path: str) -> EmpiricalData:
    """Read a counts file: header "n=<int>", then lines "i1 ... iN,count"."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].strip()
    if not header.startswith("n="):
        raise ParseError(f"{path}:1: expected header 'n=<int>', got {header!r}")
    try:
        n = int(header[2:])
    except ValueError:
        raise ParseError(f"{path}:1: bad board size in {header!r}") from None
    merged: dict[tuple, int] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if "," not in line:
            raise ParseError(f"{path}:{lineno}: expected 'i1 ... i{n},count'")
        images_part, _, count_part = line.rpartition(",")
        try:
            images = tuple(int(t) for t in images_part.split())
            count = int(count_part)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer field") from None
        if len(images) != n:
            raise ParseError(f"{path}:{lineno}: expected {n} images, got {len(images)}")
        if count <= 0:
            raise ParseError(f"{path}:{lineno}: count must be positive")
        try:
            pi = check_permutation(images)
        except PermllError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        merged[pi] = merged.get(pi, 0) + count
    if not merged:
        raise ParseError(f"{path}: no observation records")
    return EmpiricalData.from_dict(n, merged)


def _count_lines(data: EmpiricalData) -> list[str]:
    """The counts file of the data, line by line, observed permutations in index order."""
    perms = perm_array(data.n)
    return [f"n={data.n}"] + [
        f"{' '.join(map(str, perms[i]))},{data.counts[i]}" for i in np.flatnonzero(data.counts)
    ]


def write_counts(data: EmpiricalData, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in _count_lines(data))


def _read_data(args) -> EmpiricalData:
    """Counts from --data; with --as-inverse, each observation is inverted exactly."""
    data = parse_counts(args.data)
    if args.as_inverse:
        data = EmpiricalData(data.n, data.counts[inverse_index(data.n)])
    return data


def _load_table(args) -> tuple[DistributionTable, EmpiricalData | None]:
    """Table to analyse: empirical (from --data) or exact (from --spec)."""
    if getattr(args, "data", None):
        data = _read_data(args)
        return empirical(data), data
    if getattr(args, "spec", None):
        spec, n = spec_from_json(args.spec)
        table = classic_distribution(spec, n)
        if getattr(args, "as_inverse", False):
            table = inverse_distribution(table)
        return table, None
    raise ValidationError("provide --data or --spec")


def _emit(args, doc: dict, text: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _cmd_dims(args) -> int:
    family = GeneratorFamily(parse_family_kind(args.family), args.n)
    report = dimension_report(family, compute_rank=not args.no_rank)
    doc = report.to_json()
    lines = [f"family {doc['family']}  n={doc['n']}"]
    lines.append(f"  free parameters: {doc['free_parameters']}")
    if doc["rank_dim"] is not None:
        lines.append(f"  rank check:      {doc['rank_dim']}")
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_check(args) -> int:
    table, _ = _load_table(args)
    report = decomposability_report(table, tol=args.tol)
    doc = report.to_json()
    lines = [f"decomposability (tol={args.tol:g}, n={table.n})"]
    for name, entry in doc["families"].items():
        verdict = "yes" if entry["verdict"] else "no"
        lines.append(f"  {name:5s} {verdict:3s}  max violation {entry['max_violation']:.3e}")
    _emit(args, doc, "\n".join(lines))
    return 0


def _fit_text(doc: dict) -> str:
    lines = [f"family {doc['family']}  n={doc['n']}"]
    lines.append(f"  log-likelihood: {doc['log_likelihood']:.4f}")
    if doc["gof"] is not None:
        lines.append(f"  GOF: {doc['gof']:.4f}  df: {doc['df']}")
        if doc["u"] is not None:
            lines.append(f"  U: {doc['u']:.4f}")
    lines.append(
        f"  cycles: {doc['cycles']}  converged: {doc['converged']}"
        f"  max marginal gap: {doc['max_marginal_gap']:.3e}"
    )
    if "relabelling" in doc:
        lines.append(
            f"  sigma: {doc['relabelling']['sigma']}  rho: {doc['relabelling']['rho']}"
        )
    if "warning" in doc:
        lines.append(f"  warning: {doc['warning']}")
    return "\n".join(lines)


def _finish_fit(args, report) -> int:
    doc = report.to_json()
    if not report.converged:
        doc["warning"] = "did not converge within max_cycles"
    _emit(args, doc, _fit_text(doc))
    return 0


def _cmd_fit(args) -> int:
    data = _read_data(args)
    family = GeneratorFamily(parse_family_kind(args.family), data.n)
    opts = FitOptions(max_cycles=args.max_cycles, marginal_tol=args.tol)
    return _finish_fit(args, fit_family(family, data, opts))


def _cmd_gof(args) -> int:
    data = _read_data(args)
    spec, n = spec_from_json(args.spec)
    fitted = classic_distribution(spec, n)
    family = GeneratorFamily(parse_family_kind(args.family), data.n)
    return _finish_fit(args, gof_report(fitted, data, family))


def _cmd_sample(args) -> int:
    spec, n = spec_from_json(args.spec)
    table = classic_distribution(spec, n)
    data = sample(table, args.m, args.seed)
    if args.out:
        write_counts(data, args.out)
        print(f"wrote {data.m} observations to {args.out}")
    else:
        print("\n".join(_count_lines(data)))
    return 0


def _cmd_search_labels(args) -> int:
    data = _read_data(args)
    family = GeneratorFamily(parse_family_kind(args.family), data.n)
    _, _, report = search_relabelling(data, family, SearchSide(args.side))
    return _finish_fit(args, report)


def _cmd_bases(args) -> int:
    k, ell, n = args.k, args.ell, args.n
    mus = mu_vectors(k, ell, n)
    pairs = nontrivial_pairs(k, ell, n)
    max_dot = 0
    for i, u in enumerate(mus):
        for v in mus[i + 1 :]:
            max_dot = max(max_dot, abs(int(u.coords @ v.coords)))
    rho_doc = [
        {"a": a, "q": q, "support": int(basis_vector(BasisKind.RHO, k, ell, a, q, n).coords.sum())}
        for a, q in pairs
    ]
    mu_doc = [
        {"a": v.a, "idx": v.idx, "norm_sq": int(v.coords @ v.coords)} for v in mus
    ]
    doc = {
        "k": k,
        "ell": ell,
        "n": n,
        "nontrivial_rho": rho_doc,
        "mu": mu_doc,
        "mu_max_pairwise_dot": max_dot,
        "mu_pairwise_orthogonal": max_dot == 0,
    }
    lines = [f"cross-section k={k}, ell={ell}, n={n}"]
    lines.append(f"  nontrivial rho atoms: {len(pairs)}")
    for entry in rho_doc:
        lines.append(f"    a={entry['a']} q={entry['q']}  support {entry['support']}")
    lines.append(f"  mu vectors: {len(mus)}")
    for entry in mu_doc:
        lines.append(f"    a={entry['a']} idx={entry['idx']}  |mu|^2 = {entry['norm_sq']}")
    lines.append(f"  pairwise orthogonal: {doc['mu_pairwise_orthogonal']}")
    _emit(args, doc, "\n".join(lines))
    return 0


def _add_common(sub, data=True, spec=False):
    if data:
        sub.add_argument("--data", help="counts file (header n=<int>, lines 'i1 ... iN,count')")
        sub.add_argument(
            "--as-inverse",
            action="store_true",
            help="invert each observed permutation on ingest (rankings vs orderings)",
        )
    if spec:
        sub.add_argument("--spec", help="classic-model JSON parameter file {kind, n, params}")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permll",
        description="Log-linear models for random permutations: dimensions, "
        "decomposability checks, IPFP fitting, and relabelling search.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("dims", help="subspace dimension report for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-rank", action="store_true", help="skip the exact rank cross-check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dims)

    p = subs.add_parser("check", help="decomposability report for data or a classic model")
    _add_common(p, data=True, spec=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("fit", help="maximum-likelihood fit of a family to counts")
    p.add_argument("--family", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-cycles", type=int, default=10000)
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_fit)

    p = subs.add_parser("gof", help="goodness of fit of a classic model against counts")
    p.add_argument("--family", required=True)
    _add_common(p, data=True, spec=True)
    p.set_defaults(func=_cmd_gof)

    p = subs.add_parser("sample", help="draw observations from a classic model")
    p.add_argument("--spec", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write a counts file here instead of stdout")
    p.set_defaults(func=_cmd_sample)

    p = subs.add_parser("search-labels", help="best relabelling of positions (right) and values (left)")
    p.add_argument("--family", required=True)
    p.add_argument("--side", choices=["left", "right", "both"], default="both")
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_search_labels)

    p = subs.add_parser("bases", help="basis vectors and orthogonality audit at (k, ell)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bases)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except PermllError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
