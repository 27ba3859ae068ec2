"""Maximum-likelihood fitting, goodness of fit, and relabelling search.

IPFP cyclically rescales a table so that the law of every generator's block
counts matches the empirical one; the L-family estimate is also available in
closed form through the canonical chain decomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .decompose import inverse_distribution, markovianize
from .errors import SizeError, SupportMismatchError, ValidationError
from .perms import (
    DistributionTable,
    Perm,
    check_permutation,
    check_size,
    compose,
    enumerate_permutations,
    identity,
    perm_array,
    rank,
    relabel_index,
)
from .subspaces import FamilyKind, GeneratorFamily, atom_labels, formula_dimension, generators


@dataclass
class EmpiricalData:
    """Observed permutation counts on S_n."""

    n: int
    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.shape != (math.factorial(self.n),):
            raise SizeError(f"expected {math.factorial(self.n)} counts, got {arr.shape}")
        if (arr < 0).any():
            raise ValidationError("counts must be non-negative")
        if arr.sum() < 1:
            raise ValidationError("need at least one observation")
        self.counts = arr

    @classmethod
    def from_dict(cls, n: int, counts: dict) -> "EmpiricalData":
        check_size(n)
        images = [check_permutation(pi) for pi in counts]
        if any(len(pi) != n for pi in images):
            raise SizeError(f"counts keys must be permutations of 1..{n}")
        arr = np.zeros(math.factorial(n), dtype=np.int64)
        np.add.at(arr, rank(np.reshape(images, (-1, n))), [int(c) for c in counts.values()])
        return cls(n, arr)

    @property
    def m(self) -> int:
        return int(self.counts.sum())


def empirical(data: EmpiricalData) -> DistributionTable:
    """Relative-frequency table of the sample."""
    return DistributionTable(data.n, data.counts / data.m)


@dataclass
class FitOptions:
    max_cycles: int = 10000
    marginal_tol: float = 1e-9
    likelihood_tol: float = 1e-9

    def __post_init__(self):
        if self.max_cycles < 1:
            raise ValidationError("max_cycles must be at least 1")
        if not (0 < self.marginal_tol < math.inf and 0 < self.likelihood_tol < math.inf):
            raise ValidationError("tolerances must be finite and positive")


@dataclass
class FitReport:
    fitted: DistributionTable
    family: FamilyKind | None = None
    n: int | None = None
    log_likelihood: float | None = None
    gof_chi_square: float | None = None
    df: int | None = None
    u_statistic: float | None = None
    cycles_used: int = 0
    converged: bool = True
    max_marginal_gap: float = 0.0
    relabelling: tuple[Perm, Perm] | None = None
    loglik_trace: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        doc = {
            "family": self.family.value if self.family else None,
            "n": self.n if self.n is not None else self.fitted.n,
            "log_likelihood": self.log_likelihood,
            "gof": self.gof_chi_square,
            "df": self.df,
            "u": self.u_statistic,
            "cycles": self.cycles_used,
            "converged": self.converged,
            "max_marginal_gap": self.max_marginal_gap,
        }
        if self.relabelling is not None:
            doc["relabelling"] = {
                "sigma": list(self.relabelling[0]),
                "rho": list(self.relabelling[1]),
            }
        return doc


def _r_loglik(r: np.ndarray, p: np.ndarray) -> float:
    """Per-observation log-likelihood sum(r * log p) over the support of r."""
    mask = r > 0
    if (p[mask] <= 0).any():
        return -np.inf
    return float(np.dot(r[mask], np.log(p[mask])))


def ipfp_fit(family: GeneratorFamily, r: DistributionTable, opts: FitOptions | None = None) -> FitReport:
    """Iterative proportional fitting: cycle over the family's generators,
    rescaling each block-count atom to the empirical atom mass."""
    opts = opts or FitOptions()
    if r.n != family.n:
        raise SizeError(f"table for n={r.n} but family for n={family.n}")
    gens = generators(family)
    labels = [atom_labels(board, family.n) for board in gens]
    emp = [np.bincount(lab, weights=r.probs, minlength=k) for lab, k in labels]
    p = np.full(len(r.probs), 1.0 / len(r.probs))

    trace = []
    gap = np.inf
    cycles = 0
    for cycle in range(opts.max_cycles):
        for (lab, k), target in zip(labels, emp):
            cur = np.bincount(lab, weights=p, minlength=k)
            factor = np.divide(target, cur, out=np.zeros_like(cur), where=cur > 0)
            p = p * factor[lab]
        cycles = cycle + 1
        gap = 0.0
        for (lab, k), target in zip(labels, emp):
            cur = np.bincount(lab, weights=p, minlength=k)
            gap = max(gap, 0.5 * float(np.abs(cur - target).sum()))
        trace.append(_r_loglik(r.probs, p))
        if gap <= opts.marginal_tol:
            break
    fitted = DistributionTable(family.n, p)
    return FitReport(
        fitted=fitted,
        family=family.kind,
        n=family.n,
        log_likelihood=trace[-1],
        cycles_used=cycles,
        converged=gap <= opts.marginal_tol,
        max_marginal_gap=gap,
        loglik_trace=trace,
    )


def explicit_L_mle(r: DistributionTable, primed: bool = False) -> FitReport:
    """Closed-form chain-conditional MLE for the L family (primed: for L')."""
    if primed:
        fitted = inverse_distribution(markovianize(inverse_distribution(r)))
    else:
        fitted = markovianize(r)
    return FitReport(
        fitted=fitted,
        family=FamilyKind.L_PRIME if primed else FamilyKind.L,
        n=r.n,
        log_likelihood=_r_loglik(r.probs, fitted.probs),
        cycles_used=1,
        converged=True,
        max_marginal_gap=0.0,
    )


def alternating_fit(r: DistributionTable, opts: FitOptions | None = None) -> FitReport:
    """Alternate the explicit L and L' projection maps until the likelihood settles.

    Agreement with IPFP on the bi-decomposable family is checked empirically
    in the test suite, not assumed.
    """
    opts = opts or FitOptions()
    p = r
    trace = []
    converged = False
    cycles = 0
    for cycle in range(opts.max_cycles):
        p = explicit_L_mle(p).fitted
        p = explicit_L_mle(p, primed=True).fitted
        cycles = cycle + 1
        ll = _r_loglik(r.probs, p.probs)
        trace.append(ll)
        if cycle > 0 and abs(trace[-1] - trace[-2]) <= opts.likelihood_tol:
            converged = True
            break
    return FitReport(
        fitted=p,
        family=FamilyKind.BI,
        n=r.n,
        log_likelihood=trace[-1],
        cycles_used=cycles,
        converged=converged,
        max_marginal_gap=abs(trace[-1] - trace[-2]) if len(trace) > 1 else 0.0,
        loglik_trace=trace,
    )


def gof_report(
    fitted: DistributionTable, data: EmpiricalData, family: GeneratorFamily, base: FitReport | None = None
) -> FitReport:
    """Log-likelihood, Pearson chi-square, nominal df, and the standardized U."""
    if fitted.n != data.n or family.n != data.n:
        raise SizeError("fitted table, data, and family must share n")
    counts = data.counts
    m = data.m
    probs = fitted.probs
    if ((counts > 0) & (probs <= 0.0)).any():
        raise SupportMismatchError("fitted probability zero on an observed permutation")
    obs_mask = counts > 0
    loglik = float(np.dot(counts[obs_mask], np.log(probs[obs_mask])))
    expected = m * probs
    cell_mask = probs > 0.0
    gof = float(((counts[cell_mask] - expected[cell_mask]) ** 2 / expected[cell_mask]).sum())
    df = (math.factorial(data.n) - 1) - formula_dimension(family)
    low = int((expected[cell_mask] < 5.0).sum())
    if low:
        warnings.warn(
            f"{low} cells have expected count below 5; the nominal df may be optimistic",
            stacklevel=2,
        )
    u = (gof - df) / math.sqrt(df) if df > 0 else None
    report = base or FitReport(fitted=fitted)
    report.family = family.kind
    report.n = data.n
    report.log_likelihood = loglik
    report.gof_chi_square = gof
    report.df = df
    report.u_statistic = u
    return report


def fit_family(family: GeneratorFamily, data: EmpiricalData, opts: FitOptions | None = None) -> FitReport:
    """Fit a family to data (explicit for L and L', IPFP otherwise) and attach GOF."""
    r = empirical(data)
    if family.kind is FamilyKind.L:
        base = explicit_L_mle(r)
    elif family.kind is FamilyKind.L_PRIME:
        base = explicit_L_mle(r, primed=True)
    else:
        base = ipfp_fit(family, r, opts)
    return gof_report(base.fitted, data, family, base)


class SearchSide(Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"


def right_invariance_group(n: int) -> list[Perm]:
    """Closure of {reversal, swap of 1 and 2} under composition (eight elements for n >= 4)."""
    rev = tuple(range(n, 0, -1))
    swap = (2, 1) + tuple(range(3, n + 1)) if n >= 2 else (1,)
    group = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        g = frontier.pop()
        for h in (rev, swap):
            new = compose(g, h)
            if new not in group:
                group.add(new)
                frontier.append(new)
    return sorted(group)


def _orbit_representatives(n: int) -> list[Perm]:
    """The first sigma, in lexicographic order, of each orbit {g sigma : g in
    right_invariance_group(n)}."""
    images = perm_array(n) - 1
    first = np.min([rank(np.asarray(g)[images]) for g in right_invariance_group(n)], axis=0)
    perms = enumerate_permutations(n)
    return [perms[i] for i in np.flatnonzero(first == np.arange(len(perms)))]


def search_relabelling(
    data: EmpiricalData,
    family: GeneratorFamily,
    side: SearchSide = SearchSide.BOTH,
    opts: FitOptions | None = None,
) -> tuple[Perm, Perm, FitReport]:
    """Exhaustive search for the relabelling (sigma, rho) maximizing the fitted
    log-likelihood; ties go to the lexicographically smallest pair."""
    n = data.n
    if side is SearchSide.BOTH and n > 6:
        raise SizeError("two-sided search capped at n=6")
    if side is not SearchSide.BOTH and n > 7:
        raise SizeError("single-sided search capped at n=7")
    perms = enumerate_permutations(n)
    ident = identity(n)

    sigmas: list[Perm]
    rhos: list[Perm]
    if family.kind is FamilyKind.L:
        # left multiplications never change the L fit; dedupe sigma modulo the
        # eight-element right-multiplication invariance group
        rhos = [ident]
        if side is SearchSide.LEFT:
            sigmas = [ident]
        else:
            sigmas = _orbit_representatives(n)
    else:
        sigmas = list(perms) if side in (SearchSide.RIGHT, SearchSide.BOTH) else [ident]
        rhos = list(perms) if side in (SearchSide.LEFT, SearchSide.BOTH) else [ident]

    best = None
    for sigma in sigmas:
        for rho in rhos:
            relabelled = EmpiricalData(n, data.counts[relabel_index(n, sigma, rho)])
            report = fit_family(family, relabelled, opts)
            key = report.log_likelihood
            if best is None or key > best[0] + 1e-12:
                best = (key, sigma, rho, report)
    _, sigma, rho, report = best
    report.relabelling = (sigma, rho)
    return sigma, rho, report
