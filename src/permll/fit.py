"""Maximum-likelihood fitting, goodness of fit, and relabelling search.

IPFP cyclically rescales a table so that the law of every generator's block
counts matches the empirical one, on the chain weights of the prefix-set
lattice rather than on the n! cells; the L-family estimate is also available
in closed form through the canonical chain decomposition.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .decompose import LambdaDecomposition, distribution_from_lambda, inverse_distribution, markovianize
from .errors import SizeError, SupportMismatchError, ValidationError
from .perms import (
    DistributionTable,
    Perm,
    ProductPartition,
    check_size,
    compose,
    edge_keys,
    identity,
    inverse,
    inverse_index,
    lattice_levels,
    perm_array,
    prefix_members,
    rank,
    relabel_index,
)
from .subspaces import (
    FamilyKind,
    GeneratorFamily,
    SectionKind,
    atom_labels,
    formula_dimension,
    generators,
    section_partition,
)


INT64_MAX = int(np.iinfo(np.int64).max)


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
        if any(len(pi) != n for pi in counts):
            raise SizeError(f"counts keys must be permutations of 1..{n}")
        return cls.from_records(n, np.reshape(list(counts), (-1, n)), list(counts.values()))

    @classmethod
    def from_records(cls, n: int, images, counts) -> "EmpiricalData":
        """Merge observation records: row i of the (records, n) 1-based images, seen counts[i] times.

        Raises ValidationError for the first row that is not a permutation of 1..n, for a
        negative count, and for a total count beyond int64.
        """
        check_size(n)
        images = np.asarray(images, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        bad = (np.sort(images, axis=1) != np.arange(1, n + 1)).any(axis=1)
        if bad.any():
            pi = tuple(images[bad.argmax()].tolist())
            raise ValidationError(f"{pi} is not a permutation of 1..{n}")
        if (counts < 0).any():
            raise ValidationError("counts must be non-negative")
        if sum(counts.tolist()) > INT64_MAX:
            raise ValidationError("total count too large")
        arr = np.zeros(math.factorial(n), dtype=np.int64)
        np.add.at(arr, rank(images), counts)
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

    def __post_init__(self):
        if self.max_cycles < 1:
            raise ValidationError("max_cycles must be at least 1")
        if not 0 < self.marginal_tol < math.inf:
            raise ValidationError("marginal_tol must be finite and positive")


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


_PRIMED = (FamilyKind.L_PRIME, FamilyKind.L_S_PRIME)


@lru_cache(maxsize=None)
def _lattice_generators(family: GeneratorFamily):
    """The family's generators on the edges of the prefix-set lattice.

    Per generator, in the family's order (levels never decrease): its level k,
    the atom of each edge of level k, and the atom count.  Then, to measure
    every generator's gap in one bincount: the edge and offset atom of each
    (generator, edge) pair and the generator of each offset atom.  The boards
    of L' and L_S' are transposed, since those families are fitted on the
    inverse table.
    """
    n = family.n
    bounds = lattice_levels(n)[3]
    bold = [section_partition(SectionKind.BOLD, k + 1, n) for k in range(n)]
    gens = []
    for board in generators(family):
        if family.kind in _PRIMED:
            board = ProductPartition(board.cols, board.rows)
        level = next(k for k in range(n) if bold[k].refines(board.rows))
        gens.append((level, *atom_labels(board, n, level)))
    sizes = [size for _, _, size in gens]
    offsets = np.cumsum([0] + sizes)
    none = [np.zeros(0, dtype=np.int64)]  # for families without generators
    pair_edges = np.concatenate(none + [np.arange(bounds[k], bounds[k + 1]) for k, _, _ in gens])
    pair_atoms = np.concatenate(none + [labels + off for (_, labels, _), off in zip(gens, offsets)])
    owner = np.repeat(np.arange(len(gens)), sizes)
    for arr in (pair_edges, pair_atoms, owner):
        arr.setflags(write=False)
    return tuple(gens), pair_edges, pair_atoms, owner


def _lattice_ipfp(family: GeneratorFamily, r: np.ndarray, opts: FitOptions):
    """IPFP on the edge weights w of p(pi) = prod_k w(edge k of pi), starting
    from 1/n! on level 0 and 1 elsewhere.

    A generator of level k rescales the weights of that level only.  Its atom
    masses sum, over the edges S -> T of level k, F(S) w(S -> T) B(T), where F
    and B sum the weight products of the paths from the empty set to S and from
    T to the full set.  F of level k reads only lower levels and B of level
    k + 1 only higher ones, so one forward sweep keeps F current and B stays
    valid from the last gap check.  Returns the weights keyed as in
    edge_keys, the log-likelihood trace, the cycles run and the last gap.
    """
    n = family.n
    key, source, target, bounds = lattice_levels(n)
    levels = [slice(bounds[k], bounds[k + 1]) for k in range(n)]
    level_of = np.repeat(np.arange(n), np.diff(bounds))
    gens, pair_edges, pair_atoms, owner = _lattice_generators(family)
    emp = np.bincount(edge_keys(n).ravel(), weights=np.repeat(r, n), minlength=n << n)[key]
    goal = np.bincount(pair_atoms, weights=emp[pair_edges], minlength=len(owner))
    goals = np.split(goal, np.cumsum([size for _, _, size in gens])[:-1])
    w = np.ones(len(key))
    w[levels[0]] = 1.0 / len(r)
    nodes = 1 << n
    fwd = np.zeros((n + 1, nodes))  # F, one row per level of masks
    bwd = np.zeros((n + 1, nodes))  # B, likewise
    fwd[0, 0] = bwd[n, -1] = 1.0

    def forward(k: int) -> None:
        e = levels[k]
        fwd[k + 1] = np.bincount(target[e], weights=fwd[k, source[e]] * w[e], minlength=nodes)

    def backward() -> None:
        for k in reversed(range(n)):
            e = levels[k]
            bwd[k] = np.bincount(source[e], weights=w[e] * bwd[k + 1, target[e]], minlength=nodes)

    backward()
    trace = []
    gap = np.inf
    cycles = 0
    for cycle in range(opts.max_cycles):
        level = -1
        for (k, labels, size), target_k in zip(gens, goals):
            if k != level:
                for j in range(max(level, 0), k):
                    forward(j)
                level, e = k, levels[k]
                wk, fb = w[e], fwd[k, source[e]] * bwd[k + 1, target[e]]
            cur = np.bincount(labels, weights=fb * wk, minlength=size)
            wk *= np.divide(target_k, cur, out=np.zeros(size), where=cur > 0)[labels]
        backward()
        cycles = cycle + 1
        # F is current up to the last generator's level, all that pair_edges reads
        mass = fwd[level_of, source] * w * bwd[level_of + 1, target]
        cur = np.bincount(pair_atoms, weights=mass[pair_edges], minlength=len(owner))
        gap = 0.5 * float(np.bincount(owner, np.abs(cur - goal), minlength=len(gens)).max(initial=0.0))
        trace.append(_r_loglik(emp, w))
        if gap <= opts.marginal_tol:
            break
    weights = np.zeros(n << n)
    weights[key] = w
    return weights, trace, cycles, gap


def ipfp_fit(family: GeneratorFamily, r: DistributionTable, opts: FitOptions | None = None) -> FitReport:
    """Iterative proportional fitting: cycle over the family's generators,
    rescaling each block-count atom to the empirical atom mass.

    Each generator but the saturated one reads one step of the chain through
    the prefix-set lattice (of the inverse, for L' and L_S'), so the fit runs
    on the n * 2^(n-1) chain weights, not on the n! cells.  The saturated fit
    is one rescaling of the uniform table.
    """
    opts = opts or FitOptions()
    if r.n != family.n:
        raise SizeError(f"table for n={r.n} but family for n={family.n}")
    if family.kind is FamilyKind.SATURATED:
        u = np.full(len(r.probs), 1.0 / len(r.probs))
        fitted = DistributionTable(r.n, u * (r.probs / u))
        gap = 0.5 * float(np.abs(fitted.probs - r.probs).sum())
        trace, cycles = [_r_loglik(r.probs, fitted.probs)], 1
    else:
        primed = family.kind in _PRIMED
        data = inverse_distribution(r) if primed else r
        weights, trace, cycles, gap = _lattice_ipfp(family, data.probs, opts)
        fitted = distribution_from_lambda(LambdaDecomposition(r.n, weights, 1.0))
        if primed:
            fitted = inverse_distribution(fitted)
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


def _counts_loglik(counts: np.ndarray, probs: np.ndarray) -> float:
    """Log-likelihood sum(counts * log p) over the observed permutations."""
    obs_mask = counts > 0
    if (probs[obs_mask] <= 0.0).any():
        raise SupportMismatchError("fitted probability zero on an observed permutation")
    return float(np.dot(counts[obs_mask], np.log(probs[obs_mask])))


def gof_report(
    fitted: DistributionTable, data: EmpiricalData, family: GeneratorFamily, base: FitReport | None = None
) -> FitReport:
    """Log-likelihood, Pearson chi-square, nominal df, and the standardized U."""
    if fitted.n != data.n or family.n != data.n:
        raise SizeError("fitted table, data, and family must share n")
    counts = data.counts
    m = data.m
    probs = fitted.probs
    loglik = _counts_loglik(counts, probs)
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


def _fit_loglik(family: GeneratorFamily, counts: np.ndarray, opts: FitOptions) -> float:
    """The log-likelihood that fit_family reports for an IPFP family, without
    the rest of its report."""
    data = EmpiricalData(family.n, counts)
    return _counts_loglik(counts, ipfp_fit(family, empirical(data), opts).fitted.probs)


class SearchSide(Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"


def _invariance_generators(n: int) -> tuple[Perm, Perm]:
    """Reversal and the swap of 1 and 2, which generate right_invariance_group(n)."""
    return tuple(range(n, 0, -1)), ((2, 1) + tuple(range(3, n + 1)) if n >= 2 else (1,))


def right_invariance_group(n: int) -> list[Perm]:
    """Closure of {reversal, swap of 1 and 2} under composition (eight elements for n >= 4)."""
    group = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        g = frontier.pop()
        for h in _invariance_generators(n):
            new = compose(g, h)
            if new not in group:
                group.add(new)
                frontier.append(new)
    return sorted(group)


@lru_cache(maxsize=None)
def _orbit_representatives(n: int) -> np.ndarray:
    """Read-only indices, ascending, of the first sigma in lexicographic order
    of each orbit {g sigma : g in right_invariance_group(n)}."""
    # moves[i][t] is the index of g_i t; spread the smallest index of each
    # orbit along the moves until nothing changes
    moves = [relabel_index(n, identity(n), inverse(g)) for g in _invariance_generators(n)]
    first = np.arange(math.factorial(n))
    while True:
        low = np.minimum.reduce([first] + [first[move] for move in moves])
        if (low == first).all():
            break
        first = low
    reps = np.flatnonzero(first == np.arange(len(first)))
    reps.setflags(write=False)
    return reps


def _nlogn(counts: np.ndarray) -> np.ndarray:
    """N log N elementwise, 0 where N = 0."""
    return counts * np.log(counts, out=np.zeros_like(counts), where=counts > 0)


def _chain_edge_logliks(counts: np.ndarray, n: int) -> np.ndarray:
    """The L log-likelihood, edge by edge, of every order of visiting the positions.

    For a set P of positions and a position j outside it, the weight at key
    mask(P) * n + j - 1 (as in edge_keys) is the sum of N log N over the
    pairs (images on P, image at j) minus that over the image sets on P, N
    counting the observations.  Relabelling positions by sigma makes the L
    chain visit them in the order v = sigma^-1, so the closed-form L fit of
    the relabelled counts has log-likelihood W[edge_keys(n)[v]].sum().
    """
    seen = np.flatnonzero(counts)
    c = counts[seen].astype(np.float64)
    images = perm_array(n)[seen].T.astype(np.int64) - 1  # one row per position
    bits = np.left_shift(1, images)
    members = prefix_members(n)
    weights = np.zeros(n << n)
    for mask in range(1 << n):
        outside = np.flatnonzero(~members[mask])
        if not len(outside):
            continue
        sets = bits[members[mask]].sum(axis=0)
        pairs = (sets * n + images[outside] + np.arange(len(outside))[:, None] * (n << n)).ravel()
        joint = np.bincount(pairs, np.tile(c, len(outside)), minlength=len(outside) * (n << n))
        a = _nlogn(joint).reshape(len(outside), -1).sum(axis=1)
        weights[mask * n + outside] = a - _nlogn(np.bincount(sets, c)).sum()
    return weights


def _fit_loglik(family: GeneratorFamily, counts: np.ndarray, opts: FitOptions) -> float:
    """The log-likelihood that fit_family reports for an IPFP family, without
    the rest of its report."""
    data = EmpiricalData(family.n, counts)
    return _counts_loglik(counts, ipfp_fit(family, empirical(data), opts).fitted.probs)


class SearchSide(Enum):
    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"


# Sides of the relabelling whose every choice leaves the family's fit
# unchanged: RIGHT is sigma, which moves positions, and LEFT is rho, which
# moves values.  On each side a family does not ignore, relabelling by
# (g sigma, h rho), g and h in right_invariance_group, leaves the fit
# unchanged too.  tests/test_fit.py checks both claims by brute force.
_IGNORED_SIDES = {
    FamilyKind.L: {SearchSide.LEFT},
    FamilyKind.L_S: {SearchSide.LEFT},
    FamilyKind.L_PRIME: {SearchSide.RIGHT},
    FamilyKind.L_S_PRIME: {SearchSide.RIGHT},
    FamilyKind.QUASI_INDEPENDENCE: {SearchSide.LEFT, SearchSide.RIGHT},
    FamilyKind.SATURATED: {SearchSide.LEFT, SearchSide.RIGHT},
    FamilyKind.UNIFORM: {SearchSide.LEFT, SearchSide.RIGHT},
}


def search_relabelling(
    data: EmpiricalData,
    family: GeneratorFamily,
    side: SearchSide = SearchSide.BOTH,
    opts: FitOptions | None = None,
) -> tuple[Perm, Perm, FitReport]:
    """The relabelling (sigma, rho) maximizing the fitted log-likelihood; ties
    go to the lexicographically smallest pair.  A pair within
    marginal_tol * max(1, |best|) of the best so far ties with it, so rounding
    noise in the fits never picks the winner.

    The result is that of fitting every pair, with three shortcuts.  A side
    the family ignores keeps the identity.  A searched side tries only the
    first member of each orbit under right_invariance_group, which the family
    also ignores.  L and L' need no fits: one chain weight per edge of the
    lattice of position sets (of the inverse, for L') gives the
    log-likelihood of every relabelling as a sum over its path.  Only the
    winner gets a full fit_family report.
    """
    opts = opts or FitOptions()
    n = data.n
    kind = family.kind
    ignored = _IGNORED_SIDES.get(kind, set())
    asked = (SearchSide.RIGHT, SearchSide.LEFT) if side is SearchSide.BOTH else (side,)
    searched = [s for s in asked if s not in ignored]
    closed_form = kind in (FamilyKind.L, FamilyKind.L_PRIME)
    if len(searched) == 2 and n > 6:
        raise SizeError("two-sided search capped at n=6")
    if len(searched) == 1 and n > 7 and not closed_form:
        raise SizeError("single-sided search capped at n=7")
    fixed = [identity(n)]
    reps = _orbit_representatives(n) if searched else []
    candidates = [tuple(pi) for pi in perm_array(n)[reps].tolist()]
    sigmas = candidates if SearchSide.RIGHT in searched else fixed
    rhos = candidates if SearchSide.LEFT in searched else fixed
    pairs = [(sigma, rho) for sigma in sigmas for rho in rhos]
    if not searched:
        keys = [0.0]
    elif closed_form:
        counts = data.counts if kind is FamilyKind.L else data.counts[inverse_index(n)]
        weights = _chain_edge_logliks(counts, n)
        keys = weights[edge_keys(n)[inverse_index(n)[reps]]].sum(axis=1).tolist()
    else:
        keys = (_fit_loglik(family, data.counts[relabel_index(n, *pair)], opts) for pair in pairs)
    best = None
    for key, pair in zip(keys, pairs):
        if best is None or key > best[0] + opts.marginal_tol * max(1.0, abs(best[0])):
            best = (key, pair)
    sigma, rho = best[1]
    report = fit_family(family, EmpiricalData(n, data.counts[relabel_index(n, sigma, rho)]), opts)
    report.relabelling = (sigma, rho)
    return sigma, rho, report
