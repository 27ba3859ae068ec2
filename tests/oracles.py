"""Reference implementations: one Python loop over the n! permutation tuples each.

These are the package's original loop versions of the passes that now run on
the array representation in ``permll.perms``, and of the chain weights and
conditional-independence relations that now run on edge arrays and integer
keys in ``permll.decompose`` and ``permll.classic``.  ``ipfp_fit`` is the
IPFP that rescales all n! cells, which ``permll.fit`` now runs on the edges
of the prefix-set lattice; ``alternating_fit`` alternates the explicit L and
L' maps, a cross-check of the BI fit; ``exhaustive_search`` fits every
relabelling that ``permll.fit.search_relabelling`` skips, prunes or scores
in closed form.  The differential tests in ``test_oracles.py`` compare the
two.  Nothing in ``permll`` imports this file.
"""

from __future__ import annotations

import itertools
import warnings
from collections import defaultdict
from functools import lru_cache

import numpy as np

from permll import decompose
from permll.decompose import LambdaDecomposition
from permll.errors import InvalidLambdaError, SizeError
from permll.fit import EmpiricalData, FitOptions, FitReport, SearchSide, _r_loglik, explicit_L_mle, fit_family
from permll.perms import (
    ConsecutiveSections,
    DistributionTable,
    Perm,
    ProductPartition,
    SetPartition,
    check_permutation,
    compose,
    enumerate_permutations,
    inverse,
)
from permll.subspaces import FamilyKind, GeneratorFamily, atom_labels as array_atom_labels, generators


@lru_cache(maxsize=None)
def lattice_edges(n: int) -> tuple[tuple[int, int, frozenset[int]], ...]:
    """(key, x, prefix) for every edge prefix -> prefix + {x} of the prefix-set
    lattice, keyed as in edge_keys."""
    edges = []
    for mask in range(1 << n):
        prefix = frozenset(y for y in range(1, n + 1) if mask >> (y - 1) & 1)
        edges += [(mask * n + x - 1, x, prefix) for x in range(1, n + 1) if x not in prefix]
    return tuple(edges)


def lambda_from_dict(n: int, values: dict, constant: float | None) -> LambdaDecomposition:
    """The edge array of {(x, prefix set): weight}, 0 on edges the dict lacks."""
    edges = np.zeros(n << n)
    for e, x, prefix in lattice_edges(n):
        edges[e] = values.get((x, prefix), 0.0)
    return LambdaDecomposition(n, edges, constant)


def marginal(pi, board: ProductPartition) -> np.ndarray:
    """Rook counts per block: counts[i][j] = #{s in R_i : pi(s) in C_j}."""
    if board.n != len(pi):
        raise SizeError(f"partition for n={board.n} applied to permutation of size {len(pi)}")
    counts = np.zeros((board.rows.size, board.cols.size), dtype=np.int64)
    for s, v in enumerate(pi):
        counts[board.rows.atom_of(s + 1), board.cols.atom_of(v)] += 1
    return counts


def unordered_marginal(pi, kappa: ConsecutiveSections) -> tuple[frozenset[int], ...]:
    """Sets of images over each consecutive block of positions."""
    return tuple(frozenset(pi[i - 1] for i in block) for block in kappa.blocks(len(pi)))


@lru_cache(maxsize=None)
def _index_map(n: int) -> dict[Perm, int]:
    return {pi: i for i, pi in enumerate(enumerate_permutations(n))}


def perm_index(pi) -> int:
    """Canonical (lexicographic) index of a permutation."""
    return _index_map(len(pi))[tuple(pi)]


def inverse_distribution(p: DistributionTable) -> DistributionTable:
    """The law of the inverse permutation: result(pi) = p(pi^-1)."""
    out = np.empty_like(p.probs)
    for i, pi in enumerate(enumerate_permutations(p.n)):
        out[i] = p.probs[perm_index(inverse(pi))]
    return DistributionTable._from_valid(p.n, out)


def relabel_distribution(p: DistributionTable, sigma, rho) -> DistributionTable:
    """Push p through the relabelling (sigma, rho): result(tau) = p(rho^-1 tau sigma)."""
    sigma = check_permutation(sigma)
    rho = check_permutation(rho)
    inv_rho = inverse(rho)
    perms = enumerate_permutations(p.n)
    out = np.empty_like(p.probs)
    for t, tau in enumerate(perms):
        out[t] = p.probs[perm_index(compose(compose(inv_rho, tau), sigma))]
    return DistributionTable._from_valid(p.n, out)


def relabelled_counts(data: EmpiricalData, sigma: Perm, rho: Perm) -> EmpiricalData:
    # counts_new(tau) = counts(rho^-1 tau sigma)
    inv_rho = inverse(rho)
    perms = enumerate_permutations(data.n)
    out = np.empty_like(data.counts)
    for t, tau in enumerate(perms):
        out[t] = data.counts[perm_index(compose(compose(inv_rho, tau), sigma))]
    return EmpiricalData(data.n, out)


def relabelled_logliks(
    data: EmpiricalData, family: GeneratorFamily, side: SearchSide, opts: FitOptions | None = None
) -> dict[tuple[Perm, Perm], float]:
    """fit_family's log-likelihood of every pair (sigma, rho) that a search on
    side may return, in lexicographic order: all n! permutations on each
    searched side, the identity on the other."""
    n = data.n
    perms = enumerate_permutations(n)
    fixed = [tuple(range(1, n + 1))]
    sigmas = perms if side in (SearchSide.RIGHT, SearchSide.BOTH) else fixed
    rhos = perms if side in (SearchSide.LEFT, SearchSide.BOTH) else fixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return {
            (sigma, rho): fit_family(family, relabelled_counts(data, sigma, rho), opts).log_likelihood
            for sigma in sigmas
            for rho in rhos
        }


def exhaustive_search(
    data: EmpiricalData,
    family: GeneratorFamily,
    side: SearchSide,
    opts: FitOptions | None = None,
    logliks: dict | None = None,
) -> tuple[Perm, Perm, FitReport]:
    """The relabelling search without shortcuts: fit every pair and keep the
    first that beats the best so far by marginal_tol * max(1, |best|).
    logliks, if given, is relabelled_logliks of the same arguments."""
    opts = opts or FitOptions()
    best = None
    for pair, key in (logliks or relabelled_logliks(data, family, side, opts)).items():
        if best is None or key > best[0] + opts.marginal_tol * max(1.0, abs(best[0])):
            best = (key, pair)
    sigma, rho = best[1]
    report = fit_family(family, relabelled_counts(data, sigma, rho), opts)
    report.relabelling = (sigma, rho)
    return sigma, rho, report


def l_search_sigmas(n: int, group: list[Perm]) -> list[Perm]:
    """First sigma of each orbit {g sigma : g in group}, in lexicographic order."""
    sigmas = []
    seen = set()
    for sigma in enumerate_permutations(n):
        if sigma in seen:
            continue
        sigmas.append(sigma)
        seen.update(compose(g, sigma) for g in group)
    return sigmas


def canonical_lambda(p: DistributionTable) -> LambdaDecomposition:
    """Conditional chain weights: P(next = x | first |C| elements form the set C)."""
    n = p.n
    joint: dict[tuple[int, frozenset[int]], float] = defaultdict(float)
    for pi, w in zip(enumerate_permutations(n), p.probs):
        prefix = frozenset()
        for x in pi:
            joint[(x, prefix)] += w
            prefix = prefix | {x}
    values = {}
    for size in range(n):
        for comb in itertools.combinations(range(1, n + 1), size):
            prefix = frozenset(comb)
            mass = sum(joint.get((x, prefix), 0.0) for x in range(1, n + 1) if x not in prefix)
            for x in range(1, n + 1):
                if x not in prefix:
                    values[(x, prefix)] = joint.get((x, prefix), 0.0) / mass if mass > 0.0 else 0.0
    return lambda_from_dict(n, values, 1.0)


def distribution_from_lambda(lam: LambdaDecomposition) -> DistributionTable:
    """Chain product p(pi) = c * prod_k lambda(pi(k+1), {pi(1..k)})."""
    n = lam.n
    perms = enumerate_permutations(n)
    raw = np.empty(len(perms))
    for i, pi in enumerate(perms):
        prefix = frozenset()
        prod = 1.0
        for x in pi:
            prod *= lam.get(x, prefix)
            if prod == 0.0:
                break
            prefix = prefix | {x}
        raw[i] = prod
    total = raw.sum()
    if lam.constant is None:
        if total <= 0.0:
            raise InvalidLambdaError("lambda weights have zero total mass")
        return DistributionTable(n, raw / total)
    scaled = total * lam.constant
    if abs(scaled - 1.0) > 1e-9:
        raise InvalidLambdaError(f"lambda normalizes to {scaled}, not 1")
    return DistributionTable(n, raw * lam.constant)


def conditional_violation(p: DistributionTable) -> float:
    """Max gap between next-element laws conditioned on ordered vs unordered prefixes."""
    n = p.n
    worst = 0.0
    perms = enumerate_permutations(n)
    for k in range(2, n - 1):
        joint_ord: dict = defaultdict(float)
        mass_ord: dict = defaultdict(float)
        joint_set: dict = defaultdict(float)
        mass_set: dict = defaultdict(float)
        for pi, w in zip(perms, p.probs):
            prefix = pi[:k]
            pset = frozenset(prefix)
            joint_ord[(prefix, pi[k])] += w
            mass_ord[prefix] += w
            joint_set[(pset, pi[k])] += w
            mass_set[pset] += w
        for prefix, denom in mass_ord.items():
            if denom <= 0.0:
                continue
            pset = frozenset(prefix)
            set_mass = mass_set[pset]
            for x in range(1, n + 1):
                if x in pset:
                    continue
                gap = abs(
                    joint_ord.get((prefix, x), 0.0) / denom
                    - joint_set.get((pset, x), 0.0) / set_mass
                )
                worst = max(worst, gap)
    return worst


def union_spread(p: DistributionTable) -> float:
    """Spread of canonical lambda values over pairs sharing the same union set."""
    lam = canonical_lambda(p)
    n = p.n
    reach: dict = defaultdict(float)
    for pi, w in zip(enumerate_permutations(n), p.probs):
        prefix = frozenset()
        for x in pi:
            reach[prefix] += w
            prefix = prefix | {x}
    groups: dict = defaultdict(list)
    for e, x, prefix in lattice_edges(n):
        if reach.get(prefix, 0.0) > 0.0:
            groups[frozenset(prefix | {x})].append(lam.edges[e])
    worst = 0.0
    for vals in groups.values():
        if len(vals) > 1:
            worst = max(worst, max(vals) - min(vals))
    return worst


def atom_labels(board: ProductPartition, n: int) -> tuple[np.ndarray, int]:
    """Atom index per permutation under pi -> |pi_B|, with atoms in lexicographic key order."""
    perms = enumerate_permutations(n)
    keys = [marginal(pi, board).tobytes() for pi in perms]
    ordered = {key: i for i, key in enumerate(sorted(set(keys)))}
    return np.array([ordered[key] for key in keys], dtype=np.int64), len(ordered)


def babington_smith_raw(arr: np.ndarray, n: int) -> np.ndarray:
    perms = enumerate_permutations(n)
    raw = np.empty(len(perms))
    for i, pi in enumerate(perms):
        w = 1.0
        for a in range(n):
            for b in range(a + 1, n):
                w *= arr[pi[a] - 1, pi[b] - 1]
        raw[i] = w
    return raw


def mbt_raw(arr: np.ndarray, n: int) -> np.ndarray:
    perms = enumerate_permutations(n)
    raw = np.empty(len(perms))
    for i, pi in enumerate(perms):
        w = 1.0
        for pos, x in enumerate(pi):
            w *= arr[x - 1] ** (n - pos - 1)
        raw[i] = w
    return raw


def quasi_independence_raw(arr: np.ndarray, n: int) -> np.ndarray:
    perms = enumerate_permutations(n)
    raw = np.empty(len(perms))
    for i, pi in enumerate(perms):
        w = 1.0
        for pos, x in enumerate(pi):
            w *= arr[pos, x - 1]
        raw[i] = w
    return raw


# The stagewise classic models, with lambda built edge by edge as a dict.


def luce_table(theta: np.ndarray, n: int) -> DistributionTable:
    # lambda(x, C) = theta_x / sum of theta over elements outside C
    values = {
        (x, prefix): theta[x - 1] / sum(theta[y - 1] for y in range(1, n + 1) if y not in prefix)
        for _, x, prefix in lattice_edges(n)
    }
    return decompose.distribution_from_lambda(lambda_from_dict(n, values, None))


def multistage_table(stages: list[np.ndarray], n: int) -> DistributionTable:
    values = {
        (x, prefix): float(stages[len(prefix)][sum(1 for y in range(1, x) if y not in prefix)])
        for _, x, prefix in lattice_edges(n)
    }
    return decompose.distribution_from_lambda(lambda_from_dict(n, values, None))


def repeated_insertion_table(stages: list[np.ndarray], n: int) -> DistributionTable:
    values = {
        (x, prefix): float(stages[x - 1][sum(1 for y in prefix if y < x)])
        for _, x, prefix in lattice_edges(n)
    }
    return decompose.distribution_from_lambda(lambda_from_dict(n, values, None))


def check_block_independence(p: DistributionTable, partition: SetPartition, tol: float = 1e-9):
    """Conditional independence of ordered marginals over arbitrary position atoms,
    given the vector of unordered marginals."""
    blocks = [tuple(sorted(atom)) for atom in partition.atoms]
    perms = enumerate_permutations(p.n)
    classes: dict = defaultdict(list)
    for idx, pi in enumerate(perms):
        key = tuple(frozenset(pi[i - 1] for i in block) for block in blocks)
        classes[key].append(idx)
    worst = 0.0
    for members in classes.values():
        mass = float(p.probs[members].sum())
        if mass <= 0.0:
            continue
        laws = [defaultdict(float) for _ in blocks]
        for idx in members:
            pi = perms[idx]
            w = p.probs[idx] / mass
            for b, block in enumerate(blocks):
                laws[b][tuple(pi[i - 1] for i in block)] += w
        for idx in members:
            pi = perms[idx]
            prod = 1.0
            for b, block in enumerate(blocks):
                prod *= laws[b][tuple(pi[i - 1] for i in block)]
            worst = max(worst, abs(p.probs[idx] / mass - prod))
    return worst <= tol, worst


def rectangle_violation(
    p: DistributionTable, kappa: ConsecutiveSections, lamb: ConsecutiveSections
) -> float:
    n = p.n
    row_blocks = kappa.blocks(n)
    col_blocks = lamb.blocks(n)
    perms = enumerate_permutations(n)
    cells = [(rb, frozenset(cb)) for rb in row_blocks for cb in col_blocks]

    def cell_marginal(pi, rb, cset):
        return frozenset((a, pi[a - 1]) for a in rb if pi[a - 1] in cset)

    classes: dict = defaultdict(list)
    for idx, pi in enumerate(perms):
        inv = {v: i + 1 for i, v in enumerate(pi)}
        key = (
            tuple(frozenset(pi[i - 1] for i in rb) for rb in row_blocks),
            tuple(frozenset(inv[v] for v in cb) for cb in col_blocks),
        )
        classes[key].append(idx)
    worst = 0.0
    for members in classes.values():
        mass = float(p.probs[members].sum())
        if mass <= 0.0:
            continue
        laws = [defaultdict(float) for _ in cells]
        for idx in members:
            pi = perms[idx]
            w = p.probs[idx] / mass
            for c, (rb, cset) in enumerate(cells):
                laws[c][cell_marginal(pi, rb, cset)] += w
        for idx in members:
            pi = perms[idx]
            prod = 1.0
            for c, (rb, cset) in enumerate(cells):
                prod *= laws[c][cell_marginal(pi, rb, cset)]
            worst = max(worst, abs(p.probs[idx] / mass - prod))
    return worst


def ipfp_fit(family: GeneratorFamily, r: DistributionTable, opts: FitOptions | None = None) -> FitReport:
    """Iterative proportional fitting: cycle over the family's generators,
    rescaling each block-count atom to the empirical atom mass."""
    opts = opts or FitOptions()
    if r.n != family.n:
        raise SizeError(f"table for n={r.n} but family for n={family.n}")
    gens = generators(family)
    labels = [array_atom_labels(board, family.n) for board in gens]
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


def alternating_fit(r: DistributionTable, max_cycles: int = 10000, likelihood_tol: float = 1e-9) -> FitReport:
    """Alternate the explicit L and L' projection maps until the likelihood settles.

    Agreement with IPFP on the bi-decomposable family is checked empirically
    in the test suite, not assumed.
    """
    p = r
    trace = []
    converged = False
    cycles = 0
    for cycle in range(max_cycles):
        p = explicit_L_mle(p).fitted
        p = explicit_L_mle(p, primed=True).fitted
        cycles = cycle + 1
        ll = _r_loglik(r.probs, p.probs)
        trace.append(ll)
        if cycle > 0 and abs(trace[-1] - trace[-2]) <= likelihood_tol:
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
