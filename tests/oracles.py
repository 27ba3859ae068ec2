"""Reference implementations: one Python loop over the n! permutation tuples each.

These are the package's original loop versions of the passes that now run on
the array representation in ``permll.perms``.  The differential tests in
``test_oracles.py`` compare the two.  Nothing in ``permll`` imports this file.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache

import numpy as np

from permll.decompose import LambdaDecomposition
from permll.errors import InvalidLambdaError
from permll.fit import EmpiricalData
from permll.perms import (
    DistributionTable,
    Perm,
    ProductPartition,
    check_permutation,
    compose,
    enumerate_permutations,
    inverse,
    marginal,
)


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
    return LambdaDecomposition(n, values, 1.0)


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
    for (x, prefix), v in lam.values.items():
        if reach.get(prefix, 0.0) > 0.0:
            groups[frozenset(prefix | {x})].append(v)
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
