"""Decomposability testing, the canonical lambda decomposition, and
conditional-independence checks.

Verdicts are computed along two redundant paths — conditional-probability
equalities and the round trip through the canonical decomposition — and the
pair is required to agree within numerical slack; a disagreement signals a
bug, not a modeling question.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, InvalidLambdaError, ValidationError
from .perms import (
    ConsecutiveSections,
    DistributionTable,
    SetPartition,
    edge_keys,
    enumerate_permutations,
    inverse_index,
    lattice_edges,
)
from .subspaces import DECOMPOSABLE_KINDS, FamilyKind

DEFAULT_TOL = 1e-9


@dataclass
class LambdaDecomposition:
    """Weights on (next element, prefix set) pairs, plus a global constant.

    ``constant=None`` means "normalize by summation" and is used by model
    constructors whose printed weight function is unnormalized.
    """

    n: int
    values: dict[tuple[int, frozenset[int]], float]
    constant: float | None = 1.0

    def get(self, x: int, prefix: frozenset[int]) -> float:
        return self.values.get((x, frozenset(prefix)), 0.0)


def canonical_lambda(p: DistributionTable) -> LambdaDecomposition:
    """Conditional chain weights: P(next = x | first |C| elements form the set C)."""
    n = p.n
    joint = np.bincount(
        edge_keys(n).ravel(), weights=np.repeat(p.probs, n), minlength=n << n
    ).reshape(1 << n, n)
    mass = joint[:, 0].copy()
    for x in range(1, n):  # summed in the order x = 1..n, not pairwise
        mass += joint[:, x]
    lam = np.divide(joint, mass[:, None], out=np.zeros_like(joint), where=mass[:, None] > 0)
    lam = lam.ravel()
    return LambdaDecomposition(n, {(x, s): float(lam[e]) for e, x, s in lattice_edges(n)}, 1.0)


def _edge_array(lam: LambdaDecomposition) -> np.ndarray:
    """The weights of lam on the keys of edge_keys(lam.n), zero where lam has none."""
    edge = np.zeros(lam.n << lam.n)
    for e, x, prefix in lattice_edges(lam.n):
        edge[e] = lam.values.get((x, prefix), 0.0)
    return edge


def distribution_from_lambda(lam: LambdaDecomposition) -> DistributionTable:
    """Chain product p(pi) = c * prod_k lambda(pi(k+1), {pi(1..k)})."""
    n = lam.n
    edge = _edge_array(lam)
    keys = edge_keys(n)
    raw = edge[keys[:, 0]]
    for k in range(1, n):
        raw *= edge[keys[:, k]]
    total = raw.sum()
    if lam.constant is None:
        if total <= 0.0:
            raise InvalidLambdaError("lambda weights have zero total mass")
        return DistributionTable(n, raw / total)
    scaled = total * lam.constant
    if abs(scaled - 1.0) > 1e-9:
        raise InvalidLambdaError(f"lambda normalizes to {scaled}, not 1")
    return DistributionTable(n, raw * lam.constant)


def markovianize(p: DistributionTable) -> DistributionTable:
    """Closest chain-factorized table: round trip through the canonical lambda."""
    return distribution_from_lambda(canonical_lambda(p))


def inverse_distribution(p: DistributionTable) -> DistributionTable:
    """The law of the inverse permutation: result(pi) = p(pi^-1)."""
    return DistributionTable._from_valid(p.n, p.probs[inverse_index(p.n)])


def _conditional_violation(p: DistributionTable) -> float:
    """Max gap between next-element laws conditioned on ordered vs unordered prefixes."""
    n = p.n
    keys = edge_keys(n)
    index = np.arange(len(p.probs))
    worst = 0.0
    for k in range(2, n - 1):
        # Lexicographic order makes the permutations that share their first
        # k + 1 images one block of (n-k-1)! rows, and the n-k blocks that
        # share their first k images consecutive.
        block = math.factorial(n - k - 1)
        joint_ord = np.bincount(index // block, weights=p.probs)
        mass_ord = np.bincount(index // (block * (n - k)), weights=p.probs)
        joint_set = np.bincount(keys[:, k], weights=p.probs, minlength=n << n)
        mass_set = np.bincount(keys[:, k] // n, weights=p.probs, minlength=1 << n)
        denom = mass_ord[np.arange(len(joint_ord)) // (n - k)]
        seen = denom > 0.0
        edge = keys[::block, k][seen]  # the unordered edge of each ordered prefix
        gap = np.abs(joint_ord[seen] / denom[seen] - joint_set[edge] / mass_set[edge // n])
        worst = max(worst, float(gap.max()))
    return worst


def _union_spread(p: DistributionTable) -> float:
    """Spread of canonical lambda values over pairs sharing the same union set."""
    n = p.n
    lam = _edge_array(canonical_lambda(p)).reshape(1 << n, n)
    masks = np.arange(1 << n)[:, None]
    bits = 1 << np.arange(n)
    # a prefix set has positive mass iff its conditional law sums to 1, not 0
    reached = ((masks & bits) == 0) & (lam.sum(axis=1) > 0.0)[:, None]
    union = (masks | bits)[reached]
    hi = np.full(1 << n, -np.inf)
    lo = np.full(1 << n, np.inf)
    np.maximum.at(hi, union, lam[reached])
    np.minimum.at(lo, union, lam[reached])
    return float((hi - lo).max())  # -inf where no reached edge has this union


def _l_check(p: DistributionTable, tol: float) -> tuple[bool, float]:
    cond = _conditional_violation(p)
    fitted = markovianize(p)
    rt = float(np.abs(p.probs - fitted.probs).max())
    verdict_cond = cond <= tol
    verdict_rt = rt <= tol
    if verdict_cond != verdict_rt and max(cond, rt) > 100.0 * tol and min(cond, rt) <= tol:
        raise InternalCheckError(
            f"conditional path ({cond}) and round-trip path ({rt}) disagree"
        )
    return verdict_rt and verdict_cond, max(cond, rt)


def is_decomposable(
    p: DistributionTable, family: FamilyKind, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Verdict and max violation for one of the six decomposable families."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if family not in DECOMPOSABLE_KINDS:
        raise ValidationError(f"{family} is not a decomposability family")
    if family is FamilyKind.L:
        return _l_check(p, tol)
    if family is FamilyKind.L_PRIME:
        return _l_check(inverse_distribution(p), tol)
    if family is FamilyKind.L_S:
        ok, viol = _l_check(p, tol)
        spread = _union_spread(p)
        return ok and spread <= tol, max(viol, spread)
    if family is FamilyKind.L_S_PRIME:
        return is_decomposable(inverse_distribution(p), FamilyKind.L_S, tol)
    if family is FamilyKind.BI:
        ok1, v1 = _l_check(p, tol)
        ok2, v2 = _l_check(inverse_distribution(p), tol)
        return ok1 and ok2, max(v1, v2)
    ok1, v1 = is_decomposable(p, FamilyKind.L_S, tol)
    ok2, v2 = is_decomposable(p, FamilyKind.L_S_PRIME, tol)
    return ok1 and ok2, max(v1, v2)


@dataclass
class DecomposabilityReport:
    verdicts: dict[FamilyKind, bool]
    violations: dict[FamilyKind, float]
    tolerance: float

    def to_json(self) -> dict:
        return {
            "families": {
                kind.value: {
                    "verdict": bool(self.verdicts[kind]),
                    "max_violation": float(self.violations[kind]),
                }
                for kind in DECOMPOSABLE_KINDS
            },
            "tolerance": self.tolerance,
        }


def decomposability_report(p: DistributionTable, tol: float = DEFAULT_TOL) -> DecomposabilityReport:
    verdicts, violations = {}, {}
    for kind in DECOMPOSABLE_KINDS:
        verdicts[kind], violations[kind] = is_decomposable(p, kind, tol)
    return DecomposabilityReport(verdicts, violations, tol)


class IndependenceMode:
    CONSECUTIVE = "consecutive"
    RECTANGLE = "rectangle"


def check_block_independence(
    p: DistributionTable, partition: SetPartition, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
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


def _rectangle_violation(
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


def check_conditional_independence(
    p: DistributionTable,
    mode: str,
    kappa: ConsecutiveSections,
    lamb: ConsecutiveSections | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, float]:
    """Factorization checks behind the two decomposability characterizations.

    CONSECUTIVE: ordered marginals over the kappa intervals are conditionally
    independent given the vector of their unordered marginals.  RECTANGLE:
    the per-block pairings over the kappa x lambda grid are conditionally
    independent given the unordered row and column marginals.
    """
    if mode == IndependenceMode.CONSECUTIVE:
        return check_block_independence(p, kappa.partition(p.n), tol)
    if mode == IndependenceMode.RECTANGLE:
        if lamb is None:
            raise ValidationError("RECTANGLE mode needs both kappa and lambda")
        worst = _rectangle_violation(p, kappa, lamb)
        return worst <= tol, worst
    raise ValidationError(f"unknown mode {mode!r}")
