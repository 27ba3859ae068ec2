"""Decomposability testing, the canonical lambda decomposition, and
conditional-independence checks.

Chain weights are one array over the prefix-set lattice, keyed as in
``edge_keys``, and every relation is a bincount over integer keys of S_n.
Verdicts are computed along two redundant paths — conditional-probability
equalities and the round trip through the canonical decomposition — and the
pair is required to agree within numerical slack; a disagreement signals a
bug, not a modeling question.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InternalCheckError, InvalidLambdaError, SizeError, ValidationError
from .perms import (
    ConsecutiveSections,
    DistributionTable,
    SetPartition,
    check_size,
    edge_keys,
    inverse_index,
    perm_array,
    prefix_members,
)
from .subspaces import DECOMPOSABLE_KINDS, FamilyKind

DEFAULT_TOL = 1e-9


@dataclass
class LambdaDecomposition:
    """Weights lambda(x | S) on the edges S -> S + {x} of the prefix-set lattice,
    plus a global constant.

    ``edges[mask(S) * n + x - 1]`` is lambda(x | S), keyed as in ``edge_keys``:
    a read-only float array of length ``n << n`` that is 0 wherever x lies in
    S.  ``constant=None`` means "normalize by summation" and is used by model
    constructors whose printed weight function is unnormalized.
    """

    n: int
    edges: np.ndarray
    constant: float | None = 1.0

    def __post_init__(self):
        check_size(self.n)
        edges = np.array(self.edges, dtype=np.float64)
        if edges.shape != (self.n << self.n,):
            raise ValidationError(f"expected {self.n << self.n} edge weights, got shape {edges.shape}")
        if edges.reshape(1 << self.n, self.n)[prefix_members(self.n)].any():
            raise ValidationError("lambda weights an element already in its prefix set")
        edges.setflags(write=False)
        self.edges = edges

    def get(self, x: int, prefix) -> float:
        if not 1 <= x <= self.n:
            raise ValidationError(f"element {x} outside 1..{self.n}")
        mask = sum(1 << (y - 1) for y in prefix)
        return float(self.edges[mask * self.n + x - 1])


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
    return LambdaDecomposition(n, lam.ravel(), 1.0)


def distribution_from_lambda(lam: LambdaDecomposition) -> DistributionTable:
    """Chain product p(pi) = c * prod_k lambda(pi(k+1), {pi(1..k)})."""
    n = lam.n
    edge = lam.edges
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
    lam = canonical_lambda(p).edges.reshape(1 << n, n)
    # a prefix set has positive mass iff its conditional law sums to 1, not 0
    reached = ~prefix_members(n) & (lam.sum(axis=1) > 0.0)[:, None]
    union = (np.arange(1 << n)[:, None] | (1 << np.arange(n)))[reached]
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
    if not 0 < tol < math.inf:
        raise ValidationError("tol must be finite and positive")
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


class IndependenceMode(str, Enum):
    CONSECUTIVE = "consecutive"
    RECTANGLE = "rectangle"


def _number(digits: np.ndarray, base: int) -> np.ndarray:
    """Each row of non-negative digits < base read as one integer, first digit lowest."""
    assert base ** digits.shape[1] < 2**63, "key overflows int64"
    return digits @ base ** np.arange(digits.shape[1], dtype=np.int64)


def _factor_gap(p: DistributionTable, class_key: np.ndarray, factor_keys) -> float:
    """Max |p / mass - prod of factor laws| over the cells of the classes of positive mass.

    Cells with equal class_key form one class; each factor key is a marginal
    whose law, given the class, is one factor of the product.
    """
    _, cls = np.unique(class_key, return_inverse=True)
    mass = np.bincount(cls, weights=p.probs)[cls]
    seen = mass > 0.0
    ratio = np.divide(p.probs, mass, out=np.zeros_like(mass), where=seen)
    prod = np.ones_like(ratio)
    for key in factor_keys:
        assert len(p.probs) * (int(key.max()) + 1) < 2**63, "key overflows int64"
        _, cell = np.unique(cls * (int(key.max()) + 1) + key, return_inverse=True)
        prod *= np.bincount(cell, weights=ratio)[cell]
    return float(np.abs(ratio - prod)[seen].max(initial=0.0))


def check_block_independence(
    p: DistributionTable, partition: SetPartition, tol: float = DEFAULT_TOL
) -> tuple[bool, float]:
    """Conditional independence of ordered marginals over arbitrary position atoms,
    given the vector of unordered marginals."""
    n = p.n
    if partition.n != n:
        raise SizeError(f"partition of 1..{partition.n} applied to a table on S_{n}")
    images = perm_array(n).astype(np.int64) - 1  # pi(i) - 1, row by row
    positions = images[inverse_index(n)]  # pi^-1(v) - 1
    atom_of = np.array([partition.atom_of(i) for i in range(1, n + 1)])
    # digit v: the atom whose image set holds v + 1
    class_key = _number(atom_of[positions], partition.size)
    factors = [_number(images[:, sorted(i - 1 for i in atom)], n) for atom in partition.atoms]
    worst = _factor_gap(p, class_key, factors)
    return worst <= tol, worst


def _rectangle_violation(
    p: DistributionTable, kappa: ConsecutiveSections, lamb: ConsecutiveSections
) -> float:
    n = p.n
    images = perm_array(n).astype(np.int64) - 1
    positions = images[inverse_index(n)]
    row_blocks, col_blocks = kappa.blocks(n), lamb.blocks(n)
    rows, cols = len(row_blocks), len(col_blocks)
    row_of = np.repeat(np.arange(rows), [len(b) for b in row_blocks])
    col_of = np.repeat(np.arange(cols), [len(b) for b in col_blocks])
    # the position set of every column block, then the image set of every row block
    class_key = _number(np.hstack([col_of[images], row_of[positions]]), max(rows, cols))
    # cell (R, C): the images on R that fall in C, and 0 for the others
    cells = []
    for block in row_blocks:
        on_row = images[:, np.array(block) - 1]
        cells += [_number(np.where(col_of[on_row] == c, on_row + 1, 0), n + 1) for c in range(cols)]
    return _factor_gap(p, class_key, cells)


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
