"""Constructors and a sampler for six classic ranking models.

Every constructor evaluates its printed weight formula over all of S_n and
normalizes by summation, never by a closed-form constant.  Product formulas
multiply one gathered column of ``perm_array`` per factor, in the order the
formula lists its factors.  Luce, multistage and repeated insertion give
their chain weights on the (2^n, n) grid of prefix masks by next elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParseError, ValidationError
from .fit import EmpiricalData
from .decompose import LambdaDecomposition, distribution_from_lambda
from .perms import DistributionTable, perm_array, prefix_members

_PARAM_TOL = 1e-9


class ClassicKind(str, Enum):
    LUCE = "luce"
    BABINGTON_SMITH = "babington-smith"
    MBT = "mbt"
    MULTISTAGE = "multistage"
    REPEATED_INSERTION = "repeated-insertion"
    QUASI_INDEPENDENCE = "quasi-independence"


@dataclass
class ClassicSpec:
    kind: ClassicKind
    params: dict


def _check_stochastic(vec, what: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=float)
    if (arr <= 0).any():
        raise ValidationError(f"{what} must be strictly positive")
    if abs(arr.sum() - 1.0) > _PARAM_TOL:
        raise ValidationError(f"{what} must sum to 1, got {arr.sum()}")
    return arr


def _stage_lambda(stages: list[np.ndarray], row, col) -> LambdaDecomposition:
    """Unnormalized weights stages[row][col] on the mask-by-element grid."""
    n = len(stages)
    table = np.zeros((n + 1, n))
    for k, stage in enumerate(stages):
        table[k, : len(stage)] = stage
    return LambdaDecomposition(n, np.where(prefix_members(n), 0.0, table[row, col]).ravel(), None)


def _luce(theta, n: int) -> DistributionTable:
    theta = _check_stochastic(theta, "luce weights")
    if len(theta) != n:
        raise ValidationError(f"need {n} weights, got {len(theta)}")
    # lambda(x, C) = theta_x / sum of theta over elements outside C, summed y = 1..n
    member = prefix_members(n)
    outside = np.zeros(1 << n)
    for y in range(n):
        outside += np.where(member[:, y], 0.0, theta[y])
    edges = np.divide(theta, outside[:, None], out=np.zeros((1 << n, n)), where=~member)
    return distribution_from_lambda(LambdaDecomposition(n, edges.ravel(), None))


def _babington_smith(theta, n: int) -> DistributionTable:
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (n, n):
        raise ValidationError(f"need an {n}x{n} preference matrix")
    for x in range(n):
        for y in range(x + 1, n):
            if not (0.0 < arr[x, y] < 1.0) or abs(arr[x, y] + arr[y, x] - 1.0) > _PARAM_TOL:
                raise ValidationError("pair probabilities must lie in (0,1) and sum to 1")
    images = perm_array(n) - 1
    raw = np.ones(len(images))
    for a in range(n):
        for b in range(a + 1, n):
            raw *= arr[images[:, a], images[:, b]]
    return DistributionTable(n, raw / raw.sum())


def _mbt(alpha, n: int) -> DistributionTable:
    arr = np.asarray(alpha, dtype=float)
    if arr.shape != (n,) or (arr <= 0).any():
        raise ValidationError(f"need {n} positive weights")
    images = perm_array(n) - 1
    raw = np.ones(len(images))
    for pos in range(n):
        # scalar powers, so each factor is the same float as in the formula
        powers = np.array([a ** (n - pos - 1) for a in arr])
        raw *= powers[images[:, pos]]
    return DistributionTable(n, raw / raw.sum())


def _stage_table(theta, lengths, what: str) -> list[np.ndarray]:
    if len(theta) != len(lengths):
        raise ValidationError(f"{what}: need {len(lengths)} stages, got {len(theta)}")
    stages = []
    for k, (stage, want) in enumerate(zip(theta, lengths), start=1):
        arr = _check_stochastic(stage, f"{what} stage {k}")
        if len(arr) != want:
            raise ValidationError(f"{what} stage {k}: need {want} entries, got {len(arr)}")
        stages.append(arr)
    return stages


def _multistage(theta, n: int) -> DistributionTable:
    # stage k chooses the i-th smallest remaining candidate with probability theta[k][i]
    stages = _stage_table(theta, [n - k + 1 for k in range(1, n + 1)], "multistage")
    inside = prefix_members(n)
    # stage |C| picks x as candidate number #{y < x : y outside C}
    below = np.cumsum(~inside, axis=1) - ~inside
    return distribution_from_lambda(_stage_lambda(stages, inside.sum(axis=1)[:, None], below))


def _repeated_insertion(theta, n: int) -> DistributionTable:
    # candidate x is inserted at slot i among the x current places with probability theta[x][i]
    stages = _stage_table(theta, list(range(1, n + 1)), "repeated-insertion")
    inside = prefix_members(n)
    # x goes to slot #{y < x : y in C}
    below = np.cumsum(inside, axis=1) - inside
    return distribution_from_lambda(_stage_lambda(stages, np.arange(n), below))


def _quasi_independence(theta, n: int) -> DistributionTable:
    arr = np.asarray(theta, dtype=float)
    if arr.shape != (n, n) or (arr < 0).any():
        raise ValidationError(f"need a non-negative {n}x{n} matrix")
    if (np.abs(arr.sum(axis=0) - 1.0) > _PARAM_TOL).any() or (
        np.abs(arr.sum(axis=1) - 1.0) > _PARAM_TOL
    ).any():
        raise ValidationError("matrix must be doubly stochastic")
    images = perm_array(n) - 1
    raw = np.ones(len(images))
    for pos in range(n):
        raw *= arr[pos, images[:, pos]]
    if raw.sum() <= 0.0:
        raise ValidationError("matrix puts zero mass on every permutation")
    return DistributionTable(n, raw / raw.sum())


_BUILDERS = {
    ClassicKind.LUCE: ("theta", _luce),
    ClassicKind.BABINGTON_SMITH: ("theta", _babington_smith),
    ClassicKind.MBT: ("alpha", _mbt),
    ClassicKind.MULTISTAGE: ("theta", _multistage),
    ClassicKind.REPEATED_INSERTION: ("theta", _repeated_insertion),
    ClassicKind.QUASI_INDEPENDENCE: ("theta", _quasi_independence),
}


def classic_distribution(spec: ClassicSpec, n: int) -> DistributionTable:
    """Exact dense table of one of the six classic models."""
    key, builder = _BUILDERS[ClassicKind(spec.kind)]
    if key not in spec.params:
        raise ValidationError(f"{spec.kind.value} needs parameter {key!r}")
    try:
        return builder(spec.params[key], n)
    except (TypeError, ValueError) as exc:  # not numbers, or not of a numeric shape
        raise ValidationError(f"bad {spec.kind.value} parameter {key!r}: {exc}") from None


def spec_from_json(path) -> tuple[ClassicSpec, int]:
    """Load a {kind, n, params} parameter file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ParseError(f"{path}: not a JSON spec file: {exc}") from None
    try:
        kind = ClassicKind(doc["kind"])
        n = int(doc["n"])
        params = dict(doc["params"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad classic spec file {path}: {exc}") from exc
    return ClassicSpec(kind, params), n


def sample(p: DistributionTable, m: int, seed: int) -> EmpiricalData:
    """m inverse-CDF draws on the lexicographic index, deterministic in seed."""
    if m < 1:
        raise ValidationError("need at least one draw")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p.probs)
    # u * total < total for u < 1, so a cell of probability zero is never drawn
    idx = np.searchsorted(cdf, rng.random(m) * cdf[-1], side="right")
    counts = np.bincount(idx, minlength=len(p.probs)).astype(np.int64)
    return EmpiricalData(p.n, counts)
