"""Generator families, cross-section statistics, basis vectors, and dimensions.

Each model family expands to a list of product partitions of the board; the
span of their block-count indicator vectors (one 0/1 column per realized
count matrix) is the log-linear subspace of the model.  Closed-form parameter
counts are cross-checked against an exact rank oracle over the integers.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import SizeError, ValidationError
from .exactrank import exact_rank
from .perms import (
    Perm,
    ProductPartition,
    SetPartition,
    check_size,
    inverse_index,
    lattice_levels,
    perm_array,
    perm_index,
    prefix_members,
)

RANK_MAX_N = 7


class FamilyKind(str, Enum):
    L = "l"
    L_PRIME = "l'"
    L_S = "l_s"
    L_S_PRIME = "l_s'"
    BI = "bi"
    BI_S = "bi_s"
    QUASI_INDEPENDENCE = "qi"
    SATURATED = "saturated"
    UNIFORM = "uniform"


class SectionKind(Enum):
    BOLD = "bold"
    THIN = "thin"
    FULL = "full"
    TRIVIAL = "trivial"


def section_partition(kind: SectionKind, k: int, n: int) -> SetPartition:
    """Named row/column partitions: bold and thin sections, full, trivial.

    Bold section k isolates {k} between {1..k-1} and {k+1..n}; the thin section
    splits after position k.  Empty atoms at the boundaries are dropped, so
    bold k=1 coincides with thin k=1 and bold k=n with thin k=n-1.
    """
    if kind in (SectionKind.FULL, SectionKind.TRIVIAL):
        return SetPartition.singletons(n) if kind is SectionKind.FULL else SetPartition.trivial(n)
    if not 1 <= k <= n:
        raise ValidationError(f"section index k={k} outside 1..{n}")
    if kind is SectionKind.BOLD:
        return SetPartition([range(1, k), {k}, range(k + 1, n + 1)], n)
    return SetPartition([range(1, k + 1), range(k + 1, n + 1)], n)


def bold_cross_section(k: int, ell: int, n: int) -> ProductPartition:
    return ProductPartition(
        section_partition(SectionKind.BOLD, k, n), section_partition(SectionKind.BOLD, ell, n)
    )


def thin_cross_section(k: int, ell: int, n: int) -> ProductPartition:
    return ProductPartition(
        section_partition(SectionKind.THIN, k, n), section_partition(SectionKind.THIN, ell, n)
    )


def _row_boards(kind: SectionKind, ks: range, n: int) -> list[ProductPartition]:
    """One board per k in ks: section k of the rows against the full columns."""
    full = SetPartition.singletons(n)
    return [ProductPartition(section_partition(kind, k, n), full) for k in ks]


def _cross_boards(cross: Callable, ks: range, n: int) -> list[ProductPartition]:
    """One board per (k, ell) in ks x ks: the cross section at (k, ell)."""
    return [cross(k, ell, n) for k in ks for ell in ks]


def _qi_boards(n: int) -> list[ProductPartition]:
    """One board per position i, which reads the image of i: row {i} against the
    other rows, full columns."""
    full = SetPartition.singletons(n)
    if n == 1:
        return [ProductPartition(SetPartition.trivial(1), full)]
    return [
        ProductPartition(SetPartition([{i}, set(range(1, n + 1)) - {i}], n), full)
        for i in range(1, n + 1)
    ]


class SearchSide(Enum):
    """A side of a relabelling: RIGHT is sigma, which moves positions, and LEFT
    is rho, which moves values."""

    LEFT = "left"
    RIGHT = "right"
    BOTH = "both"


@dataclass(frozen=True)
class FamilySpec:
    """One family: the names the CLI accepts (its value first), its generators
    boards(n) and closed-form free parameters dim(n), or else the mirror it is
    on the inverse table (see defining_family); the relabelling sides whose
    every choice leaves its fit unchanged; the families whose meet it is, which
    check tests in turn; and whether check reports it."""

    names: tuple[str, ...]
    boards: Callable[[int], list[ProductPartition]] | None = None
    dim: Callable[[int], int] | None = None
    mirror: FamilyKind | None = None
    ignored: frozenset[SearchSide] = frozenset()
    meet: tuple[FamilyKind, ...] = ()
    checked: bool = False


_LEFT, _RIGHT = frozenset({SearchSide.LEFT}), frozenset({SearchSide.RIGHT})
_BOTH = _LEFT | _RIGHT

FAMILIES: dict[FamilyKind, FamilySpec] = {
    FamilyKind.L: FamilySpec(
        ("l",), lambda n: _row_boards(SectionKind.BOLD, range(1, n + 1), n),
        lambda n: 2 ** (n - 1) * (n - 2) + 1, ignored=_LEFT, checked=True,
    ),
    FamilyKind.L_PRIME: FamilySpec(
        ("l'", "lp", "l-prime"), mirror=FamilyKind.L, ignored=_RIGHT, checked=True
    ),
    FamilyKind.L_S: FamilySpec(
        ("l_s", "ls"), lambda n: _row_boards(SectionKind.THIN, range(1, n), n),
        lambda n: 2**n - n - 1, ignored=_LEFT, checked=True,
    ),
    FamilyKind.L_S_PRIME: FamilySpec(
        ("l_s'", "ls'", "ls-prime"), mirror=FamilyKind.L_S, ignored=_RIGHT, checked=True
    ),
    FamilyKind.BI: FamilySpec(
        ("bi",), lambda n: _cross_boards(bold_cross_section, range(1, n + 1), n),
        lambda n: sum(i * i for i in range(1, n)), meet=(FamilyKind.L, FamilyKind.L_PRIME), checked=True,
    ),
    FamilyKind.BI_S: FamilySpec(
        ("bi_s", "bis"), lambda n: _cross_boards(thin_cross_section, range(1, n), n),
        lambda n: sum((n - 2 * j - 1) ** 2 for j in range((n - 1) // 2 + 1)),
        meet=(FamilyKind.L_S, FamilyKind.L_S_PRIME), checked=True,
    ),
    FamilyKind.QUASI_INDEPENDENCE: FamilySpec(
        ("qi", "quasi-independence"), _qi_boards, lambda n: (n - 1) ** 2, ignored=_BOTH
    ),
    FamilyKind.SATURATED: FamilySpec(
        ("saturated",),
        lambda n: [ProductPartition(SetPartition.singletons(n), SetPartition.singletons(n))],
        lambda n: math.factorial(n) - 1,
        ignored=_BOTH,
    ),
    FamilyKind.UNIFORM: FamilySpec(
        ("uniform",),
        lambda n: [ProductPartition(SetPartition.trivial(n), SetPartition.trivial(n))],
        lambda n: 0,
        ignored=_BOTH,
    ),
}

DECOMPOSABLE_KINDS = tuple(kind for kind, spec in FAMILIES.items() if spec.checked)


def parse_family_kind(text: str) -> FamilyKind:
    name = text.strip().lower()
    for kind, spec in FAMILIES.items():
        if name in spec.names:
            return kind
    raise ValidationError(f"unknown family {text!r}")


def defining_family(kind: FamilyKind) -> tuple[FamilyKind, bool]:
    """The family whose boards, dimension, fit and check define kind, and
    whether kind reads it on the inverse table: l' is l and l_s' is l_s of
    the inverse permutation, with every board transposed."""
    mirror = FAMILIES[kind].mirror
    return (kind, False) if mirror is None else (mirror, True)


def generators(kind: FamilyKind, n: int) -> list[ProductPartition]:
    """The concrete product-partition generators of a family on S_n."""
    check_size(n)
    kind, inverted = defining_family(kind)
    boards = FAMILIES[kind].boards(n)
    return [ProductPartition(b.cols, b.rows) for b in boards] if inverted else boards


def stats_aq(pi: Perm, k: int, ell: int) -> tuple[int, int]:
    """Cross-section statistics (a, q) at (k, ell).

    a counts rooks in the top-left k x ell rectangle; q in 1..4 codes the
    quadrant toward which the rooks on the k-th row and ell-th column point,
    and q = 5 means the single rook pi(k) = ell.
    """
    index = perm_index(pi)
    a, q = _stats_aq_all(len(pi), k, ell)
    return int(a[index]), int(q[index])


@lru_cache(maxsize=None)
def _stats_aq_all(n: int, k: int, ell: int) -> tuple[np.ndarray, np.ndarray]:
    """stats_aq of every permutation, in index order, as two read-only int8 arrays
    (int8 keeps the cache of all (k, ell) at n = 9 near 60 MB)."""
    perms = perm_array(n)
    if not (1 <= k <= n and 1 <= ell <= n):
        raise ValidationError(f"(k, ell)=({k}, {ell}) outside 1..{n}")
    a = (perms[:, :k] <= ell).sum(axis=1, dtype=np.int8)
    row_val = perms[:, k - 1]
    before = perms[inverse_index(n), ell - 1] < k  # column ell's rook lies above row k
    q = np.where(row_val > ell, np.where(before, 1, 4), np.where(before, 2, 3)).astype(np.int8)
    q[row_val == ell] = 5
    a.setflags(write=False)
    q.setflags(write=False)
    return a, q


def nontrivial_pairs(k: int, ell: int, n: int) -> list[tuple[int, int]]:
    """All (a, q) labels whose indicator vector at (k, ell) is non-zero."""
    if not (1 <= k <= n and 1 <= ell <= n):
        raise ValidationError(f"(k, ell)=({k}, {ell}) outside 1..{n}")
    out = []
    for a in range(max(0, k + ell - n), min(k, ell) + 1):
        allowed = {1, 2, 3, 4, 5}
        if a == 0:
            allowed &= {4}
        if a == 1:
            allowed &= {1, 3, 4, 5}
        if a == k and k < ell:
            allowed &= {2, 3, 5}
        if a == ell and ell < k:
            allowed &= {1, 2, 5}
        if a == k and k == ell:
            allowed &= {2, 5}
        out.extend((a, q) for q in sorted(allowed))
    return out


class BasisKind(Enum):
    RHO = "rho"
    NU = "nu"
    MU = "mu"


@dataclass(frozen=True)
class BasisVector:
    coords: np.ndarray
    kind: BasisKind
    k: int
    ell: int
    a: int
    idx: int | None


def basis_vector(kind: BasisKind, k: int, ell: int, a: int, idx: int | None, n: int) -> BasisVector:
    """One rho/nu/mu vector of length n! (integer coordinates).

    RHO needs idx = q in 1..5; MU needs idx in {1, 2}; NU ignores idx.
    """
    avals, qvals = _stats_aq_all(n, k, ell)
    if kind is BasisKind.RHO:
        if idx not in (1, 2, 3, 4, 5):
            raise ValidationError(f"rho needs q in 1..5, got {idx}")
        coords = ((avals == a) & (qvals == idx)).astype(np.int64)
    elif kind is BasisKind.NU:
        coords = (avals == a).astype(np.int64)
    elif kind is BasisKind.MU:
        rho = {q: ((avals == a) & (qvals == q)).astype(np.int64) for q in range(1, 6)}
        if idx == 1:
            coords = -rho[2] + (a - 1) * rho[5]
        elif idx == 2:
            coords = (
                -(ell - a) * a * rho[1]
                + (k - a) * (ell - a) * rho[2]
                - (k - a) * a * rho[3]
                + a * a * rho[4]
                + (k - a) * (ell - a) * rho[5]
            )
        else:
            raise ValidationError(f"mu needs idx in {{1, 2}}, got {idx}")
    else:
        raise ValidationError(f"unknown basis kind {kind}")
    return BasisVector(coords, kind, k, ell, a, idx)


def mu_vectors(k: int, ell: int, n: int) -> list[BasisVector]:
    """All non-zero mu vectors at (k, ell)."""
    out = []
    for a in range(max(0, k + ell - n), min(k, ell) + 1):
        for idx in (1, 2):
            v = basis_vector(BasisKind.MU, k, ell, a, idx, n)
            if v.coords.any():
                out.append(v)
    return out


def nu_basis_labels(n: int) -> list[tuple[int, int, int]]:
    """(k, ell, a) labels of the nu part of the indicator basis of H."""
    out = []
    for k in range(1, n):
        for ell in range(1, n):
            for a in range(max(0, k + ell - n) + 1, min(k, ell) + 1):
                out.append((k, ell, a))
    return out


def rho5_basis_labels(n: int) -> list[tuple[int, int, int]]:
    """(k, ell, a) labels of the rho_{a5} part of the indicator basis of H."""
    out = []
    for k in range(1, n):
        for ell in range(1, n):
            for a in range(max(1, k + ell - n) + 1, min(k, ell) + 1):
                out.append((k, ell, a))
    return out


def formula_dimension(kind: FamilyKind, n: int) -> int:
    """Closed-form number of free parameters of a family on S_n."""
    check_size(n)
    return FAMILIES[defining_family(kind)[0]].dim(n)


@lru_cache(maxsize=None)
def atom_labels(board: ProductPartition, n: int, level: int | None = None) -> tuple[np.ndarray, int]:
    """Atom index per permutation under pi -> |pi_B|, with atoms in lexicographic key order.

    The key is the block-count matrix read row-major as a mixed-radix integer
    (a cell in row atom R_i counts at most |R_i| rooks).  Before a digit could
    overflow int64, the key becomes its rank among the distinct keys, which
    keeps their order.  The labels are read-only and cached per board.

    With a level k whose bold section k + 1 refines the rows, every
    permutation through an edge S -> S + {x} of level k has the same block
    counts, so the labels are per edge instead, in ``lattice_levels`` order,
    each read off one permutation: sorted S, then x, then the rest sorted.
    """
    if board.n != n:
        raise SizeError(f"partition for n={board.n} applied to permutations of size {n}")
    if level is None:
        perms = perm_array(n)
    else:
        if not section_partition(SectionKind.BOLD, level + 1, n).refines(board.rows):
            raise ValidationError(f"rows {board.rows} do not read one edge of level {level}")
        key, source, _, bounds = lattice_levels(n)
        edges = slice(bounds[level], bounds[level + 1])
        group = np.where(prefix_members(n)[source[edges]], 0, 2)
        group[np.arange(len(group)), key[edges] % n] = 1
        perms = np.argsort(group * n + np.arange(n), axis=1) + 1
    size = len(perms)
    ncols = board.cols.size
    col_of = np.array([board.cols.atom_of(v) for v in range(1, n + 1)])
    rows = np.arange(size)[:, None] * ncols
    key = np.zeros(size, dtype=np.int64)
    span = 1  # key < span
    for atom in board.rows.atoms:
        cells = rows + col_of[perms[:, sorted(s - 1 for s in atom)] - 1]
        counts = np.bincount(cells.ravel(), minlength=size * ncols).reshape(size, ncols)
        radix = len(atom) + 1
        for j in range(ncols):
            if span * radix > 2**62:
                distinct, key = np.unique(key, return_inverse=True)
                span = len(distinct)
            key = key * radix + counts[:, j]
            span *= radix
    distinct, labels = np.unique(key, return_inverse=True)
    labels.setflags(write=False)
    return labels, len(distinct)


def indicator_columns(board: ProductPartition, n: int) -> np.ndarray:
    """0/1 matrix (n! rows) whose columns indicate the atoms of pi -> |pi_B|."""
    labels, natoms = atom_labels(board, n)
    cols = np.zeros((len(labels), natoms), dtype=np.int64)
    cols[np.arange(len(labels)), labels] = 1
    return cols


def span_matrix(boards: list[ProductPartition], n: int) -> np.ndarray:
    """Concatenated indicator columns of several generators."""
    return np.hstack([indicator_columns(b, n) for b in boards])


def rank_dimension(kind: FamilyKind, n: int) -> int:
    """Free parameters by exact rank of the generator indicator span (minus the constant)."""
    if n > RANK_MAX_N:
        raise SizeError(f"rank oracle capped at n={RANK_MAX_N}, got {n}")
    boards = generators(kind, n)
    if not boards:  # l_s, l_s' and bi_s at n = 1: the one-cell table alone
        return 0
    return exact_rank(span_matrix(boards, n)) - 1


def subspace_intersection_dim(k: int, ell: int, n: int) -> int:
    """Dimension of the orthogonal piece shared by the k-th row and ell-th column sections."""
    if not (2 <= k <= n and 2 <= ell <= n):
        raise ValidationError(f"(k, ell)=({k}, {ell}) outside 2..{n}")
    vecs = mu_vectors(k, ell, n)
    if not vecs:
        return 0
    return exact_rank(np.vstack([v.coords for v in vecs]))


@dataclass
class DimensionReport:
    family: FamilyKind
    n: int
    formula_dim: int
    rank_dim: int | None
    free_parameters: int

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "n": self.n,
            "formula_dim": self.formula_dim,
            "rank_dim": self.rank_dim,
            "free_parameters": self.free_parameters,
        }


def dimension_report(kind: FamilyKind, n: int, compute_rank: bool = True) -> DimensionReport:
    formula = formula_dimension(kind, n)
    rank = rank_dimension(kind, n) if compute_rank and n <= RANK_MAX_N else None
    return DimensionReport(kind, n, formula, rank, rank if rank is not None else formula)
