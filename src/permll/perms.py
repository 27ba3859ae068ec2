"""Permutations as arrays, partitions, product partitions, and dense tables over S_n.

S_n is one read-only ``(n!, n)`` array per n, ``perm_array(n)``: row i holds
the 1-based images of the i-th permutation in lexicographic order, and i is
the index of that permutation in every dense table; ``rank`` maps image rows
back to it.  Inverting or relabelling a table is one gather ``table[idx]`` by
``inverse_index`` or ``relabel_index``; chain statistics are bincounts over
``edge_keys``, which also index the chain weights of ``LambdaDecomposition``;
``lattice_levels`` lists those edges level by level.
A single permutation is a tuple of 1-based images (``Perm``);
``enumerate_permutations`` is the tuple view of ``perm_array``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, SizeError, ValidationError

Perm = tuple[int, ...]

DEFAULT_MAX_N = 9

NORMALIZATION_TOL = 1e-12
RENORMALIZE_TOL = 1e-9


def check_size(n: int) -> None:
    if not 1 <= n <= DEFAULT_MAX_N:
        raise SizeError(f"board size {n} outside 1..{DEFAULT_MAX_N}")


def check_permutation(image: Sequence[int]) -> Perm:
    """Validate a 1-based one-line image and return it as a tuple."""
    pi = tuple(int(v) for v in image)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValidationError(f"{pi} is not a permutation of 1..{len(pi)}")
    return pi


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


@lru_cache(maxsize=None)
def perm_array(n: int) -> np.ndarray:
    """All permutations of 1..n in lexicographic order: a read-only (n!, n) uint8 array."""
    check_size(n)
    if n == 1:
        arr = np.ones((1, 1), dtype=np.uint8)
    else:
        # rows starting with f: f, then the rows for n-1 with images >= f moved up
        prev = perm_array(n - 1)
        first = np.repeat(np.arange(1, n + 1, dtype=np.uint8), len(prev))[:, None]
        rest = np.tile(prev, (n, 1))
        rest += rest >= first
        arr = np.hstack([first, rest])
    arr.setflags(write=False)
    return arr


def rank(perms) -> np.ndarray:
    """Lexicographic index of each row of 1-based images: the Lehmer code
    (smaller images after position i, weighted by (n-1-i)!)."""
    perms = np.atleast_2d(np.asarray(perms))
    n = perms.shape[1]
    out = np.zeros(len(perms), dtype=np.int64)
    for i in range(n - 1):
        out += (perms[:, i + 1 :] < perms[:, i, None]).sum(axis=1) * math.factorial(n - 1 - i)
    return out


@lru_cache(maxsize=None)
def enumerate_permutations(n: int) -> tuple[Perm, ...]:
    """All permutations of 1..n in lexicographic order (length n!), as tuples."""
    return tuple(map(tuple, perm_array(n).tolist()))


def perm_index(pi: Sequence[int]) -> int:
    """Canonical (lexicographic) index of a permutation."""
    return int(rank(check_permutation(pi))[0])


@lru_cache(maxsize=None)
def inverse_index(n: int) -> np.ndarray:
    """Read-only idx with table_of_the_inverse = table[idx]."""
    idx = rank(np.argsort(perm_array(n), axis=1) + 1)
    idx.setflags(write=False)
    return idx


def relabel_index(n: int, sigma: Sequence[int], rho: Sequence[int]) -> np.ndarray:
    """idx with relabelled = table[idx], where relabelled(tau) = table(rho^-1 tau sigma)."""
    sigma = np.asarray(check_permutation(sigma))
    rho = np.asarray(check_permutation(rho))
    if len(sigma) != n or len(rho) != n:
        raise SizeError("relabelling permutations must match the table size")
    inv_rho = np.argsort(rho) + 1
    return rank(inv_rho[perm_array(n)[:, sigma - 1] - 1])


@lru_cache(maxsize=None)
def edge_keys(n: int) -> np.ndarray:
    """Read-only (n!, n) K with K[:, k] = bitmask(pi(1..k)) * n + pi(k+1) - 1.

    K[i, k] is step k of permutation i through the lattice of prefix sets (bit
    x-1 marks x).  Keys lie in range(n << n) and, as a mask's popcount is its
    level, keys of different levels never collide.
    """
    x = perm_array(n).astype(np.int64) - 1
    bits = np.left_shift(1, x)
    keys = (np.cumsum(bits, axis=1) - bits) * n + x
    keys.setflags(write=False)
    return keys


@lru_cache(maxsize=None)
def prefix_members(n: int) -> np.ndarray:
    """Read-only (2^n, n) bool M, true where x lies in the prefix set of the
    mask: the keys mask * n + x - 1 of edge_keys where M is true are no edges."""
    members = (np.arange(1 << n)[:, None] & (1 << np.arange(n))) != 0
    members.setflags(write=False)
    return members


@lru_cache(maxsize=None)
def lattice_levels(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The n * 2^(n-1) edges S -> S + {x} of the prefix-set lattice, by level |S|
    and then by key: read-only arrays (key as in edge_keys, source mask, target
    mask, bounds), with the edges of level k at bounds[k]:bounds[k + 1]."""
    members = prefix_members(n)
    key = np.flatnonzero(~members.ravel())
    source, x = np.divmod(key, n)
    level = members.sum(axis=1)[source]
    order = np.argsort(level, kind="stable")
    arrays = (key[order], source[order], source[order] | (1 << x[order]))
    bounds = np.searchsorted(level[order], np.arange(n + 1))
    for arr in arrays + (bounds,):
        arr.setflags(write=False)
    return arrays + (bounds,)


def inverse(pi: Sequence[int]) -> Perm:
    n = len(pi)
    out = [0] * n
    for i, v in enumerate(pi):
        out[v - 1] = i + 1
    return tuple(out)


def compose(pi: Sequence[int], sigma: Sequence[int]) -> Perm:
    """Composition (pi sigma)(i) = pi(sigma(i))."""
    if len(pi) != len(sigma):
        raise SizeError(f"cannot compose permutations of sizes {len(pi)} and {len(sigma)}")
    return tuple(pi[s - 1] for s in sigma)


class SetPartition:
    """Partition of {1..n} into disjoint non-empty atoms.

    Atoms are stored sorted by their minimum element, so two partitions are
    equal iff they are structurally equal.
    """

    __slots__ = ("atoms", "n", "_labels")

    def __init__(self, atoms: Iterable[Iterable[int]], n: int | None = None):
        cleaned = [frozenset(int(x) for x in atom) for atom in atoms]
        cleaned = [a for a in cleaned if a]
        cleaned.sort(key=min)
        covered = sorted(x for atom in cleaned for x in atom)
        if n is None:
            n = len(covered)
        if covered != list(range(1, n + 1)):
            raise ValidationError(f"atoms {cleaned} do not partition 1..{n}")
        self.atoms: tuple[frozenset[int], ...] = tuple(cleaned)
        self.n = n
        labels = [0] * n
        for idx, atom in enumerate(self.atoms):
            for x in atom:
                labels[x - 1] = idx
        self._labels = tuple(labels)

    @property
    def size(self) -> int:
        return len(self.atoms)

    def atom_of(self, x: int) -> int:
        """Index of the atom containing element x."""
        if not 1 <= x <= self.n:
            raise ValidationError(f"element {x} outside 1..{self.n}")
        return self._labels[x - 1]

    @classmethod
    def trivial(cls, n: int) -> "SetPartition":
        return cls([range(1, n + 1)])

    @classmethod
    def singletons(cls, n: int) -> "SetPartition":
        return cls([{i} for i in range(1, n + 1)])

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "SetPartition":
        """Parse the text form, e.g. ``"1,2|3,4,5"``."""
        try:
            atoms = [[int(tok) for tok in part.split(",")] for part in text.split("|")]
        except ValueError as exc:
            raise ParseError(f"bad partition text {text!r}") from exc
        return cls(atoms, n)

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in sorted(atom)) for atom in self.atoms)

    def __repr__(self) -> str:
        return f"SetPartition({self})"

    def __eq__(self, other) -> bool:
        return isinstance(other, SetPartition) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def refines(self, other: "SetPartition") -> bool:
        return all(any(atom <= w for w in other.atoms) for atom in self.atoms)


@dataclass(frozen=True)
class ConsecutiveSections:
    """Strictly increasing sections 0 < k_1 < ... < k_j < n cutting 1..n into intervals."""

    sections: tuple[int, ...]

    def __post_init__(self):
        secs = tuple(int(k) for k in self.sections)
        object.__setattr__(self, "sections", secs)
        if any(b <= a for a, b in zip(secs, secs[1:])) or (secs and secs[0] < 1):
            raise ValidationError(f"sections {secs} not strictly increasing positive")

    def partition(self, n: int) -> SetPartition:
        return SetPartition(self.blocks(n), n)

    def blocks(self, n: int) -> tuple[tuple[int, ...], ...]:
        """The intervals as ordered position tuples."""
        cuts = (0,) + self.sections + (n,)
        if self.sections and self.sections[-1] >= n:
            raise ValidationError(f"sections {self.sections} invalid for n={n}")
        return tuple(tuple(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:]))


def all_consecutive_sections(n: int) -> list[ConsecutiveSections]:
    """Every non-trivial set of sections for board size n (2^(n-1) - 1 of them)."""
    out = []
    for r in range(1, n):
        for secs in itertools.combinations(range(1, n), r):
            out.append(ConsecutiveSections(secs))
    return out


@dataclass(frozen=True)
class ProductPartition:
    """Row-partition x column-partition of the n x n board."""

    rows: SetPartition
    cols: SetPartition

    def __post_init__(self):
        if self.rows.n != self.cols.n:
            raise SizeError(
                f"row partition on 1..{self.rows.n} vs column partition on 1..{self.cols.n}"
            )

    @property
    def n(self) -> int:
        return self.rows.n

    def __str__(self) -> str:
        return f"{self.rows} x {self.cols}"


class DistributionTable:
    """Dense probability table over S_n, indexed lexicographically.

    Construction renormalizes when the total deviates from 1 by at most 1e-9
    and rejects larger deviations.
    """

    __slots__ = ("n", "probs")

    def __init__(self, n: int, probs):
        check_size(n)
        arr = np.asarray(probs, dtype=np.float64).copy()
        if arr.shape != (math.factorial(n),):
            raise SizeError(f"expected {math.factorial(n)} probabilities, got shape {arr.shape}")
        if arr.min() < -NORMALIZATION_TOL:
            raise ValidationError(f"negative probability {arr.min()}")
        arr[arr < 0.0] = 0.0
        dev = abs(arr.sum() - 1.0)
        if dev > RENORMALIZE_TOL:
            raise ValidationError(f"probabilities sum to {arr.sum()}, off by {dev}")
        if dev > NORMALIZATION_TOL:
            arr = arr / arr.sum()
        arr.setflags(write=False)
        self.n = n
        self.probs = arr

    @classmethod
    def _from_valid(cls, n: int, arr: np.ndarray) -> "DistributionTable":
        """Internal constructor for pure reindexings of an already-valid table."""
        obj = object.__new__(cls)
        arr = np.asarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        obj.n = n
        obj.probs = arr
        return obj

    @classmethod
    def uniform(cls, n: int) -> "DistributionTable":
        size = math.factorial(n)
        return cls(n, np.full(size, 1.0 / size))

    @classmethod
    def point_mass(cls, pi: Sequence[int]) -> "DistributionTable":
        pi = check_permutation(pi)
        arr = np.zeros(math.factorial(len(pi)))
        arr[perm_index(pi)] = 1.0
        return cls(len(pi), arr)

    def prob(self, pi: Sequence[int]) -> float:
        return float(self.probs[perm_index(pi)])

    def __len__(self) -> int:
        return len(self.probs)

    def __repr__(self) -> str:
        return f"DistributionTable(n={self.n})"


def relabel_distribution(
    p: DistributionTable, sigma: Sequence[int], rho: Sequence[int]
) -> DistributionTable:
    """Push p through the relabelling (sigma, rho): result(tau) = p(rho^-1 tau sigma)."""
    return DistributionTable._from_valid(p.n, p.probs[relabel_index(p.n, sigma, rho)])
