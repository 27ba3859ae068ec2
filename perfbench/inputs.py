"""Seeded inputs for the benchmark: classic-model spec files and counts files.

Everything here is the benchmark's own numpy code.  Model laws and draws do not
go through ``permll``, so a change to the program under test (its sampler, its
model constructors) cannot change the workload inputs.  The same seed always
writes byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def perm_array(n: int) -> np.ndarray:
    """All permutations of 1..n in lexicographic order, shape (n!, n)."""
    arr = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def lex_rank(perms: np.ndarray) -> np.ndarray:
    """Lexicographic index of each row (1-based images) via the factorial number system."""
    perms = np.atleast_2d(perms)
    n = perms.shape[1]
    rank = np.zeros(len(perms), dtype=np.int64)
    for i in range(n):
        smaller_later = (perms[:, i + 1 :] < perms[:, i : i + 1]).sum(axis=1)
        rank += smaller_later * math.factorial(n - 1 - i)
    return rank


def inverse_index(n: int) -> np.ndarray:
    """idx such that table_of_inverse = table[idx]."""
    perms = perm_array(n)
    inv = np.empty_like(perms)
    rows = np.arange(len(perms))[:, None]
    inv[rows, perms - 1] = np.arange(1, n + 1)
    return lex_rank(inv)


def relabel_index(n: int, sigma, rho) -> np.ndarray:
    """idx such that relabelled(tau) = table(rho^-1 tau sigma) is table[idx]."""
    perms = perm_array(n)
    sigma = np.asarray(sigma, dtype=np.int64)
    inv_rho = np.empty(n, dtype=np.int64)
    inv_rho[np.asarray(rho, dtype=np.int64) - 1] = np.arange(1, n + 1)
    return lex_rank(inv_rho[perms[:, sigma - 1] - 1])


# ---- classic laws, written out from their weight formulas ------------------


def mbt_law(alpha: np.ndarray) -> np.ndarray:
    """p(pi) proportional to prod_pos alpha[pi(pos)] ** (n - pos - 1)."""
    perms = perm_array(len(alpha))
    n = len(alpha)
    w = np.prod(alpha[perms - 1] ** (n - 1 - np.arange(n)), axis=1)
    return w / w.sum()


def luce_law(theta: np.ndarray) -> np.ndarray:
    """p(pi) = prod_k theta[pi(k)] / sum_{j >= k} theta[pi(j)]."""
    t = theta[perm_array(len(theta)) - 1]
    tails = np.cumsum(t[:, ::-1], axis=1)[:, ::-1]
    p = np.prod(t / tails, axis=1)
    return p / p.sum()


def qi_law(theta: np.ndarray) -> np.ndarray:
    """p(pi) proportional to prod_pos theta[pos, pi(pos)]."""
    n = len(theta)
    w = np.prod(theta[np.arange(n), perm_array(n) - 1], axis=1)
    return w / w.sum()


def _doubly_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    mat = rng.uniform(0.5, 2.0, size=(n, n))
    for _ in range(10_000):
        mat /= mat.sum(axis=1, keepdims=True)
        mat /= mat.sum(axis=0, keepdims=True)
        if np.abs(mat.sum(axis=1) - 1.0).max() < 1e-14:
            break
    return mat


# ---- datasets ---------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """A counts file drawn from a classic law, optionally relabelled."""

    name: str
    law: str  # "mbt" or "luce"
    n: int
    m: int
    relabel: bool = False


@dataclass(frozen=True)
class Spec:
    """An exact classic-model parameter file."""

    name: str
    kind: str  # "mbt", "luce" or "quasi-independence"
    n: int


# Stable per-input stream keys: adding an input never changes another's draws.
_STREAM = {"mbt": 1, "luce": 2, "quasi-independence": 3, "dataset": 4}


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def spec_params(kind: str, n: int, seed: int) -> dict:
    rng = _rng(seed, _STREAM[kind], n)
    if kind == "mbt":
        return {"alpha": sorted(rng.uniform(1.0, 3.0, n).tolist(), reverse=True)}
    if kind == "luce":
        theta = np.sort(rng.uniform(1.0, 4.0, n))[::-1]
        return {"theta": (theta / theta.sum()).tolist()}
    if kind == "quasi-independence":
        return {"theta": _doubly_stochastic(rng, n).tolist()}
    raise ValueError(f"unknown spec kind {kind!r}")


def law_probs(kind: str, n: int, params: dict) -> np.ndarray:
    if kind == "mbt":
        return mbt_law(np.asarray(params["alpha"], dtype=float))
    if kind == "luce":
        return luce_law(np.asarray(params["theta"], dtype=float))
    if kind == "quasi-independence":
        return qi_law(np.asarray(params["theta"], dtype=float))
    raise ValueError(f"unknown law {kind!r}")


def draw_counts(ds: Dataset, seed: int) -> np.ndarray:
    """Multinomial counts over S_n, optionally with positions relabelled by a seeded sigma."""
    rng = _rng(seed, _STREAM["dataset"], zlib.crc32(ds.name.encode()))
    probs = law_probs(ds.law, ds.n, spec_params(ds.law, ds.n, seed))
    counts = rng.multinomial(ds.m, probs).astype(np.int64)
    if ds.relabel:
        sigma = rng.permutation(ds.n) + 1
        counts = counts[relabel_index(ds.n, sigma, np.arange(1, ds.n + 1))]
    return counts


def counts_text(n: int, counts: np.ndarray) -> str:
    perms = perm_array(n)
    lines = [f"n={n}"]
    for idx in np.flatnonzero(counts):
        lines.append(" ".join(map(str, perms[idx])) + f",{counts[idx]}")
    return "\n".join(lines) + "\n"


def write_inputs(directory: str, seed: int, specs, datasets) -> dict:
    """Write every spec and dataset; return {name: path} plus counts and support."""
    os.makedirs(directory, exist_ok=True)
    out = {"paths": {}, "counts": {}, "support": {}}
    for spec in specs:
        path = os.path.join(directory, f"{spec.name}.json")
        doc = {"kind": spec.kind, "n": spec.n, "params": spec_params(spec.kind, spec.n, seed)}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh)
        out["paths"][spec.name] = path
    for ds in datasets:
        counts = draw_counts(ds, seed)
        path = os.path.join(directory, f"{ds.name}.counts")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(counts_text(ds.n, counts))
        out["paths"][ds.name] = path
        out["counts"][ds.name] = counts
        out["support"][ds.name] = np.count_nonzero(counts) / math.factorial(ds.n)
    return out
