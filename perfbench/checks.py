"""Output checks that do not rely on the program under test.

Each check takes a parsed ``--json`` report plus the inputs the benchmark
wrote, recomputes what it can with the benchmark's own numpy code, and returns
a list of problems (empty when the output is correct).
"""

from __future__ import annotations

import math

import numpy as np

from inputs import inverse_index, perm_array, relabel_index

CHECK_TOL = 1e-9  # the CLI's default --tol for `check`
FIT_TOL = 1e-9  # the CLI's default --tol (marginal gap) for `fit`
FAMILIES = ("l", "l'", "l_s", "l_s'", "bi", "bi_s")

# Verdicts of `check` on exact classic tables (true = decomposable).
EXPECTED_VERDICTS = {
    "mbt": {"l": True, "l'": True, "l_s": False, "l_s'": False, "bi": True, "bi_s": False},
    "luce": {"l": True, "l'": False, "l_s": False, "l_s'": False, "bi": False, "bi_s": False},
    "quasi-independence": {
        "l": True, "l'": True, "l_s": False, "l_s'": False, "bi": True, "bi_s": False,
    },
}

# Relative agreement required between a reported log-likelihood and the
# benchmark's own value: closed forms agree to rounding, IPFP fits to the
# convergence of two independent iterations.
EXACT_RTOL = 1e-10
IPFP_RTOL = 1e-9


def closed_form_dimension(family: str, n: int) -> int:
    """Free parameters of each family, from the paper's closed forms."""
    if family in ("l", "l'"):
        return 2 ** (n - 1) * (n - 2) + 1
    if family in ("l_s", "l_s'"):
        return 2**n - n - 1
    if family == "bi":
        return sum(i * i for i in range(1, n))
    if family == "bi_s":
        return sum((n - 2 * j - 1) ** 2 for j in range((n - 1) // 2 + 1))
    if family == "qi":
        return (n - 1) ** 2
    raise ValueError(f"no closed form for {family!r}")


# ---- independent fits -------------------------------------------------------


def chain_table(weights: np.ndarray, n: int) -> np.ndarray:
    """Closed-form L MLE: prod_k P(next = x | set of the first k images)."""
    perms = perm_array(n)
    bits = np.left_shift(1, perms - 1)
    prefix = np.cumsum(bits, axis=1) - bits
    keys = prefix * n + (perms - 1)
    w = np.repeat(weights, n)
    joint = np.bincount(keys.ravel(), weights=w, minlength=(1 << n) * n)
    mass = np.bincount(prefix.ravel(), weights=w, minlength=1 << n)
    num, den = joint[keys], mass[prefix]
    lam = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return lam.prod(axis=1)


def loglik(counts: np.ndarray, probs: np.ndarray) -> float:
    mask = counts > 0
    with np.errstate(divide="ignore"):
        return float(np.dot(counts[mask], np.log(probs[mask])))


def l_loglik(counts: np.ndarray, n: int, primed: bool = False) -> float:
    if primed:
        counts = counts[inverse_index(n)]
    return loglik(counts, chain_table(counts / counts.sum(), n))


def saturated_loglik(counts: np.ndarray) -> float:
    return loglik(counts, counts / counts.sum())


def _bold(k: int, n: int) -> np.ndarray:
    x = np.arange(1, n + 1)
    return np.where(x < k, 0, np.where(x == k, 1, 2))


def _thin(k: int, n: int) -> np.ndarray:
    return (np.arange(1, n + 1) > k).astype(np.int64)


def generator_boards(family: str, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(row atom of each position, column atom of each value) per generator."""
    full = np.arange(n)
    if family == "bi":
        return [(_bold(k, n), _bold(e, n)) for k in range(1, n + 1) for e in range(1, n + 1)]
    if family == "bi_s":
        return [(_thin(k, n), _thin(e, n)) for k in range(1, n) for e in range(1, n)]
    if family == "qi":
        return [((np.arange(1, n + 1) != i).astype(np.int64), full) for i in range(1, n + 1)]
    raise ValueError(f"no generators for {family!r}")


def board_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Atom index of each permutation under pi -> block-count matrix."""
    perms = perm_array(n)
    ncols = int(cols.max()) + 1
    onehot = np.zeros((len(perms), (int(rows.max()) + 1) * ncols), dtype=np.int64)
    idx = np.arange(len(perms))
    for s in range(n):
        onehot[idx, rows[s] * ncols + cols[perms[:, s] - 1]] += 1
    return np.unique(onehot, axis=0, return_inverse=True)[1].ravel()


def ipfp_loglik(counts: np.ndarray, family: str, n: int, gap_tol: float = 1e-12) -> float:
    """Log-likelihood of the family's MLE by plain IPFP from the uniform table."""
    labels = [board_labels(r, c, n) for r, c in generator_boards(family, n)]
    r = counts / counts.sum()
    targets = [np.bincount(lab, weights=r) for lab in labels]
    p = np.full(len(r), 1.0 / len(r))
    for _ in range(100_000):
        for lab, target in zip(labels, targets):
            cur = np.bincount(lab, weights=p, minlength=len(target))
            p = p * np.divide(target, cur, out=np.zeros_like(cur), where=cur > 0)[lab]
        gap = max(
            0.5 * np.abs(np.bincount(lab, weights=p, minlength=len(t)) - t).sum()
            for lab, t in zip(labels, targets)
        )
        if gap <= gap_tol:
            break
    return loglik(counts, p)


def _close(reported, expected: float, rtol: float) -> bool:
    return (
        isinstance(reported, (int, float))
        and math.isfinite(reported)
        and abs(reported - expected) <= rtol * max(1.0, abs(expected))
    )


# ---- per-command checks -----------------------------------------------------


def check_fit(doc: dict, family: str, n: int, counts: np.ndarray, max_cycles: int) -> list[str]:
    """Fields, df against the closed form, convergence, and the L/L'
    closed-form log-likelihood.  A fit that stops at max_cycles above the
    marginal tolerance may report converged: false."""
    problems = []
    if doc.get("family") != family or doc.get("n") != n:
        problems.append(f"fit reports family={doc.get('family')!r} n={doc.get('n')}")
    want_df = math.factorial(n) - 1 - closed_form_dimension(family, n)
    if doc.get("df") != want_df:
        problems.append(f"{family}: df {doc.get('df')} != {want_df}")
    gap, converged = doc.get("max_marginal_gap"), doc.get("converged")
    if not isinstance(gap, (int, float)) or converged is not (gap <= FIT_TOL):
        problems.append(f"{family}: converged={converged!r} with marginal gap {gap!r}")
    elif not converged and doc.get("cycles") != max_cycles:
        problems.append(f"{family}: stopped after {doc.get('cycles')} of {max_cycles} cycles")
    ll = doc.get("log_likelihood")
    if family in ("l", "l'"):
        want = l_loglik(counts, n, primed=family == "l'")
        if not _close(ll, want, EXACT_RTOL):
            problems.append(f"{family}: log-likelihood {ll!r} != closed form {want!r}")
    elif not (isinstance(ll, (int, float)) and math.isfinite(ll)):
        problems.append(f"{family}: log-likelihood {ll!r} is not finite")
    return problems


def check_fit_nesting(fits: dict[str, tuple[float, bool]], counts: np.ndarray) -> list[str]:
    """Nested families order the maximized log-likelihood:
    bi_s <= bi <= min(l, l') <= saturated, l_s <= l, and qi <= bi.
    {family: (log-likelihood, converged)}; a pair is compared only when the
    larger family's fit converged, since IPFP approaches its maximum from below."""
    sat = saturated_loglik(counts)
    slack = IPFP_RTOL * max(1.0, abs(sat))
    pairs = [("bi_s", "bi"), ("bi", "l"), ("bi", "l'"), ("l_s", "l"), ("qi", "bi")]
    problems = []
    for small, big in pairs:
        if small in fits and big in fits and fits[big][1] and fits[small][0] > fits[big][0] + slack:
            problems.append(f"nesting: {small} {fits[small][0]!r} > {big} {fits[big][0]!r}")
    for fam, (ll, _) in fits.items():
        if ll > sat + slack:
            problems.append(f"nesting: {fam} {ll!r} > saturated {sat!r}")
    return problems


def check_check(doc: dict, n: int, expected: dict | None, table: np.ndarray | None) -> list[str]:
    """Verdict table on exact specs; on data, L/L' round trips recomputed here."""
    fams = doc.get("families", {})
    if sorted(fams) != sorted(FAMILIES) or doc.get("tolerance") != CHECK_TOL:
        return [f"check report has families {sorted(fams)} tolerance {doc.get('tolerance')}"]
    v = {f: fams[f].get("verdict") for f in FAMILIES}
    viol = {f: fams[f].get("max_violation") for f in FAMILIES}
    problems = []
    for f in FAMILIES:
        if not isinstance(v[f], bool) or not (isinstance(viol[f], float) and viol[f] >= 0):
            problems.append(f"{f}: bad entry {fams[f]}")
        elif v[f] != (viol[f] <= CHECK_TOL):
            problems.append(f"{f}: verdict {v[f]} disagrees with violation {viol[f]}")
    if problems:
        return problems
    implied = {
        "bi": v["l"] and v["l'"],
        "bi_s": v["l_s"] and v["l_s'"],
    }
    for f, want in implied.items():
        if v[f] != want:
            problems.append(f"{f}: verdict {v[f]} not implied by its parts ({want})")
    if (v["l_s"] and not v["l"]) or (v["l_s'"] and not v["l'"]):
        problems.append("an L_S verdict holds without its L verdict")
    if expected is not None:
        for f in FAMILIES:
            if v[f] != expected[f]:
                problems.append(f"{f}: verdict {v[f]}, expected {expected[f]}")
    if table is not None:
        for f, t in (("l", table), ("l'", table[inverse_index(n)])):
            rt = float(np.abs(t - chain_table(t, n)).max())
            if rt > CHECK_TOL and (v[f] or viol[f] < rt * (1 - 1e-6)):
                problems.append(f"{f}: round trip {rt:.3e} but report says {fams[f]}")
    return problems


def check_search(doc: dict, family: str, n: int, counts: np.ndarray) -> list[str]:
    """A valid right-side relabelling whose fit recomputes here and beats identity."""
    if doc.get("family") != family or doc.get("n") != n or "relabelling" not in doc:
        return [f"search reports family={doc.get('family')!r} n={doc.get('n')} without relabelling"]
    sigma, rho = doc["relabelling"].get("sigma"), doc["relabelling"].get("rho")
    ident = list(range(1, n + 1))
    if not isinstance(sigma, list) or sorted(sigma) != ident or rho != ident:
        return [f"invalid right-side relabelling sigma={sigma} rho={rho}"]

    def fitted(c):
        if family == "l":
            return l_loglik(c, n), EXACT_RTOL
        return ipfp_loglik(c, family, n), IPFP_RTOL

    best, rtol = fitted(counts[relabel_index(n, sigma, rho)])
    base, _ = fitted(counts)
    ll = doc.get("log_likelihood")
    problems = []
    if not _close(ll, best, rtol):
        problems.append(f"{family}: log-likelihood {ll!r} != recomputed {best!r}")
    if best < base - rtol * max(1.0, abs(base)):
        problems.append(f"{family}: relabelling loses to identity ({best!r} < {base!r})")
    return problems
