import math
import warnings

import numpy as np
import oracles
import pytest

from permll import (
    ClassicKind,
    ClassicSpec,
    DistributionTable,
    EmpiricalData,
    FamilyKind,
    FitOptions,
    GeneratorFamily,
    SearchSide,
    classic_distribution,
    compose,
    empirical,
    enumerate_permutations,
    explicit_L_mle,
    fit_family,
    gof_report,
    identity,
    inverse,
    ipfp_fit,
    is_decomposable,
    perm_index,
    right_invariance_group,
    sample,
    search_relabelling,
)
from permll.errors import SizeError, SupportMismatchError, ValidationError
from permll.fit import _IGNORED_SIDES
from permll.perms import relabel_index
from permll.subspaces import generators, span_matrix


def random_counts(n, seed, m=2000):
    rng = np.random.default_rng(seed)
    size = math.factorial(n)
    counts = rng.multinomial(m, rng.dirichlet(np.ones(size)))
    return EmpiricalData(n, counts)


class TestEmpirical:
    def test_relative_frequencies(self):
        data = EmpiricalData.from_dict(2, {(1, 2): 3, (2, 1): 1})
        r = empirical(data)
        assert r.probs.tolist() == [0.75, 0.25]
        assert data.m == 4

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValidationError):
            EmpiricalData(2, np.zeros(2, dtype=np.int64))
        with pytest.raises(ValidationError):
            EmpiricalData(2, np.array([3, -1]))

    def test_options_validation(self):
        with pytest.raises(ValidationError):
            FitOptions(max_cycles=0)
        with pytest.raises(ValidationError):
            FitOptions(marginal_tol=0.0)


class TestIpfp:
    def test_uniform_fixed_point(self):
        r = DistributionTable.uniform(4)
        rep = ipfp_fit(GeneratorFamily(FamilyKind.BI, 4), r)
        assert rep.converged and rep.cycles_used == 1
        assert np.abs(rep.fitted.probs - r.probs).max() < 1e-15

    def test_saturated_returns_input(self):
        r = empirical(random_counts(4, 0))
        rep = ipfp_fit(GeneratorFamily(FamilyKind.SATURATED, 4), r)
        assert np.abs(rep.fitted.probs - r.probs).max() < 1e-12

    def test_likelihood_monotone(self):
        r = empirical(random_counts(4, 1))
        rep = ipfp_fit(GeneratorFamily(FamilyKind.BI, 4), r)
        trace = np.array(rep.loglik_trace)
        assert (np.diff(trace) >= -1e-10).all()

    def test_marginal_fixed_point(self):
        from permll.subspaces import atom_labels

        r = empirical(random_counts(4, 2))
        family = GeneratorFamily(FamilyKind.L, 4)
        rep = ipfp_fit(family, r)
        assert rep.converged
        for board in generators(family):
            labels, natoms = atom_labels(board, 4)
            emp = np.bincount(labels, weights=r.probs, minlength=natoms)
            fit = np.bincount(labels, weights=rep.fitted.probs, minlength=natoms)
            assert 0.5 * np.abs(emp - fit).sum() <= 1e-9

    def test_exact_bi_input_is_fixed_point(self):
        p = classic_distribution(
            ClassicSpec(ClassicKind.MBT, {"alpha": [0.4, 0.3, 0.2, 0.1]}), 4
        )
        rep = ipfp_fit(GeneratorFamily(FamilyKind.BI, 4), p)
        assert np.abs(rep.fitted.probs - p.probs).max() < 1e-9

    def test_structural_zeros_stay_zero(self):
        counts = np.zeros(24, dtype=np.int64)
        counts[0] = 5
        counts[7] = 5
        r = empirical(EmpiricalData(4, counts))
        rep = ipfp_fit(GeneratorFamily(FamilyKind.SATURATED, 4), r)
        assert rep.fitted.probs[1] == 0.0

    def test_log_fitted_in_generator_span(self):
        r = empirical(random_counts(4, 3))
        family = GeneratorFamily(FamilyKind.BI, 4)
        rep = ipfp_fit(family, r)
        logs = np.log(rep.fitted.probs)
        span = span_matrix(generators(family), 4).astype(float)
        resid = logs - span @ np.linalg.lstsq(span, logs, rcond=None)[0]
        assert np.abs(resid).max() < 1e-6

    def test_size_mismatch(self):
        with pytest.raises(SizeError):
            ipfp_fit(GeneratorFamily(FamilyKind.L, 3), DistributionTable.uniform(4))


class TestExplicit:
    def test_idempotent(self):
        r = empirical(random_counts(4, 4))
        once = explicit_L_mle(r).fitted
        twice = explicit_L_mle(once).fitted
        assert np.abs(once.probs - twice.probs).max() < 1e-15

    def test_l_decomposable_input_unchanged(self):
        p = classic_distribution(
            ClassicSpec(ClassicKind.LUCE, {"theta": [0.4, 0.3, 0.2, 0.1]}), 4
        )
        rep = explicit_L_mle(p)
        assert np.abs(rep.fitted.probs - p.probs).max() < 1e-12

    def test_matches_ipfp_likelihood(self):
        for seed in range(20):
            r = empirical(random_counts(4, 100 + seed, m=500))
            a = explicit_L_mle(r)
            b = ipfp_fit(GeneratorFamily(FamilyKind.L, 4), r)
            assert abs(a.log_likelihood - b.log_likelihood) <= 1e-6

    def test_primed_is_inverse_conjugation(self):
        from permll import inverse_distribution, markovianize

        r = empirical(random_counts(4, 5))
        rep = explicit_L_mle(r, primed=True)
        expect = inverse_distribution(markovianize(inverse_distribution(r)))
        assert (rep.fitted.probs == expect.probs).all()


class TestAlternating:
    def test_agrees_with_ipfp_bi(self):
        r = empirical(random_counts(4, 6))
        a = oracles.alternating_fit(r)
        b = ipfp_fit(GeneratorFamily(FamilyKind.BI, 4), r)
        assert abs(a.log_likelihood - b.log_likelihood) <= 1e-4

    def test_bi_input_is_fixed_point(self):
        p = classic_distribution(
            ClassicSpec(ClassicKind.MBT, {"alpha": [0.4, 0.3, 0.2, 0.1]}), 4
        )
        rep = oracles.alternating_fit(p)
        assert np.abs(rep.fitted.probs - p.probs).max() < 1e-9


class TestGof:
    def test_df_table_n5(self):
        # nominal df for the seven fitted families at n=5
        expect = {
            FamilyKind.L: 70,
            FamilyKind.L_PRIME: 70,
            FamilyKind.L_S: 93,
            FamilyKind.L_S_PRIME: 93,
            FamilyKind.BI: 89,
            FamilyKind.BI_S: 99,
            FamilyKind.UNIFORM: 119,
        }
        data = random_counts(5, 7, m=10000)
        fitted = DistributionTable.uniform(5)
        for kind, df in expect.items():
            rep = gof_report(fitted, data, GeneratorFamily(kind, 5))
            assert rep.df == df
            if rep.df > 0:
                assert rep.u_statistic == pytest.approx(
                    (rep.gof_chi_square - rep.df) / math.sqrt(rep.df)
                )

    def test_quasi_independence_df_past_the_rank_cap(self):
        # QI's df comes from its closed form, so it needs no rank oracle at n = 8
        data = random_counts(8, 9, m=500)
        family = GeneratorFamily(FamilyKind.QUASI_INDEPENDENCE, 8)
        assert gof_report(DistributionTable.uniform(8), data, family).df == 40319 - 49

    def test_support_mismatch(self):
        data = EmpiricalData.from_dict(3, {(1, 2, 3): 5, (3, 2, 1): 5})
        fitted = DistributionTable.point_mass((1, 2, 3))
        with pytest.raises(SupportMismatchError):
            gof_report(fitted, data, GeneratorFamily(FamilyKind.SATURATED, 3))

    def test_saturated_df_zero_and_no_u(self):
        data = random_counts(3, 8, m=60000)
        rep = fit_family(GeneratorFamily(FamilyKind.SATURATED, 3), data)
        assert rep.df == 0 and rep.u_statistic is None
        assert rep.gof_chi_square == pytest.approx(0.0, abs=1e-9)

    def test_counts_loglikelihood(self):
        data = EmpiricalData.from_dict(2, {(1, 2): 3, (2, 1): 1})
        fitted = DistributionTable(2, np.array([0.75, 0.25]))
        rep = gof_report(fitted, data, GeneratorFamily(FamilyKind.SATURATED, 2))
        assert rep.log_likelihood == pytest.approx(3 * math.log(0.75) + math.log(0.25))

    def test_report_json_keys(self):
        data = random_counts(3, 9, m=60000)
        rep = fit_family(GeneratorFamily(FamilyKind.L, 3), data)
        doc = rep.to_json()
        assert set(doc) == {
            "family", "n", "log_likelihood", "gof", "df", "u",
            "cycles", "converged", "max_marginal_gap",
        }


class TestRelabelling:
    def test_group_has_eight_elements(self):
        for n in (4, 5):
            group = right_invariance_group(n)
            assert len(group) == 8
            assert identity(n) in group
            assert tuple(range(n, 0, -1)) in group

    def test_uniform_data_returns_identity(self):
        counts = np.full(24, 10, dtype=np.int64)
        data = EmpiricalData(4, counts)
        sigma, rho, _ = search_relabelling(
            data, GeneratorFamily(FamilyKind.L, 4), SearchSide.BOTH
        )
        assert sigma == identity(4) and rho == identity(4)

    def test_l_data_found_in_group_orbit(self):
        # multistage model with rational stage weights: exact integer counts
        theta = [
            [8 / 16, 4 / 16, 3 / 16, 1 / 16],
            [4 / 8, 3 / 8, 1 / 8],
            [3 / 4, 1 / 4],
            [1.0],
        ]
        p = classic_distribution(ClassicSpec(ClassicKind.MULTISTAGE, {"theta": theta}), 4)
        counts = np.rint(p.probs * 512).astype(np.int64)
        assert counts.sum() == 512
        data = EmpiricalData(4, counts)
        sigma, rho, rep = search_relabelling(
            data, GeneratorFamily(FamilyKind.L, 4), SearchSide.BOTH
        )
        assert rho == identity(4)
        assert sigma in right_invariance_group(4)

    def test_exact_ties_go_to_the_identity(self):
        # integer-weight mbt: counts proportional to the exact distribution.
        # MBT lies in QI, which every relabelling preserves, so all 576 pairs
        # fit BI exactly and the smallest pair, the identity on both sides, wins.
        perms = enumerate_permutations(4)
        alpha = [4, 3, 2, 1]
        counts = np.array(
            [
                int(np.prod([alpha[x - 1] ** (4 - pos - 1) for pos, x in enumerate(pi)]))
                for pi in perms
            ],
            dtype=np.int64,
        )
        data = EmpiricalData(4, counts)
        sigma0, rho0 = (3, 1, 4, 2), (2, 4, 1, 3)
        scrambled = np.empty_like(counts)
        for t, tau in enumerate(perms):
            scrambled[t] = counts[
                perm_index(compose(compose(inverse(rho0), tau), sigma0))
            ]
        sdata = EmpiricalData(4, scrambled)
        family = GeneratorFamily(FamilyKind.BI, 4)
        sigma, rho, rep = search_relabelling(sdata, family, SearchSide.BOTH)
        assert sigma == identity(4) and rho == identity(4)
        base = fit_family(family, data)
        assert rep.log_likelihood == pytest.approx(base.log_likelihood, abs=1e-6)

    def test_large_counts_tie_relative_to_the_log_likelihood(self):
        # a scrambled integer-weight MBT at n = 5 lies in QI, inside L and L',
        # so every sigma (and rho) fits exactly.  With m = 8.5e6 the summed
        # edge weights of the 15 candidates differ by rounding of about
        # 1e-7, above an absolute 1e-9 but far below 1e-9 * |log-likelihood|.
        perms = enumerate_permutations(5)
        alpha = [5, 4, 3, 2, 1]
        counts = np.array(
            [int(np.prod([alpha[x - 1] ** (4 - pos) for pos, x in enumerate(pi)])) for pi in perms],
            dtype=np.int64,
        )
        data = EmpiricalData(5, counts[relabel_index(5, (3, 1, 4, 5, 2), (2, 4, 1, 5, 3))])
        for kind in (FamilyKind.L, FamilyKind.L_PRIME):
            sigma, rho, _ = search_relabelling(data, GeneratorFamily(kind, 5), SearchSide.BOTH)
            assert sigma == rho == identity(5), kind

    def test_two_sided_ties_go_to_the_smaller_sigma(self):
        # data equal to their inverse fit BI equally under (sigma, rho) and
        # (rho, sigma); this sample's best pair has sigma != rho
        rng = np.random.default_rng(0)
        counts = rng.multinomial(2000, rng.dirichlet(np.ones(24)))
        inverted = [perm_index(inverse(pi)) for pi in enumerate_permutations(4)]
        data = EmpiricalData(4, counts + counts[inverted])
        family = GeneratorFamily(FamilyKind.BI, 4)
        sigma, rho, rep = search_relabelling(data, family, SearchSide.BOTH)
        assert sigma < rho
        mirrored = EmpiricalData(4, data.counts[relabel_index(4, rho, sigma)])
        assert fit_family(family, mirrored).log_likelihood == pytest.approx(rep.log_likelihood, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scrambled_bi_member_recovered_up_to_invariance(self, seed):
        # a generic BI member: the BI projection of a Dirichlet table
        family = GeneratorFamily(FamilyKind.BI, 4)
        rng = np.random.default_rng(seed)
        p = ipfp_fit(family, DistributionTable(4, rng.dirichlet(np.ones(24)))).fitted
        counts = np.rint(p.probs * 1e6).astype(np.int64)
        sigma0, rho0 = (3, 1, 4, 2), (2, 4, 1, 3)
        sdata = EmpiricalData(4, counts[relabel_index(4, sigma0, rho0)])
        sigma, rho, rep = search_relabelling(sdata, family, SearchSide.BOTH)
        # undoing the found relabelling must land in the invariance orbit:
        # the doubly relabelled counts come from relabelling by (sigma sigma0, rho rho0)
        group = set(right_invariance_group(4))
        assert compose(sigma, sigma0) in group
        assert compose(rho, rho0) in group
        base = fit_family(family, EmpiricalData(4, counts))
        assert rep.log_likelihood == pytest.approx(base.log_likelihood, abs=1e-6)

    def test_a_side_the_family_ignores_stays_the_identity(self):
        # QI ignores sigma and L_S ignores rho: every relabelling of that side
        # fits equally well up to rounding, so the tie rule keeps the identity
        rng = np.random.default_rng(0)
        theta = rng.uniform(0.5, 2.0, (5, 5))
        for _ in range(500):
            theta /= theta.sum(axis=1, keepdims=True)
            theta /= theta.sum(axis=0, keepdims=True)
        spec = ClassicSpec(ClassicKind.QUASI_INDEPENDENCE, {"theta": theta.tolist()})
        data = sample(classic_distribution(spec, 5), 1000, 0)
        qi, ls = GeneratorFamily(FamilyKind.QUASI_INDEPENDENCE, 5), GeneratorFamily(FamilyKind.L_S, 5)
        assert search_relabelling(data, qi, SearchSide.RIGHT)[0] == identity(5)
        assert search_relabelling(data, ls, SearchSide.LEFT)[1] == identity(5)

    def test_size_caps(self):
        counts = np.full(math.factorial(7), 1, dtype=np.int64)
        data = EmpiricalData(7, counts)
        with pytest.raises(SizeError):
            search_relabelling(data, GeneratorFamily(FamilyKind.BI, 7), SearchSide.BOTH)
        data = EmpiricalData(8, np.full(math.factorial(8), 1, dtype=np.int64))
        with pytest.raises(SizeError):
            search_relabelling(data, GeneratorFamily(FamilyKind.BI_S, 8), SearchSide.RIGHT)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_searches_past_the_fit_caps_at_n8(self):
        # L and L' search without fits; a side the family ignores is no search
        data = random_counts(8, 10, m=3000)
        ident = identity(8)
        for kind, side in (
            (FamilyKind.L, SearchSide.BOTH),
            (FamilyKind.L_PRIME, SearchSide.BOTH),
            (FamilyKind.L_S, SearchSide.LEFT),
            (FamilyKind.QUASI_INDEPENDENCE, SearchSide.BOTH),
        ):
            family = GeneratorFamily(kind, 8)
            sigma, rho, rep = search_relabelling(data, family, side)
            assert (sigma == ident) == (kind is not FamilyKind.L)
            assert (rho == ident) == (kind is not FamilyKind.L_PRIME)
            relabelled = EmpiricalData(8, data.counts[relabel_index(8, sigma, rho)])
            base = fit_family(family, data)
            assert rep.log_likelihood == fit_family(family, relabelled).log_likelihood
            assert rep.log_likelihood >= base.log_likelihood - 1e-9 * abs(base.log_likelihood)

    def test_warnings_come_from_the_winner_only(self):
        # sparse counts: most candidates' fits have cells with expected count below 5
        data = random_counts(5, 11, m=300)
        for kind in (FamilyKind.L, FamilyKind.BI):
            family = GeneratorFamily(kind, 5)
            with warnings.catch_warnings(record=True) as searched:
                warnings.simplefilter("always")
                sigma, rho, _ = search_relabelling(data, family, SearchSide.RIGHT)
            with warnings.catch_warnings(record=True) as winner:
                warnings.simplefilter("always")
                fit_family(family, EmpiricalData(5, data.counts[relabel_index(5, sigma, rho)]))
            assert 1 <= len(searched) <= len(winner)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("zeros", [False, True], ids=["dense", "zero-cells"])
    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda kind: kind.value)
    def test_invariances_by_brute_force(self, kind, zeros):
        # Every relabelling of a side the family ignores, and every member of
        # a right_invariance_group orbit on a side it searches, fits equally
        # well; a one-sided search picks what fitting all 120 relabellings picks.
        rng = np.random.default_rng(5)
        counts = rng.multinomial(100_000, rng.dirichlet(np.ones(120)))
        if zeros:
            # a third of the cells empty, the MLE of every family inside its
            # support, so that every fit converges
            counts[rng.permutation(120)[:40]] = 0
        data = EmpiricalData(5, counts)
        family = GeneratorFamily(kind, 5)
        group = right_invariance_group(5)
        for side in (SearchSide.RIGHT, SearchSide.LEFT):
            logliks = oracles.relabelled_logliks(data, family, side)
            moved = 0 if side is SearchSide.RIGHT else 1
            tol = 1e-9 * max(1.0, max(abs(v) for v in logliks.values()))
            if side in _IGNORED_SIDES.get(kind, ()):
                orbits = [list(logliks.values())]
            else:
                orbits = []
                for pair in logliks:
                    orbit = [list(pair) for _ in group]
                    for g, member in zip(group, orbit):
                        member[moved] = compose(g, pair[moved])
                    orbits.append([logliks[tuple(member)] for member in orbit])
            assert max(max(o) - min(o) for o in orbits) <= tol, side
            sigma, rho, rep = search_relabelling(data, family, side)
            want = oracles.exhaustive_search(data, family, side, logliks=logliks)
            assert (sigma, rho, rep.log_likelihood) == (want[0], want[1], want[2].log_likelihood), side
