import itertools

import numpy as np
import oracles
import pytest

from permll import (
    ConsecutiveSections,
    DistributionTable,
    FamilyKind,
    FitOptions,
    IndependenceMode,
    LambdaDecomposition,
    all_consecutive_sections,
    canonical_lambda,
    check_block_independence,
    check_conditional_independence,
    decomposability_report,
    distribution_from_lambda,
    inverse,
    inverse_distribution,
    ipfp_fit,
    is_decomposable,
    markovianize,
)
from permll.errors import InvalidLambdaError, SizeError, ValidationError
from permll.perms import SetPartition, enumerate_permutations


def random_table(n, seed):
    rng = np.random.default_rng(seed)
    size = len(enumerate_permutations(n))
    return DistributionTable(n, rng.dirichlet(np.ones(size)))


def random_l_table(n, seed):
    """Random table with set-based chain conditionals: L-decomposable by construction."""
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


class TestLambda:
    def test_roundtrip_identity_on_decomposable_tables(self):
        # the chain-conditional round trip reproduces p exactly iff p is
        # decomposable; otherwise it is the maximum-likelihood projection
        for seed in range(3):
            p = random_l_table(4, seed)
            q = distribution_from_lambda(canonical_lambda(p))
            assert np.abs(p.probs - q.probs).max() < 1e-12
        rough = random_table(4, 0)
        q = distribution_from_lambda(canonical_lambda(rough))
        assert np.abs(rough.probs - q.probs).max() > 1e-6

    def test_canonical_constant_is_one(self):
        assert canonical_lambda(random_table(3, 0)).constant == 1.0

    def test_canonical_values_are_chain_conditionals(self):
        p = random_table(3, 1)
        lam = canonical_lambda(p)
        # Lambda(x, {}) is the marginal law of the first element
        first = {x: sum(p.prob(pi) for pi in enumerate_permutations(3) if pi[0] == x)
                 for x in (1, 2, 3)}
        for x in (1, 2, 3):
            assert lam.get(x, frozenset()) == pytest.approx(first[x], abs=1e-14)

    def test_bad_constant_rejected(self):
        lam = canonical_lambda(random_table(3, 2))
        bad = LambdaDecomposition(lam.n, lam.edges, 2.0)
        with pytest.raises(InvalidLambdaError):
            distribution_from_lambda(bad)

    def test_edge_array_shape_and_prefix_entries(self):
        lam = canonical_lambda(random_table(3, 6))
        assert lam.edges.shape == (3 << 3,) and not lam.edges.flags.writeable
        assert lam.get(2, {1, 3}) == lam.edges[0b101 * 3 + 1]
        with pytest.raises(ValidationError):
            LambdaDecomposition(3, lam.edges[:-1])
        bad = lam.edges.copy()
        bad[0b001 * 3 + 0] = 0.5  # lambda(1 | {1})
        with pytest.raises(ValidationError):
            LambdaDecomposition(3, bad)

    def test_get_rejects_an_element_outside_the_board(self):
        # key mask * n + x - 1 would read another edge's weight
        lam = canonical_lambda(DistributionTable.uniform(4))
        for x in (0, 5):
            with pytest.raises(ValidationError):
                lam.get(x, {1})

    def test_get_rejects_a_prefix_that_is_not_a_set_of_elements(self):
        # a mask built from 0, 7 or a repeated element would shift negatively,
        # index past the array or read another prefix set's weight
        lam = canonical_lambda(DistributionTable.uniform(4))
        for prefix in ({0}, {7}, {-1}, [1, 1], (2, 3, 2)):
            with pytest.raises(ValidationError):
                lam.get(2, prefix)

    def test_markovianize_idempotent(self):
        p = random_table(4, 3)
        m1 = markovianize(p)
        m2 = markovianize(m1)
        # idempotent up to floating-point roundoff in the chain products
        assert np.abs(m1.probs - m2.probs).max() < 1e-15


class TestInverseDistribution:
    def test_involution_and_convention(self):
        p = random_table(4, 4)
        q = inverse_distribution(p)
        for pi in enumerate_permutations(4):
            assert q.prob(pi) == p.prob(inverse(pi))
        back = inverse_distribution(q)
        assert (back.probs == p.probs).all()


class TestVerdicts:
    def test_uniform_is_everything(self):
        report = decomposability_report(DistributionTable.uniform(4))
        assert all(report.verdicts.values())

    def test_random_table_is_nothing(self):
        report = decomposability_report(random_table(4, 5))
        assert not any(report.verdicts.values())

    def test_constructed_l_tables(self):
        for seed in range(5):
            p = random_l_table(4, seed)
            ok, viol = is_decomposable(p, FamilyKind.L)
            assert ok, viol
            # generic chain conditionals are not primed-decomposable
            assert not is_decomposable(p, FamilyKind.L_PRIME)[0]

    def test_primed_is_l_of_inverse(self):
        p = random_l_table(4, 11)
        q = inverse_distribution(p)
        assert is_decomposable(q, FamilyKind.L_PRIME)[0]
        assert not is_decomposable(q, FamilyKind.L)[0]

    def test_tolerance_validation(self):
        with pytest.raises(ValidationError):
            is_decomposable(DistributionTable.uniform(3), FamilyKind.L, tol=0.0)

    def test_report_json(self):
        import json

        doc = decomposability_report(DistributionTable.uniform(3)).to_json()
        json.dumps(doc)
        assert set(doc) == {"families", "tolerance"}
        assert set(doc["families"]) == {"l", "l'", "l_s", "l_s'", "bi", "bi_s"}


class TestConditionalIndependence:
    def test_consecutive_sweep_matches_l_verdict(self):
        for seed in range(6):
            p = random_l_table(4, seed) if seed % 2 == 0 else random_table(4, seed)
            sweep = all(
                check_conditional_independence(p, IndependenceMode.CONSECUTIVE, kappa)[0]
                for kappa in all_consecutive_sections(4)
            )
            assert sweep == is_decomposable(p, FamilyKind.L)[0]

    def test_rectangle_sweep_matches_bi_verdict(self):
        partitions = [ConsecutiveSections(())] + all_consecutive_sections(4)
        for seed in range(4):
            if seed == 0:
                p = DistributionTable.uniform(4)
            elif seed == 1:
                p = random_l_table(4, 20)
            else:
                p = random_table(4, seed)
            sweep = all(
                check_conditional_independence(
                    p, IndependenceMode.RECTANGLE, kappa, lamb
                )[0]
                for kappa in partitions
                for lamb in partitions
            )
            assert sweep == is_decomposable(p, FamilyKind.BI)[0]

    def test_rectangle_requires_lambda(self):
        with pytest.raises(ValidationError):
            check_conditional_independence(
                DistributionTable.uniform(3),
                IndependenceMode.RECTANGLE,
                ConsecutiveSections((1,)),
            )

    def test_block_independence_on_uniform(self):
        ok, viol = check_block_independence(
            DistributionTable.uniform(4), SetPartition.parse("1,3|2,4", 4)
        )
        assert ok and viol < 1e-12

    def test_block_independence_partition_must_match_n(self):
        with pytest.raises(SizeError):
            check_block_independence(DistributionTable.uniform(4), SetPartition.parse("1,3|2", 3))


def bi_member(n, seed):
    """A few IPFP cycles from uniform toward a Dirichlet table: every iterate lies in BI."""
    return ipfp_fit(FamilyKind.BI, random_table(n, seed), FitOptions(max_cycles=3)).fitted


class TestCharacterisationAtFive:
    """The paper's conditional-independence descriptions of L and BI, at n = 5."""

    N = 5
    SECTIONS = all_consecutive_sections(N)
    WITH_TRIVIAL = [ConsecutiveSections(())] + SECTIONS

    def consecutive(self, p):
        return [
            check_conditional_independence(p, IndependenceMode.CONSECUTIVE, kappa)
            for kappa in self.SECTIONS
        ]

    def rectangle_holds(self, p):
        return all(
            check_conditional_independence(p, IndependenceMode.RECTANGLE, kappa, lamb)[0]
            for kappa in self.WITH_TRIVIAL
            for lamb in self.WITH_TRIVIAL
        )

    @pytest.mark.parametrize(
        "make, in_l, in_bi",
        [
            (lambda s: bi_member(5, 30 + s), True, True),
            (lambda s: random_l_table(5, 40 + s), True, False),
            (lambda s: inverse_distribution(random_l_table(5, 50 + s)), False, False),
            (lambda s: random_table(5, 60 + s), False, False),
        ],
        ids=["bi-member", "l-only", "inverse-l", "dirichlet"],
    )
    def test_sweeps_match_the_verdicts(self, make, in_l, in_bi):
        for seed in range(2):
            p = make(seed)
            assert is_decomposable(p, FamilyKind.L)[0] is in_l
            assert is_decomposable(p, FamilyKind.BI)[0] is in_bi
            assert all(ok for ok, _ in self.consecutive(p)) is in_l
            assert self.rectangle_holds(p) is in_bi

    def test_rectangle_with_one_trivial_side_is_consecutive(self):
        p = random_table(self.N, 70)
        q = inverse_distribution(p)
        trivial = ConsecutiveSections(())
        for kappa, (_, viol) in zip(self.SECTIONS, self.consecutive(p)):
            rect = check_conditional_independence(p, "rectangle", kappa, trivial)[1]
            assert abs(rect - viol) <= 1e-15
        for lamb, (_, viol) in zip(self.SECTIONS, self.consecutive(q)):
            rect = check_conditional_independence(p, "rectangle", trivial, lamb)[1]
            assert abs(rect - viol) <= 1e-15
