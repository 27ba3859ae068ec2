import itertools

import numpy as np
import pytest

from permll import (
    BasisKind,
    FamilyKind,
    basis_vector,
    bold_cross_section,
    dimension_report,
    enumerate_permutations,
    formula_dimension,
    generators,
    inverse,
    mu_vectors,
    nontrivial_pairs,
    nu_basis_labels,
    parse_family_kind,
    rank_dimension,
    rho5_basis_labels,
    stats_aq,
    subspace_intersection_dim,
    thin_cross_section,
)
from permll.errors import SizeError, ValidationError
from permll.exactrank import exact_rank
from permll.perms import ProductPartition
from permll.subspaces import FAMILIES, RANK_MAX_N, _stats_aq_all
from oracles import marginal


def brute_stats(pi, k, ell):
    """Independent recomputation of the cross-section statistics (a, q)."""
    n = len(pi)
    a = sum(1 for i in range(1, k + 1) if pi[i - 1] <= ell)
    if pi[k - 1] == ell:
        return a, 5
    row_right = pi[k - 1] > ell
    col_below = inverse(pi)[ell - 1] > k
    q = {(True, False): 1, (False, False): 2, (False, True): 3, (True, True): 4}
    return a, q[(row_right, col_below)]


class TestFamilies:
    def test_parse_family_aliases(self):
        assert list(FAMILIES) == list(FamilyKind)
        owner = {}
        for kind, spec in FAMILIES.items():
            assert spec.names[0] == kind.value
            for name in spec.names:
                assert parse_family_kind(f" {name.upper()} ") is kind
                assert owner.setdefault(name, kind) is kind, f"{name} names two families"
        with pytest.raises(ValidationError):
            parse_family_kind("nope")

    def test_generator_counts(self):
        assert len(generators(FamilyKind.L, 5)) == 5
        assert len(generators(FamilyKind.BI, 5)) == 25
        assert len(generators(FamilyKind.BI_S, 5)) == 16
        assert len(generators(FamilyKind.SATURATED, 4)) == 1
        assert len(generators(FamilyKind.UNIFORM, 4)) == 1

    def test_cross_sections_tile_the_board(self):
        for board in (bold_cross_section(2, 3, 5), thin_cross_section(2, 3, 5)):
            total = marginal((1, 2, 3, 4, 5), board).sum()
            assert total == 5

    def test_a_mirrored_family_is_its_mirror_transposed(self):
        mirrored = [(kind, spec.mirror) for kind, spec in FAMILIES.items() if spec.mirror]
        assert mirrored == [(FamilyKind.L_PRIME, FamilyKind.L), (FamilyKind.L_S_PRIME, FamilyKind.L_S)]
        for kind, mirror in mirrored:
            assert FAMILIES[kind].boards is FAMILIES[kind].dim is FAMILIES[mirror].mirror is None
            for n in range(1, 7):
                assert generators(kind, n) == [ProductPartition(b.cols, b.rows) for b in generators(mirror, n)]


class TestStats:
    def test_stats_arrays_equal_the_definition(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                for ell in range(1, n + 1):
                    a, q = _stats_aq_all(n, k, ell)
                    want = [brute_stats(pi, k, ell) for pi in enumerate_permutations(n)]
                    assert list(zip(a.tolist(), q.tolist())) == want, (n, k, ell)

    def test_stats_aq_examples(self):
        assert stats_aq((2, 1, 4, 3), 2, 3) == (2, 3)
        assert stats_aq((4, 3, 2, 1), 1, 1) == (0, 4)
        assert stats_aq((1, 2, 3), 2, 2) == (2, 5)

    def test_stats_aq_matches_brute_force(self):
        for n in (3, 4):
            for pi in enumerate_permutations(n):
                for k in range(1, n + 1):
                    for ell in range(1, n + 1):
                        assert stats_aq(pi, k, ell) == brute_stats(pi, k, ell)

    def test_stats_aq_rejects_a_non_permutation(self):
        for pi, k, ell in (((1, 1, 3), 1, 1), ((1, 2, 4), 2, 2), ((1, 2, 3), 4, 1), ((1, 2, 3), 1, 0)):
            with pytest.raises(ValidationError):
                stats_aq(pi, k, ell)

    def test_nontrivial_pairs_enumerate_realized_stats(self):
        # the listed (a, q) pairs are exactly those realized by some permutation
        for n in (3, 4, 5):
            for k in range(1, n):
                for ell in range(1, n):
                    realized = {
                        stats_aq(pi, k, ell) for pi in enumerate_permutations(n)
                    }
                    assert set(nontrivial_pairs(k, ell, n)) == realized


class TestDimensions:
    def test_formula_values(self):
        # closed forms evaluated by hand
        expect = {
            (FamilyKind.L, 4): 17,
            (FamilyKind.L, 5): 49,
            (FamilyKind.L_S, 4): 11,
            (FamilyKind.L_S, 5): 26,
            (FamilyKind.BI, 4): 14,
            (FamilyKind.BI, 5): 30,
            (FamilyKind.BI_S, 5): 20,
            (FamilyKind.SATURATED, 4): 23,
            (FamilyKind.UNIFORM, 5): 0,
        }
        for (kind, n), value in expect.items():
            assert formula_dimension(kind, n) == value

    def test_primed_formulas_match_unprimed(self):
        for n in (3, 4, 5, 6):
            for primed, spec in FAMILIES.items():
                if spec.mirror:
                    assert formula_dimension(spec.mirror, n) == formula_dimension(primed, n)

    def test_rank_equals_formula_small(self):
        # n = 1 included: there l_s, l_s' and bi_s have no generators
        for n in range(1, 6):
            for kind in FAMILIES:
                assert rank_dimension(kind, n) == formula_dimension(kind, n), (kind, n)

    def test_quasi_independence_needs_rank(self):
        # the closed form (n-1)^2 agrees with the rank oracle wherever it runs
        for n in range(2, RANK_MAX_N + 1):
            qi = FamilyKind.QUASI_INDEPENDENCE
            assert formula_dimension(qi, n) == rank_dimension(qi, n) == (n - 1) ** 2

    def test_rank_cap(self):
        with pytest.raises(SizeError):
            rank_dimension(FamilyKind.L, RANK_MAX_N + 1)

    def test_report_json_shape(self):
        doc = dimension_report(FamilyKind.BI, 4).to_json()
        assert doc == {
            "family": "bi",
            "n": 4,
            "formula_dim": 14,
            "rank_dim": 14,
            "free_parameters": 14,
        }


class TestBasisVectors:
    def test_intersection_dims_sum_to_bi_dimension(self):
        for n in (4, 5):
            total = sum(
                subspace_intersection_dim(k, ell, n)
                for k in range(2, n + 1)
                for ell in range(2, n + 1)
            )
            assert total == formula_dimension(FamilyKind.BI, n)

    def test_intersection_dim_example(self):
        assert subspace_intersection_dim(3, 3, 5) == 4

    def test_mu_orthogonal_to_same_section_indicators(self):
        n = 4
        perms = enumerate_permutations(n)
        for k in range(2, n + 1):
            for ell in range(2, n + 1):
                mus = mu_vectors(k, ell, n)
                for C in itertools.combinations(range(1, n + 1), k):
                    chi = np.array([int(set(pi[:k]) == set(C)) for pi in perms])
                    assert all(int(chi @ v.coords) == 0 for v in mus)
                for D in itertools.combinations(range(1, n + 1), ell):
                    chi = np.array(
                        [int(set(inverse(pi)[:ell]) == set(D)) for pi in perms]
                    )
                    assert all(int(chi @ v.coords) == 0 for v in mus)

    def test_mu_pairwise_orthogonal_across_sections(self):
        n = 4
        vecs = [
            v.coords
            for k in range(2, n + 1)
            for ell in range(2, n + 1)
            for v in mu_vectors(k, ell, n)
        ]
        ones = np.ones(len(vecs[0]), dtype=np.int64)
        for i, u in enumerate(vecs):
            assert int(ones @ u) == 0
            for v in vecs[i + 1 :]:
                assert int(u @ v) == 0

    def test_indicator_basis_ranks(self):
        for n in (3, 4, 5):
            ones = np.ones(len(enumerate_permutations(n)), dtype=np.int64)
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


class TestExactRank:
    def test_known_ranks(self):
        assert exact_rank(np.eye(4, dtype=np.int64)) == 4
        assert exact_rank(np.zeros((3, 5), dtype=np.int64)) == 0
        assert exact_rank(np.array([[1, 2], [2, 4]])) == 1

    def test_rank_matches_numpy_on_random_int_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mat = rng.integers(-5, 6, size=(8, 12))
            assert exact_rank(mat) == np.linalg.matrix_rank(mat)

    def test_bigint_fallback_agrees(self):
        # entries big enough to overflow the int64 fast path
        rng = np.random.default_rng(4)
        base = rng.integers(-3, 4, size=(6, 6))
        mat = base * (10**17)
        assert exact_rank(mat) == np.linalg.matrix_rank(base)
