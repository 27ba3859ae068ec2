import math
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

from permll import (
    ConsecutiveSections,
    DistributionTable,
    ProductPartition,
    SetPartition,
    all_consecutive_sections,
    compose,
    enumerate_permutations,
    identity,
    inverse,
    perm_index,
    relabel_distribution,
)
from permll.errors import SizeError, ValidationError
from oracles import marginal, unordered_marginal
from permll.perms import check_permutation, edge_keys, lattice_levels


def test_package_exports_no_module():
    import permll

    for name in permll.__all__:
        assert not isinstance(getattr(permll, name), types.ModuleType), name


def random_perm(draw_n, seed):
    rng = np.random.default_rng(seed)
    return tuple(int(x) for x in rng.permutation(draw_n) + 1)


class TestPermBasics:
    def test_enumeration_is_lexicographic(self):
        perms = enumerate_permutations(3)
        assert perms == (
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        )
        assert len(enumerate_permutations(5)) == math.factorial(5)

    def test_perm_index_roundtrip(self):
        perms = enumerate_permutations(4)
        for i, pi in enumerate(perms):
            assert perm_index(pi) == i

    def test_check_permutation_rejects_non_bijections(self):
        with pytest.raises(ValidationError):
            check_permutation((1, 1))
        with pytest.raises(ValidationError):
            check_permutation((0, 1))
        with pytest.raises(ValidationError):
            check_permutation((1, 2, 4))

    def test_size_cap(self):
        with pytest.raises(SizeError):
            enumerate_permutations(10)

    @given(st.integers(2, 6), st.integers(0, 10_000))
    def test_inverse_involution(self, n, seed):
        pi = random_perm(n, seed)
        assert inverse(inverse(pi)) == pi
        assert compose(pi, inverse(pi)) == identity(n)

    @given(st.integers(2, 5), st.integers(0, 100), st.integers(0, 100))
    def test_compose_convention(self, n, s1, s2):
        # (pi . sigma)(i) = pi(sigma(i))
        pi, sigma = random_perm(n, s1), random_perm(n, s2)
        tau = compose(pi, sigma)
        for i in range(1, n + 1):
            assert tau[i - 1] == pi[sigma[i - 1] - 1]

    def test_lattice_levels_list_every_edge_by_level(self):
        for n in range(1, 10):
            key, source, target, bounds = lattice_levels(n)
            assert len(key) == n << (n - 1) and bounds[0] == 0 and bounds[-1] == len(key)
            assert (np.diff(bounds) == [math.comb(n, k) * (n - k) for k in range(n)]).all()
            assert (key // n == source).all() and (target == source | 1 << key % n).all()
            assert (source & 1 << key % n == 0).all()
            for k in range(n):
                level = slice(bounds[k], bounds[k + 1])
                assert [bin(s).count("1") for s in source[level]] == [k] * (bounds[k + 1] - bounds[k])
                assert (np.diff(key[level]) > 0).all()
            if n <= 7:
                # every step of every permutation is one of the listed edges
                assert set(key.tolist()) == set(edge_keys(n).ravel().tolist())


class TestPartitions:
    def test_set_partition_parse_and_str(self):
        part = SetPartition.parse("1,2|3,4,5", 5)
        assert part.size == 2
        assert str(part) == "1,2|3,4,5"
        assert part.atom_of(4) == 1

    def test_atom_of_rejects_an_element_outside_the_board(self):
        part = SetPartition([[1, 2], [3]])
        for x in (0, -1, 4):
            with pytest.raises(ValidationError):
                part.atom_of(x)

    def test_set_partition_rejects_bad_cover(self):
        with pytest.raises(ValidationError):
            SetPartition([{1, 2}, {2, 3}], 3)
        with pytest.raises(ValidationError):
            SetPartition([{1, 2}], 3)

    def test_consecutive_sections_partition(self):
        kappa = ConsecutiveSections((2,))
        assert kappa.blocks(4) == ((1, 2), (3, 4))
        assert kappa.partition(4).atoms == (frozenset({1, 2}), frozenset({3, 4}))

    def test_all_consecutive_sections_count(self):
        for n in (3, 4, 5):
            assert len(all_consecutive_sections(n)) == 2 ** (n - 1) - 1

    def test_marginal_counts_rooks(self):
        board = ProductPartition(
            SetPartition.parse("1,2|3,4", 4), SetPartition.parse("1|2,3,4", 4)
        )
        counts = marginal((2, 1, 4, 3), board)
        assert counts.tolist() == [[1, 1], [0, 2]]
        assert counts.sum() == 4

    def test_unordered_marginal(self):
        kappa = ConsecutiveSections((2,))
        assert unordered_marginal((3, 1, 4, 2), kappa) == (
            frozenset({1, 3}),
            frozenset({2, 4}),
        )


class TestDistributionTable:
    def test_uniform_and_point_mass(self):
        u = DistributionTable.uniform(3)
        assert np.allclose(u.probs, 1 / 6)
        pm = DistributionTable.point_mass((2, 1, 3))
        assert pm.prob((2, 1, 3)) == 1.0
        assert pm.probs.sum() == 1.0

    def test_rejects_negative_and_badly_normalized(self):
        with pytest.raises(ValidationError):
            DistributionTable(3, np.array([0.5, 0.5, 0.1, -0.1, 0, 0]))
        with pytest.raises(ValidationError):
            DistributionTable(3, np.full(6, 0.2))

    def test_renormalizes_tiny_drift(self):
        probs = np.full(6, 1 / 6) * (1 + 2e-11)
        table = DistributionTable(3, probs)
        assert abs(table.probs.sum() - 1.0) < 1e-15

    def test_relabel_roundtrip_is_exact(self):
        rng = np.random.default_rng(7)
        p = DistributionTable(4, rng.dirichlet(np.ones(24)))
        sigma, rho = (2, 3, 1, 4), (4, 1, 2, 3)
        q = relabel_distribution(p, sigma, rho)
        back = relabel_distribution(q, inverse(sigma), inverse(rho))
        assert (back.probs == p.probs).all()

    def test_relabel_convention(self):
        # result(tau) = p(rho^-1 . tau . sigma)
        rng = np.random.default_rng(8)
        p = DistributionTable(4, rng.dirichlet(np.ones(24)))
        sigma, rho = (2, 1, 4, 3), (3, 4, 2, 1)
        q = relabel_distribution(p, sigma, rho)
        for tau in enumerate_permutations(4):
            assert q.prob(tau) == p.prob(compose(compose(inverse(rho), tau), sigma))
