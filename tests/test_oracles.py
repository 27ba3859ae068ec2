"""Differential tests: the array passes against the loop oracles in oracles.py."""

import itertools
import math

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings, strategies as st

from permll import (
    ClassicKind,
    ClassicSpec,
    ConsecutiveSections,
    DistributionTable,
    EmpiricalData,
    FamilyKind,
    FitOptions,
    GeneratorFamily,
    ProductPartition,
    SectionKind,
    SetPartition,
    canonical_lambda,
    check_block_independence,
    classic_distribution,
    distribution_from_lambda,
    enumerate_permutations,
    fit_family,
    generators,
    identity,
    inverse_distribution,
    ipfp_fit,
    perm_index,
    relabel_distribution,
    right_invariance_group,
    search_relabelling,
    section_partition,
)
from permll.decompose import _conditional_violation, _rectangle_violation, _union_spread
from permll.fit import SearchSide, _orbit_representatives
from permll.errors import ValidationError
from permll.perms import edge_keys, lattice_levels, perm_array, rank, relabel_index
from permll.subspaces import atom_labels

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def tables(draw, max_n=6):
    """A random table on S_n; about half or nine tenths of its cells are zero
    when zero_share says so."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.9]))
    rng = np.random.default_rng(seed)
    size = math.factorial(n)
    w = rng.exponential(size=size)
    w[rng.random(size) < zero_share] = 0.0
    if not w.any():
        w[rng.integers(size)] = 1.0
    return DistributionTable(n, w / w.sum())


def perm_of(n, seed):
    return tuple(int(v) for v in np.random.default_rng(seed).permutation(n) + 1)


def test_perm_array_is_the_enumeration_order():
    for n in range(1, 8):
        arr = perm_array(n)
        assert arr.tolist() == [list(pi) for pi in itertools.permutations(range(1, n + 1))]
        assert (rank(arr) == np.arange(math.factorial(n))).all()
        assert enumerate_permutations(n) == tuple(itertools.permutations(range(1, n + 1)))
    for n in range(1, 6):
        for pi in enumerate_permutations(n):
            assert perm_index(pi) == oracles.perm_index(pi)


@SETTINGS
@given(tables(), st.integers(0, 10_000), st.integers(0, 10_000))
def test_inverse_and_relabel_gathers_equal_the_loops(p, s1, s2):
    sigma, rho = perm_of(p.n, s1), perm_of(p.n, s2)
    assert (inverse_distribution(p).probs == oracles.inverse_distribution(p).probs).all()
    got = relabel_distribution(p, sigma, rho).probs
    assert (got == oracles.relabel_distribution(p, sigma, rho).probs).all()
    counts = np.round(p.probs * 1000).astype(np.int64)
    counts[0] += 1
    data = EmpiricalData(p.n, counts)
    want = oracles.relabelled_counts(data, sigma, rho).counts
    assert (data.counts[relabel_index(p.n, sigma, rho)] == want).all()


@SETTINGS
@given(tables())
def test_chain_lambda_and_product_match_the_loops(p):
    lam, ref = canonical_lambda(p), oracles.canonical_lambda(p)
    assert np.abs(lam.edges - ref.edges).max() <= 1e-15
    got = distribution_from_lambda(lam).probs
    assert np.abs(got - oracles.distribution_from_lambda(ref).probs).max() <= 1e-15


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_unnormalized_lambda_product_matches_the_loop(n, seed):
    rng = np.random.default_rng(seed)
    values = {
        (x, frozenset(comb)): float(rng.uniform(0.1, 2.0))
        for size in range(n)
        for comb in itertools.combinations(range(1, n + 1), size)
        for x in range(1, n + 1)
        if x not in comb
    }
    lam = oracles.lambda_from_dict(n, values, None)
    got = distribution_from_lambda(lam).probs
    assert np.abs(got - oracles.distribution_from_lambda(lam).probs).max() <= 1e-15


@SETTINGS
@given(tables())
def test_decomposability_violations_match_the_loops(p):
    assert abs(_conditional_violation(p) - oracles.conditional_violation(p)) <= 1e-15
    assert abs(_union_spread(p) - oracles.union_spread(p)) <= 1e-15


def test_atom_labels_match_the_loop_for_every_board():
    for n in range(1, 7):
        for kind in FamilyKind:
            for board in generators(GeneratorFamily(kind, n)):
                labels, natoms = atom_labels(board, n)
                want, want_natoms = oracles.atom_labels(board, n)
                assert natoms == want_natoms, (kind, n, str(board))
                assert (labels == want).all(), (kind, n, str(board))
    # At n = 8 the saturated key has 64 binary digits, so it is compressed on
    # the way; its atoms are the permutation matrices, the identity's largest.
    labels, natoms = atom_labels(generators(GeneratorFamily(FamilyKind.SATURATED, 8))[0], 8)
    assert natoms == 40320 and (labels == np.arange(40320)[::-1]).all()


@SETTINGS
@given(tables())
@example(DistributionTable(1, [1.0]))
def test_lattice_ipfp_matches_the_cell_loop(p):
    # every family, including those with no generators (L_S, L_S' and BI_S at
    # n = 1); the cap keeps the slowest sparse fits short, and both stop at it
    opts = FitOptions(max_cycles=500)
    for kind in FamilyKind:
        family = GeneratorFamily(kind, p.n)
        got, want = ipfp_fit(family, p, opts), oracles.ipfp_fit(family, p, opts)
        assert (got.cycles_used, got.converged) == (want.cycles_used, want.converged), kind
        assert np.abs(got.fitted.probs - want.fitted.probs).max() <= 1e-12, kind
        assert abs(got.max_marginal_gap - want.max_marginal_gap) <= 1e-12, kind
        assert len(got.loglik_trace) == len(want.loglik_trace), kind
        assert np.abs(np.subtract(got.loglik_trace, want.loglik_trace)).max() <= 1e-12, kind


def test_edge_atoms_are_the_cell_atoms():
    # every permutation through an edge of level k has the same block counts
    # when bold section k + 1 refines the rows, so one per edge labels them all
    for n in range(1, 8):
        key, _, _, bounds = lattice_levels(n)
        position = np.zeros(n << n, dtype=np.int64)
        position[key] = np.arange(len(key))
        for kind in FamilyKind:
            for board in generators(GeneratorFamily(kind, n)):
                for b in (board, ProductPartition(board.cols, board.rows)):
                    cells, natoms = atom_labels(b, n)
                    for k in range(n):
                        if not section_partition(SectionKind.BOLD, k + 1, n).refines(b.rows):
                            with pytest.raises(ValidationError):
                                atom_labels(b, n, k)
                            continue
                        labels, m = atom_labels(b, n, k)
                        assert m == natoms, (kind, n, str(b), k)
                        assert (labels[position[edge_keys(n)[:, k]] - bounds[k]] == cells).all()


@SETTINGS
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_classic_product_formulas_match_the_loops(n, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 3.0, n)
    pairs = rng.uniform(0.1, 0.9, (n, n))
    pairs = np.triu(pairs, 1) + np.tril(1.0 - pairs.T, -1) + np.eye(n) * 0.5
    theta = rng.uniform(0.5, 2.0, (n, n))
    for _ in range(200):
        theta /= theta.sum(axis=1, keepdims=True)
        theta /= theta.sum(axis=0, keepdims=True)
    cases = [
        (ClassicKind.MBT, "alpha", alpha, oracles.mbt_raw),
        (ClassicKind.BABINGTON_SMITH, "theta", pairs, oracles.babington_smith_raw),
        (ClassicKind.QUASI_INDEPENDENCE, "theta", theta, oracles.quasi_independence_raw),
    ]
    for kind, key, param, loop in cases:
        got = classic_distribution(ClassicSpec(kind, {key: param.tolist()}), n).probs
        raw = loop(np.asarray(param.tolist()), n)
        assert (got == DistributionTable(n, raw / raw.sum()).probs).all(), kind


@SETTINGS
@given(tables(max_n=5), st.data())
def test_independence_relations_match_the_loops(p, data):
    n = p.n
    # any partition of the positions, consecutive or not
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = SetPartition([[i + 1 for i in range(n) if labels[i] == b] for b in set(labels)], n)
    ok, viol = check_block_independence(p, partition)
    want_ok, want = oracles.check_block_independence(p, partition)
    assert ok == want_ok and abs(viol - want) <= 1e-12

    def sections():
        cut = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        return ConsecutiveSections(tuple(k + 1 for k, c in enumerate(cut) if c))

    kappa, lamb = sections(), sections()
    assert abs(_rectangle_violation(p, kappa, lamb) - oracles.rectangle_violation(p, kappa, lamb)) <= 1e-12


def test_stagewise_tables_equal_the_loops():
    rng = np.random.default_rng(21)
    for n in range(2, 9):
        theta = rng.dirichlet(np.ones(n))
        stages = [rng.dirichlet(np.ones(n - k)) for k in range(n)]
        slots = [rng.dirichlet(np.ones(k)) for k in range(1, n + 1)]
        cases = [
            (ClassicKind.LUCE, theta.tolist(), oracles.luce_table(theta, n)),
            (ClassicKind.MULTISTAGE, [s.tolist() for s in stages], oracles.multistage_table(stages, n)),
            (ClassicKind.REPEATED_INSERTION, [s.tolist() for s in slots],
             oracles.repeated_insertion_table(slots, n)),
        ]
        for kind, param, want in cases:
            got = classic_distribution(ClassicSpec(kind, {"theta": param}), n)
            assert (got.probs == want.probs).all(), (kind, n)


def test_search_matches_the_loop():
    for n in range(1, 8):
        group = right_invariance_group(n)
        assert _orbit_representatives(n) == oracles.l_search_sigmas(n, group)
    data = EmpiricalData(4, np.random.default_rng(3).multinomial(200, np.full(24, 1 / 24)))
    for kind in (FamilyKind.L, FamilyKind.BI):
        family = GeneratorFamily(kind, 4)
        sigmas = (
            oracles.l_search_sigmas(4, right_invariance_group(4))
            if kind is FamilyKind.L
            else list(enumerate_permutations(4))
        )
        best = None
        for sigma in sigmas:
            relabelled = oracles.relabelled_counts(data, sigma, identity(4))
            ll = fit_family(family, relabelled).log_likelihood
            if best is None or ll > best[0] + 1e-9 * max(1.0, abs(best[0])):
                best = (ll, sigma)
        sigma, rho, report = search_relabelling(data, family, SearchSide.RIGHT)
        assert (report.log_likelihood, sigma, rho) == (best[0], best[1], identity(4))
