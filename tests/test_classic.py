import itertools
import json
import math

import numpy as np
import pytest

from permll import (
    ClassicKind,
    ClassicSpec,
    DistributionTable,
    FamilyKind,
    canonical_lambda,
    check_block_independence,
    classic_distribution,
    enumerate_permutations,
    is_decomposable,
    sample,
    spec_from_json,
)
from permll.errors import ValidationError
from permll.perms import SetPartition


def build(kind, params, n):
    return classic_distribution(ClassicSpec(kind, params), n)


# fixed generic parameters for the negative fixtures (seeded draws, frozen)
GENERIC_THETA4 = [0.31, 0.27, 0.24, 0.18]
GENERIC_BS4 = [
    [0.0, 0.61, 0.72, 0.55],
    [0.39, 0.0, 0.64, 0.33],
    [0.28, 0.36, 0.0, 0.47],
    [0.45, 0.67, 0.53, 0.0],
]
GENERIC_QI4 = [
    [0.40, 0.30, 0.20, 0.10],
    [0.30, 0.25, 0.25, 0.20],
    [0.20, 0.25, 0.30, 0.25],
    [0.10, 0.20, 0.25, 0.45],
]
MULTISTAGE4 = [[0.4, 0.3, 0.2, 0.1], [0.5, 0.3, 0.2], [0.6, 0.4], [1.0]]
INSERTION4 = [[1.0], [0.6, 0.4], [0.5, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1]]


class TestConstruction:
    def test_uniform_luce(self):
        p = build(ClassicKind.LUCE, {"theta": [0.25] * 4}, 4)
        assert np.allclose(p.probs, 1 / 24)

    def test_uniform_quasi_independence(self):
        p = build(ClassicKind.QUASI_INDEPENDENCE, {"theta": [[0.25] * 4] * 4}, 4)
        assert np.allclose(p.probs, 1 / 24)

    def test_mbt_oracle_n3(self):
        # raw weight of pi is prod alpha[pi(i)]^(n-i); evaluated by hand
        p = build(ClassicKind.MBT, {"alpha": [0.5, 0.25, 0.25]}, 3)
        assert p.prob((1, 2, 3)) == pytest.approx(2 / 7, abs=1e-14)
        raw = {
            (1, 2, 3): 0.0625, (1, 3, 2): 0.0625, (2, 1, 3): 0.03125,
            (2, 3, 1): 0.015625, (3, 1, 2): 0.03125, (3, 2, 1): 0.015625,
        }
        total = sum(raw.values())
        for pi, w in raw.items():
            assert p.prob(pi) == pytest.approx(w / total, abs=1e-14)

    def test_luce_lambda_formula(self):
        theta = GENERIC_THETA4
        p = build(ClassicKind.LUCE, {"theta": theta}, 4)
        lam = canonical_lambda(p)
        for size in range(4):
            for comb in itertools.combinations(range(1, 5), size):
                prefix = frozenset(comb)
                denom = sum(theta[y - 1] for y in range(1, 5) if y not in prefix)
                for x in range(1, 5):
                    if x not in prefix:
                        assert lam.get(x, prefix) == pytest.approx(
                            theta[x - 1] / denom, abs=1e-12
                        )

    def test_multistage_lambda_formula(self):
        p = build(ClassicKind.MULTISTAGE, {"theta": MULTISTAGE4}, 4)
        lam = canonical_lambda(p)
        for size in range(4):
            for comb in itertools.combinations(range(1, 5), size):
                prefix = frozenset(comb)
                for x in range(1, 5):
                    if x not in prefix:
                        rank = sum(1 for y in range(1, x + 1) if y not in prefix)
                        assert lam.get(x, prefix) == pytest.approx(
                            MULTISTAGE4[size][rank - 1], abs=1e-12
                        )

    def test_insertion_product_formula(self):
        # the insertion weights are a valid chain decomposition of p, but not the
        # canonical one: per-prefix they need not sum to 1
        p = build(ClassicKind.REPEATED_INSERTION, {"theta": INSERTION4}, 4)
        for pi in enumerate_permutations(4):
            w = 1.0
            for k, x in enumerate(pi):
                prefix = set(pi[:k])
                slot = sum(1 for y in prefix if y <= x) + 1
                w *= INSERTION4[x - 1][slot - 1]
            assert p.prob(pi) == pytest.approx(w, abs=1e-12)

    def test_babington_smith_formula(self):
        p = build(ClassicKind.BABINGTON_SMITH, {"theta": GENERIC_BS4}, 4)
        theta = np.array(GENERIC_BS4)
        raw = []
        for pi in enumerate_permutations(4):
            w = 1.0
            for i in range(4):
                for j in range(i + 1, 4):
                    w *= theta[pi[i] - 1][pi[j] - 1]
            raw.append(w)
        raw = np.array(raw)
        assert np.abs(p.probs - raw / raw.sum()).max() < 1e-14

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            build(ClassicKind.LUCE, {"theta": [0.5, 0.6]}, 2)
        with pytest.raises(ValidationError):
            build(ClassicKind.MBT, {"alpha": [1.0, -1.0]}, 2)
        with pytest.raises(ValidationError):
            build(ClassicKind.BABINGTON_SMITH, {"theta": [[0, 0.4], [0.4, 0]]}, 2)
        with pytest.raises(ValidationError):
            build(ClassicKind.QUASI_INDEPENDENCE, {"theta": [[0.8, 0.2], [0.8, 0.2]]}, 2)
        with pytest.raises(ValidationError):
            build(ClassicKind.LUCE, {}, 3)


class TestDecomposabilityFixtures:
    def test_luce_and_babington_smith(self):
        for p in (
            build(ClassicKind.LUCE, {"theta": GENERIC_THETA4}, 4),
            build(ClassicKind.BABINGTON_SMITH, {"theta": GENERIC_BS4}, 4),
        ):
            assert is_decomposable(p, FamilyKind.L)[0]
            assert not is_decomposable(p, FamilyKind.L_PRIME)[0]

    def test_mbt_and_quasi_independence_are_bi(self):
        for p in (
            build(ClassicKind.MBT, {"alpha": [0.4, 0.3, 0.2, 0.1]}, 4),
            build(ClassicKind.QUASI_INDEPENDENCE, {"theta": GENERIC_QI4}, 4),
        ):
            assert is_decomposable(p, FamilyKind.BI)[0]

    def test_stagewise_models_are_l_and_primed(self):
        for p in (
            build(ClassicKind.MULTISTAGE, {"theta": MULTISTAGE4}, 4),
            build(ClassicKind.REPEATED_INSERTION, {"theta": INSERTION4}, 4),
        ):
            assert is_decomposable(p, FamilyKind.L)[0]
            assert is_decomposable(p, FamilyKind.L_PRIME)[0]

    def test_quasi_independence_pairwise_property(self):
        # ordered marginals on any 2-element position set and its complement are
        # conditionally independent given the unordered marginals
        for n in (4, 5):
            theta = np.full((n, n), 1.0 / n)
            theta[0, 0] += 0.1
            theta[0, 1] -= 0.1
            theta[1, 0] -= 0.1
            theta[1, 1] += 0.1
            p = build(ClassicKind.QUASI_INDEPENDENCE, {"theta": theta.tolist()}, n)
            for pair in itertools.combinations(range(1, n + 1), 2):
                rest = [i for i in range(1, n + 1) if i not in pair]
                part = SetPartition([set(pair), set(rest)], n)
                ok, viol = check_block_independence(p, part)
                assert ok, (pair, viol)


class TestSampler:
    def test_point_mass(self):
        data = sample(DistributionTable.point_mass((2, 1, 3)), 10, seed=0)
        assert data.m == 10
        assert data.counts.max() == 10

    def test_deterministic(self):
        p = build(ClassicKind.MBT, {"alpha": [0.4, 0.3, 0.2, 0.1]}, 4)
        a = sample(p, 500, seed=42)
        b = sample(p, 500, seed=42)
        assert (a.counts == b.counts).all()

    def test_uniform_frequencies(self):
        data = sample(DistributionTable.uniform(3), 6000, seed=1)
        sigma = math.sqrt(6000 * (1 / 6) * (5 / 6))
        assert np.abs(data.counts - 1000).max() < 5 * sigma

    def test_never_draws_a_zero_probability_cell(self, monkeypatch):
        # the table sums to 1 - 5e-13, below the largest double under 1
        probs = [0.25, 0.25, 0.25, 0.25 - 5e-13, 0.0, 0.0]
        table = DistributionTable(3, probs)
        assert table.probs.sum() < np.nextafter(1.0, 0.0)

        class LastDraw:
            def random(self, m):
                return np.full(m, np.nextafter(1.0, 0.0))

        monkeypatch.setattr(np.random, "default_rng", lambda seed: LastDraw())
        assert sample(table, 7, seed=0).counts.tolist() == [0, 0, 0, 7, 0, 0]

    def test_sample_size_validation(self):
        with pytest.raises(ValidationError):
            sample(DistributionTable.uniform(3), 0, seed=0)


class TestSpecFile:
    def test_spec_from_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps({"kind": "mbt", "n": 4, "params": {"alpha": [0.4, 0.3, 0.2, 0.1]}})
        )
        spec, n = spec_from_json(path)
        assert spec.kind is ClassicKind.MBT and n == 4
        classic_distribution(spec, n)

    def test_bad_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "unknown", "n": 3, "params": {}}))
        with pytest.raises(ValidationError):
            spec_from_json(path)
