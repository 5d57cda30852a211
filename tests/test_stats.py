import itertools

import numpy as np
import pytest

from qcens import ValidationError, mann_whitney, median


def brute_force_two_tailed_p(a, b):
    """Exact two-tailed p by enumerating every C(n1+n2, n1) group assignment."""
    pooled = sorted(a + b)
    n1 = len(a)
    ranks = {v: r + 1 for r, v in enumerate(pooled)}  # tie-free inputs only
    u_obs = sum(ranks[v] for v in a) - n1 * (n1 + 1) / 2
    u_values = []
    for subset in itertools.combinations(range(len(pooled)), n1):
        u_values.append(sum(s + 1 for s in subset) - n1 * (n1 + 1) / 2)
    total = len(u_values)
    cdf = sum(1 for u in u_values if u <= u_obs) / total
    sf = sum(1 for u in u_values if u >= u_obs) / total
    return min(1.0, 2.0 * min(cdf, sf))


def test_complete_separation_case():
    result = mann_whitney([4, 5, 6], [1, 2, 3])
    assert result.u_statistic == 9
    assert result.effect_size_r == 1.0
    assert abs(result.p_value - 0.1) < 1e-12
    assert result.method == "exact"


def test_identical_multisets():
    result = mann_whitney([1, 2, 3], [1, 2, 3])
    assert result.u_statistic == 4.5  # n1*n2/2
    assert result.effect_size_r == 0.0
    assert result.p_value == 1.0


def test_swap_antisymmetry():
    a, b = [1.5, 3.2, 7.7, 2.2], [0.1, 4.4, 5.0]
    fwd = mann_whitney(a, b)
    rev = mann_whitney(b, a)
    assert fwd.u_statistic + rev.u_statistic == len(a) * len(b)
    assert abs(fwd.effect_size_r + rev.effect_size_r) < 1e-12
    assert abs(fwd.p_value - rev.p_value) < 1e-12


def test_exact_matches_brute_force_enumeration():
    rng = np.random.default_rng(99)
    # exact method is defined for n1, n2 <= 10; sweep all such pairs with N <= 12
    for n1 in range(1, 11):
        for n2 in range(1, min(10, 12 - n1) + 1):
            for _ in range(3):
                pooled = rng.normal(size=n1 + n2)
                while len(set(pooled)) < n1 + n2:  # ensure tie-free
                    pooled = rng.normal(size=n1 + n2)
                a, b = list(pooled[:n1]), list(pooled[n1:])
                result = mann_whitney(a, b)
                assert result.method == "exact"
                assert abs(result.p_value - brute_force_two_tailed_p(a, b)) < 1e-9


def test_normal_approx_close_to_exact_for_small_samples():
    rng = np.random.default_rng(7)
    from qcens.stats import _midranks, _normal_two_tailed_p

    for _ in range(50):
        n1, n2 = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        a = list(rng.normal(size=n1))
        b = list(rng.normal(size=n2))
        exact = mann_whitney(a, b)
        assert exact.method == "exact"
        ranks = _midranks(a + b)
        approx = _normal_two_tailed_p(exact.u_statistic, n1, n2, ranks)
        assert abs(approx - exact.p_value) < 0.05


def test_large_samples_use_normal_approximation():
    rng = np.random.default_rng(11)
    a = list(rng.normal(0.3, 1.0, 40))
    b = list(rng.normal(0.0, 1.0, 40))
    result = mann_whitney(a, b)
    assert result.method == "normal-approx"
    assert 0.0 <= result.p_value <= 1.0


def test_ties_use_midranks_and_tie_corrected_variance():
    result = mann_whitney([1, 2, 2, 3], [2, 2, 4, 5])
    assert result.method == "normal-approx"
    assert 0.0 <= result.p_value <= 1.0
    assert -1.0 <= result.effect_size_r <= 1.0


def test_all_values_tied_gives_p_one():
    result = mann_whitney([5.0] * 4, [5.0] * 4)
    assert result.p_value == 1.0
    assert result.effect_size_r == 0.0


def test_shift_monotonicity():
    rng = np.random.default_rng(21)
    a = list(rng.normal(size=6))
    b = list(rng.normal(size=6))
    u_prev = mann_whitney(a, b).u_statistic
    for c in (0.1, 0.5, 2.0):
        u_now = mann_whitney([x + c for x in a], b).u_statistic
        assert u_now >= u_prev - 1e-12
        u_prev = u_now


def test_effect_size_bounds_and_separation(rng):
    for _ in range(100):
        n1, n2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = list(rng.normal(size=n1))
        b = list(rng.normal(size=n2))
        result = mann_whitney(a, b)
        separated = max(b) < min(a) or max(a) < min(b)
        assert -1.0 <= result.effect_size_r <= 1.0
        assert (abs(result.effect_size_r) == 1.0) == separated
        # invariant: r = 2U/(n1 n2) - 1
        assert abs(result.effect_size_r
                   - (2 * result.u_statistic / (n1 * n2) - 1)) < 1e-12


def test_empty_samples_rejected():
    with pytest.raises(ValidationError):
        mann_whitney([], [1.0])
    with pytest.raises(ValidationError):
        mann_whitney([1.0], [])


@pytest.mark.parametrize("sample,expected", [([1, 2, 3], 2.0), ([1, 2, 3, 4], 2.5), ([5], 5.0)])
def test_median(sample, expected):
    assert median(sample) == expected


def test_median_empty_rejected():
    with pytest.raises(ValidationError):
        median([])


def test_matches_scipy_mannwhitneyu():
    """scipy (a test-only dependency) as an extra oracle for U and both p methods."""
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(60):  # tie-free, both sizes <= 10: exact
        n1, n2 = int(rng.integers(1, 11)), int(rng.integers(1, 11))
        cases.append((list(rng.normal(size=n1)), list(rng.normal(size=n2))))
    for _ in range(60):  # ties or larger samples: normal approximation
        n1, n2 = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        a, b = rng.normal(size=n1), rng.normal(0.3, 1.0, size=n2)
        if rng.random() < 0.5:
            a, b = np.round(a, 1), np.round(b, 1)
        cases.append((list(a), list(b)))
    cases.append(([1, 2, 2, 3], [2, 2, 4, 5]))
    methods = set()
    for a, b in cases:
        ours = mann_whitney(a, b)
        methods.add(ours.method)
        method = "exact" if ours.method == "exact" else "asymptotic"
        ref = stats.mannwhitneyu(a, b, alternative="two-sided",
                                 use_continuity=True, method=method)
        assert abs(ours.u_statistic - ref.statistic) < 1e-9
        assert abs(ours.p_value - ref.pvalue) < 1e-12
    assert methods == {"exact", "normal-approx"}
