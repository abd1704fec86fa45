from itertools import product

import numpy as np
import pytest

from fedsim.errors import ConfigError, ContractViolationError
from fedsim.link_model import ActiveSet
from fedsim.mixing import (build_mixing, contraction_profile,
                           entrywise_lower_bound, ergodicity_bound,
                           expected_square_exact, expected_square_mc, rho)
from fedsim.streams import SeededStream


def enumerate_expected_square(p: np.ndarray) -> np.ndarray:
    """Brute-force E[W^2] over all 2^m activation patterns."""
    m = p.size
    M = np.zeros((m, m))
    for bits in product((0, 1), repeat=m):
        prob = np.prod([pi if b else 1.0 - pi for pi, b in zip(p, bits)])
        members = tuple(i for i, b in enumerate(bits) if b)
        W = build_mixing(ActiveSet(0, members), m)
        M += prob * (W @ W)
    return M


def test_build_mixing_full_pair():
    W = build_mixing(ActiveSet(0, (0, 1)), 2)
    assert np.allclose(W, np.full((2, 2), 0.5), atol=0)


def test_build_mixing_singleton_is_identity():
    W = build_mixing(ActiveSet(0, (0,)), 2)
    assert np.array_equal(W, np.eye(2))
    assert np.array_equal(build_mixing(ActiveSet(0, ()), 3), np.eye(3))


def test_build_mixing_partial_activation():
    W = build_mixing(ActiveSet(0, (0, 2)), 3)
    expected = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    assert np.array_equal(W, expected)


def test_build_mixing_out_of_range():
    with pytest.raises(ContractViolationError):
        build_mixing(ActiveSet(0, (3,)), 3)


def test_mixing_is_projection_and_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        members = tuple(int(i) for i in np.sort(
            rng.choice(m, size=rng.integers(0, m + 1), replace=False)))
        W = build_mixing(ActiveSet(0, members), m)
        assert np.allclose(W @ np.ones(m), np.ones(m), atol=0)
        assert np.array_equal(W, W.T)
        # W is the averaging projection on the active block, so W^2 = W.
        assert np.allclose(W @ W, W, atol=1e-15)


def test_expected_square_exact_half_half():
    M = expected_square_exact([0.5, 0.5])
    assert np.allclose(M, [[0.875, 0.125], [0.125, 0.875]], atol=1e-15)


def test_expected_square_exact_always_on():
    M = expected_square_exact([1.0, 1.0])
    assert np.allclose(M, np.full((2, 2), 0.5), atol=1e-15)


def test_expected_square_exact_matches_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = int(rng.integers(2, 7))
        p = rng.uniform(0.05, 1.0, size=m)
        exact = expected_square_exact(p)
        brute = enumerate_expected_square(p)
        assert np.max(np.abs(exact - brute)) <= 1e-12


def test_expected_square_exact_rejects_zero_probability():
    with pytest.raises(ConfigError):
        expected_square_exact([0.5, 0.0])


@pytest.mark.parametrize("p", [[0.5, float("nan")], [0.5, 1.7], [0.5, 0.0]])
def test_expected_square_mc_rejects_invalid_probability(p):
    with pytest.raises(ConfigError):
        expected_square_mc(p, 10, SeededStream(5).child("mc"))


def test_expected_square_mc_always_on():
    M = expected_square_mc([1.0, 1.0, 1.0], 10, SeededStream(5).child("mc"))
    assert np.allclose(M, np.full((3, 3), 1 / 3), atol=1e-15)
    M1 = expected_square_mc([1.0, 1.0], 1, SeededStream(5).child("mc"))
    assert np.allclose(M1, np.full((2, 2), 0.5), atol=1e-15)


def test_expected_square_mc_close_to_exact():
    M = expected_square_mc([0.5, 0.5], 1_000_000, SeededStream(6).child("mc"))
    assert np.max(np.abs(M - [[0.875, 0.125], [0.125, 0.875]])) < 0.002


def test_expected_square_mc_three_sigma_agreement():
    rng = np.random.default_rng(23)
    for _ in range(5):
        m = int(rng.integers(2, 9))
        p = rng.uniform(0.1, 1.0, size=m)
        exact = expected_square_exact(p)
        trials = 200_000
        mc = expected_square_mc(p, trials, SeededStream(int(rng.integers(1e6))).child("mc"))
        # Per-entry binomial-style bound: the averaged per-trial terms lie in [0, 1].
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / trials)
        assert np.all(np.abs(mc - exact) <= 4 * sigma + 1e-9)


def test_rho_reference_values():
    assert rho(expected_square_exact([1.0, 1.0])) == pytest.approx(0.0, abs=1e-10)
    assert rho(expected_square_exact([0.5, 0.5])) == pytest.approx(0.75, abs=1e-10)
    assert rho(np.eye(3)) == pytest.approx(1.0, abs=1e-10)


def test_ergodicity_bound_values():
    assert ergodicity_bound(1.0, 5) == pytest.approx(7.0 / 8.0, abs=0)
    assert ergodicity_bound(0.5, 2) == pytest.approx(0.99560546875, abs=0)
    assert ergodicity_bound(1e-9, 4) == pytest.approx(1.0, abs=1e-12)


def test_rho_bounded_by_ergodicity_bound():
    rng = np.random.default_rng(31)
    for c in (0.1, 0.3, 0.5, 0.9):
        for _ in range(25):
            m = int(rng.integers(2, 13))
            p = rng.uniform(c, 1.0, size=m)
            p[rng.integers(m)] = c  # pin the floor
            M = expected_square_exact(p)
            assert rho(M) <= ergodicity_bound(c, m) + 1e-12
            assert np.all(M >= entrywise_lower_bound(c, m) - 1e-12)


def test_contraction_trivial_cases():
    B = np.array([[1.0, -2.0], [0.5, 3.0]])
    rep = contraction_profile(B, [1.0, 1.0], 1, 200, SeededStream(40).child("c"))[-1]
    assert rep.lhs == pytest.approx(0.0, abs=1e-24)
    assert rep.passed

    # Identical columns: B (W - J) = 0 for every doubly-stochastic W.
    B2 = np.repeat(np.array([[1.5], [-0.5]]), 4, axis=1)
    rep2 = contraction_profile(B2, [0.4, 0.6, 0.5, 0.2], 5, 200,
                               SeededStream(41).child("c"))[-1]
    assert rep2.lhs == pytest.approx(0.0, abs=1e-24)


def test_contraction_profile_passes_randomized():
    rng = np.random.default_rng(53)
    for trial in range(5):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        B = rng.normal(size=(d, m))
        p = rng.uniform(0.2, 1.0, size=m)
        reports = contraction_profile(B, p, 10, 20_000, SeededStream(600 + trial).child("c"))
        assert all(r.passed for r in reports)
        assert [r.t for r in reports] == list(range(1, 11))


def test_contraction_profile_validates_input():
    with pytest.raises(ConfigError):
        contraction_profile(np.ones((2, 2)), [0.5, 0.5], 0, 200, SeededStream(1).child("c"))
    with pytest.raises(ConfigError):
        contraction_profile(np.ones((2, 2)), [0.5, 0.5], 1, 10, SeededStream(1).child("c"))


def test_expected_square_mc_agreement_m50():
    rng = np.random.default_rng(61)
    p = rng.uniform(0.1, 1.0, size=50)
    exact = expected_square_exact(p)
    trials = 100_000
    mc = expected_square_mc(p, trials, SeededStream(611).child("mc"))
    sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / trials)
    z = np.abs(mc - exact) / (sigma + 1e-12)
    # 2500 entry comparisons: cap at 5 sigma, budget 1% for 3-sigma events
    assert np.all(np.abs(mc - exact) <= 5 * sigma + 1e-6)
    assert (z > 3).mean() <= 0.01
