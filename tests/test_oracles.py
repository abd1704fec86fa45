import math
from math import comb

import numpy as np
import pytest

from fedsim.errors import CapacityError, ConfigError
from fedsim.objectives import QuadraticObjective
from fedsim.oracles import (LimitWeights, fedavg_limit_integral, fedavg_limit_mc,
                            fedavg_limit_subset, kappa, kappa_small_step_bound,
                            local_perturbation_check)
from fedsim.streams import SeededStream


def test_subset_single_client():
    assert fedavg_limit_subset([0.3]).w == pytest.approx([1.0])


def test_subset_uniform_probabilities():
    for m in (2, 4, 7):
        w = fedavg_limit_subset(np.full(m, 0.6)).w
        assert np.allclose(w, np.full(m, 1.0 / m), atol=1e-12)


def test_subset_two_clients_hand_value():
    # E[X1/(X1+X2)] with p=(1, 0.5): 0.5*1 + 0.5*0.5 = 0.75.
    w = fedavg_limit_subset([1.0, 0.5]).w
    assert np.allclose(w, [0.75, 0.25], atol=1e-12)


def test_integral_matches_subset():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(2, 13))
        p = rng.uniform(0.1, 1.0, size=m)
        ws = fedavg_limit_subset(p).w
        wi = fedavg_limit_integral(p).w
        assert np.max(np.abs(ws - wi)) <= 1e-12


def test_subset_capacity_error():
    with pytest.raises(CapacityError):
        fedavg_limit_subset(np.full(13, 0.5))


def test_integral_always_on():
    for m in (2, 5, 9):
        w = fedavg_limit_integral(np.ones(m)).w
        assert np.allclose(w, np.full(m, 1.0 / m), atol=1e-12)


def test_integral_two_clients_hand_value():
    assert np.allclose(fedavg_limit_integral([1.0, 0.5]).w, [0.75, 0.25], atol=1e-15)


def test_limit_weights_for_tiny_probabilities():
    # 1 - prod(1 - p) cancels to about six digits at p_i = 1e-10.
    for route in (fedavg_limit_subset, fedavg_limit_integral):
        for p in ([1e-10, 1e-10], [1e-15, 1e-15, 1e-15]):
            w = route(p).w
            assert w == pytest.approx(np.full(len(p), 1.0 / len(p)), rel=1e-12)
        assert route([1e-10, 1.0]).w == pytest.approx([0.5e-10, 1.0 - 0.5e-10], rel=1e-12)


def test_integral_large_fleet():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.1, 1.0, size=500)
    w = fedavg_limit_integral(p).w
    assert abs(w.sum() - 1.0) <= 1e-9
    # spot-check one coordinate against the product integrated directly
    from fedsim.numerics import integrate_weighted_product
    i = 137
    factors = [(1.0 - p[k], p[k]) for k in range(500) if k != i]
    denom = 1.0 - np.prod(1.0 - p)
    expected = p[i] * integrate_weighted_product(factors, 0) / denom
    assert w[i] == pytest.approx(expected, rel=1e-10)


def test_mc_exact_for_always_on():
    w = fedavg_limit_mc([1.0, 1.0], 10_000, SeededStream(1).child("mc"))
    assert np.allclose(w.w, [0.5, 0.5], atol=0)


def test_mc_close_to_exact():
    w = fedavg_limit_mc([1.0, 0.5], 1_000_000, SeededStream(2).child("mc"))
    assert np.max(np.abs(w.w - [0.75, 0.25])) < 0.002


def test_mc_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for trial in range(5):
        m = int(rng.integers(2, 8))
        p = rng.uniform(0.2, 1.0, size=m)
        w = fedavg_limit_mc(p, 50_000, SeededStream(100 + trial).child("mc"))
        assert w.w.sum() == pytest.approx(1.0, abs=1e-12)


def test_mc_requires_enough_trials():
    with pytest.raises(ConfigError):
        fedavg_limit_mc([0.5, 0.5], 100, SeededStream(4).child("mc"))


def test_three_way_agreement_randomized():
    rng = np.random.default_rng(11)
    for trial in range(10):
        m = int(rng.integers(2, 10))
        p = rng.uniform(0.1, 1.0, size=m)
        ws = fedavg_limit_subset(p).w
        wi = fedavg_limit_integral(p).w
        assert np.max(np.abs(ws - wi)) <= 1e-12
        trials = 200_000
        wm = fedavg_limit_mc(p, trials, SeededStream(300 + trial).child("mc")).w
        sigma = np.sqrt(ws * (1 - ws) / trials)  # conservative per-trial scale
        assert np.all(np.abs(wm - ws) <= 4 * sigma + 1e-6)


def test_weights_positive_and_bias_nonzero_for_nonuniform():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = int(rng.integers(2, 9))
        p = rng.uniform(0.1, 1.0, size=m)
        if np.allclose(p, p[0]):
            continue
        w = fedavg_limit_integral(p).w
        assert np.all(w > 0)
        U = rng.normal(size=(4, m))
        bias = np.linalg.norm(U @ w - U.mean(axis=1))
        assert bias > 0


def test_kappa_special_values():
    assert kappa(0.3, 2.0, 1) == 0.0
    for eta, L in ((0.01, 1.0), (0.5, 3.0), (1e-8, 10.0)):
        assert kappa(eta, L, 2) == pytest.approx(1.0, abs=0)


def test_kappa_matches_direct_formula():
    # The closed-form ratio loses digits to cancellation as eta*L -> 0
    # (the reason the binomial sum is the implementation), so the direct
    # comparison stays in the well-conditioned range.
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = int(rng.integers(2, 40))
        L = float(rng.uniform(0.1, 4.0))
        eta = float(rng.uniform(0.05, 0.5) / L)
        direct = ((1 + eta * L) ** s - 1 - s * eta * L) / (comb(s, 2) * (eta * L) ** 2)
        assert kappa(eta, L, s) == pytest.approx(direct, rel=1e-10)


def test_kappa_small_step_taylor():
    # kappa = 1 + (s-2)/3 * eta L + O((eta L)^2): the binomial sum stays
    # exact where the closed form cancels.
    for s in (2, 5, 17):
        for x in (1e-9, 1e-7, 1e-5):
            expected = 1.0 + (s - 2) / 3.0 * x
            assert kappa(x, 1.0, s) == pytest.approx(expected, abs=5 * x * x * s * s)


def test_kappa_monotone_in_eta():
    for s in (2, 3, 10, 25):
        values = [kappa(eta, 1.3, s) for eta in np.geomspace(1e-6, 1.0, 40)]
        assert all(a <= b * (1 + 1e-15) for a, b in zip(values, values[1:]))
        assert values[0] >= 1.0 - 1e-12  # kappa >= 1 for s >= 2


def test_kappa_small_step_bound():
    for c in (0.1, 0.5, 1.0, 2.0):
        for s in (2, 5, 20):
            L = 1.7
            eta = c / (s * L)
            assert kappa(eta, L, s) <= kappa_small_step_bound(c) * (1 + 1e-12)


def test_perturbation_zero_gradient_fixed_point():
    obj = QuadraticObjective(np.array([[2.0], [1.0]]).reshape(2, 1))
    rep = local_perturbation_check(obj, 0, np.array([2.0, 1.0]), 5, 0.1)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_perturbation_single_step():
    obj = QuadraticObjective(np.array([[3.0]]))
    rep = local_perturbation_check(obj, 0, np.array([1.0]), 1, 0.2)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_perturbation_matches_closed_form_trajectory():
    # For the quadratic, x_k = (1-eta)^k x + (1 - (1-eta)^k) u, so the
    # deviation sum has the closed form (s - (1 - (1-eta)^s)/eta)||x - u||.
    obj = QuadraticObjective(np.array([[2.0, -1.0], [0.5, 4.0]]))
    x = np.array([-1.0, 3.0])
    for s, eta in ((2, 0.3), (7, 0.05), (20, 0.01)):
        rep = local_perturbation_check(obj, 1, x, s, eta)
        closed = (s - (1 - (1 - eta) ** s) / eta) * np.linalg.norm(x - obj.targets[:, 1])
        assert rep.lhs == pytest.approx(closed, rel=1e-10)
        assert rep.passed


def test_perturbation_holds_on_random_grid():
    rng = np.random.default_rng(29)
    obj = QuadraticObjective(rng.normal(size=(3, 5)))
    for s in range(2, 31, 4):
        for eta in np.geomspace(1e-4, 0.5, 8):
            x = rng.normal(size=3)
            i = int(rng.integers(5))
            assert local_perturbation_check(obj, i, x, int(s), float(eta)).passed


def test_limit_weights_validation():
    with pytest.raises(ConfigError):
        LimitWeights(w=np.array([0.7, 0.7]), method="integral")
    with pytest.raises(ConfigError):
        fedavg_limit_integral([0.5, 0.0])
