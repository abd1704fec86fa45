"""The benchmark's reference computations against brute force.

Run with ``python -m pytest perfbench``.  E[W^2], rho and the FedAvg limit
weights are checked against explicit enumeration of all 2^m activation
patterns; the stacked softmax loss against a per-client loop and its
gradient against central differences.
"""

from itertools import product

import numpy as np
import pytest

import reference


def brute_force(p):
    """E[W^2] and limit weights by summing over every activation pattern."""
    m = len(p)
    M = np.zeros((m, m))
    w = np.zeros(m)
    for bits in product((0, 1), repeat=m):
        a = np.array(bits, dtype=bool)
        prob = np.prod(np.where(a, p, 1.0 - p))
        W = np.eye(m)
        if a.any():
            W[np.ix_(a, a)] = 1.0 / a.sum()
            w += prob * a / a.sum()
        M += prob * (W @ W)
    return M, w / (1.0 - np.prod(1.0 - p))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_mixing_references_match_enumeration(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        p = rng.uniform(0.05, 1.0, size=m)
        p[rng.integers(m)] = 1.0 if rng.random() < 0.3 else p[0]
        M_brute, w_brute = brute_force(p)
        M = reference.expected_square(p)
        assert np.max(np.abs(M - M_brute)) <= 1e-14
        assert np.max(np.abs(reference.limit_weights(p) - w_brute)) <= 1e-14
        second = np.sort(np.linalg.eigvalsh(M_brute))[-2] if m > 1 else 0.0
        assert abs(reference.deflated_top_eigenvalue(M) - second) <= 1e-13


def test_mixing_bounds_hold_on_enumeration():
    rng = np.random.default_rng(7)
    for m in (2, 4, 7):
        c = 0.2
        p = rng.uniform(c, 1.0, size=m)
        p[0] = c
        M_brute, _ = brute_force(p)
        assert M_brute.min() >= reference.entrywise_lower_bound(c, m) - 1e-15
        rho = reference.deflated_top_eigenvalue(M_brute)
        assert rho <= reference.ergodicity_bound(c, m)


def test_poisson_binomial_matches_enumeration():
    q = np.array([[0.1, 0.7, 0.4, 1.0], [0.5, 0.0, 0.3, 0.9]])
    pmf = reference.poisson_binomial(q)
    for row, qr in zip(pmf, q):
        brute = np.zeros(q.shape[1] + 1)
        for bits in product((0, 1), repeat=q.shape[1]):
            a = np.array(bits, dtype=bool)
            brute[a.sum()] += np.prod(np.where(a, qr, 1.0 - qr))
        assert np.max(np.abs(row - brute)) <= 1e-15


def _clients(rng, sizes):
    return [(rng.normal(size=(n, reference.N_FEATURES)),
             rng.integers(0, reference.N_CLASSES, size=n)) for n in sizes]


def test_stacked_softmax_loss_matches_per_client_loop():
    rng = np.random.default_rng(3)
    clients = _clients(rng, [1, 4, 17])
    x = rng.normal(scale=0.3, size=reference.N_CLASSES * (reference.N_FEATURES + 1))
    W = x[:600].reshape(10, 60)
    b = x[600:]
    per_client = []
    for feats, labels in clients:
        losses = []
        for f, y in zip(feats, labels):
            z = W @ f + b
            losses.append(np.log(np.sum(np.exp(z))) - z[y])
        per_client.append(np.mean(losses))
    loss, _ = reference.stacked_softmax(x, clients)
    assert abs(loss - np.mean(per_client)) <= 1e-12
    zero_loss, _ = reference.stacked_softmax(np.zeros_like(x), clients)
    assert abs(zero_loss - np.log(10.0)) <= 1e-14


def test_stacked_softmax_gradient_matches_central_differences():
    rng = np.random.default_rng(4)
    clients = _clients(rng, [2, 9])
    x = rng.normal(scale=0.3, size=reference.N_CLASSES * (reference.N_FEATURES + 1))
    _, grad = reference.stacked_softmax(x, clients)
    h = 1e-6
    for k in rng.choice(x.size, size=25, replace=False):
        e = np.zeros_like(x)
        e[k] = h
        fd = (reference.stacked_softmax(x + e, clients)[0]
              - reference.stacked_softmax(x - e, clients)[0]) / (2 * h)
        assert abs(fd - grad[k]) <= 1e-7
