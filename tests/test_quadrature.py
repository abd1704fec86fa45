"""The Gauss–Legendre closed forms against a Poisson-binomial reference,
and their structural invariants as property tests."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from fedsim.mixing import entrywise_lower_bound, ergodicity_bound, expected_square_exact, rho
from fedsim.oracles import fedavg_limit_integral


def mean_inverse(p, excluded, offset):
    """E[1/(offset + S)] where S counts the active clients outside each row
    of the boolean mask ``excluded``, from the distribution of S built by
    dynamic programming over the clients."""
    q = np.where(excluded, 0.0, p)
    pmf = np.zeros((q.shape[0], p.size + 1))
    pmf[:, 0] = 1.0
    for k in range(p.size):
        qk = q[:, k:k + 1]
        pmf[:, 1:] = pmf[:, 1:] * (1.0 - qk) + pmf[:, :-1] * qk
        pmf[:, :1] *= 1.0 - qk
    return pmf @ (1.0 / (offset + np.arange(p.size + 1)))


def test_expected_square_matches_poisson_binomial_at_fig3_scale():
    rng = np.random.default_rng(150)
    p = rng.uniform(0.1, 1.0, size=150)
    p[:3] = 1.0
    m = p.size
    ref = np.diag(p * mean_inverse(p, np.eye(m, dtype=bool), 1) + (1.0 - p))
    j, jp = np.triu_indices(m, k=1)
    pairs = np.zeros((j.size, m), dtype=bool)
    pairs[np.arange(j.size), j] = True
    pairs[np.arange(j.size), jp] = True
    ref[j, jp] = ref[jp, j] = p[j] * p[jp] * mean_inverse(p, pairs, 2)
    assert np.max(np.abs(expected_square_exact(p) - ref)) <= 1e-12


def test_limit_weights_match_poisson_binomial_at_m300():
    rng = np.random.default_rng(300)
    p = rng.uniform(0.1, 1.0, size=300)
    p[:3] = 1.0
    ref = p * mean_inverse(p, np.eye(p.size, dtype=bool), 1) / (1.0 - np.prod(1.0 - p))
    assert np.max(np.abs(fedavg_limit_integral(p).w - ref)) <= 1e-12


@st.composite
def probability_vectors(draw):
    """m in 2..200 with floor c in [0.05, 1] as the first entry; the rest lie
    in [c, 1], with 1 drawn often."""
    m = draw(st.integers(2, 200))
    c = draw(st.floats(0.05, 1.0))
    rest = draw(st.lists(st.one_of(st.just(1.0), st.floats(c, 1.0)),
                         min_size=m - 1, max_size=m - 1))
    return np.array([c] + rest)


@given(probability_vectors())
def test_expected_square_invariants(p):
    M = expected_square_exact(p)
    m, c = p.size, float(p.min())
    assert np.array_equal(M, M.T)
    assert np.max(np.abs(M.sum(axis=1) - 1.0)) <= 1e-12
    assert M.min() >= entrywise_lower_bound(c, m) - 1e-12
    assert rho(M) <= ergodicity_bound(c, m) + 1e-12


@given(probability_vectors(), st.data())
def test_limit_weight_invariants(p, data):
    w = fedavg_limit_integral(p).w
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert abs(w.sum() - 1.0) <= 1e-12
    perm = np.array(data.draw(st.permutations(range(p.size))))
    assert np.max(np.abs(fedavg_limit_integral(p[perm]).w - w[perm])) <= 1e-12
