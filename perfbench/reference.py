"""Reference computations the benchmark checks fedsim against.

Nothing here imports fedsim.  Each quantity is computed by a different
route from the package's:

* ``expected_square`` and ``limit_weights`` from the Poisson-binomial
  distribution of the active count, built by dynamic programming over the
  clients (fedsim integrates generating-function polynomials instead);
* ``deflated_top_eigenvalue`` from ``numpy.linalg.eigvalsh`` of
  ``M - 11^T/m`` (fedsim runs power iteration);
* ``stacked_softmax`` as one cross-entropy over every client's stacked
  train set with per-sample weights ``1/(m n_i)`` (fedsim loops over
  clients).

``test_reference.py`` checks the first three against brute-force ``2^m``
enumeration of activation patterns.
"""

from __future__ import annotations

import numpy as np

N_FEATURES = 60
N_CLASSES = 10


def poisson_binomial(q: np.ndarray) -> np.ndarray:
    """Row r of the result is the pmf of the number of successes among
    independent Bernoulli(q[r, k]) trials, k = 0..n-1 (support 0..n)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    rows, n = q.shape
    pmf = np.zeros((rows, n + 1))
    pmf[:, 0] = 1.0
    for k in range(n):
        qk = q[:, k:k + 1]
        pmf[:, 1:] = pmf[:, 1:] * (1.0 - qk) + pmf[:, :-1] * qk
        pmf[:, :1] *= 1.0 - qk
    return pmf


def _others_mean_inverse(p: np.ndarray, excluded: np.ndarray, offset: int) -> np.ndarray:
    """E[1/(offset + S)] where S counts the active clients outside each row
    of ``excluded`` (a boolean mask per row)."""
    q = np.where(excluded, 0.0, p[None, :])
    pmf = poisson_binomial(q)
    return pmf @ (1.0 / (offset + np.arange(p.size + 1)))


def limit_weights(p) -> np.ndarray:
    """FedAvg limit weights w_i = p_i E[1/(1+S_i)] / P(some client active)."""
    p = np.asarray(p, dtype=float)
    inv = _others_mean_inverse(p, np.eye(p.size, dtype=bool), 1)
    return p * inv / (1.0 - np.prod(1.0 - p))


def expected_square(p) -> np.ndarray:
    """E[W^2] for independent activations p, with W = I on |A| <= 1.

    W^2 = W, so (W^2)_jj' = 1{j, j' in A} / |A| off the diagonal and
    1{j in A} / |A| + 1{j not in A} on it.
    """
    p = np.asarray(p, dtype=float)
    m = p.size
    M = np.diag(p * _others_mean_inverse(p, np.eye(m, dtype=bool), 1) + (1.0 - p))
    j, jp = np.triu_indices(m, k=1)
    if j.size:
        excluded = np.zeros((j.size, m), dtype=bool)
        rows = np.arange(j.size)
        excluded[rows, j] = True
        excluded[rows, jp] = True
        off = p[j] * p[jp] * _others_mean_inverse(p, excluded, 2)
        M[j, jp] = off
        M[jp, j] = off
    return M


def deflated_top_eigenvalue(M) -> float:
    """Largest eigenvalue of M - 11^T/m (rho for an expected-square matrix)."""
    M = np.asarray(M, dtype=float)
    m = M.shape[0]
    if m == 1:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (M + M.T) - 1.0 / m)[-1])


def entrywise_lower_bound(c: float, m: int) -> float:
    """(c^2/m)(1 - (1-c)^m): every entry of E[W^2] is at least this when p >= c."""
    return (c * c / m) * (1.0 - (1.0 - c) ** m)


def ergodicity_bound(c: float, m: int) -> float:
    """1 - c^4 (1 - (1-c)^m)^2 / 8: rho is at most this when p >= c."""
    return 1.0 - c ** 4 * (1.0 - (1.0 - c) ** m) ** 2 / 8.0


def stacked_softmax(x, clients) -> tuple:
    """Uniform client-average train loss and its gradient at x.

    ``clients`` is a sequence of (features, labels) pairs.  x holds the
    10x60 weight matrix row-major, then the 10 biases.  The loss is the
    mean over clients of each client's mean cross-entropy, computed as one
    weighted sum over all samples.
    """
    x = np.asarray(x, dtype=float)
    W = x[:N_CLASSES * N_FEATURES].reshape(N_CLASSES, N_FEATURES)
    b = x[N_CLASSES * N_FEATURES:]
    feats = np.concatenate([f for f, _ in clients])
    labels = np.concatenate([y for _, y in clients])
    weights = np.concatenate([np.full(len(y), 1.0 / (len(clients) * len(y)))
                              for _, y in clients])
    z = feats @ W.T + b
    z -= z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    rows = np.arange(labels.size)
    loss = float(weights @ (lse - z[rows, labels]))
    delta = np.exp(z - lse[:, None])
    delta[rows, labels] -= 1.0
    delta *= weights[:, None]
    grad = np.concatenate([(delta.T @ feats).ravel(), delta.sum(axis=0)])
    return loss, grad
