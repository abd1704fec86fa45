"""Implicit-gossip mixing matrices and their expected-square spectra.

When the server averages the active clients' models and multicasts the
result back to exactly those clients, the stacked client models are
multiplied on the right by the doubly-stochastic matrix

    W_ij = 1/|A|  if i, j in A;   1  if i = j and i not in A;   0  otherwise,

which is the identity whenever |A| <= 1.  The speed at which this random
averaging forgets initial disagreement is governed by the second-largest
eigenvalue of M = E[W^2].  This module builds W for a realized active set,
computes M both in closed form and by Monte Carlo, evaluates the spectral
quantity rho = lambda_2(M), the activation-floor ergodicity bound, and the
geometric contraction inequality E||B(prod_r W_r - 11^T/m)||_F^2 <= rho^t ||B||_F^2.

Closed form (unconditional over all activation patterns, with W = I on the
empty set): for activation probabilities p and q = 1 - p,

    M_jj  = p_j * ∫_0^1 prod_{k != j} (q_k + p_k s) ds + q_j
    M_jj' = p_j p_j' * ∫_0^1 s * prod_{k not in {j,j'}} (q_k + p_k s) ds

using E[1/(1+S)] = ∫_0^1 E[s^S] ds for a Bernoulli sum S.  On the
Gauss–Legendre data of ``numerics.bernoulli_quadrature`` (nodes s_n,
weights w_n, full products P_n, reciprocal factors G) and with
A = p ∘ G, the off-diagonal block is the single matrix product
A diag(w s P) A^T and the diagonal is the matrix-vector product
p ∘ (G (w P)) + q.  Every entry is bounded below by (c^2/m) * (1 - (1-c)^m)
when p >= c entry-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ConfigError, ContractViolationError
from .link_model import ActiveSet
from .numerics import (bernoulli_quadrature, second_eigenvalue_sym,
                       validate_probabilities)
from .streams import SeededStream

_MC_CHUNK = 65_536


def build_mixing(active: ActiveSet, m: int) -> np.ndarray:
    """The gossip matrix realized by one active set (identity if |A| <= 1)."""
    members = list(active.members)
    if members and members[-1] >= m:
        raise ContractViolationError(
            f"active client {members[-1]} out of range for m={m}")
    W = np.eye(m)
    if len(members) >= 1:
        idx = np.array(members)
        W[np.ix_(idx, idx)] = 1.0 / len(members)
    return W


def expected_square_exact(p) -> np.ndarray:
    """Closed-form m x m E[W^2] by Gauss–Legendre quadrature (module docstring)."""
    p = validate_probabilities(p)
    s, w, P, G = bernoulli_quadrature(p)
    A = p[:, None] * G
    M = (A * (w * s * P)) @ A.T
    M = 0.5 * (M + M.T)  # exactly symmetric: fl(a + b) = fl(b + a)
    M[np.diag_indices(p.size)] = p * (G @ (w * P)) + (1.0 - p)
    return M


def expected_square_mc(p, trials: int, stream: SeededStream) -> np.ndarray:
    """Monte Carlo E[W^2] over ``trials`` sampled active sets.

    Uses the per-sample identity (W^2)_jj' = 1{j,j' in A}/|A| off the
    diagonal and (W^2)_jj = 1{j in A}/|A| + 1{j not in A}, which follows
    from W being the averaging projection on the active block.  The
    estimate meets the structural invariants only up to sampling noise.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    p = validate_probabilities(p)
    m = p.size
    gen = stream.child("mc").generator()
    acc = np.zeros((m, m))
    inactive = np.zeros(m)
    done = 0
    while done < trials:
        c = min(_MC_CHUNK, trials - done)
        a = (gen.random((c, m)) < p).astype(float)
        sizes = a.sum(axis=1)
        z = a / np.maximum(sizes, 1.0)[:, None]
        acc += a.T @ z
        inactive += c - a.sum(axis=0)
        done += c
    M = acc / trials
    M[np.diag_indices(m)] += inactive / trials
    return 0.5 * (M + M.T)


def rho(M: np.ndarray) -> float:
    """Second-largest eigenvalue of an expected-square mixing matrix.

    For a time-varying probability process, evaluate per round and track
    the running maximum (``harness.mixing_report`` does); the analytic
    ``ergodicity_bound`` certifies the unbounded-horizon maximum.
    """
    return second_eigenvalue_sym(np.asarray(M, float))


def ergodicity_bound(c: float, m: int) -> float:
    """Upper bound 1 - c^4 (1-(1-c)^m)^2 / 8 on rho for activation floor c."""
    if not (0.0 < c <= 1.0):
        raise ConfigError("activation floor must lie in (0, 1]")
    if m < 1:
        raise ConfigError("client count must be >= 1")
    reach = 1.0 - (1.0 - c) ** m
    return 1.0 - (c ** 4) * (reach ** 2) / 8.0


def entrywise_lower_bound(c: float, m: int) -> float:
    """Lower bound (c^2/m)(1-(1-c)^m) on every entry of the exact E[W^2]."""
    if not (0.0 < c <= 1.0):
        raise ConfigError("activation floor must lie in (0, 1]")
    return (c * c / m) * (1.0 - (1.0 - c) ** m)


@dataclass(frozen=True)
class ContractionReport:
    t: int
    lhs: float
    rhs: float
    std_error: float
    passed: bool


def contraction_profile(B, p, t_max: int, trials: int,
                        stream: SeededStream) -> List[ContractionReport]:
    """Monte Carlo check of the geometric contraction at every horizon <= t_max.

    lhs is the sample mean of ||B (prod_{r<=t} W_r - 11^T/m)||_F^2 over
    independent mixing sequences; rhs is rho^t ||B||_F^2 with rho from the
    exact expected square; a horizon passes when lhs <= rhs + 3 SE.
    """
    if t_max < 1:
        raise ConfigError("horizon must be >= 1")
    if trials < 100:
        raise ConfigError("need at least 100 trials")
    B = np.asarray(B, dtype=float)
    if B.ndim != 2:
        raise ConfigError("B must be a d x m matrix")
    p = validate_probabilities(p)
    d, m = B.shape
    if m != p.size:
        raise ConfigError("B column count must match the probability vector")

    rho_val = rho(expected_square_exact(p))
    fro2 = float((B * B).sum())
    BJ = B.mean(axis=1)[:, None]  # B @ (11^T/m): every column is the row mean

    gen = stream.child("w").generator()
    n = np.zeros(t_max)
    s1 = np.zeros(t_max)
    s2 = np.zeros(t_max)
    done = 0
    while done < trials:
        c = min(_MC_CHUNK, trials - done)
        Y = np.broadcast_to(B, (c, d, m)).copy()
        for r in range(t_max):
            a = (gen.random((c, m)) < p).astype(float)
            cnt = a.sum(axis=1)
            means = np.einsum("tdm,tm->td", Y, a) / np.maximum(cnt, 1.0)[:, None]
            # Columns in A move to the active mean; with |A| <= 1 this is
            # the identity, matching W's definition.
            Y = Y * (1.0 - a)[:, None, :] + means[:, :, None] * a[:, None, :]
            dev = Y - BJ[None, :, :]
            per_trial = np.einsum("tdm,tdm->t", dev, dev)
            n[r] += c
            s1[r] += per_trial.sum()
            s2[r] += (per_trial * per_trial).sum()
        done += c

    reports = []
    for r in range(t_max):
        lhs = s1[r] / n[r]
        var = max(0.0, (s2[r] - s1[r] * s1[r] / n[r]) / (n[r] - 1.0))
        se = math.sqrt(var / n[r])
        rhs = (rho_val ** (r + 1)) * fro2
        reports.append(ContractionReport(t=r + 1, lhs=float(lhs), rhs=float(rhs),
                                         std_error=float(se),
                                         passed=bool(lhs <= rhs + 3.0 * se)))
    return reports
