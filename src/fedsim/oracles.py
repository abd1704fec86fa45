"""Ground truths for the bias of intermittent averaging.

For the quadratic objectives with exact local gradients, a constant step
size, and static activation probabilities p, the server iterate of the
broadcast-first algorithm converges in expectation to a *reweighted*
average of the client targets,

    lim x^T = sum_i w_i u_i,    w_i = p_i E[1/(1 + S_i)] / (1 - prod_k (1 - p_k)),

where S_i is the number of *other* active clients, a sum of independent
Bernoulli(p_k) variables.  The weights are the conditional expectations
E[X_i / sum_j X_j | some client active] and sum to one; they equal 1/m
exactly when the p_i are uniform, so any non-uniformity tilts the
limit away from the true optimum (1/m) sum_i u_i.

Three independent routes compute the weights:

* ``fedavg_limit_subset``   — inclusion-exclusion over subsets:
  E[1/(1+S_i)] = sum_{S subset of others} (-1)^{|S|} prod_{z in S} p_z / (|S|+1),
  enumerated literally, one term per subset, up to m = 12.
* ``fedavg_limit_integral`` — the identity E[1/(1+S_i)] =
  ∫_0^1 prod_{k != i} ((1-p_k) + p_k s) ds, whose integrand is a
  polynomial of degree m - 1, evaluated exactly by Gauss–Legendre
  quadrature: on the data of ``numerics.bernoulli_quadrature`` the weights
  of all clients are one matrix-vector product, p ∘ (G (w P)).
* ``fedavg_limit_mc``       — Monte Carlo over activation patterns with the
  0/0 = 0 convention, normalized by the empirical non-empty probability.

Also here: the drift constant ``kappa`` bounding how far s local gradient
steps stray from s copies of the first step, and the corresponding
per-client perturbation inequality check on quadratic objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

import numpy as np

from .errors import CapacityError, ConfigError, StatisticalError
from .numerics import bernoulli_quadrature, validate_probabilities
from .objectives import QuadraticObjective
from .streams import SeededStream

SUBSET_MAX = 12  # literal enumeration visits 2^(m-1) subsets per client
_MC_CHUNK = 1 << 18

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LimitWeights:
    """Convex weights over the client targets in the stationary mean."""

    w: np.ndarray
    method: str

    def __post_init__(self):
        if self.method in ("subset", "integral"):
            if abs(float(self.w.sum()) - 1.0) > WEIGHT_SUM_TOL:
                raise ConfigError(f"limit weights must sum to 1 (method={self.method})")
        if np.any(self.w < -1e-12) or np.any(self.w > 1.0 + 1e-12):
            raise ConfigError("limit weights must lie in [0, 1]")

    def limit_point(self, targets: np.ndarray) -> np.ndarray:
        return np.asarray(targets, float) @ self.w


def _nonempty_probability(p: np.ndarray) -> float:
    """1 - prod(1 - p), in log space: the direct form cancels to a few
    digits when every p_i is tiny."""
    if np.any(p == 1.0):
        return 1.0
    return -math.expm1(float(np.sum(np.log1p(-p))))


def _bracket_enumerated(others: np.ndarray) -> float:
    # E[1/(1+S)] = sum over subsets S of (-1)^|S| prod p / (|S|+1).
    terms = [1.0]
    vals = [float(v) for v in others]
    for size in range(1, len(vals) + 1):
        sign = -1.0 if size % 2 else 1.0
        coeff = sign / (size + 1)
        terms.extend(coeff * prod(combo) for combo in combinations(vals, size))
    return math.fsum(terms)


def fedavg_limit_subset(p) -> LimitWeights:
    """Limit weights by explicit subset enumeration (m <= 12)."""
    p = validate_probabilities(p)
    m = p.size
    if m > SUBSET_MAX:
        raise CapacityError(
            f"subset route enumerates 2^m patterns and is capped at m={SUBSET_MAX}; "
            "use fedavg_limit_integral for larger fleets")
    denom = _nonempty_probability(p)
    w = np.empty(m)
    for i in range(m):
        others = np.delete(p, i)
        w[i] = p[i] * _bracket_enumerated(others) / denom
    return LimitWeights(w=w, method="subset")


def fedavg_limit_integral(p) -> LimitWeights:
    """Limit weights via E[1/(1+S_i)] = ∫_0^1 prod_{k != i} [(1-p_k) + p_k s] ds."""
    p = validate_probabilities(p)
    _, weights, P, G = bernoulli_quadrature(p)
    w = p * (G @ (weights * P)) / _nonempty_probability(p)
    return LimitWeights(w=w, method="integral")


def fedavg_limit_mc(p, trials: int, stream: SeededStream) -> LimitWeights:
    """Monte Carlo weights: mean of X_i / sum X (0/0 = 0) over activation
    patterns, divided by the empirical non-empty frequency."""
    if trials < 10_000:
        raise ConfigError("Monte Carlo route needs at least 10^4 trials")
    p = validate_probabilities(p)
    m = p.size
    gen = stream.child("mc").generator()
    acc = np.zeros(m)
    nonempty = 0
    done = 0
    while done < trials:
        c = min(_MC_CHUNK, trials - done)
        a = (gen.random((c, m)) < p).astype(float)
        sizes = a.sum(axis=1)
        live = sizes > 0
        nonempty += int(live.sum())
        acc += (a[live] / sizes[live, None]).sum(axis=0)
        done += c
    if nonempty == 0:
        raise StatisticalError("no non-empty activation patterns were sampled")
    return LimitWeights(w=acc / nonempty, method="monte_carlo")


def kappa(eta: float, L: float, s: int) -> float:
    """Drift amplification of s local steps: ((1+eta L)^s - 1 - s eta L)
    / (C(s,2) (eta L)^2), via the binomial sum
    sum_{i=2..s} C(s,i) (eta L)^{i-2} / C(s,2), exact and free of 0/0.

    Zero when s = 1; exactly 1 when s = 2; non-decreasing in eta.
    """
    if not (eta > 0) or not (L > 0):
        raise ConfigError("eta and L must be positive")
    if s < 1:
        raise ConfigError("s must be >= 1")
    if s == 1:
        return 0.0
    x = eta * L
    acc = 0.0
    for i in range(s, 1, -1):
        acc = acc * x + comb(s, i)
    return acc / comb(s, 2)


def kappa_small_step_bound(c: float) -> float:
    """Upper bound (e^c - 1 - c)/(c^2/2) on kappa whenever eta <= c/(s L)."""
    if not (c > 0):
        raise ConfigError("c must be positive")
    return (math.exp(c) - 1.0 - c) / (c * c / 2.0)


@dataclass(frozen=True)
class PerturbationReport:
    lhs: float
    rhs: float
    passed: bool


def local_perturbation_check(objective: QuadraticObjective, i: int, x: np.ndarray,
                             s: int, eta: float) -> PerturbationReport:
    """Check || sum_k (grad(x_k) - grad(x_0)) || <= kappa eta C(s,2) L ||grad(x_0)||
    along the s-step trajectory of client i's quadratic loss (L = 1)."""
    if s < 1:
        raise ConfigError("s must be >= 1")
    x = np.asarray(x, dtype=float)
    g0 = objective.gradient(i, x)
    dev = np.zeros_like(g0)
    xk = x.copy()
    for _ in range(s):
        dev += objective.gradient(i, xk) - g0
        xk = xk - eta * objective.gradient(i, xk)
    lhs = float(np.linalg.norm(dev))
    rhs = (0.0 if s == 1
           else kappa(eta, 1.0, s) * eta * comb(s, 2) * float(np.linalg.norm(g0)))
    return PerturbationReport(lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + 1e-12))
