"""Quadrature and spectral primitives for mixing analysis.

Every closed form in ``mixing`` and ``oracles`` is an expectation over a
sum S of independent Bernoulli(p_k) variables, and each one reduces to an
integral of a product of linear factors: with q = 1 - p,

    E[1/(1+S)] = ∫_0^1 prod_k (q_k + p_k s) ds,

and E[1/(2+S)] picks up one extra factor of s.  The integrands are
polynomials of degree at most m, so Gauss–Legendre quadrature with
``m//2 + 2`` nodes integrates them exactly up to rounding (Golub & Welsch,
Math. Comp. 23, 1969).  Three operations live here (plus the file rules:
``read_text`` and ``csv_records`` read every input file, ``integer`` and
``real`` every number in any input, ``write_text`` (under ``write_csv`` and
``write_json``) every output file, and ``format_real`` each CSV and config real):

* ``bernoulli_quadrature`` — the kernel.  For a probability vector it
  returns the nodes and weights on [0, 1], the full product
  ``P(s_n) = prod_k (q_k + p_k s_n)`` at every node, and the reciprocal
  factors ``G[j, n] = 1/(q_j + p_j s_n)``.  Leaving client j (or j and j')
  out of the product is a multiplication by G, so a whole matrix of such
  integrals is one matrix product.

* ``integrate_weighted_product`` — ``∫_0^1 s^w prod_k (a_k + b_k s) ds``
  for general linear factors, on the same cached rule.

* ``second_eigenvalue_sym`` — the second-largest eigenvalue of a symmetric
  doubly-stochastic matrix, from a dense symmetric eigensolver.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ContractViolationError, FedsimError

SYMMETRY_TOL = 1e-12
STOCHASTIC_TOL = 1e-12

# Newton steps that refine numpy's Gauss–Legendre nodes in extended
# precision; from numpy's accuracy, two reach extended-precision rounding.
_NEWTON_STEPS = 2

# CSV lines per block: a dataset block is about 300 KB, a trace block 6 KB.
_BLOCK_LINES = 256


def format_real(x: float) -> str:
    """A real as every CSV file and the canonical config text write it: 17
    significant digits, which round-trip any float64 (JSON output uses
    Python's shortest repr)."""
    return f"{x:.17g}"


def _plain(text: str) -> str:
    """``text`` without the ``_`` digit separators ``int`` and ``float`` read."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return text


def integer(text: str) -> int:
    """An integer in any input: ``int``, but ``1_0`` is a ``ValueError``."""
    return int(_plain(text))


def real(text: str) -> float:
    """A real in any input: ``float``, but ``0_5`` is a ``ValueError``."""
    return float(_plain(text))


def _lines(path) -> Iterator[str]:
    """A UTF-8 input file's lines, streamed; any other bytes are malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as err:  # no offset: err.start is chunk-relative
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason})") from None


def read_text(path) -> str:
    """The whole text of a UTF-8 input file."""
    return "".join(_lines(path))


def csv_records(path, what: str,
                n_fields: Optional[int] = None) -> Iterator[Tuple[str, List[str]]]:
    """Stream a UTF-8 CSV file as ``(where, fields)`` per line, ``where`` being
    ``"<what> line N"``; a line after line 1 (the header) with other than
    ``n_fields`` fields raises ``ConfigError``.  An empty file yields nothing.

    ``n_fields=None`` reads a headerless table instead: blank lines are
    skipped, and every row must have the first row's field count.
    """
    table = n_fields is None
    first = True
    for lineno, line in enumerate(_lines(path), start=1):
        if table and not line.strip():
            continue
        where, fields = f"{what} line {lineno}", line.rstrip("\n").split(",")
        if first:
            first = False
            n_fields = len(fields) if table else n_fields
        elif len(fields) != n_fields:
            raise ConfigError(f"{where}: expected {n_fields} fields, got {len(fields)}")
        yield where, fields


def write_text(path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` as UTF-8, line ends as given: the one place fedsim
    opens a file to write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> str:
    """Write LF-ended CSV lines in blocks; returns the SHA-256 hex digest of
    the bytes.  A float is written by ``format_real``, ``None`` as an empty
    field, the rest by ``str``; pass arrays as ``tolist()`` (numpy scalars are slower)."""
    digest = hashlib.sha256()
    lines = (",".join(["" if v is None else format_real(v) if isinstance(v, float)
                       else str(v) for v in row]) + "\n"
             for row in itertools.chain([header], rows))

    def blocks():
        while block := "".join(itertools.islice(lines, _BLOCK_LINES)):
            digest.update(block.encode("utf-8"))
            yield block

    write_text(path, blocks())
    return digest.hexdigest()


def write_json(path, obj) -> None:
    """Write ``obj`` as JSON indented by 2, then a newline."""
    write_text(path, [json.dumps(obj, indent=2) + "\n"])


def validate_probabilities(p) -> np.ndarray:
    """A non-empty vector of activation probabilities, each in (0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ConfigError("need a non-empty probability vector")
    # Written so that NaN fails the test as well.
    if not ((p > 0.0) & (p <= 1.0)).all():
        raise ConfigError("activation probabilities must lie in (0, 1]")
    return p


def _legendre(n: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The Legendre polynomial P_n and its derivative at x in (-1, 1)."""
    prev, cur = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, n * (x * cur - prev) / (x * x - 1)


@functools.lru_cache(maxsize=128)
def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss–Legendre rule on [0, 1].

    numpy's nodes are refined by Newton's method on the three-term
    recurrence in ``np.longdouble`` before rounding to float64.  Unrefined,
    they integrate s^999 with a relative error of 5e-12, and the row sums of
    E[W^2] at m = 1000 are off by up to 5e-12, beyond ``STOCHASTIC_TOL``;
    refined with 80-bit long doubles, the errors are 1.5e-14 and 6e-15.
    (Where long double is float64, the refinement gains nothing.)
    The returned arrays are shared between callers and read-only.
    """
    x, _ = np.polynomial.legendre.leggauss(n)
    x = x.astype(np.longdouble)
    for _ in range(_NEWTON_STEPS):
        value, slope = _legendre(n, x)
        x = x - value / slope
    _, slope = _legendre(n, x)
    s = ((1 + x) / 2).astype(float)
    w = (1 / ((1 - x * x) * slope * slope)).astype(float)
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def bernoulli_quadrature(p: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature data ``(s, w, P, G)`` for validated probabilities p.

    ``s`` and ``w`` are the ``m//2 + 2`` Gauss–Legendre nodes and weights
    on [0, 1]; ``P[n] = prod_k (q_k + p_k s_n)`` with q = 1 - p, summed in
    log space; ``G[j, n] = 1 / (q_j + p_j s_n)``.  For any set J of clients
    and power e <= |J| + 2,

        ∫_0^1 s^e prod_{k not in J} (q_k + p_k s) ds
            = sum_n w_n s_n^e P[n] prod_{j in J} G[j, n].
    """
    s, w = gauss_legendre(p.size // 2 + 2)
    factors = (1.0 - p)[:, None] + p[:, None] * s
    P = np.exp(np.log(factors).sum(axis=0))
    return s, w, P, 1.0 / factors


def integrate_weighted_product(factors: Iterable[Tuple[float, float]],
                               weight_power: int = 0) -> float:
    """Exact ``∫_0^1 s^w * prod_k (a_k + b_k s) ds``.

    The integrand is a polynomial of degree ``len(factors) + w``; the
    Gauss–Legendre rule with ``degree//2 + 2`` nodes integrates it exactly
    up to rounding.
    """
    if weight_power < 0:
        raise ValueError("weight_power must be >= 0")
    ab = np.array(list(factors), dtype=float).reshape(-1, 2)
    if not np.all(np.isfinite(ab)):
        raise ValueError("factor coefficients must be finite")
    s, w = gauss_legendre((len(ab) + weight_power) // 2 + 2)
    values = s ** weight_power * np.prod(ab[:, :1] + ab[:, 1:] * s, axis=0)
    total = float(w @ values)
    if not math.isfinite(total):
        raise FedsimError("integral overflowed; factor magnitudes are pathological")
    return total


def _validate_sym_stochastic(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] < 1:
        raise ContractViolationError("matrix must be at least 1x1")
    if not np.all(np.isfinite(M)):
        raise ContractViolationError("matrix entries must be finite")
    asym = np.max(np.abs(M - M.T)) if M.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ContractViolationError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    row_err = np.max(np.abs(M.sum(axis=1) - 1.0))
    if row_err > STOCHASTIC_TOL:
        raise ContractViolationError(
            f"matrix rows must sum to 1 (max deviation {row_err:.3e})")
    return M


def second_eigenvalue_sym(M) -> float:
    """Largest eigenvalue of symmetric doubly-stochastic M off the all-ones vector.

    Double stochasticity makes the all-ones vector an exact eigenvector
    with eigenvalue 1.  Subtracting 3/m from every entry moves that
    eigenvalue to -2 and leaves the rest of the spectrum, which lies in
    [-1, 1] for non-negative M, unchanged; the top eigenvalue of the
    shifted matrix (``numpy.linalg.eigvalsh``) is then the largest one on
    the complement of the all-ones direction.  For the expected-square
    mixing matrices this is their second-largest eigenvalue.

    Raises ``ContractViolationError`` on non-symmetric or non-stochastic
    input, and on a result outside [-1, 1], which only a matrix with
    negative entries can produce.
    """
    M = _validate_sym_stochastic(M)
    m = M.shape[0]
    if m == 1:
        return 0.0
    lam = float(np.linalg.eigvalsh(M - 3.0 / m)[-1])
    if lam < -1.0 - 1e-10 or lam > 1.0 + 1e-10:
        raise ContractViolationError(f"second eigenvalue {lam} outside [-1, 1]")
    return min(1.0, max(-1.0, lam))
