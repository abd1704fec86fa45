import hashlib

import numpy as np
import pytest
from scipy.integrate import quad

from fedsim.errors import ContractViolationError
from fedsim.mixing import expected_square_exact
from fedsim.numerics import (integer, integrate_weighted_product, real, second_eigenvalue_sym,
                             write_csv, write_json)


def random_mixing_average(rng, m, patterns=6):
    """Random convex combination of realized gossip squares: symmetric,
    doubly stochastic, PSD — the matrix family the solver is built for."""
    from fedsim.link_model import ActiveSet
    from fedsim.mixing import build_mixing

    weights = rng.dirichlet(np.ones(patterns))
    M = np.zeros((m, m))
    for w in weights:
        members = tuple(int(i) for i in np.sort(rng.choice(m, size=rng.integers(0, m + 1), replace=False)))
        W = build_mixing(ActiveSet(members), m)
        M += w * (W @ W)
    return M


def test_second_eigenvalue_fully_mixing_is_zero():
    M = np.full((3, 3), 1.0 / 3.0)
    assert abs(second_eigenvalue_sym(M)) <= 1e-10


def test_second_eigenvalue_identity_is_one():
    assert second_eigenvalue_sym(np.eye(2)) == pytest.approx(1.0, abs=1e-10)


def test_second_eigenvalue_two_by_two_hand_value():
    # Eigenvector (1, -1) gives 0.875 - 0.125 = 0.75.
    M = np.array([[0.875, 0.125], [0.125, 0.875]])
    assert second_eigenvalue_sym(M) == pytest.approx(0.75, abs=1e-10)


def test_second_eigenvalue_swap_is_minus_one():
    # The complement of the all-ones direction is spanned by (1, -1),
    # which the swap maps to its negative.
    assert second_eigenvalue_sym(np.array([[0.0, 1.0], [1.0, 0.0]])) == -1.0


@pytest.mark.parametrize("base", [0.1, 0.3, 0.5])
def test_second_eigenvalue_near_uniform_clustered_spectrum(base):
    # p_i = b (1 + 0.01 i/59) clusters the top of the deflated spectrum,
    # which stalls iterative eigensolvers with a residual test.
    p = base * (1.0 + 0.01 * np.arange(60) / 59)
    M = expected_square_exact(p)
    assert second_eigenvalue_sym(M) == pytest.approx(np.linalg.eigvalsh(M)[-2], abs=1e-12)


def test_second_eigenvalue_single_client():
    assert second_eigenvalue_sym(np.array([[1.0]])) == 0.0


def test_second_eigenvalue_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(40):
        m = int(rng.integers(2, 21))
        M = random_mixing_average(rng, m)
        expected = np.sort(np.linalg.eigvalsh(M))[-2]
        assert second_eigenvalue_sym(M) == pytest.approx(expected, abs=1e-9)


def test_second_eigenvalue_rejects_nonsymmetric():
    M = np.array([[0.9, 0.1], [0.2, 0.8]])
    with pytest.raises(ContractViolationError):
        second_eigenvalue_sym(M)


def test_second_eigenvalue_rejects_nonstochastic():
    M = np.array([[0.5, 0.1], [0.1, 0.5]])
    with pytest.raises(ContractViolationError):
        second_eigenvalue_sym(M)


def test_integrate_empty_product():
    assert integrate_weighted_product([], 0) == pytest.approx(1.0, abs=1e-15)


def test_integrate_single_factor():
    assert integrate_weighted_product([(0.5, 0.5)], 0) == pytest.approx(0.75, abs=1e-15)


def test_integrate_empty_with_weight():
    assert integrate_weighted_product([], 1) == pytest.approx(0.5, abs=1e-15)


def test_integrate_matches_adaptive_quadrature():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(0, 51))
        p = rng.uniform(0.01, 1.0, size=k)
        factors = [(1.0 - v, v) for v in p]
        w = int(rng.integers(0, 3))

        def integrand(x):
            out = x ** w
            for a, b in factors:
                out *= a + b * x
            return out

        expected, _ = quad(integrand, 0.0, 1.0, limit=200)
        assert integrate_weighted_product(factors, w) == pytest.approx(expected, abs=1e-10)


def test_write_csv_fields_across_blocks(tmp_path):
    # Enough rows to span several write blocks; one header, LF line ends.
    rows = [(i, "x\u00e9", 0.1 * i, None, -0.0) for i in range(1000)]
    digest = write_csv(tmp_path / "t.csv", ("n", "s", "r", "none", "z"), rows)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == ("n,s,r,none,z\n" + "".join(
        f"{i},x\u00e9,{0.1 * i:.17g},,-0\n" for i in range(1000))).encode("utf-8")
    assert digest == hashlib.sha256(data).hexdigest()


def test_write_json_is_indented_with_a_final_newline(tmp_path):
    write_json(tmp_path / "j.json", {"a": [1, 0.1], "b": None})
    assert (tmp_path / "j.json").read_bytes() == (
        b'{\n  "a": [\n    1,\n    0.1\n  ],\n  "b": null\n}\n')


@pytest.mark.parametrize("text", ["1_0", "0_5", "1_0e-1", " 1_0 "])
def test_numbers_refuse_digit_separators(text):
    for parse in (integer, real):
        with pytest.raises(ValueError):
            parse(text)


def test_numbers_read_as_int_and_float_otherwise():
    assert integer(" 12 ") == 12 and integer("-3") == -3
    assert real("0.5") == 0.5 and real("1e-1") == 0.1 and np.isnan(real("nan"))
