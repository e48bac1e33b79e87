"""Arithmetic laws and automorphism machinery of the division algebras."""

import numpy as np
import pytest

from rootlab import algebra as alg
from rootlab.algebra import (
    COMPLEX,
    OCTONIONS,
    QUATERNIONS,
    REALS,
    basis_element,
    conjugation_automorphism,
    derivation,
    automorphism_from_derivation,
    element,
    matrix_exponential,
    multiply,
    power,
    random_element,
    structure_tensor,
)

TAGS = (REALS, COMPLEX, QUATERNIONS, OCTONIONS)


def oracle_basis_product(dim, i, j):
    """(index, sign) of e_i e_j from the doubling rule, by index recursion.

    Independent of the production structure tensor: implements the four
    half-vector cases of (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c))
    directly on basis indices.
    """
    if dim == 1:
        return 0, 1
    h = dim // 2
    if i < h and j < h:
        return oracle_basis_product(h, i, j)
    if i < h <= j:
        q = j - h
        k, s = oracle_basis_product(h, q, i)      # (e_i, 0)(0, e_q) = (0, e_q e_i)
        return k + h, s
    if j < h <= i:
        p = i - h
        k, s = oracle_basis_product(h, p, j)      # (0, e_p)(e_j, 0) = (0, e_p conj(e_j))
        return k + h, (s if j == 0 else -s)
    p, q = i - h, j - h                           # (0,e_p)(0,e_q) = (-conj(e_q) e_p, 0)
    k, s = oracle_basis_product(h, q, p)
    return k, (-s if q == 0 else s)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_structure_tensor_matches_index_oracle(dim):
    M = structure_tensor(dim)
    for i in range(dim):
        for j in range(dim):
            k, s = oracle_basis_product(dim, i, j)
            expected = np.zeros(dim)
            expected[k] = s
            assert np.array_equal(M[i, j], expected), (i, j)


def test_quaternion_table():
    i, j, k = (basis_element(QUATERNIONS, n) for n in (1, 2, 3))
    assert multiply(i, j).allclose(k)
    assert multiply(j, k).allclose(i)
    assert multiply(k, i).allclose(j)
    assert multiply(j, i).allclose(-k)
    assert multiply(i, i).allclose(alg.real_element(QUATERNIONS, -1.0))


def test_octonion_doubling_convention():
    e1 = basis_element(OCTONIONS, 1)
    e4 = basis_element(OCTONIONS, 4)
    assert multiply(e1, e4).allclose(basis_element(OCTONIONS, 5))


def test_inverse_identity_random():
    rng = np.random.default_rng(0)
    for tag in TAGS:
        for _ in range(20):
            x = random_element(tag, rng)
            if x.norm() < 1e-6:
                continue
            assert multiply(x, x.inverse()).allclose(
                alg.real_element(tag, 1.0), atol=1e-12)


def test_conjugate_norm_inverse_examples():
    z = element(COMPLEX, [1, 1])
    assert z.conjugate().allclose(element(COMPLEX, [1, -1]))
    assert element(COMPLEX, [3, 4]).norm() == pytest.approx(5.0)
    i = basis_element(QUATERNIONS, 1)
    assert i.inverse().allclose(-i)
    with pytest.raises(ZeroDivisionError):
        alg.real_element(QUATERNIONS, 0.0).inverse()


def test_conjugation_product_identity():
    rng = np.random.default_rng(1)
    for tag in TAGS:
        x = random_element(tag, rng)
        n2 = multiply(x, x.conjugate())
        assert n2.allclose(alg.real_element(tag, x.norm_sq()), atol=1e-12)


def test_power_examples():
    x = basis_element(QUATERNIONS, 1) + basis_element(QUATERNIONS, 2)
    assert power(x, 2).allclose(alg.real_element(QUATERNIONS, -2.0))
    rng = np.random.default_rng(2)
    y = random_element(OCTONIONS, rng)
    assert power(y, 0).allclose(alg.real_element(OCTONIONS, 1.0))


def test_power_associativity_bracketings():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = random_element(OCTONIONS, rng)
        x2 = multiply(x, x)
        assert multiply(x2, x).allclose(multiply(x, x2), atol=1e-12)
        left = power(x, 8)
        balanced = multiply(multiply(x2, x2), multiply(x2, x2))
        scale = 1.0 + balanced.norm()
        assert (left - balanced).norm() / scale < 1e-12


def test_norm_multiplicativity_all_tags():
    rng = np.random.default_rng(4)
    for tag in TAGS:
        x = rng.normal(size=(500, tag.dimension))
        y = rng.normal(size=(500, tag.dimension))
        xy = alg.multiply_coords(tag.dimension, x, y)
        lhs = np.linalg.norm(xy, axis=1)
        rhs = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_associativity_holds_up_to_quaternions_fails_for_octonions():
    rng = np.random.default_rng(5)
    for tag in (REALS, COMPLEX, QUATERNIONS):
        for _ in range(30):
            x, y, z = (random_element(tag, rng) for _ in range(3))
            assert alg.associator(x, y, z).norm() < 1e-12
    e = [basis_element(OCTONIONS, k) for k in range(8)]
    assert alg.associator(e[1], e[2], e[4]).norm() > 0.5


def test_tag_mismatch_rejected():
    with pytest.raises(ValueError):
        multiply(basis_element(COMPLEX, 1), basis_element(QUATERNIONS, 1))


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValueError):
        element(COMPLEX, [np.inf, 0.0])


def test_conjugation_automorphism_examples():
    one = alg.real_element(QUATERNIONS, 1.0)
    assert np.allclose(conjugation_automorphism(one).matrix, np.eye(4))
    h = element(QUATERNIONS, [1, 1, 0, 0]) / np.sqrt(2)
    g = conjugation_automorphism(h)
    j = basis_element(QUATERNIONS, 2)
    k = basis_element(QUATERNIONS, 3)
    assert g.apply(j).allclose(k, atol=1e-12)


def test_conjugation_automorphism_is_rotation():
    rng = np.random.default_rng(6)
    for _ in range(20):
        h = random_element(QUATERNIONS, rng)
        if h.norm() < 1e-3:
            continue
        g = conjugation_automorphism(h)
        assert g.orthogonality_residual() < 1e-12
        assert np.linalg.det(g.matrix) == pytest.approx(1.0, abs=1e-10)
        assert g.multiplicativity_residual(rng, 16) < 1e-12
        # fixes the center
        r = alg.real_element(QUATERNIONS, 2.5)
        assert g.apply(r).allclose(r, atol=1e-12)


def test_conjugation_automorphism_rejects_bad_input():
    with pytest.raises(ZeroDivisionError):
        conjugation_automorphism(alg.real_element(QUATERNIONS, 0.0))
    with pytest.raises(ValueError):
        conjugation_automorphism(basis_element(OCTONIONS, 1))


def test_derivation_antisymmetry_and_unit():
    rng = np.random.default_rng(7)
    a = random_element(OCTONIONS, rng)
    assert np.max(np.abs(derivation(a, a).matrix)) < 1e-12
    b = random_element(OCTONIONS, rng)
    D = derivation(a, b)
    one = alg.real_element(OCTONIONS, 1.0)
    assert D.apply(one).norm() < 1e-12


def test_derivation_leibniz_rule():
    rng = np.random.default_rng(8)
    a = basis_element(OCTONIONS, 1)
    b = basis_element(OCTONIONS, 2)
    D = derivation(a, b)
    worst = 0.0
    for _ in range(100):
        x = random_element(OCTONIONS, rng)
        y = random_element(OCTONIONS, rng)
        lhs = D.apply(multiply(x, y))
        rhs = multiply(D.apply(x), y) + multiply(x, D.apply(y))
        worst = max(worst, (lhs - rhs).norm())
    assert worst < 1e-10


def test_derivation_rejects_non_octonions():
    with pytest.raises(ValueError):
        derivation(basis_element(QUATERNIONS, 1), basis_element(QUATERNIONS, 2))


def test_matrix_exponential_against_eigendecomposition():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = random_element(OCTONIONS, rng)
        b = random_element(OCTONIONS, rng)
        A = float(rng.uniform(0.1, 3.0)) * derivation(a, b).matrix
        w, v = np.linalg.eig(A)
        ref = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
        got = matrix_exponential(A)
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-12


def test_derivation_exponential_is_automorphism():
    rng = np.random.default_rng(10)
    a = random_element(OCTONIONS, rng)
    b = random_element(OCTONIONS, rng)
    g0 = automorphism_from_derivation(a, b, 0.0)
    assert np.allclose(g0.matrix, np.eye(8))
    g = automorphism_from_derivation(a, b, 0.7)
    assert g.unit_residual() < 1e-10
    assert g.orthogonality_residual() < 1e-10
    worst = 0.0
    for _ in range(100):
        x, y = (alg.AlgebraElement(OCTONIONS, v / np.linalg.norm(v))
                for v in rng.normal(size=(2, 8)))
        lhs = g.apply(multiply(x, y))
        rhs = multiply(g.apply(x), g.apply(y))
        worst = max(worst, (lhs - rhs).norm())
    assert worst < 1e-8
    # norm preservation
    for _ in range(20):
        x = random_element(OCTONIONS, rng)
        assert g.apply(x).norm() == pytest.approx(x.norm(), rel=1e-10)


def test_automorphisms_fix_center():
    rng = np.random.default_rng(11)
    g = automorphism_from_derivation(random_element(OCTONIONS, rng),
                                     random_element(OCTONIONS, rng), 1.3)
    r = alg.real_element(OCTONIONS, -3.7)
    assert g.apply(r).allclose(r, atol=1e-12)
