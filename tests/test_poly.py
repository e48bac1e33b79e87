"""Polynomial evaluation, potential derivatives, division, localization."""

import dataclasses

import numpy as np
import poly_oracle
import pytest

from rootlab import poly as pl
from rootlab import tolerances as tol
from rootlab.algebra import (
    COMPLEX,
    OCTONIONS,
    QUATERNIONS,
    REALS,
    basis_element,
    element,
    random_element,
    real_element,
)
from rootlab.poly import (
    CentralQuadratic,
    DAPolynomial,
    Deformation,
    coefficient_subalgebra,
    localize_isolated_root,
    newton_polish,
    potential,
    right_divide_central,
    value_gradient_fn,
)

BETA = (np.sqrt(5.0) - 1.0) / 2.0   # positive root of z^2 + i z + 1 on the i-axis


def poly_xx_plus_1(tag):
    return DAPolynomial.from_real(tag, [1, 0, 1])


def poly_canonical(tag=QUATERNIONS):
    rows = [[0.0] * tag.dimension for _ in range(3)]
    rows[0][0] = 1.0
    rows[1][1] = 1.0
    rows[2][0] = 1.0
    return DAPolynomial.from_coords(tag, rows)   # 1 + i x + x^2


def test_evaluate_examples():
    for tag in (COMPLEX, QUATERNIONS, OCTONIONS):
        P = poly_xx_plus_1(tag)
        assert np.linalg.norm(pl.evaluate_coords(P, basis_element(tag, 1).coords)) < 1e-15
    P = poly_canonical()
    root = element(QUATERNIONS, [0, BETA, 0, 0])
    assert potential(P, root) < 1e-28
    ident = DAPolynomial.from_real(OCTONIONS, [0, 1])
    e7 = basis_element(OCTONIONS, 7)
    assert np.allclose(pl.evaluate_coords(ident, e7.coords), e7.coords, rtol=0.0, atol=1e-12)


def test_evaluate_linear_in_coefficients():
    rng = np.random.default_rng(0)
    tag = QUATERNIONS
    A = DAPolynomial(tag, tuple(random_element(tag, rng) for _ in range(4)))
    B = DAPolynomial(tag, tuple(random_element(tag, rng) for _ in range(4)))
    S = A.scalar_add(B, 2.5)
    for _ in range(20):
        x = random_element(tag, rng).coords
        lhs = pl.evaluate_coords(S, x)
        rhs = pl.evaluate_coords(A, x) + 2.5 * pl.evaluate_coords(B, x)
        assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_potential_examples():
    P = poly_xx_plus_1(QUATERNIONS)
    assert potential(P, basis_element(QUATERNIONS, 1)) < 1e-30
    assert potential(P, real_element(QUATERNIONS, 0.0)) == pytest.approx(1.0)
    assert potential(P, real_element(QUATERNIONS, 2.0)) == pytest.approx(25.0)


def test_evaluate_tag_mismatch():
    with pytest.raises(ValueError):
        potential(poly_xx_plus_1(COMPLEX), basis_element(QUATERNIONS, 1))


def finite_difference_jacobian(P, x, h=1e-5):
    d = P.tag.dimension
    J = np.zeros((d, d))
    for m in range(d):
        step = np.zeros(d)
        step[m] = h
        up = pl.evaluate_coords(P, x + step)
        dn = pl.evaluate_coords(P, x - step)
        J[:, m] = (up - dn) / (2 * h)
    return J


def test_jacobian_identity_poly():
    P = DAPolynomial.from_real(QUATERNIONS, [0, 1])
    x = random_element(QUATERNIONS, np.random.default_rng(1))
    assert np.allclose(pl.jacobian_coords(P, x.coords), np.eye(4))


def test_jacobian_rank_two_on_sphere():
    P = poly_xx_plus_1(QUATERNIONS)
    J = pl.jacobian_coords(P, basis_element(QUATERNIONS, 1).coords)
    s = np.linalg.svd(J, compute_uv=False)
    assert np.sum(s > 1e-8 * s[0]) == 2


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    for tag in (COMPLEX, QUATERNIONS, OCTONIONS):
        for _ in range(34):
            deg = int(rng.integers(1, 5))
            P = DAPolynomial(tag, tuple(random_element(tag, rng)
                                        for _ in range(deg + 1)))
            x = random_element(tag, rng)
            J = pl.jacobian_coords(P, x.coords)
            F = finite_difference_jacobian(P, x.coords)
            scale = np.max(np.abs(F)) + 1.0
            assert np.max(np.abs(J - F)) / scale < 1e-6


def test_gradient_examples_and_finite_differences():
    P = poly_xx_plus_1(QUATERNIONS)
    assert np.allclose(pl.gradient_coords_batch(P, basis_element(QUATERNIONS, 1).coords),
                       np.zeros(4), atol=1e-14)
    g = pl.gradient_coords_batch(P, real_element(QUATERNIONS, 2.0).coords)
    assert np.allclose(g, [40.0, 0, 0, 0], atol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(30):
        Q = DAPolynomial(QUATERNIONS, tuple(random_element(QUATERNIONS, rng)
                                            for _ in range(3)))
        x = random_element(QUATERNIONS, rng)
        g = pl.gradient_coords_batch(Q, x.coords)
        h = 1e-5
        fd = np.zeros(4)
        for m in range(4):
            step = np.zeros(4)
            step[m] = h
            fd[m] = (pl.potential_coords(Q, x.coords + step)
                     - pl.potential_coords(Q, x.coords - step)) / (2 * h)
        assert np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(fd))) < 1e-6


def test_tangential_gradient_matches_restricted_potential():
    # on the unit sphere of the central base, the tangential part of the
    # deformed gradient equals eps^2 d/dphi [2 (1 - cos phi)] exactly
    eps = 0.05
    D = Deformation(poly_xx_plus_1(QUATERNIONS), poly_canonical_direction())
    P = D.at(eps)
    for phi in (0.3, 1.0, np.pi / 2, 2.2):
        q = np.array([0.0, np.cos(phi), np.sin(phi), 0.0])
        that = np.array([0.0, -np.sin(phi), np.cos(phi), 0.0])
        g = pl.gradient_coords_batch(P, q)
        tangential = float(np.dot(g, that))
        assert tangential == pytest.approx(2 * eps ** 2 * np.sin(phi), rel=1e-9)


def poly_canonical_direction(tag=QUATERNIONS):
    rows = [[0.0] * tag.dimension for _ in range(2)]
    rows[0][0] = 1.0
    rows[1][1] = 1.0
    return DAPolynomial.from_coords(tag, rows)   # 1 + i x


def test_value_gradient_closure_consistency():
    # every value, gradient and Jacobian entry against the reference
    # evaluation and product-rule Jacobian, over every algebra, degrees 0-4
    # and input shapes (d,), (1, d), (n, d) and (a, b, d)
    rng = np.random.default_rng(4)
    for tag in (REALS, COMPLEX, QUATERNIONS, OCTONIONS):
        d = tag.dimension
        for degree in range(0, 5):
            P = DAPolynomial(tag, tuple(random_element(tag, rng)
                                        for _ in range(degree + 1)))
            fn = value_gradient_fn(P)
            for shape in ((d,), (1, d), (25, d), (3, 4, d)):
                X = rng.normal(size=shape)
                flat = X.reshape(-1, d)
                ref_v = poly_oracle.evaluate_coords(P, X)
                ref_g = np.stack([poly_oracle.gradient_coords(P, x)
                                  for x in flat]).reshape(shape)
                ref_J = np.stack([poly_oracle.jacobian_coords(P, x)
                                  for x in flat]).reshape(shape + (d,))
                batch_v, batch_g = pl.value_gradient_batch(P, X)
                fn_v, fn_g = fn(X)
                for v in (pl.evaluate_coords(P, X), batch_v, fn_v):
                    assert v.shape == shape
                    assert np.allclose(v, ref_v, rtol=1e-12, atol=1e-11)
                for g in (pl.gradient_coords_batch(P, X), batch_g, fn_g):
                    assert g.shape == shape
                    assert np.allclose(g, ref_g, rtol=1e-12, atol=1e-10)
                J = pl.jacobian_coords(P, X)
                assert J.shape == shape + (d,)
                assert np.allclose(J, ref_J, rtol=1e-12, atol=1e-10)
                assert np.allclose(pl.potential_coords(P, X),
                                   np.sum(ref_v * ref_v, axis=-1), rtol=1e-12, atol=1e-11)


def test_polynomial_is_frozen():
    P = poly_canonical()
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.tag = COMPLEX
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.coefficients = P.coefficients[:2]
    before = dict(vars(P))
    tables = [np.array(a) for a in (P._rows, P._left_T)]
    fn = value_gradient_fn(P)
    fn(np.array([0.1, 0.2, -0.3, 0.4]))
    fn(np.ones((3, 4)))
    assert vars(P).keys() == before.keys()
    assert all(vars(P)[k] is before[k] for k in before)
    for table, copy in zip((P._rows, P._left_T), tables):
        assert not table.flags.writeable
        assert np.array_equal(table, copy)


def test_right_divide_central_examples():
    tag = QUATERNIONS
    P = poly_xx_plus_1(tag)
    Q, A, B = right_divide_central(P, CentralQuadratic(0.0, 1.0))
    assert Q.degree == 0 and Q.coefficients[0].allclose(real_element(tag, 1.0))
    assert A.norm() < 1e-15 and B.norm() < 1e-15

    P3 = DAPolynomial.from_real(tag, [0, 0, 0, 1])       # x^3
    Q, A, B = right_divide_central(P3, CentralQuadratic(0.0, 1.0))
    assert Q.degree == 1
    assert A.allclose(real_element(tag, -1.0))
    assert B.norm() < 1e-15

    Pc = poly_canonical(tag)
    M = CentralQuadratic.from_element(element(tag, [0, BETA, 0, 0]))
    Q, A, B = right_divide_central(Pc, M)
    assert A.norm() > 1e-8
    x0 = (-1.0 * A.inverse()) * B
    assert x0.allclose(element(tag, [0, BETA, 0, 0]), atol=1e-12)


def test_right_divide_reconstruction_random():
    rng = np.random.default_rng(5)
    for tag in (COMPLEX, QUATERNIONS, OCTONIONS):
        for _ in range(20):
            deg = int(rng.integers(2, 7))
            P = DAPolynomial(tag, tuple(random_element(tag, rng)
                                        for _ in range(deg + 1)))
            x0 = random_element(tag, rng)
            M = CentralQuadratic.from_element(x0)
            Q, A, B = right_divide_central(P, M)
            rebuilt = _compose(Q, M, A, B)
            for c_new, c_old in zip(rebuilt.coefficients, P.coefficients):
                assert (c_new - c_old).norm() < 1e-12 * (1.0 + P.max_coeff_norm())


def _compose(Q, M, A, B):
    # Q(x) M(x) + A x + B with M central monic quadratic
    tag = Q.tag
    zero = real_element(tag, 0.0)
    out = [zero] * (Q.degree + 3)
    for k, q in enumerate(Q.coefficients):
        out[k + 2] = out[k + 2] + q
        out[k + 1] = out[k + 1] + (-M.trace) * q
        out[k] = out[k] + M.normterm * q
    out[1] = out[1] + A
    out[0] = out[0] + B
    return DAPolynomial(tag, tuple(out))


def test_localize_isolated_root_examples():
    tag = QUATERNIONS
    P = poly_canonical(tag)
    loc = localize_isolated_root(P, element(tag, [0, BETA, 0, 0]))
    assert not loc.is_spherical
    assert np.max(np.abs(loc.point.coords[2:])) < 1e-10

    central = poly_xx_plus_1(tag)
    u = element(tag, [0, 1, 1, 0]) / np.sqrt(2)
    loc = localize_isolated_root(central, u)
    assert loc.is_spherical and loc.point is None

    # x^2 - (1+i) x + i factors as (x - 1)(x - i) over the complex plane
    P2 = DAPolynomial.from_coords(tag, [[0, 1, 0, 0], [-1, -1, 0, 0], [1, 0, 0, 0]])
    for root in ([1, 0, 0, 0], [0, 1, 0, 0]):
        loc = localize_isolated_root(P2, element(tag, root))
        assert not loc.is_spherical
        assert loc.point.allclose(element(tag, root), atol=1e-10)


def test_localize_rejects_non_roots():
    with pytest.raises(ValueError):
        localize_isolated_root(poly_canonical(), real_element(QUATERNIONS, 3.0))


def test_coefficient_subalgebra_dimensions():
    tag = QUATERNIONS
    assert coefficient_subalgebra(poly_xx_plus_1(tag))[0] == 1
    assert coefficient_subalgebra(poly_canonical(tag))[0] == 2
    P = DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert coefficient_subalgebra(P)[0] == 4
    # basis is closed under multiplication and orthonormal
    dim, basis = coefficient_subalgebra(poly_canonical(tag))
    G = np.stack([b.coords for b in basis])
    assert np.allclose(G @ G.T, np.eye(dim), atol=1e-10)


def _clean(P, res):
    # the relative residual bound of flow._polished_attractors
    scale = sum(np.linalg.norm(a) * np.linalg.norm(res.point) ** k
                for k, a in enumerate(P._rows))
    return res.residual < tol.NEWTON_RESIDUAL * max(1.0, scale)


def test_newton_polish_converges():
    rng = np.random.default_rng(6)
    P = poly_canonical()
    rough = np.array([0.01, BETA + 0.02, -0.015, 0.01])
    res = newton_polish(P, rough)
    assert _clean(P, res) and res.residual < 1e-14
    assert np.allclose(res.point, [0, BETA, 0, 0], atol=1e-10)


def test_newton_polish_counts_steps_taken():
    P = poly_xx_plus_1(QUATERNIONS)
    i = basis_element(QUATERNIONS, 1)
    assert potential(P, i) == 0.0
    # an exact root can never reach residual < 0: the loop leaves early
    res = newton_polish(P, i, target=0.0)
    assert res.iterations == 0 and res.residual == 0.0
    res = newton_polish(P, np.array([0.01, 1.02, -0.015, 0.01]))
    assert _clean(P, res) and 0 < res.iterations < tol.NEWTON_MAX_ITER


def test_degenerate_constant_polynomial():
    P = DAPolynomial.from_real(QUATERNIONS, [2.0])
    x = random_element(QUATERNIONS, np.random.default_rng(7))
    assert np.allclose(pl.evaluate_coords(P, x.coords), [2.0, 0, 0, 0], rtol=0.0, atol=1e-12)
    assert potential(P, x) == pytest.approx(4.0)
    assert np.allclose(pl.jacobian_coords(P, x.coords), np.zeros((4, 4)))


def test_polynomial_trims_trailing_zeros():
    P = DAPolynomial.from_coords(QUATERNIONS,
                                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert P.degree == 1


def test_lacunary_gcd():
    P = DAPolynomial.from_real(COMPLEX, [1, 0, 0, 1, 0, 0, 1])
    assert P.lacunary_gcd == 3
    assert DAPolynomial.from_real(COMPLEX, [1, 1]).lacunary_gcd == 1


def test_deformation_requires_central_base():
    tag = QUATERNIONS
    with pytest.raises(ValueError):
        Deformation(poly_canonical(tag), poly_xx_plus_1(tag))
    D = Deformation(poly_xx_plus_1(tag), poly_canonical_direction(tag))
    P = D.at(0.5)
    assert P.coefficients[0].allclose(element(tag, [1.5, 0, 0, 0]))
    assert P.coefficients[1].allclose(element(tag, [0, 0.5, 0, 0]))
