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
    _flat_right_plus_left,
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
                batch_v, batch_g, batch_J = pl.value_gradient_batch(P, X)
                fn_v, fn_g, fn_J = fn(X)
                for v in (pl.evaluate_coords(P, X), batch_v, fn_v):
                    assert v.shape == shape
                    assert np.allclose(v, ref_v, rtol=1e-12, atol=1e-11)
                for g in (pl.gradient_coords_batch(P, X), batch_g, fn_g):
                    assert g.shape == shape
                    assert np.allclose(g, ref_g, rtol=1e-12, atol=1e-10)
                for J in (pl.jacobian_coords(P, X), batch_J, fn_J):
                    assert J.shape == shape + (d,)
                    assert np.allclose(J, ref_J, rtol=1e-12, atol=1e-10)
                assert np.allclose(pl.potential_coords(P, X),
                                   np.sum(ref_v * ref_v, axis=-1), rtol=1e-12, atol=1e-11)


def test_stacked_kernel_matches_oracle_row_by_row():
    # one polynomial per batch row, degrees 0-4 mixed in one stack and
    # zero-padded to degree 4, over every algebra; the shared-table path of
    # the same polynomials agrees to the same tolerance
    rng = np.random.default_rng(6)
    degrees = (0, 4, 1, 2, 3, 2, 0, 4, 1)
    for tag in (REALS, COMPLEX, QUATERNIONS, OCTONIONS):
        d = tag.dimension
        polys = [DAPolynomial(tag, tuple(random_element(tag, rng) for _ in range(k + 1)))
                 for k in degrees]
        X = rng.normal(size=(len(polys), d))
        stack = pl.stack_tables(polys)
        assert [r.shape for r in stack[0]] == [(len(polys), d)] * 5
        assert stack[1][0] is None
        assert [m.shape for m in stack[1][1:]] == [(len(polys), d, d * d if k == 2 else d)
                                                   for k in range(1, 5)]
        v, g, J = pl.value_gradient_batch(stack, X)
        assert np.array_equal(J, pl.jacobian_coords(stack, X))
        for i, P in enumerate(polys):
            assert np.allclose(v[i], poly_oracle.evaluate_coords(P, X[i]),
                               rtol=1e-12, atol=1e-11)
            assert np.allclose(g[i], poly_oracle.gradient_coords(P, X[i]),
                               rtol=1e-12, atol=1e-10)
            assert np.allclose(J[i], poly_oracle.jacobian_coords(P, X[i]),
                               rtol=1e-12, atol=1e-10)
            shared_v, shared_g, _ = pl.value_gradient_batch(P, X[i:i + 1])
            assert np.allclose(v[i], shared_v[0], rtol=1e-14, atol=1e-14)
            assert np.allclose(g[i], shared_g[0], rtol=1e-14, atol=1e-13)
    with pytest.raises(ValueError):
        pl.stack_tables([poly_xx_plus_1(QUATERNIONS), poly_xx_plus_1(COMPLEX)])


def test_repeated_polynomial_stacks_to_the_shared_call():
    # one polynomial stacks to its own tables; repeated, every term is
    # shared with the same bits, so the stack takes the DAPolynomial path
    # bit for bit, on the whole batch at once
    rng = np.random.default_rng(8)
    for tag in (REALS, COMPLEX, QUATERNIONS, OCTONIONS):
        d = tag.dimension
        for degree in range(0, 5):
            P = DAPolynomial(tag, tuple(random_element(tag, rng)
                                        for _ in range(degree + 1)))
            X = rng.normal(size=(17, d))
            own = pl.stack_tables([P])
            assert len(own[0]) == len(own[1]) == degree + 1
            assert all(a is b for a, b in zip(own[0] + own[1], P._tables[0] + P._tables[1]))
            stack = pl.stack_tables([P] * len(X))
            assert all(r.shape == (d,) for r in stack[0])
            assert stack[1][0] is None
            assert [m.shape for m in stack[1][1:]] == [(d, d * d if k == 2 else d)
                                                       for k in range(1, degree + 1)]
            assert len(stack[0]) == len(stack[1]) == degree + 1
            assert all(np.array_equal(a, b) for a, b in
                       zip(stack[0] + stack[1][1:], own[0] + own[1][1:]))
            got = pl._kernel(stack, X, grad=True, jac=True)
            want = pl._kernel(P, X, grad=True, jac=True)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def _c11_polynomials():
    """c11's four cells: x^2 + 1 and x^2 + ix + 1 over H, the restored cell
    x^2 + 2.5ix + 3.5 over H, and x^2 + 1 over O."""
    restored = [[3.5, 0, 0, 0], [0, 2.5, 0, 0], [1, 0, 0, 0]]
    return [poly_xx_plus_1(QUATERNIONS), poly_canonical(),
            DAPolynomial.from_coords(QUATERNIONS, restored), poly_xx_plus_1(OCTONIONS)]


def test_c11_stack_matches_shared_calls():
    # each coefficient is a real multiple of one basis unit, so the per-row
    # products of the constant and linear terms are exact, like the shared x^2
    rng = np.random.default_rng(9)
    wide = [pl.embed(P, OCTONIONS) for P in _c11_polynomials()]
    X = rng.normal(size=(4, 6, 8))
    X[:3, :, 4:] = 0.0                   # the H cells' padded coordinates
    stack = pl.stack_tables([P for P in wide for _ in range(6)])
    assert [r.ndim for r in stack[0]] == [2, 2, 1]
    assert [m.ndim for m in stack[1][1:]] == [3, 2]
    got = pl._kernel(stack, X.reshape(-1, 8), grad=True, jac=True)
    for i, P in enumerate(wide):
        want = pl._kernel(P, X[i], grad=True, jac=True)
        for a, b in zip(got, want):
            assert np.array_equal(a[6 * i:6 * i + 6], b)


def test_stack_shares_a_term_equal_on_every_row():
    # c05: x^2 + ix + 1 and random quadratics in span{1, i}, all monic
    rng = np.random.default_rng(1)
    quads = [DAPolynomial.from_coords(QUATERNIONS, [
        [rng.normal(), rng.normal(), 0.0, 0.0], [rng.normal(), rng.normal(), 0.0, 0.0],
        [1, 0, 0, 0]]) for _ in range(20)]
    rows, left_T = pl.stack_tables([poly_canonical(), *quads])
    assert [r.shape for r in rows] == [(21, 4), (21, 4), (4,)]
    assert left_T[0] is None
    assert [m.shape for m in left_T[1:]] == [(21, 4, 4), (4, 16)]
    assert np.array_equal(left_T[2], _flat_right_plus_left(4))     # S_2 of a_2 = 1
    # c12: x^2 + 1 and x^2 + ix + 1 over H, x^2 + 1 over O, embedded in O
    polys = [pl.embed(P, OCTONIONS) for P in
             (poly_xx_plus_1(QUATERNIONS), poly_canonical(), poly_xx_plus_1(OCTONIONS))]
    rows, left_T = pl.stack_tables([P for P in polys for _ in range(3)])
    assert [r.shape for r in rows] == [(8,), (9, 8), (8,)]
    assert np.array_equal(rows[0], np.eye(8)[0])
    # a shorter polynomial's padded term is zero: shared only if zero everywhere
    rows, _ = pl.stack_tables([poly_canonical_direction(), poly_canonical()])
    assert [r.shape for r in rows] == [(4,), (4,), (2, 4)]
    rows, _ = pl.stack_tables([poly_xx_plus_1(QUATERNIONS),
                               DAPolynomial.from_real(QUATERNIONS, [1])])
    assert [r.shape for r in rows] == [(4,), (4,), (2, 4)]
    assert [r.shape for r in pl.stack_tables([poly_canonical_direction()] * 2)[0]] == [
        (4,), (4,)]


def test_take_rows_keeps_shared_terms():
    polys = [poly_canonical(), poly_xx_plus_1(QUATERNIONS), poly_canonical()]
    rows, left_T = pl.stack_tables(polys)
    keep = np.array([True, False, True])
    kept_rows, kept_left_T = pl.take_rows((rows, left_T), keep)
    assert kept_rows[0] is rows[0] and kept_left_T[2] is left_T[2]
    assert np.array_equal(kept_rows[1], rows[1][keep])
    assert np.array_equal(kept_left_T[1], left_T[1][keep])
    assert kept_left_T[0] is None
    shared = pl.stack_tables([poly_canonical()])
    kept = pl.take_rows(shared, keep)
    assert all(a is b for a, b in zip(kept[0] + kept[1], shared[0] + shared[1]))


def test_value_gradient_closure_is_the_batch_path_bit_for_bit():
    # the integrator's single-point closure returns the bits of the public
    # batch entries at that point, Jacobian included
    rng = np.random.default_rng(21)
    for tag in (REALS, COMPLEX, QUATERNIONS, OCTONIONS):
        for degree in range(0, 5):
            P = DAPolynomial(tag, tuple(random_element(tag, rng)
                                        for _ in range(degree + 1)))
            fn = value_gradient_fn(P)
            for x in rng.normal(size=(5, tag.dimension)):
                v, g, J = fn(x)
                batch_v, batch_g, batch_J = pl.value_gradient_batch(P, x)
                assert np.array_equal(v, batch_v)
                assert np.array_equal(g, batch_g)
                assert np.array_equal(J, batch_J)
                assert np.array_equal(J, pl.jacobian_coords(P, x))


def test_quadratic_keeps_its_bits_in_higher_degree_stacks():
    # the quadratic term comes from S_2 at every stack degree, so the rows
    # of a quadratic zero-padded to degree 3 or 4 by a longer row keep the
    # bits of its own call: the DAPolynomial call when its terms are
    # shared, the degree-2 stack of the same rows when a_2 is held per row
    rng = np.random.default_rng(33)
    for tag in (REALS, COMPLEX, QUATERNIONS, OCTONIONS):
        d = tag.dimension
        coeffs = tuple(random_element(tag, rng) for _ in range(3))
        Q = DAPolynomial(tag, coeffs)
        quads = [DAPolynomial(tag, tuple(random_element(tag, rng) for _ in range(3)))
                 for _ in range(4)]
        X = rng.normal(size=(5, d))
        for K in (3, 4):
            longer = DAPolynomial(tag, coeffs + tuple(random_element(tag, rng)
                                                      for _ in range(K - 2)))
            stack = pl.stack_tables([Q] * 4 + [longer])
            assert stack[0][0].ndim == 1
            assert [m.ndim for m in stack[1][1:]] == [2, 2] + [3] * (K - 2)
            got = pl._kernel(stack, X, grad=True, jac=True)
            want = pl._kernel(Q, X[:4], grad=True, jac=True)
            for a, b in zip(got, want):
                assert np.array_equal(a[:4], b)
            stack = pl.stack_tables(quads + [longer])
            assert stack[0][0].ndim == 2
            assert [m.ndim for m in stack[1][1:]] == [3] * K
            got = pl._kernel(stack, X, grad=True, jac=True)
            want = pl._kernel(pl.stack_tables(quads), X[:4], grad=True, jac=True)
            for a, b in zip(got, want):
                assert np.array_equal(a[:4], b)


def test_one_point_matches_the_batch_row():
    # a DAPolynomial at one point, shape (d,), takes ndarray.dot vector
    # products where a batch takes @; it agrees with the batch path's
    # (1, d) row to rounding
    rng = np.random.default_rng(34)
    for tag in (REALS, COMPLEX, QUATERNIONS, OCTONIONS):
        d = tag.dimension
        for degree in range(0, 5):
            P = DAPolynomial(tag, tuple(random_element(tag, rng)
                                        for _ in range(degree + 1)))
            for x in rng.normal(size=(5, d)):
                one = pl._kernel(P, x, grad=True, jac=True)
                row = pl._kernel(P, x[None], grad=True, jac=True)
                for a, b in zip(one, row):
                    assert a.shape == b.shape[1:]
                    assert np.max(np.abs(a - b[0])) <= 1e-14 * np.max(np.abs(b[0]))
                assert np.array_equal(pl._kernel(P, x)[0], one[0])


def test_polynomial_is_frozen():
    P = poly_canonical()
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.tag = COMPLEX
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.coefficients = P.coefficients[:2]
    before = dict(vars(P))
    arrays = [P._rows, *(a for part in P._tables for a in part if a is not None)]
    assert len(arrays) == 1 + 3 + 2 and P._tables[1][0] is None
    tables = [np.array(a) for a in arrays]
    fn = value_gradient_fn(P)
    fn(np.array([0.1, 0.2, -0.3, 0.4]))
    fn(np.ones((3, 4)))
    assert vars(P).keys() == before.keys()
    assert all(vars(P)[k] is before[k] for k in before)
    for table, copy in zip(arrays, tables):
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
    # the Jacobian returned with the point is the one evaluated there
    assert np.array_equal(res.jacobian, pl.jacobian_coords(P, res.point))


def test_newton_polish_counts_steps_taken(monkeypatch):
    P = poly_xx_plus_1(QUATERNIONS)
    i = basis_element(QUATERNIONS, 1)
    assert potential(P, i) == 0.0
    # an exact root can never reach residual < 0: the loop leaves early
    with monkeypatch.context() as m:
        m.setattr(tol, "NEWTON_RESIDUAL", 0.0)
        res = newton_polish(P, i.coords)
    assert res.iterations == 0 and res.residual == 0.0
    assert np.array_equal(res.jacobian, pl.jacobian_coords(P, i.coords))
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


def test_embed_agrees_on_the_subalgebra():
    # R in C in H in O: the embedded polynomial is P on the leading coordinates
    rng = np.random.default_rng(4)
    for tag in (REALS, COMPLEX, QUATERNIONS):
        P = DAPolynomial(tag, tuple(random_element(tag, rng) for _ in range(4)))
        wide = pl.embed(P, OCTONIONS)
        X = rng.normal(size=(20, tag.dimension))
        Xw = np.zeros((20, 8))
        Xw[:, : tag.dimension] = X
        vw = pl.evaluate_coords(wide, Xw)
        assert np.allclose(vw[:, : tag.dimension], pl.evaluate_coords(P, X),
                           rtol=1e-13, atol=1e-13)
        assert np.all(vw[:, tag.dimension:] == 0.0)
    P = poly_canonical()
    assert pl.embed(P, QUATERNIONS) is P
    with pytest.raises(ValueError):
        pl.embed(poly_xx_plus_1(OCTONIONS), QUATERNIONS)
