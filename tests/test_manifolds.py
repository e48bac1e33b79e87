"""Root strata, sphere sampling, symmetry checks, dimension scans."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rootlab import dynamics as dyn
from rootlab import manifolds as mf
from rootlab.algebra import (
    COMPLEX,
    OCTONIONS,
    QUATERNIONS,
    automorphism_from_derivation,
    basis_element,
    conjugation_automorphism,
    element,
    random_element,
    real_element,
)
from rootlab.manifolds import (
    IsolatedPoint,
    IsolatedReal,
    Sphere,
    aberth_roots,
    cd_symmetry_check,
    hausdorff_dimension_scan,
    numerical_rank,
    orbit_invariance_check,
    root_set,
    sample_stratum,
)
from rootlab.poly import (
    DAPolynomial,
    Deformation,
    evaluate_coords,
    jacobian_coords,
    potential,
    potential_coords,
)


def sorted_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_aberth_simple_cases():
    assert sorted_roots(aberth_roots([1, 0, 1])) == [
        pytest.approx(-1j, abs=1e-12), pytest.approx(1j, abs=1e-12)]
    assert sorted_roots(aberth_roots([2, -3, 1])) == [
        pytest.approx(1.0, abs=1e-12), pytest.approx(2.0, abs=1e-12)]
    got = sorted_roots(aberth_roots([4, 0, 5, 0, 1]))
    want = [-2j, -1j, 1j, 2j]
    assert all(abs(g - w) < 1e-11 for g, w in zip(got, sorted_roots(want)))


def test_aberth_against_companion_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        deg = int(rng.integers(2, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.normal() + 1j * rng.normal()
        mine = sorted_roots(aberth_roots(coeffs))
        ref = sorted_roots(np.roots(coeffs[::-1]))
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-8


def test_aberth_residuals_below_target():
    rng = np.random.default_rng(1)
    for _ in range(20):
        deg = int(rng.integers(2, 8))
        coeffs = rng.normal(size=deg + 1)
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.normal()
        roots = aberth_roots(coeffs.astype(complex))
        res = np.abs(np.polyval(coeffs[::-1], roots))
        bound = np.polyval(np.abs(coeffs)[::-1], np.abs(roots))
        assert np.max(res / bound) < 1e-13


def test_aberth_rejects_zero_leading(monkeypatch):
    with pytest.raises(ValueError):
        aberth_roots([1.0, 0.0])
    monkeypatch.setattr(mf.tol, "ABERTH_MAX_SWEEPS", 0)
    with pytest.raises(mf.RootFindingError):
        aberth_roots([1.0, 1.0, 1.0])


def test_aberth_roots_at_zero():
    roots = aberth_roots([0.0, 0.0, -1.0, 1.0])
    assert sum(1 for z in roots if abs(z) < 1e-14) == 2
    assert any(abs(z - 1.0) < 1e-12 for z in roots)


def test_root_set_inflation():
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    rs = root_set(P)
    assert rs.hausdorff_dimension == 2
    (s,) = rs.strata
    assert isinstance(s, Sphere) and s.re == pytest.approx(0.0)
    assert s.radius == pytest.approx(1.0)

    rs_o = root_set(DAPolynomial.from_real(OCTONIONS, [1, 0, 1]))
    assert rs_o.hausdorff_dimension == 6

    rs_real = root_set(DAPolynomial.from_real(QUATERNIONS, [-1, 0, 1]))
    assert rs_real.hausdorff_dimension == 0
    values = sorted(s.value for s in rs_real.strata)
    assert values == [pytest.approx(-1.0), pytest.approx(1.0)]

    # the breathing trinomial x^4 + a x^2 + b: two spheres, whose conjugate
    # pairs differ in real parts only by rounding
    a, b = 2.1, 0.660839
    rs_two = root_set(DAPolynomial.from_real(QUATERNIONS, [b, 0, a, 0, 1]))
    assert rs_two.hausdorff_dimension == 2
    assert all(isinstance(s, Sphere) for s in rs_two.strata)
    r = dyn.radii(a, b)
    radii = sorted(s.radius for s in rs_two.strata)
    assert radii == [pytest.approx(r.r_inner, abs=1e-12), pytest.approx(r.r_outer, abs=1e-12)]

    # double auxiliary roots, which Aberth splits by about 1e-8, are one
    # stratum: (x - 1)^2 a real point, not a thin sphere; (x^2 + 1)^2 one sphere
    (s,) = root_set(DAPolynomial.from_real(QUATERNIONS, [1, -2, 1])).strata
    assert isinstance(s, IsolatedReal) and s.value == pytest.approx(1.0, abs=1e-9)
    (s,) = root_set(DAPolynomial.from_real(QUATERNIONS, [1, 0, 2, 0, 1])).strata
    assert isinstance(s, Sphere) and s.radius == pytest.approx(1.0, abs=1e-9)


def test_root_set_isolated_points_of_random_polynomials():
    # a non-central P has one root on the sphere of each conjugate pair of
    # its companion polynomial: deg isolated points, each a backward-stable root
    rng = np.random.default_rng(3)
    for i in range(50):
        tag = (QUATERNIONS, OCTONIONS)[i % 2]
        deg = int(rng.integers(2, 6))
        P = DAPolynomial(tag, tuple(random_element(tag, rng) for _ in range(deg))
                         + (real_element(tag, 1.0),))
        rs = root_set(P)
        assert len(rs.strata) == deg and rs.hausdorff_dimension == 0
        for s in rs.strata:
            assert isinstance(s, IsolatedPoint)
            x = s.point.coords
            scale = sum(np.linalg.norm(a) * np.linalg.norm(x) ** k
                        for k, a in enumerate(P._rows))
            assert np.linalg.norm(evaluate_coords(P, x)) <= 1e-10 * scale


def test_root_set_double_companion_roots():
    # (x - 2i)(x^2 + 1) vanishes on the unit sphere and at 2i, and
    # x^2 - (3 + i) x + (2 + i) at the real root 1 and at 2 + i; both put
    # double roots into the companion, which merge before the division
    tag = QUATERNIONS
    P = DAPolynomial.from_coords(tag, [[0, -2, 0, 0], [1, 0, 0, 0],
                                       [0, -2, 0, 0], [1, 0, 0, 0]])
    point, sphere = root_set(P).strata
    assert point.point.allclose(basis_element(tag, 1) * 2.0, atol=1e-10)
    assert sphere.re == pytest.approx(0.0, abs=1e-9)
    assert sphere.radius == pytest.approx(1.0, abs=1e-9)
    P2 = DAPolynomial.from_coords(tag, [[2, 1, 0, 0], [-3, -1, 0, 0], [1, 0, 0, 0]])
    got = sorted(tuple(s.point.coords) for s in root_set(P2).strata)
    assert np.allclose(got, [[1, 0, 0, 0], [2, 1, 0, 0]], atol=1e-10)


def _poly(tag, rows):
    """Polynomial from short coordinate rows, zero-padded to the algebra."""
    return DAPolynomial.from_coords(tag, [r + [0] * (tag.dimension - len(r)) for r in rows])


@pytest.mark.parametrize("tag", [QUATERNIONS, OCTONIONS], ids=str)
def test_root_set_multiple_companion_roots(tag):
    # Aberth splits a k-fold auxiliary root by about 1e-13^(1/k); grouping
    # by multiplicity makes each one stratum
    for coeffs in ([-1, 3, -3, 1], [1, -4, 6, -4, 1]):          # (x - 1)^3, (x - 1)^4
        rs = root_set(DAPolynomial.from_real(tag, coeffs))
        (s,) = rs.strata
        assert isinstance(s, IsolatedReal) and s.value == pytest.approx(1.0, abs=1e-6)
        assert rs.hausdorff_dimension == 0
        assert rs.merged_groups == (len(coeffs) - 1,) and rs.aberth_sweeps > 0
    # (x^2 + 1)^3, central, and (x - i)(x^2 + 1), whose companion is (t^2 + 1)^3
    for P in (DAPolynomial.from_real(tag, [1, 0, 3, 0, 3, 0, 1]),
              _poly(tag, [[0, -1], [1], [0, -1], [1]])):
        rs = root_set(P)
        (s,) = rs.strata
        assert isinstance(s, Sphere)
        assert s.re == pytest.approx(0.0, abs=1e-6) and s.radius == pytest.approx(1.0, abs=1e-6)
        assert rs.hausdorff_dimension == tag.dimension - 2
        assert rs.merged_groups == (3, 3)               # i and -i, three times each
    # distinct roots 1e-4 apart stay apart, though three of them lie within
    # the grouping radius; each is as accurate as its conditioning allows
    rs = root_set(DAPolynomial.from_real(tag, [1.0001, -2.0001, 1]))
    assert all(isinstance(s, IsolatedReal) for s in rs.strata)
    assert rs.merged_groups == ()
    assert sorted(s.value for s in rs.strata) == [pytest.approx(1.0, abs=1e-9),
                                                  pytest.approx(1.0001, abs=1e-9)]
    # (x - 1)(x - 1.0001)(x - 1.0002)
    roots = [1.0, 1.0001, 1.0002]
    rs = root_set(DAPolynomial.from_real(tag, np.polynomial.polynomial.polyfromroots(roots)))
    assert all(isinstance(s, IsolatedReal) for s in rs.strata)
    assert sorted(s.value for s in rs.strata) == [pytest.approx(r, abs=1e-7) for r in roots]
    # (x - 1)((x - 1)^2 + 1e-8): a real point and a sphere of radius 1e-4
    rs = root_set(DAPolynomial.from_real(tag, [-1 - 1e-8, 3 + 1e-8, -3, 1]))
    point, sphere = rs.strata
    assert isinstance(point, IsolatedReal) and point.value == pytest.approx(1.0, abs=1e-7)
    assert isinstance(sphere, Sphere) and sphere.radius == pytest.approx(1e-4, rel=1e-3)
    assert rs.hausdorff_dimension == tag.dimension - 2
    # (x - a)(x - b)(x - c), a = i, b = 1.0001 j, c = 1.0002 k: one root on
    # each of three spheres 1e-4 apart, so three isolated points
    a, b, c = (basis_element(tag, k) * r for k, r in ((1, 1.0), (2, 1.0001), (3, 1.0002)))
    P = DAPolynomial(tag, (-(a * b * c), a * b + a * c + b * c, -(a + b + c), real_element(tag, 1.0)))
    rs = root_set(P)
    assert len(rs.strata) == 3 and all(isinstance(s, IsolatedPoint) for s in rs.strata)
    assert max(np.linalg.norm(evaluate_coords(P, s.point.coords)) for s in rs.strata) < 1e-12


def test_sample_stratum_statistics():
    P = DAPolynomial.from_real(OCTONIONS, [1, 0, 1])
    (s,) = root_set(P).strata
    n = 4000
    pts = sample_stratum(s, n, 0)
    assert pts.shape == (n, 8)
    worst = max(potential_coords(P, p) for p in pts)
    assert worst < 1e-18
    imag = pts[:, 1:]
    bound = 4.0 / np.sqrt(n)
    assert np.max(np.abs(imag.mean(axis=0))) < bound
    msq = (imag ** 2).mean(axis=0)
    assert np.max(np.abs(msq - 1.0 / 7.0)) < bound


def test_sample_isolated_stratum_repeats():
    s = IsolatedReal(2.0, QUATERNIONS)
    pts = sample_stratum(s, 5, 0)
    assert pts.shape == (5, 4)
    assert all(np.allclose(p, pts[0], rtol=0.0, atol=1e-12) for p in pts)


def test_sample_stratum_rows_repeat_with_the_seed():
    # a sphere, an isolated point and a real point all give (n, d) rows,
    # equal for equal seeds; the sphere's rows are its normalized normal draws
    sphere = root_set(DAPolynomial.from_real(OCTONIONS, [1, 0, 1])).strata[0]
    point = root_set(DAPolynomial.from_coords(
        QUATERNIONS, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])).strata[0]
    real = IsolatedReal(2.0, QUATERNIONS)
    for s in (sphere, point, real):
        a = sample_stratum(s, 6, 11)
        assert a.shape == (6, s.tag.dimension)
        assert np.array_equal(a, sample_stratum(s, 6, np.random.default_rng(11)))
    g = np.random.default_rng(11).normal(size=(6, 7))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    rows = sample_stratum(sphere, 6, 11)
    assert np.array_equal(rows[:, 1:], sphere.radius * g) and np.all(rows[:, 0] == sphere.re)
    assert np.array_equal(sample_stratum(point, 3, 0), np.tile(point.point.coords, (3, 1)))
    assert np.array_equal(sample_stratum(real, 2, 0), [[2.0, 0, 0, 0]] * 2)


def test_cd_symmetry_examples():
    P = DAPolynomial.from_real(COMPLEX, [1, 0, 0, 1, 0, 0, 1])
    rep = cd_symmetry_check(P)
    assert rep.order == 3 and rep.passed and rep.n_roots == 6

    rep2 = cd_symmetry_check(DAPolynomial.from_real(COMPLEX, [1, 0, 1]))
    assert rep2.order == 2 and rep2.passed

    rep3 = cd_symmetry_check(DAPolynomial.from_real(COMPLEX, [1, 1]))
    assert rep3.order == 1 and rep3.passed


def test_orbit_invariance_octonion_and_quaternion():
    rng = np.random.default_rng(2)
    P_O = DAPolynomial.from_real(OCTONIONS, [1, 0, 1])
    (sphere_O,) = root_set(P_O).strata
    g = automorphism_from_derivation(basis_element(OCTONIONS, 1),
                                     basis_element(OCTONIONS, 2), 0.8)
    for x in sample_stratum(sphere_O, 10, rng):
        assert orbit_invariance_check(P_O, g, element(OCTONIONS, x), rng) < 1e-12

    P_H = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    (sphere_H,) = root_set(P_H).strata
    for x in sample_stratum(sphere_H, 10, rng):
        h = random_element(QUATERNIONS, rng)
        gq = conjugation_automorphism(h)
        assert orbit_invariance_check(P_H, gq, element(QUATERNIONS, x), rng) < 1e-12


def test_orbit_invariance_identity_map_is_potential():
    from rootlab.algebra import LinearMap
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    (sphere,) = root_set(P).strata
    x = element(QUATERNIONS, sample_stratum(sphere, 1, 3)[0])
    g = LinearMap(QUATERNIONS, np.eye(4))
    assert orbit_invariance_check(P, g, x) == pytest.approx(potential(P, x), abs=1e-18)


def test_numerical_rank_on_strata_and_isolated():
    rng = np.random.default_rng(4)
    for tag, expect in ((QUATERNIONS, 2), (OCTONIONS, 2)):
        P = DAPolynomial.from_real(tag, [1, 0, 1])
        (sphere,) = root_set(P).strata
        for x in sample_stratum(sphere, 20, rng):
            r = numerical_rank(jacobian_coords(P, x))
            assert r.rank == expect and not r.ambiguous


def test_hausdorff_dimension_scan_benchmark():
    tag = QUATERNIONS
    base = DAPolynomial.from_real(tag, [1, 0, 1])
    direction = DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, 1, 0, 0]])
    D = Deformation(base, direction)
    rows = hausdorff_dimension_scan(D, [0.0, 0.1])
    dims = {r.epsilon: r.dimension for r in rows}
    assert dims == {0.0: 2, 0.1: 0}
    assert not any(r.flagged for r in rows)
    # each row carries its root set's effort
    assert [r.effort for r in rows] == [root_set(D.at(e)).effort() for e in (0.0, 0.1)]


def test_hausdorff_scan_zero_direction_is_constant():
    tag = QUATERNIONS
    base = DAPolynomial.from_real(tag, [1, 0, 1])
    zero_dir = DAPolynomial.from_real(tag, [0.0])
    D = Deformation(base, zero_dir)
    rows = hausdorff_dimension_scan(D, [0.0, 0.1])
    # the continuum is read exactly at every epsilon: one sphere, no flag
    assert [(r.dimension, r.n_roots, r.flagged) for r in rows] == [(2, 1, False)] * 2


def test_hausdorff_scan_reads_multiple_companion_roots():
    # (x - eps i)(x^2 + 1) keeps its unit sphere at every eps; at eps = 1 the
    # point eps i joins the sphere and the companion (t^2 + 1)^3 has a
    # triple root, which must not split into isolated points
    tag = QUATERNIONS
    D = Deformation(DAPolynomial.from_real(tag, [0, 1, 0, 1]),
                    _poly(tag, [[0, -1], [0], [0, -1]]))
    rows = hausdorff_dimension_scan(D, [0.0, 0.5, 1.0])
    assert [(r.dimension, r.n_roots, r.flagged) for r in rows] == [
        (2, 2, False), (2, 2, False), (2, 1, False)]


def test_manifolds_imports_no_flow():
    # the root oracle stands below the flow: importing it loads no flow module
    code = "import sys, rootlab.manifolds; print('rootlab.flow' in sys.modules)"
    src = str(Path(mf.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
