"""Gradient-flow integration, attractors, collapse scaling, basins."""

import dp_oracle
import numpy as np
import pytest

from rootlab import flow as fl
from rootlab.algebra import (
    OCTONIONS,
    QUATERNIONS,
    basis_element,
    element,
    random_element,
    real_element,
)
from rootlab.flow import (
    FlowConfig,
    basin_decomposition,
    collapse_time,
    ensemble_labels,
    find_attractors,
    integrate,
    measure_collapse,
    restricted_potential_scan,
    scaling_fit,
)
from rootlab import tolerances as tol
from rootlab.manifolds import numerical_rank
from rootlab.poly import (
    DAPolynomial,
    Deformation,
    jacobian_coords,
    newton_polish,
    potential,
)

BETA = (np.sqrt(5.0) - 1.0) / 2.0


def benchmark(tag=QUATERNIONS):
    base = DAPolynomial.from_real(tag, [1, 0, 1])
    direction = DAPolynomial(tag, (real_element(tag, 1.0), basis_element(tag, 1)))
    return Deformation(base, direction)


def canonical(tag=QUATERNIONS):
    return DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def test_integrate_from_root_stops_immediately():
    P = canonical()
    root = element(QUATERNIONS, [0, BETA, 0, 0])
    traj = integrate(P, root)
    assert traj.terminal.kind == "converged"
    assert traj.times.size == 1
    assert np.allclose(traj.final_point, root.coords)


def test_real_axis_flow_matches_euler_reduction():
    # on the real axis the flow of x^2 + 1 reduces to xdot = -4 x (x^2 + 1)
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    x0 = 1.5
    traj = integrate(P, real_element(QUATERNIONS, x0),
                     FlowConfig(max_time=1.0, stop_grad=1e-16))
    assert np.max(np.abs(traj.points[:, 1:])) < 1e-13
    dt = 1e-5
    n = int(1.0 / dt) + 1
    euler = np.empty(n)
    euler[0] = x0
    for i in range(1, n):
        x = euler[i - 1]
        euler[i] = x + dt * (-4.0 * x * (x * x + 1.0))
    worst = 0.0
    for t, pt in zip(traj.times, traj.points):
        k = int(round(t / dt))
        if k < n:
            worst = max(worst, abs(pt[0] - euler[k]))
    assert worst < 1e-4


def test_potential_monotone_along_trajectory():
    P = canonical()
    traj = integrate(P, element(QUATERNIONS, [0.5, -0.8, 1.1, 0.3]),
                     FlowConfig(max_time=1e3))
    v0 = traj.potentials[0]
    assert np.all(np.diff(traj.potentials) <= 1e-12 * max(v0, 1.0))


def test_integrate_max_time_terminal():
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    traj = integrate(P, real_element(QUATERNIONS, 2.0),
                     FlowConfig(max_time=1e-4, stop_grad=1e-18))
    assert traj.terminal.kind == "max_time"


def test_find_attractors_benchmark():
    D = benchmark()
    att = find_attractors(D.at(0.5), 16, seed=1)
    assert len(att) == 2
    pts = sorted([a.coords for a in att], key=lambda c: c[1])
    assert np.allclose(pts[0], [0, -1.5, 0, 0], atol=1e-8)
    assert np.allclose(pts[1], [0, 1.0, 0, 0], atol=1e-8)


@pytest.mark.parametrize("eps", [0.08, 0.3])
@pytest.mark.parametrize("seed", [1, 2])
def test_family_locator_matches_flow_search(eps, seed):
    # collapse times and basins locate a family's
    # attractors from the root set, with no flow and no seed; the 16-start
    # flow search is the reference
    P = benchmark().at(eps)
    got = fl._located_attractors(P)
    ref = find_attractors(P, 16, seed)
    assert len(got) == len(ref) == 2
    for a, r in zip(got, ref):
        assert np.max(np.abs(a.coords - r.coords)) < 1e-9


def test_polish_keeps_every_isolated_root():
    # roots of norm up to about 5 reach |P| only at the rounding scale
    # sum_k |a_k| |x|^k, far above an absolute 1e-14: every isolated point
    # of the root set must survive the polish
    rng = np.random.default_rng(0)
    for i in range(200):
        tag = (QUATERNIONS, OCTONIONS)[i % 2]
        deg = int(rng.integers(2, 6))
        P = DAPolynomial(tag, tuple(random_element(tag, rng) for _ in range(deg))
                         + (real_element(tag, 1.0),))
        assert len(fl._located_attractors(P)) == deg, i


@pytest.mark.parametrize("tag", [QUATERNIONS, OCTONIONS], ids=str)
def test_family_locator_finds_both_attractors(tag):
    # x^2 + 1 + eps (i x + 1) vanishes at i and at -(1 + eps) i
    D = benchmark(tag)
    for eps in (0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 2.5):
        att = fl._located_attractors(D.at(eps))
        assert len(att) == 2, eps
        want = [-(1.0 + eps) * basis_element(tag, 1), basis_element(tag, 1)]
        for a, w in zip(att, want):
            assert a.allclose(w, atol=1e-12), eps


def test_find_attractors_canonical_roots():
    att = find_attractors(canonical(), 16, seed=2)
    assert len(att) == 2
    vals = sorted(a.coords[1] for a in att)
    assert vals[0] == pytest.approx(-(np.sqrt(5) + 1) / 2, abs=1e-9)
    assert vals[1] == pytest.approx(BETA, abs=1e-9)
    for a in att:
        assert potential(canonical(), a) < 1e-28


def test_find_attractors_central_returns_empty():
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    assert find_attractors(P, 8, seed=3) == []


def test_collapse_time_quartering_and_sign_flip():
    D = benchmark()
    t1 = collapse_time(D, 0.1, seed=3)
    t2 = collapse_time(D, 0.05, seed=3)
    assert not t1.censored and not t2.censored
    assert 3.6 <= t2.time / t1.time <= 4.4
    # the restricted potential is even in the perturbation sign, so the
    # timescale (and here the reached attractor) is unchanged
    t3 = collapse_time(Deformation(D.base, _negate(D.direction)), 0.1, seed=3)
    assert t3.time == pytest.approx(t1.time, rel=0.05)
    assert t3.attractor.coords[1] == pytest.approx(t1.attractor.coords[1], abs=0.05)


def _negate(P):
    return DAPolynomial(P.tag, tuple(-1.0 * c for c in P.coefficients))


def test_sign_flip_mirrors_roots_of_odd_direction():
    # for a parity-odd perturbation the root set mirrors under the flip
    tag = QUATERNIONS
    pos = sorted(a.coords[1] for a in find_attractors(
        DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, 0.5, 0, 0],
                                       [1, 0, 0, 0]]), 12, seed=3))
    neg = sorted(a.coords[1] for a in find_attractors(
        DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, -0.5, 0, 0],
                                       [1, 0, 0, 0]]), 12, seed=3))
    assert len(pos) == 2 and len(neg) == 2
    assert np.allclose(pos, sorted(-v for v in neg), atol=1e-9)


def test_collapse_time_insensitive_to_tolerances():
    D = benchmark()
    loose = collapse_time(D, 0.05, FlowConfig(max_time=5e7), seed=4)
    tight = collapse_time(D, 0.05, FlowConfig(rel_tol=5e-10, abs_tol=5e-13,
                                              max_time=5e7), seed=4)
    assert tight.time == pytest.approx(loose.time, rel=1e-3)


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_collapse_time_matches_dormand_prince_oracle(eps):
    D = benchmark()
    got = collapse_time(D, eps, seed=3)
    assert not got.censored
    assert got.time == pytest.approx(dp_oracle.located_collapse_time(D, eps, 3),
                                     rel=1e-5)


def test_collapse_time_captured_over_octonions():
    # a start the old seeded Newton locator left with one attractor: the
    # flow then stopped on the gradient test, uncensored, at t = 242,972
    D = benchmark(OCTONIONS)
    s = collapse_time(D, 0.005, seed=3)
    assert not s.censored and s.attractor is not None
    assert s.attractor.allclose(basis_element(OCTONIONS, 1), atol=1e-12)
    assert s.time == pytest.approx(86214, rel=1e-4)


def test_collapse_time_censored_without_capture(monkeypatch):
    # with only the far attractor known the run ends on a stop test
    # outside every ball, which is a censored sample, not a collapse
    D = benchmark(OCTONIONS)
    located = fl._located_attractors
    monkeypatch.setattr(fl, "_located_attractors",
                        lambda P: [a for a in located(P) if a.coords[1] < 0])
    s = collapse_time(D, 0.005, seed=3)
    assert s.censored and s.attractor is None


def test_collapse_integrator_is_not_stability_bound():
    # at c08-quick's smallest eps an explicit pair needs about 45k steps,
    # held at h ~ 0.4 by the fast radial decay
    s = collapse_time(benchmark(), 0.01, seed=1)
    assert not s.censored
    assert s.stats.accepted <= 6000
    assert s.stats.h_max > 2.0             # explicit pair: h <= 0.4


def _counting(value_gradient_fn, calls):
    """A value_gradient_fn whose closures append to ``calls`` on each call."""
    def factory(P):
        fn = value_gradient_fn(P)

        def counted(x):
            calls.append(1)
            return fn(x)
        return counted
    return factory


def test_integrate_counters_count(monkeypatch):
    calls = []
    monkeypatch.setattr(fl, "value_gradient_fn", _counting(fl.value_gradient_fn, calls))
    P = canonical()
    traj = integrate(P, element(QUATERNIONS, [0.5, -0.8, 1.1, 0.3]),
                     FlowConfig(max_time=1e3))
    st = traj.stats
    assert st.rhs_evals == len(calls)
    assert traj.terminal.detail == "gradient below threshold"
    assert st.factorizations == st.accepted          # one per step start
    # one call at the start, three stages per attempt, one per accurate step
    attempts = st.accepted + st.rejected + st.lyapunov_rejections
    assert st.rhs_evals == 1 + 3 * attempts + st.accepted + st.lyapunov_rejections
    assert traj.times.size == st.accepted + 1
    assert 0.0 < st.h_min <= st.h_max


def test_hermite_crossing_exact_on_cubic_paths():
    # a cubic path is its own Hermite interpolant, so the located crossing
    # of |y(s)| = r is exact whatever the step
    def y(s):
        return np.array([2.0 - s ** 3 / 4.0, 0.1 * s])

    def f(s):
        return np.array([-3.0 * s ** 2 / 4.0, 0.1])

    for h in (0.4, 0.7, 1.0):
        theta, point = fl._hermite_crossing(y(1.0), f(1.0), y(1.0 + h), f(1.0 + h),
                                            h, np.zeros(2), 1.5)
        s_cross = 1.0 + theta * h
        assert np.linalg.norm(y(s_cross)) == pytest.approx(1.5, rel=1e-12)
        assert np.allclose(point, y(s_cross), rtol=1e-12)


def test_measure_collapse_pool_matches_serial():
    D = benchmark()
    eps = np.geomspace(0.02, 0.2, 4)
    serial = measure_collapse(D, eps, seed=5, workers=1)
    pooled = measure_collapse(D, eps, seed=5, workers=2)
    assert np.array_equal(serial.times, pooled.times)
    assert np.array_equal(serial.censored, pooled.censored)
    assert np.array_equal(serial.steps, pooled.steps)
    assert np.array_equal(serial.rhs_evals, pooled.rhs_evals)
    assert serial.fit_slope == pooled.fit_slope
    assert serial.r_squared == pooled.r_squared


def test_scaling_fit_synthetic():
    eps = np.geomspace(0.01, 0.1, 5)
    slope, intercept, r2 = scaling_fit(eps, 3.0 / eps ** 2)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0)
    assert r2 == pytest.approx(1.0)
    slope1, _, _ = scaling_fit(eps, 3.0 / eps)
    assert slope1 == pytest.approx(-1.0, abs=1e-12)


def test_scaling_fit_preconditions():
    with pytest.raises(ValueError):
        scaling_fit([0.01, 0.02, 0.04], [1, 2, 3])
    with pytest.raises(ValueError):
        scaling_fit([0.01, 0.02, 0.04, 0.05], [1, 2, 3, 4])


def test_measure_collapse_slope_short():
    D = benchmark()
    m = measure_collapse(D, np.geomspace(0.02, 0.2, 4), seed=5)
    assert -2.15 <= m.fit_slope <= -1.85
    assert m.r_squared > 0.99


def test_restricted_potential_values_and_scaling():
    D = benchmark()
    eps = 0.07
    # south pole of the unit sphere: value 4 eps^2 exactly
    south = element(QUATERNIONS, [0, -1, 0, 0])
    assert potential(D.at(eps), south) == pytest.approx(4 * eps ** 2, rel=1e-12)
    scan = restricted_potential_scan(D, eps, n_points=20, seed=6)
    assert np.allclose(2.0 ** scan.exponents, 4.0, rtol=1e-6)
    # minimum sits near the north pole, maximum near the south pole
    assert scan.min_point[1] > 0.5
    assert scan.max_point[1] < -0.5
    zero = restricted_potential_scan(D, 0.0, n_points=5, seed=6)
    assert np.max(zero.values) < 1e-30


def test_hemisphere_examples_and_equator_flag():
    D = benchmark()
    eps = 0.3
    P = D.at(eps)
    att = find_attractors(P, 12, seed=7)
    north = np.array([0.0, np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
    south = np.array([0.0, np.cos(3 * np.pi / 4), np.sin(3 * np.pi / 4), 0.0])
    for start, sign in ((north, 1.0), (south, -1.0)):
        traj = integrate(P, start, FlowConfig(max_time=1e4), attractors=att)
        idx = traj.terminal.attractor_index
        assert idx is not None
        assert np.sign(att[idx].coords[1]) == sign
    rep = basin_decomposition(D, eps, 64, seed=7)
    equator_like = np.abs(rep.starts[:, 1]) <= fl.EQUATOR_BAND
    assert np.array_equal(rep.band_mask, equator_like)


def test_basins_converge_at_cli_default_eps():
    # at eps = 0.5 the stiffest Hessian eigenvalue at the attractors is 12.5,
    # where RK4's old fixed step h = 0.25 is unstable and every row blew up
    rep = basin_decomposition(benchmark(), 0.5, 100, seed=2)
    assert rep.unconverged == []
    assert sum(rep.fractions.values()) == pytest.approx(1.0)


def test_ensemble_labels_agree_with_adaptive_integrator():
    D = benchmark()
    eps = 0.2
    P = D.at(eps)
    att = find_attractors(P, 12, seed=8)
    rng = np.random.default_rng(8)
    from rootlab.manifolds import root_set, sample_stratum
    sphere = root_set(D.base).strata[0]
    starts = np.stack([s.coords for s in sample_stratum(sphere, 12, rng)])
    labels, _, _ = ensemble_labels(P, starts, att, max_time=1e4)
    for i, s in enumerate(starts):
        traj = integrate(P, s, FlowConfig(max_time=1e4), attractors=att)
        assert traj.terminal.attractor_index == labels[i]


def _sphere_and_gaussian_starts(D, seed):
    from rootlab.manifolds import root_set, sample_stratum
    rng = np.random.default_rng(seed)
    sphere = root_set(D.base).strata[0]
    on_sphere = np.stack([s.coords for s in sample_stratum(sphere, 12, rng)])
    return np.vstack([on_sphere, rng.normal(scale=1.5, size=(4, 4))])


@pytest.mark.parametrize("with_attractors", [True, False])
def test_integrate_ensemble_matches_integrate(monkeypatch, with_attractors):
    D = benchmark()
    P = D.at(0.3)
    starts = _sphere_and_gaussian_starts(D, 12)
    if with_attractors:
        att, cfg = find_attractors(P, 12, seed=12), FlowConfig(max_time=1e4)
    else:
        att, cfg = None, FlowConfig(stop_grad=1e-4, max_time=1e4)
    ens = fl.integrate_ensemble(P, starts, cfg, attractors=att)

    # the Dormand-Prince oracle makes one value-gradient call at the start
    # and 6 per attempt
    calls = []
    monkeypatch.setattr(dp_oracle, "value_gradient_fn",
                        _counting(dp_oracle.value_gradient_fn, calls))
    for i, s in enumerate(starts):
        calls.clear()
        traj = dp_oracle.integrate(P, s, cfg, attractors=att)
        idx = traj.terminal.attractor_index
        assert ens.kinds[i] == traj.terminal.kind
        assert ens.attractor_index[i] == (-1 if idx is None else idx)
        assert ens.steps[i] == (len(calls) - 1) // 6
        assert ens.times[i] == pytest.approx(traj.final_time, rel=1e-8)
        assert np.max(np.abs(ens.points[i] - traj.final_point)) < 1e-8
    if with_attractors:
        assert set(ens.attractor_index) == {0, 1}


def test_attractors_from_starts_matches_per_start_loop():
    D = benchmark()
    P = D.at(0.3)
    starts = _sphere_and_gaussian_starts(D, 13)
    cfg = FlowConfig(stop_grad=1e-4, max_time=1e4)
    ref = []
    for s in starts:
        res = newton_polish(P, dp_oracle.integrate(P, s, cfg).final_point)
        scale = sum(np.linalg.norm(a) * np.linalg.norm(res.point) ** k
                    for k, a in enumerate(P._rows))
        if not res.residual < tol.NEWTON_RESIDUAL * max(1.0, scale):
            continue
        if numerical_rank(jacobian_coords(P, res.point)).rank < P.tag.dimension:
            continue
        if all(np.linalg.norm(res.point - q) > tol.ATTRACTOR_DEDUP for q in ref):
            ref.append(res.point)
    ref.sort(key=lambda p: tuple(np.round(p, 9)))
    got = fl.attractors_from_starts(P, starts)
    assert len(got) == len(ref) == 2
    for a, r in zip(got, ref):
        assert np.max(np.abs(a.coords - r)) < 1e-12


def test_flow_captures_starts_and_never_raises_potential():
    # every start is captured but for separatrix starts in the equator band;
    # off-manifold starts run on the adaptive ensemble, since the fixed RK4
    # step of the basin labels diverges on them
    D = benchmark()
    eps = 0.3
    P = D.at(eps)
    rng = np.random.default_rng(9)
    att, _, starts, in_band = fl._sphere_starts(D, P, 80, rng)
    starts = np.vstack([starts, rng.normal(scale=2.0, size=(20, 4))])
    in_band = np.concatenate([in_band, np.zeros(20, dtype=bool)])
    ens = fl.integrate_ensemble(P, starts, FlowConfig(max_time=max(1e4, 200.0 / eps ** 2)),
                                attractors=att)
    hit = ens.attractor_index >= 0
    assert np.all(hit | in_band)
    assert np.sum(hit) >= 95
    # the basin labels of the same sphere starts see V never rise
    assert basin_decomposition(D, eps, 80, seed=9).max_rise <= 1e-10


def test_flow_static_at_zero():
    # at eps = 0 the sphere is already a set of minima: nothing moves
    D = benchmark()
    from rootlab.manifolds import sample_stratum
    starts = np.stack([s.coords for s in sample_stratum(fl._first_sphere(D), 30,
                                                        np.random.default_rng(10))])
    ens = fl.integrate_ensemble(D.at(0.0), starts, FlowConfig(max_time=10.0))
    assert np.max(np.linalg.norm(ens.points - starts, axis=1)) < 1e-6
