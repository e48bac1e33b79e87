"""Gradient-flow integration, attractors, collapse scaling, basins."""

import dataclasses
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import dp_oracle
import numpy as np
import pytest
import rk4_oracle

from rootlab import flow as fl
from rootlab import poly as pl
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


def _polished(P, x):
    """The roots that one point of P polishes to."""
    return fl._polished_attractors([P], pl.stack_tables([P]), np.zeros(1, dtype=int), [x])[0][0]


def find_attractors(P, n_starts, seed):
    """One polynomial's multistart search from ``n_starts`` Gaussian starts."""
    starts = fl.gaussian_starts(P.tag, n_starts, seed)
    return fl.attractors_from_starts([P], [starts])[0].attractors


def test_integrate_from_root_stops_immediately():
    P = canonical()
    root = element(QUATERNIONS, [0, BETA, 0, 0])
    traj = integrate(P, root.coords)
    assert traj.terminal.kind == "converged"
    assert traj.times.size == 1
    assert np.allclose(traj.final_point, root.coords)


def test_real_axis_flow_matches_euler_reduction():
    # on the real axis the flow of x^2 + 1 reduces to xdot = -4 x (x^2 + 1)
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    x0 = 1.5
    traj = integrate(P, real_element(QUATERNIONS, x0).coords,
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
    traj = integrate(P, element(QUATERNIONS, [0.5, -0.8, 1.1, 0.3]).coords,
                     FlowConfig(max_time=1e3))
    v0 = traj.potentials[0]
    assert np.all(np.diff(traj.potentials) <= 1e-12 * max(v0, 1.0))


def test_integrate_max_time_terminal():
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    traj = integrate(P, real_element(QUATERNIONS, 2.0).coords,
                     FlowConfig(max_time=1e-4, stop_grad=1e-18))
    assert traj.terminal.kind == "max_time"


def test_find_attractors_benchmark():
    D = benchmark()
    att = find_attractors(D.at(0.5), 16, seed=1)
    assert len(att) == 2
    pts = sorted(att, key=lambda c: c[1])
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
        assert np.max(np.abs(a - r)) < 1e-9


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
            assert np.allclose(a, w.coords, rtol=0.0, atol=1e-12), eps


def test_find_attractors_canonical_roots():
    att = find_attractors(canonical(), 16, seed=2)
    assert len(att) == 2
    vals = sorted(a[1] for a in att)
    assert vals[0] == pytest.approx(-(np.sqrt(5) + 1) / 2, abs=1e-9)
    assert vals[1] == pytest.approx(BETA, abs=1e-9)
    for a in att:
        assert pl.potential_coords(canonical(), a) < 1e-28


def test_find_attractors_central_returns_empty():
    P = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    assert find_attractors(P, 8, seed=3).shape == (0, 4)


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
    assert t3.attractor[1] == pytest.approx(t1.attractor[1], abs=0.05)


def _negate(P):
    return DAPolynomial(P.tag, tuple(-1.0 * c for c in P.coefficients))


def test_sign_flip_mirrors_roots_of_odd_direction():
    # for a parity-odd perturbation the root set mirrors under the flip
    tag = QUATERNIONS
    pos = sorted(a[1] for a in find_attractors(
        DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, 0.5, 0, 0],
                                       [1, 0, 0, 0]]), 12, seed=3))
    neg = sorted(a[1] for a in find_attractors(
        DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, -0.5, 0, 0],
                                       [1, 0, 0, 0]]), 12, seed=3))
    assert len(pos) == 2 and len(neg) == 2
    assert np.allclose(pos, sorted(-v for v in neg), atol=1e-9)


def test_collapse_time_insensitive_to_tolerances(monkeypatch):
    D = benchmark()
    loose = collapse_time(D, 0.05, seed=4)
    monkeypatch.setattr(tol, "FLOW_REL", 5e-10)
    monkeypatch.setattr(tol, "FLOW_ABS", 5e-13)
    tight = collapse_time(D, 0.05, seed=4)
    assert tight.time == pytest.approx(loose.time, rel=1e-3)


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_collapse_time_matches_dormand_prince_oracle(eps):
    D = benchmark()
    got = collapse_time(D, eps, seed=3)
    assert not got.censored
    assert got.time == pytest.approx(dp_oracle.located_collapse_time(D, eps, 3),
                                     rel=1e-5)


def test_collapse_time_depends_on_eps_only():
    # the start sits exactly pi/3 from the frame's axis, and the root sphere
    # is homogeneous: neither the seed's transverse direction nor the
    # algebra moves the collapse time
    times = [collapse_time(benchmark(tag), 0.05, seed=seed).time
             for tag in (QUATERNIONS, OCTONIONS) for seed in (0, 1, 3)]
    assert times == pytest.approx([times[0]] * len(times), rel=1e-6)


def test_collapse_time_captured_over_octonions():
    # a start the old seeded Newton locator left with one attractor; an
    # axis sampled from 256 restricted-potential values put it 75 degrees
    # from the attractor's axis (t = 86,214); from pi/3 it matches the H run
    D = benchmark(OCTONIONS)
    s = collapse_time(D, 0.005, seed=3)
    assert not s.censored and s.attractor is not None
    assert np.allclose(s.attractor, basis_element(OCTONIONS, 1).coords, rtol=0.0, atol=1e-12)
    assert s.time == pytest.approx(70832, rel=1e-4)
    assert s.time == pytest.approx(collapse_time(benchmark(), 0.005, seed=3).time,
                                   rel=1e-6)


def test_collapse_time_censored_without_capture(monkeypatch):
    # with only the far attractor known to the flow the run ends on a stop
    # test outside every ball, which is a censored sample, not a collapse;
    # the frame keeps both attractors, so the start does not move
    D = benchmark(OCTONIONS)
    flow_integrate = fl.integrate
    monkeypatch.setattr(fl, "integrate", lambda P, x0, cfg, attractors: flow_integrate(
        P, x0, cfg, attractors[attractors[:, 1] < 0]))
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
    traj = integrate(P, element(QUATERNIONS, [0.5, -0.8, 1.1, 0.3]).coords,
                     FlowConfig(max_time=1e3))
    st = traj.stats
    assert st.rhs_evals == len(calls)
    assert traj.terminal.detail == "gradient below threshold"
    # one call at the start, three stages per attempt, one per accurate step
    attempts = st.accepted + st.rejected + st.lyapunov_rejections
    assert st.rhs_evals == 1 + 3 * attempts + st.accepted + st.lyapunov_rejections
    assert traj.times.size == st.accepted + 1
    assert 0.0 < st.h_min <= st.h_max


@pytest.mark.parametrize("tag", [QUATERNIONS, OCTONIONS])
def test_integrate_step_is_the_lockstep_attempt(tag, monkeypatch):
    # integrate keeps its own stage loop; its first step, with max_time set
    # to its initial step (accepted at the label tolerances), is the
    # lockstep's W-method attempt on the same y, f, W^-1 and h g: bit for
    # bit over H, and to rounding over O, where einsum and @ group the
    # 8-term sums differently
    monkeypatch.setattr(fl.tol, "FLOW_REL", tol.LABEL_REL)
    monkeypatch.setattr(fl.tol, "FLOW_ABS", tol.LABEL_ABS)
    P = benchmark(tag).at(0.3)
    y = np.resize([0.3, 0.9, -0.4, 0.2, 0.1, -0.2, 0.3, 0.05], tag.dimension)
    _, g, J = pl.value_gradient_fn(P)(y)
    h = float(fl._starting_step(y, -g, J.T @ J, tol.LABEL_ABS, tol.LABEL_REL))
    traj = integrate(P, y, FlowConfig(max_time=h))
    st = traj.stats
    assert (traj.terminal.kind, st.accepted, st.rejected, st.lyapunov_rejections) == (
        "max_time", 1, 0, 0)
    hg = h * fl._W_G
    w_inv = np.linalg.inv(np.eye(y.size) + hg * (2.0 * J.T @ J))
    y1, _ = fl._w_attempt(lambda Z: pl.gradient_coords_batch(P, Z), y[None], -g[None],
                          w_inv[None], np.array([[hg]]))
    if tag is QUATERNIONS:
        assert np.array_equal(traj.final_point, y1[0])
    else:
        gap = np.max(np.abs(traj.final_point - y1[0]))
        assert gap <= 1e-14 * np.max(np.abs(y1[0]))


def test_collapse_integrator_evaluates_each_point_once(monkeypatch):
    # c08's eps = 0.1: every kernel call is one closure call, so none asks
    # for a Jacobian alone, and each attempt's W is built from the J that
    # came with its start point
    D = benchmark()
    P = D.at(0.1)
    sample = collapse_time(D, 0.1, seed=1)
    attractors = fl._family_frame(D, P)[0]
    calls, kernel_calls = [], []
    monkeypatch.setattr(fl, "value_gradient_fn", _counting(fl.value_gradient_fn, calls))
    kernel = pl._kernel
    monkeypatch.setattr(pl, "_kernel",
                        lambda *a, **k: kernel_calls.append(1) or kernel(*a, **k))
    traj = integrate(P, sample.start, fl.COLLAPSE_FLOW, attractors)
    st = traj.stats
    assert (traj.final_time, st) == (sample.time, sample.stats)
    assert traj.terminal.detail == "captured"
    assert st.rhs_evals == len(calls) == len(kernel_calls)


def test_capture_index_matches_capture_rows():
    rng = np.random.default_rng(13)
    att = rng.normal(size=(3, 4))
    near = att[rng.integers(0, 3, size=40)] + rng.normal(scale=0.03, size=(40, 4))
    points = np.vstack([rng.normal(size=(40, 4)), near])
    rows = fl._capture_rows(points, att, fl.STOP_RADIUS)
    assert np.any(rows >= 0) and np.any(rows < 0)
    for y, row in zip(points, rows):
        assert fl._capture_index(y, att, fl.STOP_RADIUS) == (None if row < 0 else row)
    assert fl._capture_index(points[0], None, fl.STOP_RADIUS) is None


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
    # every field, the per-epsilon integrator counters included
    for f in dataclasses.fields(serial):
        assert np.array_equal(getattr(serial, f.name), getattr(pooled, f.name)), f.name
    assert all(st.h_min <= st.h_max for st in serial.stats)
    assert collapse_time(D, serial.epsilons[-1], seed=5).stats == serial.stats[-1]


def test_importing_the_claims_leaves_the_process_pool_unloaded():
    # only measure_collapse uses the pool, so its module loads there and not
    # at every interpreter start
    code = "import sys, rootlab.claims; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(fl.__file__).resolve().parents[1])
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert (r.returncode, r.stdout.strip()) == (0, "False"), r.stderr


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
        assert np.sign(att[idx][1]) == sign
    rep = basin_decomposition(D, eps, 64, seed=7)
    equator_like = np.abs(rep.starts[:, 1]) <= fl.EQUATOR_BAND
    assert np.array_equal(rep.band_mask, equator_like)


def test_basins_converge_at_cli_default_eps():
    # at eps = 0.5 the stiffest Hessian eigenvalue at the attractors is 12.5:
    # a fixed step h = 0.25 once left RK4 unstable and every row blew up;
    # the L-stable W-method's step is set by accuracy alone
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
    starts = sample_stratum(sphere, 12, rng)
    labels, *_ = ensemble_labels(P, starts, att, max_time=1e4)
    for i, s in enumerate(starts):
        traj = dp_oracle.integrate(P, s, FlowConfig(max_time=1e4), attractors=att)
        assert traj.terminal.attractor_index == labels[i]


def _w_linear(z, zw, h=1.0):
    """One ``_w_attempt`` of h on y' = z y from y = 1, with W = 1 - h g zw."""
    z = np.asarray(z, dtype=float)[:, None]
    zw = np.broadcast_to(zw, z.shape[:1])[:, None]
    hg = h * fl._W_G
    y = np.ones_like(z)
    y1, e = fl._w_attempt(lambda Y: -z * Y, y, z * y, (1.0 / (1.0 - hg * zw))[:, :, None],
                          np.full_like(z, hg))
    return y1[:, 0], e[:, 0]


def test_w_step_is_third_order_for_any_w_and_l_stable():
    # y' = z y: one step of h = 1 takes y to y R(z); third order with the
    # exact W, a wrong one or none, and |R| <= 1 on the whole negative axis
    # with R -> 0 at its end (L-stable), so a stiff decay does not bound h
    z = -np.logspace(-3, -1, 5)
    for zw in (z, 0.5 * z, 0.0):
        assert np.all(np.abs(_w_linear(z, zw)[0] - np.exp(z)) <= 0.1 * z ** 4), zw
    stiff = -np.logspace(-3, 12, 3001)
    R = _w_linear(stiff, stiff)[0]
    assert np.max(np.abs(R)) <= 1.0 and abs(R[-1]) < 1e-10


def test_w_error_estimate_is_third_order():
    # the embedded estimate of one step from y = 1 shrinks as h^3:
    # halving h divides it by 8
    def est(h):
        return abs(_w_linear(np.array([-h]), -h)[1][0])
    ratios = [est(h) / est(h / 2.0) for h in (0.04, 0.02, 0.01)]
    assert np.allclose(ratios, 8.0, rtol=0.05), ratios


def test_lockstep_matches_integrate_row_by_row(monkeypatch):
    # the lockstep driver is integrate's W-method, row by row: with
    # integrate's error control at the label tolerances, every row gets
    # integrate's label within one accepted step of its count
    D = benchmark()
    P = D.at(0.3)
    att = fl._located_attractors(P)
    starts = _sphere_and_gaussian_starts(D, 12)
    rows = fl._lockstep(pl.stack_tables([P]), starts, 1e4, attractors=att)
    accepted = rows.steps - rows.rejected - rows.lyapunov_rejections
    monkeypatch.setattr(fl.tol, "FLOW_REL", tol.LABEL_REL)
    monkeypatch.setattr(fl.tol, "FLOW_ABS", tol.LABEL_ABS)
    for i, s in enumerate(starts):
        traj = integrate(P, s, FlowConfig(max_time=1e4), attractors=att)
        assert traj.terminal.attractor_index == rows.labels[i] >= 0
        assert abs(accepted[i] - traj.stats.accepted) <= 1, i
    assert np.all(rows.ends == fl.ENDS.index("captured"))


def test_label_rows_do_not_depend_on_their_batch():
    # each row has its own h and W, so a row labelled alone gets the label
    # and the step count it gets among 100 others
    D = benchmark()
    P = D.at(0.08)
    att, _, starts, _ = fl._sphere_starts(D, P, 100, np.random.default_rng(3))
    batch = fl._lockstep(pl.stack_tables([P]), starts, 1e4, attractors=att)
    for i in (0, 17, 50, 99):
        alone = fl._lockstep(pl.stack_tables([P]), starts[i:i + 1], 1e4, attractors=att)
        assert alone.labels[0] == batch.labels[i] >= 0
        assert alone.steps[0] == batch.steps[i]
        assert alone.rejected[0] == batch.rejected[i]


@pytest.mark.parametrize("eps", [0.08, 0.3, 0.5, 1.0, 2.0, 3.0])
def test_ensemble_labels_match_rk4_oracle(eps):
    # the Chebyshev labels equal those of the RK4 loop they replaced, with
    # no row left free and V never rising
    D = benchmark()
    P = D.at(eps)
    att, _, starts, _ = fl._sphere_starts(D, P, 100, np.random.default_rng(3))
    max_time = max(1e4, 400.0 / eps ** 2)
    labels, _, rise, *_ = ensemble_labels(P, starts, att, max_time)
    assert np.array_equal(labels, rk4_oracle.ensemble_labels(P, starts, att, max_time)[0])
    assert np.all(labels >= 0)
    assert rise <= 1e-10


@pytest.mark.parametrize("eps", [0.08, 0.3, 0.5, 1.0, 2.0, 3.0])
def test_ensemble_labels_do_not_move_with_a_tighter_tolerance(eps, monkeypatch):
    # the RK4-oracle starts labelled at LABEL_REL and at a tenth of it
    D = benchmark()
    P = D.at(eps)
    att, _, starts, _ = fl._sphere_starts(D, P, 100, np.random.default_rng(3))
    max_time = max(1e4, 400.0 / eps ** 2)
    labels, _, _, stats = ensemble_labels(P, starts, att, max_time)
    monkeypatch.setattr(fl.tol, "LABEL_REL", fl.tol.LABEL_REL / 10.0)
    tight, _, _, tight_stats = ensemble_labels(P, starts, att, max_time)
    assert np.array_equal(labels, tight)
    assert tight_stats["gradient_calls"] > stats["gradient_calls"]


def _sphere_and_gaussian_starts(D, seed):
    from rootlab.manifolds import root_set, sample_stratum
    rng = np.random.default_rng(seed)
    sphere = root_set(D.base).strata[0]
    on_sphere = sample_stratum(sphere, 12, rng)
    return np.vstack([on_sphere, rng.normal(scale=1.5, size=(4, 4))])


def test_integrate_ensemble_matches_integrate(monkeypatch):
    D = benchmark()
    P = D.at(0.3)
    starts = _sphere_and_gaussian_starts(D, 12)
    cfg = FlowConfig(stop_grad=1e-4, max_time=1e4)
    ens = dp_oracle.integrate_ensemble(P, starts, cfg)

    # the Dormand-Prince oracle makes one value-gradient call at the start
    # and 6 per attempt
    calls = []
    monkeypatch.setattr(dp_oracle, "value_gradient_fn",
                        _counting(dp_oracle.value_gradient_fn, calls))
    for i, s in enumerate(starts):
        calls.clear()
        traj = dp_oracle.integrate(P, s, cfg)
        assert ens.kinds[i] == traj.terminal.kind
        assert ens.steps[i] == (len(calls) - 1) // 6
        assert ens.rhs_evals[i] == len(calls)
        assert ens.accepted[i] == traj.times.size - 1     # it records every step
        assert ens.times[i] == pytest.approx(traj.final_time, rel=1e-8)
        assert np.max(np.abs(ens.points[i] - traj.final_point)) < 1e-8


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
    got = fl.attractors_from_starts([P], [starts])[0].attractors
    assert len(got) == len(ref) == 2
    for a, r in zip(got, ref):
        assert np.max(np.abs(a - r)) < 1e-12


def _cubic():
    # x^3 + (1 + j) x + (2 + i): three isolated roots
    return DAPolynomial.from_coords(QUATERNIONS, [[2, 1, 0, 0], [1, 0, 1, 0],
                                                  [0, 0, 0, 0], [1, 0, 0, 0]])


def test_integrate_ensemble_stack_matches_single_calls():
    # a quadratic and a cubic (zero-padded to degree 3) flow in one stacked
    # pass; each row behaves as in its own polynomial's call
    D = benchmark()
    polys = (D.at(0.3), _cubic())
    starts = _sphere_and_gaussian_starts(D, 14)
    n = len(starts)
    cfg = FlowConfig(stop_grad=1e-4, max_time=1e4)
    both = dp_oracle.integrate_ensemble([P for P in polys for _ in range(n)],
                                        np.vstack([starts, starts]), cfg)
    assert np.array_equal(both.rhs_evals, 6 * both.steps + 1)
    for i, P in enumerate(polys):
        one = dp_oracle.integrate_ensemble(P, starts, cfg)
        part = both.rows(slice(i * n, (i + 1) * n))
        assert np.array_equal(part.kinds, one.kinds)
        assert np.array_equal(part.steps, one.steps)
        assert np.array_equal(part.accepted, one.accepted)
        assert np.max(np.abs(part.points - one.points)) < 1e-12
        assert np.max(np.abs(part.times - one.times)) <= 1e-12 * np.max(one.times)
    assert both.effort()["lockstep_steps"] == np.max(both.steps)
    with pytest.raises(ValueError):
        dp_oracle.integrate_ensemble(list(polys), starts, cfg)


def test_attractors_from_starts_stack_matches_find_attractors():
    polys = [benchmark().at(0.3), canonical(), _cubic()]
    starts = fl.gaussian_starts(QUATERNIONS, 8, 5)
    searches = fl.attractors_from_starts(polys, [starts] * len(polys))
    assert len(searches) == len(polys)
    for P, search in zip(polys, searches):
        ref = find_attractors(P, 8, 5)
        assert len(search.attractors) == len(ref) > 0
        for a, r in zip(search.attractors, ref):
            assert np.max(np.abs(a - r)) < 1e-12
        assert search.flow.points.shape == starts.shape


def _same_search(a, b) -> None:
    assert len(a.attractors) == len(b.attractors)
    for x, y in zip(a.attractors, b.attractors):
        assert np.max(np.abs(x - y)) < 1e-12
    assert a.flow.points.shape == b.flow.points.shape
    assert a.flow.effort()["ended"] == b.flow.effort()["ended"]


@pytest.mark.parametrize("seed", [1, 2, 1966449962])
def test_mixed_search_matches_separate_searches(seed):
    # c05's two searches, with their own start sets and stop tests, in one
    # pass: each polynomial's rows end as in its own search and polish to
    # the same roots (a step's stage count follows its batch, so the end
    # points themselves move with the rows a pass holds)
    P = canonical()
    rng = np.random.default_rng(seed)
    quads = [DAPolynomial.from_coords(QUATERNIONS, [[*rng.normal(size=2), 0, 0],
                                                    [*rng.normal(size=2), 0, 0],
                                                    [1, 0, 0, 0]]) for _ in range(6)]
    s12 = fl.gaussian_starts(QUATERNIONS, 12, seed)
    s5 = fl.gaussian_starts(QUATERNIONS, 5, seed)
    cfg_a, cfg_b = fl.SEARCH_FLOW, FlowConfig(stop_grad=1e-3, max_time=500.0)
    mixed = fl.attractors_from_starts([P, *quads], [s12, *[s5] * len(quads)],
                                      [cfg_a, *[cfg_b] * len(quads)])
    alone = fl.attractors_from_starts([P], [s12])[0]
    assert alone.attractors.tolist() == find_attractors(P, 12, seed).tolist()
    separate = [alone, *fl.attractors_from_starts(quads, [s5] * len(quads),
                                                  [cfg_b] * len(quads))]
    assert len(mixed) == len(separate)
    for a, b in zip(mixed, separate):
        _same_search(a, b)
    with pytest.raises(ValueError):
        fl.attractors_from_starts([P, *quads], [s12, s5], [cfg_b] * (1 + len(quads)))
    with pytest.raises(ValueError):
        fl.attractors_from_starts([P, *quads], [s5] * (1 + len(quads)), [cfg_a, cfg_b])


def test_one_start_per_polynomial_is_that_polynomial_s_own():
    # a single 1-D start per polynomial is one start set each, never one
    # set shared by every polynomial (which flowed 2 rows per polynomial)
    polys = [canonical(), benchmark().at(0.3)]
    starts = [np.array([0.1, 0.8, 0.2, 0.0]), np.array([0.0, -1.2, 0.1, 0.3])]
    searches = fl.attractors_from_starts(polys, starts)
    assert [len(s.flow.points) for s in searches] == [1, 1]
    for P, x, search in zip(polys, starts, searches):
        _same_search(search, fl.attractors_from_starts([P], [x[None]])[0])
        assert len(search.attractors) == 1


def test_integrate_ensemble_row_configs_match_one_config():
    D = benchmark()
    P = D.at(0.3)
    starts = _sphere_and_gaussian_starts(D, 15)
    cfg = FlowConfig(stop_grad=1e-5, max_time=1e3)
    one = dp_oracle.integrate_ensemble(P, starts, cfg)
    rows = dp_oracle.integrate_ensemble(P, starts, [cfg] * len(starts))
    for name in ("points", "kinds", "steps", "times", "accepted", "rhs_evals"):
        assert np.array_equal(getattr(rows, name), getattr(one, name)), name
    with pytest.raises(ValueError):
        dp_oracle.integrate_ensemble(P, starts, [cfg] * (len(starts) - 1))


def test_lockstep_row_settings_match_one_setting():
    # a time limit and gradient stop given per row run the rows exactly as
    # the same scalars do, and a polynomial repeated per row as the shared one
    D = benchmark()
    P = D.at(0.3)
    starts = _sphere_and_gaussian_starts(D, 15)
    n = len(starts)
    one = fl._lockstep(pl.stack_tables([P]), starts, 1e3, stop_grad=1e-5)
    rows = fl._lockstep(pl.stack_tables([P] * n), starts, np.full(n, 1e3),
                        stop_grad=np.full(n, 1e-5))
    for f in dataclasses.fields(one):
        assert np.array_equal(getattr(rows, f.name), getattr(one, f.name)), f.name
    assert np.all(one.ends == fl.ENDS.index("gradient"))
    # a per-row term must hold one entry per start
    with pytest.raises(ValueError):
        fl._lockstep(pl.stack_tables([P] * (n - 2) + [canonical()]), starts, 1e3)


def test_flow_captures_starts_and_never_raises_potential():
    # every start flows to rest at an attractor but for separatrix starts in
    # the equator band, on the search's lockstep pass: each row stops on
    # its gradient
    D = benchmark()
    eps = 0.3
    P = D.at(eps)
    rng = np.random.default_rng(9)
    att, _, starts, in_band = fl._sphere_starts(D, P, 80, rng)
    starts = np.vstack([starts, rng.normal(scale=2.0, size=(20, 4))])
    in_band = np.concatenate([in_band, np.zeros(20, dtype=bool)])
    cfg = FlowConfig(max_time=max(1e4, 200.0 / eps ** 2))
    ens = fl._lockstep(pl.stack_tables([P]), starts, cfg.max_time, stop_grad=cfg.stop_grad)
    gap = np.linalg.norm(ens.points[:, None] - att, axis=2).min(axis=1)
    hit = (ens.ends == fl.ENDS.index("gradient")) & (gap < fl.STOP_RADIUS)
    assert ens.effort()["lyapunov_rejections"] == 0
    assert np.all(hit | in_band)
    assert np.sum(hit) >= 95
    # the basin labels of the same sphere starts see V never rise
    assert basin_decomposition(D, eps, 80, seed=9).max_rise <= 1e-10


def test_ensemble_labels_match_adaptive_flow_off_manifold():
    # the Gaussian starts above: on the old fixed step 19 of 20 diverged;
    # under error control every one is labelled by the attractor that
    # captures its adaptive flow at FLOW_REL, with V never rising; the flow
    # is the lockstep Dormand-Prince oracle ensemble, pinned to its
    # per-start oracle above (0.6 s here; 20 ``integrate`` runs take about
    # 19 s and give the same labels)
    D = benchmark()
    P = D.at(0.3)
    rng = np.random.default_rng(9)
    att = fl._sphere_starts(D, P, 80, rng)[0]
    starts = rng.normal(scale=2.0, size=(20, 4))
    labels, _, rise, stats = ensemble_labels(P, starts, att, 1e4)
    ens = dp_oracle.integrate_ensemble(P, starts, FlowConfig(max_time=1e4))
    assert np.all(ens.kinds == "converged")
    expected = fl._capture_rows(ens.points, att, fl.STOP_RADIUS)
    assert np.all(expected >= 0)
    assert np.array_equal(labels, expected)
    assert rise <= 1e-10
    assert stats["gradient_calls"] < 1000, stats


def test_ensemble_labels_drop_a_nan_row():
    # a row whose error and V read NaN leaves the batch unlabelled with its
    # start kept; the loop still ends and every other row is captured
    D = benchmark()
    P = D.at(0.3)
    att, _, starts, _ = fl._sphere_starts(D, P, 12, np.random.default_rng(4))
    starts[5] = np.nan
    with np.errstate(invalid="ignore"):
        labels, finals, rise, _ = ensemble_labels(P, starts, att, 1e4)
    assert np.array_equal(labels < 0, np.arange(12) == 5)
    assert np.all(np.isnan(finals[5]))
    assert np.isnan(rise)


def test_far_starts_end_as_the_oracle_ends_them():
    # far off the manifold the flow's time scale |y| / |f| falls as 1/|y|^2
    # (about 1e-17 at 1e8), and a step underflows only against the larger of
    # it and the row's clock: label and search rows out to 1e8 end as the
    # Dormand-Prince oracle ends them.  Beyond 1e6 the oracle stalls at its
    # absolute step floor (1e-16); there the label is the one the oracle
    # gives on the same ray at 1e6, where the flow, radial out there, has
    # not turned
    D = benchmark()
    P = D.at(0.3)
    att = fl._located_attractors(P)
    unit = np.random.default_rng(0).normal(size=(2, 4))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    cfg = FlowConfig(max_time=1e4)
    ray = None
    for r in (1e3, 1e6, 1e7, 1e8):
        labels, _, rise, stats = ensemble_labels(P, r * unit, att, 1e4)
        assert stats["ended"]["captured"] == len(unit) and rise <= 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = [dp_oracle.integrate(P, x, cfg, attractors=att).terminal
                      for x in r * unit]
        if r <= 1e6:
            assert [t.attractor_index for t in oracle] == labels.tolist() == [0, 1]
            ray = labels
        else:
            assert all(t.kind == "stalled" for t in oracle)
            assert np.array_equal(labels, ray)
        search = fl.attractors_from_starts([P], [r * unit])[0]
        assert search.effort()["ended"]["gradient"] == len(unit)
        with np.errstate(over="ignore", invalid="ignore"):
            ends = dp_oracle.integrate_ensemble(P, r * unit, fl.SEARCH_FLOW).points
        for ours, theirs in zip(search.flow.points, ends):
            a, b = (_polished(P, x) for x in (ours, theirs))
            assert len(a) == len(b) == 1
            assert np.max(np.abs(a[0] - b[0])) < 1e-9


def test_integrate_keeps_its_steps_from_far_starts():
    # the flow's whole time from |x| = r is about 1 / (8 r^2), so a step
    # floor fixed in absolute time stalls starts at 1e7 and 1e8 before
    # their first step; against the run's clock max(t, |y| / |f|) they
    # take their steps to the end of a 1e-15 flow, moving inward
    P = benchmark().at(0.3)
    att = fl._located_attractors(P)
    unit = np.random.default_rng(0).normal(size=4)
    unit /= np.linalg.norm(unit)
    for r in (1e7, 1e8):
        traj = integrate(P, r * unit, FlowConfig(max_time=1e-15), att)
        assert traj.terminal.kind == "max_time", (r, traj.terminal)
        assert traj.stats.accepted > 0
        assert np.linalg.norm(traj.final_point) < r


def test_integrate_stalls_at_once_from_non_finite_starts():
    # a NaN or inf coordinate, or a start whose V overflows, ends stalled
    # before any step, quietly and at once
    P = benchmark().at(0.3)
    att = fl._located_attractors(P)
    for x0 in ([np.nan, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0, 0.0], [1e200, 1e200, 0.0, 0.0]):
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(P, np.array(x0), FlowConfig(), att)
        assert time.perf_counter() - start < 1.0
        assert traj.terminal == fl.Terminal("stalled", None, "non-finite start"), x0
        st = traj.stats
        assert st.accepted == st.rejected == st.lyapunov_rejections == 0
        assert traj.times.tolist() == [0.0]


def test_a_nan_start_leaves_at_once():
    P = benchmark().at(0.3)
    starts = np.array([[np.nan, 0.0, 0.0, 0.0], [0.5, 0.4, 0.3, 0.2]])
    with np.errstate(invalid="ignore"):
        rows = fl._lockstep(pl.stack_tables([P]), starts, 1e4, stop_grad=1e-4)
    assert rows.ends.tolist() == [fl.ENDS.index("dropped"), fl.ENDS.index("gradient")]
    assert rows.steps[0] == 0 and rows.labels[0] == -1 and np.isnan(rows.rise[0])


def test_search_end_points_polish_as_oracle_end_points(monkeypatch):
    # c05's searches, the known miss among them: each start's end point on
    # the RKC ensemble polishes to the root its Dormand-Prince oracle end
    # point polishes to, or neither is kept
    from rootlab import claims as cl
    seen = []
    search = fl.attractors_from_starts

    def recorded(polys, starts, cfg):
        seen.append((polys, starts, cfg, search(polys, starts, cfg)))
        return seen[-1][-1]
    monkeypatch.setattr(fl, "attractors_from_starts", recorded)
    cl.run_claim("c05", quick=False, seed=1966449962)
    (polys, sets, cfgs, found), = seen
    for P, starts, cfg, ours in zip(polys, sets, cfgs, found):
        oracle = dp_oracle.integrate_ensemble(P, starts, cfg)
        for x, y in zip(ours.flow.points, oracle.points):
            a, b = (_polished(P, p) for p in (x, y))
            assert len(a) == len(b)
            for r, q in zip(a, b):
                assert np.max(np.abs(r - q)) < 1e-9


def test_ensemble_labels_need_attractors():
    with pytest.raises(ValueError, match="attractor"):
        ensemble_labels(benchmark().at(0.3), np.ones((3, 4)), [], 1e4)


def test_flow_static_at_zero():
    # at eps = 0 the sphere is already a set of minima: nothing moves
    D = benchmark()
    from rootlab.manifolds import sample_stratum
    starts = sample_stratum(fl._first_sphere(D), 30, np.random.default_rng(10))
    ens = fl._lockstep(pl.stack_tables([D.at(0.0)]), starts, 10.0,
                       stop_grad=FlowConfig().stop_grad)
    assert np.max(np.linalg.norm(ens.points - starts, axis=1)) < 1e-6
