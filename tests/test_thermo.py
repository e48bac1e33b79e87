"""Gibbs sampling, order parameter, entropy slopes, phase sweeps."""

from dataclasses import astuple, replace

import numpy as np
import pytest

from rootlab import thermo as th
from rootlab.algebra import OCTONIONS, QUATERNIONS, basis_element, element
from rootlab.poly import DAPolynomial, Deformation
from rootlab.thermo import (
    GibbsConfig,
    SamplerDiagnosticError,
    entropy_coefficient,
    metropolis_accept,
    order_parameter_series,
    phase_diagram,
    sample_gibbs,
    sample_gibbs_ladder,
)


def central(tag=QUATERNIONS):
    return DAPolynomial.from_real(tag, [1, 0, 1])


def canonical(tag=QUATERNIONS):
    return DAPolynomial.from_coords(tag, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def benchmark():
    return Deformation(central(), DAPolynomial.from_coords(
        QUATERNIONS, [[1, 0, 0, 0], [0, 1, 0, 0]]))


def test_metropolis_accept_rule():
    T = 0.7
    # downhill always accepted, uphill with probability exp(-dv/T)
    assert metropolis_accept(np.array([-1.0]), T, np.array([0.999]))[0]
    dv = 1.3
    p = np.exp(-dv / T)
    us = np.linspace(0.0005, 0.9995, 1000)
    frac = np.mean(metropolis_accept(np.full_like(us, dv), T, us))
    assert frac == pytest.approx(p, abs=1.5e-3)
    # detailed balance on a two-state chain: pi_0 P(0->1) = pi_1 P(1->0)
    pi0, pi1 = 1.0, np.exp(-dv / T)
    assert pi0 * p == pytest.approx(pi1 * 1.0)


def test_metropolis_accept_overflow_safe():
    out = metropolis_accept(np.array([-1e6, 1e6]), 1e-3, np.array([0.5, 0.5]))
    assert out[0] and not out[1]


def test_gaussian_landscape_moments():
    # P = x - c gives V = ||x - c||^2: mean V = 2T, var V = 2T^2 in H
    c = [-0.3, 0.2, 0.5, -0.1]
    P = DAPolynomial.from_coords(QUATERNIONS, [c, [1, 0, 0, 0]])
    T = 0.5
    res = sample_gibbs(P, GibbsConfig(T, chains=8, steps=20000, seed=11))
    s = res.stats
    se_mean = np.sqrt(2 * T * T / s.ess)
    assert abs(s.mean_V - 2 * T) < 3 * se_mean
    assert abs(s.var_V - 2 * T * T) < 5 * (2 * T * T) / np.sqrt(s.ess)
    assert 0.05 <= s.acceptance <= 0.8
    assert s.rhat < 1.05


def test_central_low_temperature_concentrates_on_sphere():
    res = sample_gibbs(central(), GibbsConfig(0.01, chains=12, steps=16000, seed=5))
    flat = res.samples.reshape(-1, 4)
    imag_norm = np.sqrt(np.sum(flat[:, 1:] ** 2, axis=1))
    assert np.mean(imag_norm) == pytest.approx(1.0, abs=0.02)
    assert np.mean(np.abs(flat[:, 0])) < 4 * np.sqrt(0.01)
    assert abs(res.stats.order_parameter - 1 / 3) <= 0.05


def test_aligned_landscape_order_parameter():
    res = sample_gibbs(canonical(), GibbsConfig(0.01, chains=12, steps=12000, seed=5))
    assert res.stats.order_parameter >= 0.95


def test_order_parameter_octonion_symmetric():
    res = sample_gibbs(central(OCTONIONS),
                       GibbsConfig(0.01, chains=16, steps=16000, seed=5))
    assert abs(res.stats.order_parameter - 1 / 7) <= 0.04


def test_symmetry_restores_with_temperature():
    D = benchmark()
    ms = []
    for T in (2.5, 10.0, 50.0):
        res = sample_gibbs(D.at(2.5), GibbsConfig(T, chains=8, steps=10000, seed=7))
        ms.append(res.stats.order_parameter)
    assert ms[0] > ms[1] > ms[2]
    assert ms[2] > 1 / 3 - 0.05


def test_exchangeability_of_off_axis_coordinates():
    res = sample_gibbs(central(), GibbsConfig(0.02, chains=12, steps=16000, seed=9))
    sm = res.stats.second_moments
    spread = abs(sm[2] - sm[3]) / (0.5 * (sm[2] + sm[3]))
    assert spread < 4.0 / np.sqrt(res.stats.ess) + 0.05


def test_order_parameter_validation(monkeypatch):
    # a bad axis is rejected before the first step: no potential is evaluated
    def no_potential(*args):
        raise AssertionError("potential evaluated before the axis check")
    monkeypatch.setattr(th, "potential_coords", no_potential)
    with pytest.raises(ValueError):
        sample_gibbs(central(), GibbsConfig(0.05, chains=4, steps=2000, seed=1),
                     axis=element(QUATERNIONS, [1, 0, 0, 0]))
    with pytest.raises(SamplerDiagnosticError):
        order_parameter_series(np.zeros((100, 1, 4)), basis_element(QUATERNIONS, 1).coords)


def test_order_parameter_from_flat_samples():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(20000, 4))
    m, _ = order_parameter_series(samples.reshape(-1, 4, 4),
                                  basis_element(QUATERNIONS, 1).coords)
    assert m == pytest.approx(1 / 3, abs=0.02)


def test_order_parameter_stderr_sees_between_chain_spread():
    i_axis, j_axis = np.eye(4)[1], np.eye(4)[2]
    # two chains parked on the i axis, two on the j axis, for the whole run:
    # every time block looks alike, only the chains disagree
    kept = np.empty((100, 4, 4))
    kept[:, :2], kept[:, 2:] = i_axis, j_axis
    m, err = order_parameter_series(kept, i_axis)
    assert m == pytest.approx(0.5)
    assert err == pytest.approx(np.std([1, 1, 0, 0], ddof=1) / 2)
    # a single chain falls back to time blocks: first half on i, then on j
    one = np.concatenate([np.tile(i_axis, (50, 1, 1)), np.tile(j_axis, (50, 1, 1))])
    m, err = order_parameter_series(one, i_axis)
    assert m == pytest.approx(0.5)
    assert err == pytest.approx(np.std([1] * 10 + [0] * 10, ddof=1) / np.sqrt(20))


def test_sampler_diagnostic_on_frozen_bad_scale():
    # adaptation disabled (interval longer than burn-in): huge proposals
    # at low temperature are almost never accepted
    cfg = GibbsConfig(1e-4, chains=4, steps=800, burn_in=0.1,
                      proposal_scale=100.0, adapt_interval=10 ** 6, seed=3)
    with pytest.raises(SamplerDiagnosticError):
        sample_gibbs(central(), cfg)


def test_entropy_coefficients():
    ladder = [0.002, 0.005, 0.01, 0.02]
    cfg = GibbsConfig(0.01, chains=8, steps=12000)
    est = entropy_coefficient(central(), ladder, cfg, seed=2)
    assert est.alpha == pytest.approx(1.0, abs=0.15)
    assert not est.regime_warning
    est_iso = entropy_coefficient(canonical(), ladder, cfg, seed=2)
    assert est_iso.alpha == pytest.approx(2.0, abs=0.2)
    # the mean-based cross-check targets the same slope
    assert np.mean(est_iso.alphas_mean_based) == pytest.approx(2.0, abs=0.25)
    # per-rung sampler effort
    for counter in (est.acceptance, est.ess, est.rhat, est.proposal_scale):
        assert counter.shape == (len(ladder),)
    assert np.all((est.acceptance >= 0.05) & (est.acceptance <= 0.8))
    assert np.all(est.ess > 0) and np.all(np.isfinite(est.rhat))
    assert np.all(est.proposal_scale > 0)


def test_estimates_stable_under_doubling():
    cfg1 = GibbsConfig(0.02, chains=8, steps=8000, seed=13)
    cfg2 = GibbsConfig(0.02, chains=8, steps=16000, seed=14)
    r1 = sample_gibbs(central(), cfg1)
    r2 = sample_gibbs(central(), cfg2)
    tol = 2 * (r1.stats.order_parameter_stderr + r2.stats.order_parameter_stderr)
    assert abs(r1.stats.order_parameter - r2.stats.order_parameter) <= max(tol, 0.02)


def test_chain_results_deterministic_given_seed():
    cfg = GibbsConfig(0.05, chains=4, steps=3000, seed=21)
    r1 = sample_gibbs(central(), cfg)
    r2 = sample_gibbs(central(), cfg)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.stats.mean_V == r2.stats.mean_V


def test_config_validation():
    with pytest.raises(ValueError):
        GibbsConfig(-1.0)
    with pytest.raises(ValueError):
        GibbsConfig(1.0, burn_in=0.95)
    with pytest.raises(ValueError):
        GibbsConfig(1.0, steps=5)
    with pytest.raises(ValueError):
        GibbsConfig(1.0, adapt_interval=0)
    for bad_scale in (0.0, -1.0):
        with pytest.raises(ValueError):
            GibbsConfig(1.0, proposal_scale=bad_scale)
    assert GibbsConfig(1.0, proposal_scale=None).proposal_scale is None


def test_phase_diagram_sweep():
    D = benchmark()
    template = GibbsConfig(0.05, chains=6, steps=4000)
    diagram = phase_diagram(D, [0.0, 1.0], [0.02, 2.0], template, seed=17)
    assert len(diagram.cells) == 4
    low_sym = diagram.cell(0.0, 0.02)
    low_ord = diagram.cell(1.0, 0.02)
    assert low_ord.m > low_sym.m + 0.3           # m grows with eps at low T
    hot = diagram.cell(1.0, 2.0)
    assert hot.m < low_ord.m                     # m falls with T at fixed eps


def assert_same_result(got, want):
    """Bit-for-bit equality of two GibbsResults."""
    for name in ("mean_V", "var_V", "order_parameter", "order_parameter_stderr",
                 "acceptance", "ess", "rhat"):
        assert repr(getattr(got.stats, name)) == repr(getattr(want.stats, name)), name
    assert np.array_equal(got.stats.second_moments, want.stats.second_moments)
    for name in ("samples", "v_samples"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or np.array_equal(a, b), name
    assert got.proposal_scale == want.proposal_scale
    assert got.config == want.config


@pytest.mark.parametrize("keep", [True, False])
def test_ladder_matches_separate_runs(keep):
    # 1500 steps cross one random-draw block boundary; the scale adapts per cell
    cfgs = [GibbsConfig(0.01, chains=2, steps=1500, seed=3),
            GibbsConfig(0.05, chains=3, steps=1500, seed=4),
            GibbsConfig(0.2, chains=8, steps=1500, seed=5, proposal_scale=0.05)]
    ladder = sample_gibbs_ladder(central(), cfgs, keep_samples=keep)
    assert len(ladder) == len(cfgs)
    for got, cfg in zip(ladder, cfgs):
        assert_same_result(got, sample_gibbs(central(), cfg, keep_samples=keep))


def test_phase_diagram_cells_match_cell_by_cell():
    # frozen scale 1.0: at T = 1e-4 (and T = 0.5, eps = 1) acceptance falls
    # below the hard limit, while the row's other cells stay valid
    D = benchmark()
    eps_grid, T_grid = [0.0, 1.0], [1e-4, 0.5, 2.0]
    template = GibbsConfig(0.05, chains=6, steps=2000, burn_in=0.1,
                           proposal_scale=1.0, adapt_interval=10 ** 6)
    diagram = phase_diagram(D, eps_grid, T_grid, template, seed=17)
    for i, eps in enumerate(eps_grid):
        for j, T in enumerate(T_grid):
            cfg = replace(template, temperature=T, seed=17 + 7919 * i + 104729 * j)
            cell = diagram.cell(eps, T)
            try:
                s = sample_gibbs(D.at(eps), cfg).stats
            except SamplerDiagnosticError as exc:
                assert cell.flag == f"diagnostic: {exc}"
                assert np.isnan(cell.m)
                continue
            want = (eps, T, s.order_parameter, s.order_parameter_stderr,
                    s.mean_V, s.var_V, s.acceptance, "rhat" if s.rhat > 1.2 else "")
            assert repr(astuple(cell)) == repr(want)
    for eps in eps_grid:
        flags = [diagram.cell(eps, T).flag.startswith("diagnostic") for T in T_grid]
        assert any(flags) and not all(flags)


def test_ladder_cells_must_share_schedule():
    base = GibbsConfig(0.01, chains=2, steps=200)
    for other in (replace(base, steps=300), replace(base, burn_in=0.5),
                  replace(base, adapt_interval=20)):
        with pytest.raises(ValueError):
            sample_gibbs_ladder(central(), [base, other])
    with pytest.raises(ValueError):
        sample_gibbs_ladder(central(), [])
