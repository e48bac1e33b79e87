"""Gibbs sampling, order parameter, entropy slopes, phase sweeps."""

import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from rootlab import poly as pl
from rootlab import thermo as th
from rootlab.algebra import COMPLEX, OCTONIONS, QUATERNIONS, REALS, basis_element
from rootlab.poly import DAPolynomial, Deformation
from rootlab.thermo import (
    GibbsConfig,
    SamplerDiagnosticError,
    entropy_coefficient,
    metropolis_accept,
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


def _sample_sums(kept, ax):
    """The running sums of a whole (kept, chains, d) sample array, folded
    STATS_CHUNK steps at a time as the Metropolis loop folds them (with no
    V series: its entries stay zero)."""
    n, chains, _ = kept.shape
    sums = th._KeptPhase(n, chains, ax)
    for lo in range(0, n, th.STATS_CHUNK):
        sums.fold(kept[lo:lo + th.STATS_CHUNK], 0.0)
    return sums


def _second_moments(kept):
    """Mean of x^2 per coordinate over all kept samples: the bits of
    ``np.mean(kept.reshape(-1, d) ** 2, axis=0)`` on a contiguous copy."""
    return _sample_sums(kept, np.eye(kept.shape[-1])[1]).second_moments()


def order_parameter_series(kept, ax):
    """Order parameter sum(<Im x, ax>^2) / sum(|Im x|^2) of a sample array
    and its leave-one-chain-out jackknife error (time blocks for a single
    chain), through the sampler's own fold."""
    return _sample_sums(kept, ax).order_parameter()


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


def test_metropolis_accept_matches_clipped_ratio():
    # the reference rule clips dV/T to +-700 before exp; capping the exponent
    # at 0 decides alike except at u == 0 with dV/T past exp's underflow
    # (~745.13), which the clipped ratio exp(-700) still accepts
    def clipped(dv, T, u):
        ratio = np.exp(-np.maximum(np.minimum(dv / T, 700.0), -700.0))
        return u < np.minimum(1.0, ratio)

    x = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                        [-745.0, -700.0, 700.0, 745.0, 745.2, np.nan]])
    rng = np.random.default_rng(0)
    u = np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53], rng.random(60),
                        np.exp(-x[(x > 0) & (x <= 40)][::50])])      # ties u == ratio
    dv, uu = np.broadcast_arrays(x[:, None], u[None, :])
    only_clipped = (uu == 0.0) & (dv > 745.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for T in (1.0, np.full(dv.shape, 0.5)):     # one T, and per-row T
            got = metropolis_accept(dv * T, T, uu)
            want = clipped(dv * T, T, uu)
            diff = got != want
            assert not np.any(diff & ~only_clipped)
            assert np.all(diff[(uu == 0.0) & (dv >= 746.0)])
            assert not np.any(got[np.isnan(dv)])


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
    res = sample_gibbs(central(), GibbsConfig(0.01, chains=12, steps=16000, seed=5),
                       keep_samples=True)
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
    # R has no axis e_1: a cell over R, alone or next to an H cell, is
    # rejected before the first step, so no potential is evaluated
    def no_potential(*args):
        raise AssertionError("potential evaluated before the algebra check")
    monkeypatch.setattr(th, "potential_coords", no_potential)
    cfg = GibbsConfig(0.05, chains=4, steps=2000, seed=1)
    with pytest.raises(ValueError, match="over R"):
        sample_gibbs(central(REALS), cfg)
    with pytest.raises(ValueError, match="over R"):
        sample_gibbs_ladder([central(), central(REALS)], [cfg, cfg])
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


def test_sampler_diagnostic_on_frozen_bad_scale(monkeypatch):
    # adaptation disabled (interval longer than burn-in): huge proposals
    # at low temperature are almost never accepted
    monkeypatch.setattr(th, "ADAPT_INTERVAL", 10 ** 6)
    cfg = GibbsConfig(1e-4, chains=4, steps=800, burn_in=0.1,
                      proposal_scale=100.0, seed=3)
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
    r1 = sample_gibbs(central(), cfg, keep_samples=True)
    r2 = sample_gibbs(central(), cfg, keep_samples=True)
    assert np.array_equal(r1.samples, r2.samples)
    assert r1.stats.mean_V == r2.stats.mean_V


def test_config_validation():
    with pytest.raises(ValueError):
        GibbsConfig(-1.0)
    with pytest.raises(ValueError):
        GibbsConfig(1.0, burn_in=0.95)
    with pytest.raises(ValueError):
        GibbsConfig(1.0, steps=5)
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
    ladder = sample_gibbs_ladder([central()] * len(cfgs), cfgs, keep_samples=keep)
    assert len(ladder) == len(cfgs)
    for got, cfg in zip(ladder, cfgs):
        assert_same_result(got, sample_gibbs(central(), cfg, keep_samples=keep))


def test_phase_diagram_cells_match_cell_by_cell(monkeypatch):
    # frozen scale 1.0: at T = 1e-4 (and T = 0.5, eps = 1) acceptance falls
    # below the hard limit, while the row's other cells stay valid
    monkeypatch.setattr(th, "ADAPT_INTERVAL", 10 ** 6)
    D = benchmark()
    eps_grid, T_grid = [0.0, 1.0], [1e-4, 0.5, 2.0]
    template = GibbsConfig(0.05, chains=6, steps=2000, burn_in=0.1, proposal_scale=1.0)
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
            want = (eps, T, s.order_parameter, s.order_parameter_stderr, s.mean_V,
                    s.var_V, s.acceptance, s.ess, s.rhat, "rhat" if s.rhat > 1.2 else "")
            assert repr(astuple(cell)) == repr(want)
    for eps in eps_grid:
        flags = [diagram.cell(eps, T).flag.startswith("diagnostic") for T in T_grid]
        assert any(flags) and not all(flags)


@pytest.mark.parametrize("keep", [True, False])
def test_ladder_mixes_polynomials_and_run_lengths(keep):
    # two polynomials, two run lengths (1100 ends inside the second random-draw
    # block, 1500 past it), three burn-ins, and one cell whose oversized
    # proposal scale fails the acceptance limit while the others stay valid
    polys = [central(), canonical(), canonical(), central(), canonical()]
    cfgs = [GibbsConfig(0.01, chains=2, steps=1500, seed=3),
            GibbsConfig(0.05, chains=3, steps=1100, burn_in=0.5, seed=4),
            GibbsConfig(1e-4, chains=4, steps=1100, burn_in=0.1, proposal_scale=100.0,
                        seed=6),
            GibbsConfig(0.2, chains=8, steps=1500, seed=5, proposal_scale=0.05),
            GibbsConfig(0.02, chains=2, steps=1100, burn_in=0.5, seed=7)]
    ladder = sample_gibbs_ladder(polys, cfgs, keep_samples=keep)
    assert len(ladder) == len(cfgs)
    assert [isinstance(r, SamplerDiagnosticError) for r in ladder] == [
        False, False, True, False, False]
    for got, P, cfg in zip(ladder, polys, cfgs):
        (want,) = sample_gibbs_ladder([P], [cfg], keep_samples=keep)
        if isinstance(want, SamplerDiagnosticError):
            assert str(got) == str(want)
        else:
            assert_same_result(got, want)


@pytest.mark.parametrize("keep", [True, False])
def test_narrower_cells_in_a_wider_loop_match_solo_runs(keep):
    # H and C cells ride in an O loop: an H cell on the O cell's (steps,
    # burn-in) schedule, an H cell that ends early, an H cell whose oversized
    # proposal scale fails the acceptance limit, and a C cell on its own
    polys = [central(OCTONIONS), central(), canonical(), central(),
             DAPolynomial.from_coords(COMPLEX, [[1, 0], [0, 1], [1, 0]])]
    cfgs = [GibbsConfig(0.01, chains=3, steps=1500, seed=3),
            GibbsConfig(0.02, chains=2, steps=1500, seed=4),
            GibbsConfig(0.05, chains=3, steps=1100, burn_in=0.5, seed=5),
            GibbsConfig(1e-4, chains=4, steps=1100, burn_in=0.1, proposal_scale=100.0,
                        seed=6),
            GibbsConfig(0.05, chains=2, steps=1300, seed=7)]
    ladder = sample_gibbs_ladder(polys, cfgs, keep_samples=keep)
    assert [isinstance(r, SamplerDiagnosticError) for r in ladder] == [
        False, False, False, True, False]
    for got, P, cfg in zip(ladder[:4], polys, cfgs):
        (want,) = sample_gibbs_ladder([P], [cfg], keep_samples=keep)
        if isinstance(want, SamplerDiagnosticError):
            assert str(got) == str(want)
        else:
            assert_same_result(got, want)
            assert got.stats.second_moments.shape == (P.tag.dimension,)
            if keep:
                assert got.samples.shape[-1] == P.tag.dimension
    # a C cell takes the same steps: the 8-term kernel sums of the O loop
    # round its 2-term ones otherwise, so V agrees to rounding only
    got, (want,) = ladder[4], sample_gibbs_ladder([polys[4]], [cfgs[4]], keep_samples=keep)
    assert got.stats.acceptance == want.stats.acceptance
    assert got.proposal_scale == want.proposal_scale
    assert np.array_equal(got.stats.second_moments, want.stats.second_moments)
    assert got.stats.order_parameter == want.stats.order_parameter
    if keep:
        assert np.array_equal(got.samples, want.samples)
    assert np.allclose(got.v_samples, want.v_samples, rtol=1e-12, atol=0.0)
    for name in ("mean_V", "var_V", "ess", "rhat"):
        assert getattr(got.stats, name) == pytest.approx(getattr(want.stats, name),
                                                         rel=1e-9), name


def test_stack_narrows_to_shared_tables_when_cells_leave(monkeypatch):
    # x^2 + 1 over H (embedded) and over O share every term; x^2 + ix + 1 has
    # its own linear term until its shorter run ends, then the loop restacks
    polys = [central(), central(OCTONIONS), canonical()]
    cfgs = [GibbsConfig(0.02, chains=3, steps=1200, seed=3),
            GibbsConfig(0.01, chains=2, steps=1200, seed=4),
            GibbsConfig(0.05, chains=3, steps=700, seed=5)]
    shared = []
    kernel = pl._kernel

    def spy(P, X, *args, **kwargs):
        shared.append(all(r.ndim == 1 for r in P[0]))
        return kernel(P, X, *args, **kwargs)

    monkeypatch.setattr(pl, "_kernel", spy)
    ladder = sample_gibbs_ladder(polys, cfgs)
    monkeypatch.setattr(pl, "_kernel", kernel)
    # one call before the loop, then one per step
    assert len(shared) == 1 + 1200
    assert not any(shared[:1 + 700]) and all(shared[1 + 700:])
    for got, P, cfg in zip(ladder, polys, cfgs):
        assert_same_result(got, sample_gibbs(P, cfg))


def test_order_parameter_quadrature_needs_h_and_span_one_i():
    with pytest.raises(ValueError):
        th.order_parameter_quadrature(central(OCTONIONS), 2.5, 11)
    off_plane = DAPolynomial.from_coords(QUATERNIONS, [[1, 0, 0, 0], [0, 0, 1, 0],
                                                       [1, 0, 0, 0]])
    with pytest.raises(ValueError):
        th.order_parameter_quadrature(off_plane, 2.5, 11)
    # the box misses the root sphere at T = 1e-4, so exp(-V/T) underflows
    # everywhere unless taken relative to the smallest V
    m = th.order_parameter_quadrature(central(), 1e-4, 21)
    assert 0.0 < m < 1.0


def _one_shot_stats(kept, ax):
    """Second moments and order parameter by the unchunked formulas."""
    kept = np.ascontiguousarray(kept)
    n, chains, d = kept.shape
    second = np.mean(kept.reshape(-1, d) ** 2, axis=0)
    imag = kept[..., 1:]
    proj2 = (imag @ ax[1:]) ** 2
    tot2 = np.sum(imag * imag, axis=-1)
    if chains > 1:
        num, den = proj2.sum(axis=0), tot2.sum(axis=0)
    else:
        starts = np.unique(np.linspace(0, n, th.N_BATCHES, endpoint=False, dtype=int))
        num, den = np.add.reduceat(proj2[:, 0], starts), np.add.reduceat(tot2[:, 0], starts)
    m = float(num.sum() / den.sum())
    loo = (num.sum() - num) / (den.sum() - den)
    g = len(num)
    return second, m, float(np.sqrt((g - 1) / g * np.sum((loo - loo.mean()) ** 2)))


@pytest.mark.parametrize("d", [4, 8])
def test_chunked_stats_match_one_shot_formulas(d):
    # strided column views of a group's kept array, 2500 kept steps: not a
    # multiple of the chunk, so the last chunk is short
    assert 2500 % th.STATS_CHUNK
    rng = np.random.default_rng(d)
    group = rng.normal(size=(2500, 9, d))
    ax = np.zeros(d)
    ax[1:3] = [0.6, 0.8]
    for cols in (slice(2, 6), slice(4, 5)):         # four chains, and one
        view = group[:, cols]
        second, m, err = _one_shot_stats(view, ax)
        assert np.array_equal(_second_moments(view), second)
        assert repr(order_parameter_series(view, ax)) == repr((m, err))


def test_ladder_rejects_mixed_cells():
    base = GibbsConfig(0.01, chains=2, steps=200)
    with pytest.raises(ValueError):
        sample_gibbs_ladder([central(), canonical()], [base])
    with pytest.raises(ValueError):
        sample_gibbs_ladder([], [])


def test_streamed_stats_match_returned_samples():
    # H and C cells ride in an O loop, one H cell with a single chain; run
    # lengths and burn-ins put folds of the ring inside and across its chunks
    polys = [central(OCTONIONS), central(),
             DAPolynomial.from_coords(COMPLEX, [[1, 0], [0, 1], [1, 0]]), canonical()]
    cfgs = [GibbsConfig(0.01, chains=3, steps=1300, seed=3),
            GibbsConfig(0.02, chains=2, steps=1300, burn_in=0.5, seed=4),
            GibbsConfig(0.05, chains=2, steps=1100, seed=7),
            GibbsConfig(0.05, chains=1, steps=900, burn_in=0.2, seed=5)]
    lean = sample_gibbs_ladder(polys, cfgs)
    full = sample_gibbs_ladder(polys, cfgs, keep_samples=True)
    for got, want, P in zip(lean, full, polys):
        assert got.samples is None
        assert_same_result(got, replace(want, samples=None))
        # the returned samples give the loop's own statistics, bit for bit
        d = P.tag.dimension
        assert want.samples.shape[-1] == d
        m, err = order_parameter_series(want.samples, np.eye(d)[1])
        assert repr((m, err)) == repr((want.stats.order_parameter,
                                       want.stats.order_parameter_stderr))
        assert np.array_equal(_second_moments(want.samples), want.stats.second_moments)


def test_kept_arrays_are_each_cells_own():
    # the first two cells share one (steps, burn-in, width) schedule; each
    # cell's samples and V series are arrays of its own, not views
    cfgs = [GibbsConfig(0.01, chains=2, steps=600, seed=3),
            GibbsConfig(0.05, chains=3, steps=600, seed=4),
            GibbsConfig(0.02, chains=1, steps=400, seed=5)]
    for res in sample_gibbs_ladder([central()] * len(cfgs), cfgs, keep_samples=True):
        for kept in (res.samples, res.v_samples):
            assert kept.base is None and kept.flags.c_contiguous
        assert res.samples.shape[:2] == res.v_samples.shape


def test_lean_ladder_memory_grows_only_by_kept_v():
    # each cell's kept phase holds its V series whole but only running sums
    # of its states: twice the steps may add the kept V twice over (the
    # arrays, then the ESS and R-hat temporaries), but no (kept, chains, d)
    # samples.  Both runs are past one draw block.
    polys = [central(OCTONIONS), central(), canonical()]

    def cells(steps):
        return [GibbsConfig(0.01, chains=3, steps=steps, seed=3),
                GibbsConfig(0.02, chains=4, steps=steps, seed=4),
                GibbsConfig(0.05, chains=1, steps=steps, burn_in=0.5, seed=5)]

    def peak(steps):
        tracemalloc.start()
        try:
            results = sample_gibbs_ladder(polys, cells(steps))
            return tracemalloc.get_traced_memory()[1], results
        finally:
            tracemalloc.stop()

    sample_gibbs_ladder(polys, cells(300))      # first-call allocations stay out
    short, short_res = peak(th.RNG_BLOCK + 76)
    long, long_res = peak(2 * (th.RNG_BLOCK + 76))
    kept_v = sum(b.v_samples.nbytes - a.v_samples.nbytes
                 for a, b in zip(short_res, long_res))
    kept_x = sum((b.v_samples.size - a.v_samples.size) * P.tag.dimension * 8
                 for a, b, P in zip(short_res, long_res, polys))
    assert long - short <= 2 * kept_v < kept_x
