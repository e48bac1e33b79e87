"""Trinomial breathing modes, crossing classification, spectra."""

import numpy as np
import pytest

from rootlab import dynamics as dyn
from rootlab.dynamics import (
    Waveform,
    detect_boundaries,
    discriminant,
    fft,
    integrated_power,
    psd,
    radial_velocity,
    radii,
    simulate_breathing,
    spectral_peaks,
)


def test_discriminant():
    assert discriminant(5, 4) == pytest.approx(9.0)
    assert discriminant(0, 0) == 0.0
    assert discriminant(2, 1) == 0.0


def test_radii_examples():
    r = radii(5, 4, 2)
    assert r.valid and r.r_inner == pytest.approx(1.0) and r.r_outer == pytest.approx(2.0)
    r = radii(-5, 4, 2)
    assert not r.valid and r.reason == "real-roots"
    r = radii(2, 1, 2)
    assert r.valid and r.degenerate and r.r_inner == pytest.approx(1.0)
    assert r.r_outer == pytest.approx(1.0)
    assert radii(0, 1, 2).reason == "complex-pair"
    assert radii(5, -4, 2).reason == "real-roots"   # mixed-sign auxiliary roots
    assert radii(5, 4, 3).reason == "odd-exponent"
    assert radii(-2, 1, 2).reason == "degenerate"
    with pytest.raises(ValueError):
        radii(1, 1, 0)


def test_radii_quartic_root_consistency():
    # k = 4: radius solves x^4 = y directly
    r = radii(5, 4, 4)
    assert r.valid
    assert r.r_inner ** 4 == pytest.approx(1.0)
    assert r.r_outer ** 4 == pytest.approx(4.0)


def test_radial_velocity_static_and_errors():
    assert radial_velocity(5, 0, 4, 0) == (pytest.approx(0.0), pytest.approx(0.0))
    with pytest.raises(ValueError):
        radial_velocity(0, 1, 1, 0)
    with pytest.raises(ValueError):
        radial_velocity(-5, 0, 4, 0)


def test_radial_velocity_matches_finite_differences():
    a = Waveform(5.0, ((0.5, 0.1, 0.0),))
    b = Waveform(4.0, ((0.2, 0.07, 1.0),))
    h = 1e-6
    for t in np.linspace(0.3, 9.7, 25):
        adot = (a(t + h) - a(t - h)) / (2 * h)
        bdot = (b(t + h) - b(t - h)) / (2 * h)
        v_in, v_out = radial_velocity(float(a(t)), adot, float(b(t)), bdot)
        r_up = radii(float(a(t + h)), float(b(t + h)), 2)
        r_dn = radii(float(a(t - h)), float(b(t - h)), 2)
        fd_in = (r_up.r_inner ** 2 - r_dn.r_inner ** 2) / (2 * h)
        fd_out = (r_up.r_outer ** 2 - r_dn.r_outer ** 2) / (2 * h)
        assert v_in == pytest.approx(fd_in, rel=1e-4, abs=1e-8)
        assert v_out == pytest.approx(fd_out, rel=1e-4, abs=1e-8)


def test_radial_velocity_divergence_scaling():
    # approach delta -> 0+ along b -> a^2/4: |v| ~ delta^(-1/2)
    a = 5.0
    deltas = np.array([1e-2, 1e-4, 1e-6])
    vals = []
    for d in deltas:
        b = (a * a - d) / 4.0
        _, v_out = radial_velocity(a, 0.0, b, 1.0)
        vals.append(abs(v_out))
    ratios = np.array(vals) * np.sqrt(deltas)
    assert np.allclose(ratios, ratios[0], rtol=1e-3)


def test_simulate_breathing_constant_and_oscillating():
    tr = simulate_breathing(2, lambda t: 5.0, lambda t: 4.0, (0, 5), 0.01)
    assert tr.valid.all()
    assert np.ptp(tr.r_inner) < 1e-14 and np.ptp(tr.r_outer) < 1e-14

    a = Waveform(5.0, ((0.5, 0.1, 0.0),))
    tr2 = simulate_breathing(2, a, lambda t: 4.0, (0, 20), 0.01)
    assert tr2.valid.all()
    assert np.ptp(tr2.r_inner) > 0.01 and np.ptp(tr2.gap) > 0.01
    # vieta identities along the trace
    assert np.max(np.abs(tr2.r_inner ** 2 + tr2.r_outer ** 2 - np.abs(tr2.a))) < 1e-12
    assert np.max(np.abs(tr2.r_inner ** 2 * tr2.r_outer ** 2 - tr2.b)) < 1e-12


def test_breathing_validity_flip_makes_cusp():
    # delta crosses zero: drive b up through a^2/4
    tr = simulate_breathing(2, lambda t: 2.0, lambda t: 0.5 + t, (0, 1), 0.001)
    assert tr.valid[0] and not tr.valid[-1]
    assert np.isnan(tr.r_inner[-1])


def test_detect_boundaries_fixtures():
    lin = simulate_breathing(2, lambda t: 0.0, lambda t: -t / 4.0, (-1, 1), 0.01)
    rep = detect_boundaries(lin)
    assert len(rep.delta_crossings) == 1
    ev = rep.delta_crossings[0]
    assert ev.kind == dyn.TRANSVERSAL
    assert abs(ev.t_c) < 1e-9
    assert ev.delta_dot == pytest.approx(1.0, rel=1e-4)

    quad = simulate_breathing(2, lambda t: 0.0, lambda t: -t * t / 4.0, (-1, 1), 0.01)
    rep2 = detect_boundaries(quad)
    assert len(rep2.delta_crossings) == 1
    assert rep2.delta_crossings[0].kind == dyn.TANGENTIAL

    none = simulate_breathing(2, lambda t: 5.0, lambda t: 4.0, (0, 1), 0.01)
    assert detect_boundaries(none).delta_crossings == ()


def test_detect_boundaries_stable_under_halving_dt():
    for dt in (0.01, 0.005):
        lin = simulate_breathing(2, lambda t: 0.0, lambda t: -t / 4.0, (-1, 1), dt)
        quad = simulate_breathing(2, lambda t: 0.0, lambda t: -t * t / 4.0, (-1, 1), dt)
        assert detect_boundaries(lin).delta_crossings[0].kind == dyn.TRANSVERSAL
        assert detect_boundaries(quad).delta_crossings[0].kind == dyn.TANGENTIAL


def test_detect_boundaries_a_b_zeros():
    tr = simulate_breathing(2, lambda t: t - 0.5, lambda t: t - 0.25, (0, 1), 0.01)
    rep = detect_boundaries(tr)
    assert len(rep.a_zeros) == 1 and abs(rep.a_zeros[0] - 0.5) < 1e-9
    assert len(rep.b_zeros) == 1 and abs(rep.b_zeros[0] - 0.25) < 1e-9


def test_fft_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    for n in (16, 64, 257, 384, 1000, 1024):
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        mine = fft(x)
        ref = np.fft.fft(x)
        assert np.max(np.abs(mine - ref)) / np.max(np.abs(ref)) < 1e-12


def test_psd_peak_normalization_and_location():
    n, dt = 1024, 1.0 / 256.0
    t = np.arange(n) * dt
    x = np.sin(2 * np.pi * 2.0 * t)
    r = psd(x, dt)
    i = int(np.argmax(r.power))
    assert r.freqs[i] == pytest.approx(2.0)
    # unit sinusoid on a bin: peak = 0.25 N * (4/3) for the Hann window
    assert r.power[i] == pytest.approx(n / 3.0, rel=0.03)


def test_psd_dominant_bin_off_grid():
    n, dt = 1024, 0.01
    t = np.arange(n) * dt
    r = psd(np.sin(2 * np.pi * 2.0 * t), dt)
    i = int(np.argmax(r.power))
    assert abs(r.freqs[i] - 2.0) <= 1.0 / (n * dt)


def test_psd_two_tones():
    n, dt = 2048, 0.01
    df = 1.0 / (n * dt)
    f1, f2 = 60 * df, 220 * df
    t = np.arange(n) * dt
    x = np.sin(2 * np.pi * f1 * t) + 0.5 * np.sin(2 * np.pi * f2 * t)
    r = psd(x, dt)
    p = r.power
    is_max = np.zeros_like(p, dtype=bool)
    is_max[1:-1] = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
    peaks = np.flatnonzero(is_max)
    top2 = sorted(float(r.freqs[i]) for i in peaks[np.argsort(p[peaks])[::-1][:2]])
    assert top2[0] == pytest.approx(f1, abs=df / 2)
    assert top2[1] == pytest.approx(f2, abs=df / 2)


def test_psd_parseval_white_noise():
    rng = np.random.default_rng(5)
    x = rng.normal(size=16384)
    r = psd(x, 0.01)
    assert integrated_power(r) == pytest.approx(float(np.var(x)), rel=0.01)


def test_psd_rejects_bad_input():
    with pytest.raises(ValueError):
        psd(np.zeros(8), 0.1)
    with pytest.raises(ValueError):
        psd(np.zeros(64), -1.0)
    times = np.cumsum(np.random.default_rng(0).uniform(0.5, 1.5, size=64))
    with pytest.raises(ValueError):
        psd(np.zeros(64), 1.0, times=times)


def test_spectral_peaks_flat_series_has_no_harmonics():
    tr = simulate_breathing(2, lambda t: 5.0, lambda t: 4.0, (0, 40.95), 0.01)
    r = psd(tr.r_inner, 0.01)
    rep = spectral_peaks(r, 0.5)
    assert not any(e.is_peak for e in rep.entries)


def test_spectral_peaks_single_tone_second_harmonic():
    n, dt = 4096, 0.05
    f1 = 40 / (n * dt)
    a = Waveform(5.0, ((0.8, f1, 0.0),))
    tr = simulate_breathing(2, a, lambda t: 4.0, (0, (n - 1) * dt), dt)
    assert tr.valid.all()
    rep = spectral_peaks(psd(tr.r_inner, dt), f1)
    assert rep.entry("f1").is_peak
    assert rep.entry("2f1").is_peak


def test_spectral_peaks_two_tone_intermodulation():
    n, dt = 4096, 0.05
    f1 = 50 / (n * dt)
    f2 = 80 / (n * dt)
    a = Waveform(5.0, ((0.4, f1, 0.0),))
    b = Waveform(4.0, ((0.3, f2, 0.0),))
    tr = simulate_breathing(2, a, b, (0, (n - 1) * dt), dt)
    rep = spectral_peaks(psd(tr.r_inner, dt), f1, f2)
    assert rep.entry("f1+f2").is_peak
    assert rep.entry("f1+f2").db_above_floor >= 10.0
