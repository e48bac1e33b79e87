"""Breathing-mode dynamics of the trinomial x^(2k) + a(t) x^k + b(t).

With central drives a, b the substitution y = x^k reduces everything to
the auxiliary quadratic y^2 + a y + b whose discriminant is
delta = a^2 - 4 b.  Two spheres of purely imaginary roots exist exactly
when both auxiliary roots are negative reals (delta >= 0, a > 0, b > 0);
their radii are |y|^(1/k) for even k.  The module samples drives on a time
grid, extracts radii and validity, locates and classifies discriminant
crossings (transversal vs tangential by the crossing velocity), and
provides spectral analysis of the radius series via a Hann-windowed
one-sided power spectrum built on an in-house FFT (radix-2 plus Bluestein
for arbitrary lengths).

PSD normalization: a unit-amplitude sinusoid on an exact bin peaks at
0.25 * N * w_corr where the Hann power correction w_corr = 2 CG^2 / U = 4/3
(CG: coherent gain, U: mean squared window); integrating the one-sided
spectrum against the normalized bin width 1/N recovers the windowed signal
variance (Parseval), see ``integrated_power``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol


@dataclass(frozen=True)
class Waveform:
    """offset + sum of amp * sin(2 pi f t + phase) components."""

    offset: float
    components: tuple[tuple[float, float, float], ...] = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.offset, dtype=float)
        for amp, freq, phase in self.components:
            out = out + amp * np.sin(2.0 * np.pi * freq * t + phase)
        return out if out.ndim else float(out)


def discriminant(a: float, b: float) -> float:
    """a^2 - 4 b of the auxiliary quadratic."""
    return a * a - 4.0 * b


@dataclass(frozen=True)
class RadiiResult:
    valid: bool
    r_inner: float | None
    r_outer: float | None
    reason: str | None             # real-roots | complex-pair | degenerate | odd-exponent
    aux_roots: tuple[float, float] | None
    degenerate: bool = False


def radii(a: float, b: float, k: int = 2) -> RadiiResult:
    """Sphere radii of the trinomial at central coefficients (a, b).

    Valid exactly when both auxiliary roots are negative reals, which for
    even k turns x^k = y into spheres of radius |y|^(1/k).  Invalid inputs
    report a reason code instead of raising; odd k exposes the auxiliary
    roots but no sphere extraction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    delta = discriminant(a, b)
    if delta < 0.0:
        return RadiiResult(False, None, None, "complex-pair", None)
    sq = np.sqrt(delta)
    y_hi = (-a + sq) / 2.0          # root closer to zero
    y_lo = (-a - sq) / 2.0
    aux = (y_lo, y_hi)
    if k % 2 == 1:
        return RadiiResult(False, None, None, "odd-exponent", aux)
    if delta == 0.0:
        if a > 0.0:
            r = (a / 2.0) ** (1.0 / k)
            return RadiiResult(True, r, r, None, aux, degenerate=True)
        return RadiiResult(False, None, None, "degenerate", aux)
    if y_hi < 0.0 and y_lo < 0.0:
        r_inner = (-y_hi) ** (1.0 / k)
        r_outer = (-y_lo) ** (1.0 / k)
        return RadiiResult(True, r_inner, r_outer, None, aux)
    return RadiiResult(False, None, None, "real-roots", aux)


def radial_velocity(a: float, adot: float, b: float, bdot: float
                    ) -> tuple[float, float]:
    """d(R^2)/dt of the inner and outer spheres for k = 2.

    Singular like delta^(-1/2) as the discriminant crossing is approached
    with nonzero crossing velocity; removable when delta-dot vanishes.
    """
    delta = discriminant(a, b)
    if delta <= 0.0:
        raise ValueError("radial velocity requires delta > 0")
    if not radii(a, b, 2).valid:
        raise ValueError("radial velocity requires the two-sphere regime")
    delta_dot = 2.0 * a * adot - 4.0 * bdot
    sq = np.sqrt(delta)
    v_inner = 0.5 * (adot - delta_dot / (2.0 * sq))
    v_outer = 0.5 * (adot + delta_dot / (2.0 * sq))
    return v_inner, v_outer


@dataclass
class BreathingTrace:
    times: np.ndarray
    a: np.ndarray
    b: np.ndarray
    delta: np.ndarray
    r_inner: np.ndarray            # nan where invalid
    r_outer: np.ndarray
    gap: np.ndarray
    valid: np.ndarray              # bool per sample
    k: int
    a_fn: object
    b_fn: object


def simulate_breathing(k: int, a, b, t_span: tuple[float, float],
                       dt: float) -> BreathingTrace:
    """Sample drives and radii on a uniform grid; drives are callables."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    times = np.arange(t0, t1 + dt / 2.0, dt)
    a_vals = np.array([float(a(t)) for t in times])
    b_vals = np.array([float(b(t)) for t in times])
    delta = a_vals ** 2 - 4.0 * b_vals
    n = times.size
    r_in = np.full(n, np.nan)
    r_out = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        r = radii(a_vals[i], b_vals[i], k)
        if r.valid:
            valid[i] = True
            r_in[i] = r.r_inner
            r_out[i] = r.r_outer
    return BreathingTrace(times, a_vals, b_vals, delta, r_in, r_out,
                          r_out - r_in, valid, k, a, b)


TRANSVERSAL = "transversal"
TANGENTIAL = "tangential"


@dataclass(frozen=True)
class CrossingEvent:
    t_c: float
    kind: str
    delta_dot: float


@dataclass(frozen=True)
class BoundaryReport:
    delta_crossings: tuple[CrossingEvent, ...]
    a_zeros: tuple[float, ...]
    b_zeros: tuple[float, ...]
    v_tol: float


def detect_boundaries(trace: BreathingTrace) -> BoundaryReport:
    """Locate delta = 0 events plus a = 0 and b = 0 boundary crossings.

    Sign changes are bisected below the crossing tolerance; sign-preserving
    touches are found by refining local minima of |delta|.  The crossing is
    tangential when |delta-dot| falls under a trace-scaled velocity floor.
    """
    if trace.times.size < 2:
        raise ValueError("trace must contain at least two samples")
    a_fn, b_fn = trace.a_fn, trace.b_fn

    def delta_fn(t: float) -> float:
        av = float(a_fn(t))
        return av * av - 4.0 * float(b_fn(t))

    times = trace.times
    dt = float(times[1] - times[0])
    ddot_grid = np.gradient(trace.delta, times)
    v_tol = tol.TANGENTIAL_VTOL_REL * float(np.max(np.abs(ddot_grid)))

    events = []
    seen: list[float] = []

    def note(t_c: float) -> None:
        if any(abs(t_c - s) < dt / 2.0 for s in seen):
            return
        seen.append(t_c)
        h = 1e-6 * max(1.0, abs(t_c))
        ddot = (delta_fn(t_c + h) - delta_fn(t_c - h)) / (2.0 * h)
        kind = TANGENTIAL if abs(ddot) < v_tol else TRANSVERSAL
        events.append(CrossingEvent(t_c, kind, ddot))

    d = trace.delta
    for i in range(d.size - 1):
        if d[i] == 0.0:
            note(float(times[i]))
        elif d[i] * d[i + 1] < 0.0:
            note(_bisect_zero(delta_fn, float(times[i]), float(times[i + 1])))
    if d[-1] == 0.0:
        note(float(times[-1]))
    # sign-preserving touches: refine interior local minima of |delta|
    absd = np.abs(d)
    for i in range(1, d.size - 1):
        if absd[i] <= absd[i - 1] and absd[i] <= absd[i + 1]:
            sign = 1.0 if d[i] >= 0 else -1.0
            t_star = _ternary_min(lambda t: sign * delta_fn(t),
                                  float(times[i - 1]), float(times[i + 1]))
            if abs(delta_fn(t_star)) < tol.CROSSING_DELTA_ABS:
                note(t_star)

    events.sort(key=lambda e: e.t_c)
    a_zeros = _grid_zeros(lambda t: float(a_fn(t)), trace.a, times)
    b_zeros = _grid_zeros(lambda t: float(b_fn(t)), trace.b, times)
    return BoundaryReport(tuple(events), tuple(a_zeros), tuple(b_zeros), v_tol)


def _bisect_zero(f, lo: float, hi: float, max_iter: int = 200) -> float:
    flo = f(lo)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tol.CROSSING_DELTA_ABS or (hi - lo) < 1e-15 * max(1.0, abs(mid)):
            return mid
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _ternary_min(f, lo: float, hi: float, iters: int = 200) -> float:
    for _ in range(iters):
        if (hi - lo) < 1e-14 * max(1.0, abs(lo) + abs(hi)):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi)


def _grid_zeros(f, vals: np.ndarray, times: np.ndarray) -> list[float]:
    out = []
    for i in range(vals.size - 1):
        if vals[i] == 0.0:
            out.append(float(times[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            out.append(_bisect_zero(f, float(times[i]), float(times[i + 1])))
    if vals[-1] == 0.0:
        out.append(float(times[-1]))
    return out


def fft(x) -> np.ndarray:
    """Complex DFT; radix-2 when the length is a power of two, else Bluestein."""
    a = np.asarray(x, dtype=complex)
    n = a.size
    if n == 0:
        return a
    if n & (n - 1) == 0:
        return _fft_pow2(a)
    return _fft_bluestein(a)


def _fft_pow2(a: np.ndarray) -> np.ndarray:
    n = a.size
    if n == 1:
        return a.copy()
    levels = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=int)
    for _ in range(levels):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    out = a[rev].astype(complex)
    m = 1
    while m < n:
        w = np.exp(-1j * np.pi * np.arange(m) / m)
        out = out.reshape(-1, 2 * m)
        tail = out[:, m:] * w
        head = out[:, :m].copy()
        out[:, :m] = head + tail
        out[:, m:] = head - tail
        out = out.reshape(-1)
        m *= 2
    return out


def _ifft_pow2(a: np.ndarray) -> np.ndarray:
    return np.conj(_fft_pow2(np.conj(a))) / a.size


def _fft_bluestein(a: np.ndarray) -> np.ndarray:
    n = a.size
    ks = np.arange(n)
    # chirp with angle reduced mod 2n to keep the phase argument small
    chirp = np.exp(-1j * np.pi * ((ks * ks) % (2 * n)) / n)
    m = 1 << (2 * n - 1).bit_length()
    fa = np.zeros(m, dtype=complex)
    fa[:n] = a * chirp
    fb = np.zeros(m, dtype=complex)
    fb[:n] = np.conj(chirp)
    fb[m - n + 1:] = np.conj(chirp[1:][::-1])
    conv = _ifft_pow2(_fft_pow2(fa) * _fft_pow2(fb))
    return conv[:n] * chirp


@dataclass(frozen=True)
class PsdResult:
    freqs: np.ndarray              # one-sided, Hz
    power: np.ndarray
    n: int
    dt: float


def psd(series, dt: float, times=None) -> PsdResult:
    """One-sided Hann-windowed power spectrum of a uniformly sampled series."""
    x = np.asarray(series, dtype=float)
    if x.size < 16:
        raise ValueError("need at least 16 samples")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if times is not None:
        steps = np.diff(np.asarray(times, dtype=float))
        if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12 * dt):
            raise ValueError("non-uniform sample grid")
    n = x.size
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    xw = (x - np.mean(x)) * w
    spec = fft(xw)
    u = float(np.sum(w * w))
    full = (np.abs(spec) ** 2) / u
    half = n // 2
    power = full[: half + 1].copy()
    if n % 2 == 0:
        power[1:half] *= 2.0
    else:
        power[1:] *= 2.0
    freqs = np.arange(half + 1) / (n * dt)
    return PsdResult(freqs, power, n, dt)


def integrated_power(result: PsdResult) -> float:
    """Spectrum summed against the normalized bin width 1/N.

    Equals the variance of the window-weighted, mean-removed signal
    exactly; approximates the plain signal variance for broadband input.
    """
    return float(np.sum(result.power) / result.n)


@dataclass(frozen=True)
class PeakEntry:
    label: str
    freq_requested: float
    freq_bin: float
    power: float
    db_above_floor: float
    is_peak: bool


@dataclass(frozen=True)
class SpectralPeakReport:
    entries: tuple[PeakEntry, ...]
    floor: float

    def entry(self, label: str) -> PeakEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)


PEAK_DB = 10.0


def spectral_peaks(result: PsdResult, f1: float,
                   f2: float | None = None) -> SpectralPeakReport:
    """Harmonic and intermodulation content relative to the median floor."""
    targets = [("f1", f1), ("2f1", 2 * f1), ("3f1", 3 * f1)]
    if f2 is not None:
        targets += [("f2", f2), ("f1-f2", abs(f1 - f2)), ("f1+f2", f1 + f2)]
    floor = float(np.median(result.power[1:]))
    floor = max(floor, 1e-300)
    entries = []
    for label, f in targets:
        i = int(np.argmin(np.abs(result.freqs - f)))
        p = float(result.power[i])
        db = float(10.0 * np.log10(max(p, 1e-300) / floor))
        entries.append(PeakEntry(label, float(f), float(result.freqs[i]), p, db,
                                 bool(db >= PEAK_DB)))
    return SpectralPeakReport(tuple(entries), floor)
