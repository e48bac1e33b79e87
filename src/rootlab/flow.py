"""Gradient flow on the potential landscape and collapse measurements.

The flow x' = -grad ||P(x)||^2 is integrated with the potential enforced
to be non-increasing along accepted steps.  ``integrate`` follows one
trajectory and keeps its samples; it is the linearly implicit W-method
ROS34PW2, whose step is set by accuracy alone, not by the fast radial decay
onto the root set, and collapse times run on it.  ``integrate_ensemble``
steps a whole start set in lockstep with an embedded Dormand-Prince 5(4)
pair, one batched value-and-gradient call per stage; multistart attractor
search runs on it.  Attractors are isolated full-rank roots, Newton-polished
in one place: multistart search gets its candidates from the flow, while
collapse times and basins start Newton from the isolated points of
``manifolds.root_set``, with no flow and no seed.  On top of these:
collapse-time measurement from a fixed geodesic start angle, the log-log
scaling fit of collapse time against perturbation size, basin decomposition
of the initial sphere, and restricted potential scans.  The basin labels
also report the largest rise of V along any labelled trajectory, the
evidence that the flow is a deformation retract onto the attractors.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import tolerances as tol
from .algebra import AlgebraElement, AlgebraTag
from .manifolds import (
    IsolatedPoint,
    Sphere,
    numerical_rank,
    root_set,
    sample_stratum,
)
from .poly import (
    DAPolynomial,
    Deformation,
    evaluate_coords,
    gradient_coords_batch,
    jacobian_coords,
    newton_polish,
    potential_coords,
    value_gradient_batch,
    value_gradient_fn,
)


STOP_RADIUS = 0.05                 # a trajectory this close to an attractor is captured
MAX_STEPS = 5_000_000              # step budget of one trajectory or ensemble row


@dataclass(frozen=True)
class FlowConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_time: float = 1e7
    stop_grad: float = 1e-9
    record_every: int = 1          # archive every k-th accepted sample

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "max_time", "stop_grad"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class Terminal:
    kind: str                      # converged | max_time | stalled
    attractor_index: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class StepStats:
    """Deterministic effort counters of one ``integrate`` run."""

    accepted: int                  # accepted steps
    rejected: int                  # steps rejected by the error test
    lyapunov_rejections: int       # accurate steps rejected for raising V
    rhs_evals: int                 # value-and-gradient evaluations
    factorizations: int            # W-matrix factorizations (SVDs of J)
    h_min: float                   # smallest and largest accepted step
    h_max: float


@dataclass
class Trajectory:
    times: np.ndarray
    points: np.ndarray             # (n, d)
    potentials: np.ndarray
    terminal: Terminal
    stats: StepStats | None = None

    @property
    def final_point(self) -> np.ndarray:
        return self.points[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


# Dormand-Prince 5(4) tableau; row 6 of _DP_A is the 5th-order solution
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])

# ROS34PW2 (Rang & Angermann, BIT 45, 2005): L-stable, stiffly accurate
# W-method of order 3 for any W, embedded order 2.  Transformed form of
# Hairer & Wanner, Solving ODEs II (IV.7.25), with no Jacobian products:
#   W u_i = h g f(y + sum_j a_ij u_j) + g sum_j c_ij u_j,  W = I - h g f'
_W_G = 0.43586652150845900
_W_ALPHA = np.array([[0.0, 0.0, 0.0, 0.0],
                     [0.87173304301691801, 0.0, 0.0, 0.0],
                     [0.84457060015369423, -0.11299064236484185, 0.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0]])
_W_GAMMA = np.array([[_W_G, 0.0, 0.0, 0.0],
                     [-0.87173304301691801, _W_G, 0.0, 0.0],
                     [-0.90338057013044082, 0.054180672388095326, _W_G, 0.0],
                     [0.24212380706095346, -1.2232505839045147, 0.54526025533510214,
                      _W_G]])
_W_B = np.array([0.24212380706095346, -1.2232505839045147, 1.5452602553351020, _W_G])
_W_BHAT = np.array([0.37810903145819369, -0.096042292212423178, 0.5,
                    0.21793326075422950])
_W_N = _W_GAMMA / _W_G - np.eye(4)            # strictly lower, so N^4 = 0
_W_GINV = (np.eye(4) - _W_N + _W_N @ _W_N - _W_N @ _W_N @ _W_N) / _W_G
_W_A = _W_ALPHA @ _W_GINV
_W_C = np.eye(4) / _W_G - _W_GINV
_W_M = _W_B @ _W_GINV
_W_E = (_W_B - _W_BHAT) @ _W_GINV


def integrate(P: DAPolynomial, x0, cfg: FlowConfig | None = None,
              attractors=None) -> Trajectory:
    """Integrate the gradient flow from x0 with the ROS34PW2 W-method.

    W = I + h g 2 J^T J, with J the Jacobian of P at the step's start, is
    inverted through one SVD of J per start.  Stops when the gradient norm
    drops below ``cfg.stop_grad``, at the crossing into ``STOP_RADIUS``
    of one of the supplied attractors (located on the step's Hermite
    interpolant), or at ``cfg.max_time``.  Accepted steps keep the potential
    non-increasing (up to a relative slack); repeated failures report a
    stalled terminal.
    """
    cfg = cfg or FlowConfig()
    y = np.array(x0.coords if isinstance(x0, AlgebraElement) else x0, dtype=float)
    att = _attractor_coords(attractors)

    val_grad = value_gradient_fn(P)
    t = 0.0
    pv, g = val_grad(y)
    f = -g
    v0 = float(pv @ pv)
    slack = tol.LYAPUNOV_SLACK_REL * max(v0, 1.0e-300)
    times = [t]
    points = [y.copy()]
    pots = [v0]
    v_prev = v0

    gnorm = float(np.linalg.norm(f))
    terminal = None
    idx = _capture_index(y, att, STOP_RADIUS)
    if gnorm < cfg.stop_grad or idx is not None:
        terminal = Terminal("converged", idx, "stopped at start")
    h = float(_initial_step(np.linalg.norm(y), gnorm))
    u = np.zeros((4, y.size))
    gn_eig = None                   # eigenvalues of 2 J^T J at y, kept over retries
    steps = accepted = lyapunov_rejections = factorizations = 0
    n_rhs = 1
    lyapunov_fails = 0
    plateau = 0
    v_plateau_start = v0
    just_rejected = False
    h_min, h_max = math.inf, 0.0
    while terminal is None:
        if steps >= MAX_STEPS:
            terminal = Terminal("max_time", None, "step budget exhausted")
            break
        if t >= cfg.max_time:
            terminal = Terminal("max_time", None, "")
            break
        h = min(h, cfg.max_time - t)
        if gn_eig is None:
            _, sv, vt = np.linalg.svd(jacobian_coords(P, y))
            gn_eig = 2.0 * sv * sv      # 2 J^T J = vt.T diag(gn_eig) vt
            factorizations += 1
        w_inv = (vt.T / (1.0 + (h * _W_G) * gn_eig)) @ vt
        u[0] = w_inv @ ((h * _W_G) * f)
        for i in range(1, 4):
            gi = val_grad(y + _W_A[i, :i] @ u[:i])[1]
            u[i] = w_inv @ (_W_G * (_W_C[i, :i] @ u[:i]) - (h * _W_G) * gi)
        n_rhs += 3
        y_new = y + _W_M @ u
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((_W_E @ u / sc) ** 2)))
        steps += 1
        if err_norm <= 1.0:
            pv_new, g_new = val_grad(y_new)
            n_rhs += 1
            v_new = float(pv_new @ pv_new)
            if v_new > v_prev + slack:
                # accuracy says fine but the Lyapunov property failed: shrink
                lyapunov_rejections += 1
                lyapunov_fails += 1
                h *= 0.5
                just_rejected = True
                if h < 1e-14 * max(1.0, t) or lyapunov_fails > 60:
                    terminal = Terminal("stalled", None,
                                        f"step underflow at t={t:.6g}")
                    break
                continue
            lyapunov_fails = 0
            # plateau guard: on a convex quadratic, a step scaling each
            # Hessian eigendirection by R (exact flow: 0 < R < 1; this
            # method: R >= -0.131) drops V by at least (1 + R) / 2 of the
            # first-order drop f.dy; steps giving under a quarter of it
            # while V no longer moves are at the accuracy floor
            if v_prev - v_new < 0.25 * float(f @ (y_new - y)):
                if plateau == 0:
                    v_plateau_start = v_prev
                plateau += 1
            else:
                plateau = 0
            accepted += 1
            h_min, h_max = min(h_min, h), max(h_max, h)
            dt = h
            idx = _capture_index(y_new, att, STOP_RADIUS)
            if idx is not None:
                theta, y_new = _hermite_crossing(y, f, y_new, -g_new, h, att[idx],
                                                 STOP_RADIUS)
                dt = theta * h
                pv_new, g_new = val_grad(y_new)
                n_rhs += 1
                v_new = float(pv_new @ pv_new)
            t += dt
            y = y_new
            f = -g_new
            v_prev = v_new
            gn_eig = None
            if accepted % cfg.record_every == 0:
                times.append(t)
                points.append(y.copy())
                pots.append(v_new)
            gnorm = float(np.linalg.norm(f))
            if idx is not None:
                terminal = Terminal("converged", idx, "captured")
                break
            if gnorm < cfg.stop_grad:
                terminal = Terminal("converged", None, "gradient below threshold")
                break
            if plateau >= 25:
                if v_plateau_start - v_new <= 0.01 * v_plateau_start:
                    terminal = Terminal("converged", None, "potential plateau")
                    break
                plateau = 0
            grow = 0.9 * err_norm ** (-1 / 3) if err_norm > 0 else 5.0
            if just_rejected:
                grow = min(grow, 1.0)
                just_rejected = False
            h *= min(5.0, max(0.2, grow))
        else:
            h *= max(0.2, 0.9 * err_norm ** (-1 / 3))
            just_rejected = True
            if h < 1e-16:
                terminal = Terminal("stalled", None, "step underflow")
                break
    if times[-1] != t:
        times.append(t)
        points.append(y.copy())
        pots.append(v_prev)
    stats = StepStats(accepted, steps - accepted - lyapunov_rejections,
                      lyapunov_rejections, n_rhs, factorizations,
                      h_min if accepted else 0.0, h_max)
    return Trajectory(np.asarray(times), np.stack(points), np.asarray(pots), terminal,
                      stats)


def _attractor_coords(attractors) -> np.ndarray | None:
    if not attractors:
        return None
    return np.stack([a.coords if isinstance(a, AlgebraElement) else np.asarray(a)
                     for a in attractors])


def _capture_index(y: np.ndarray, att: np.ndarray | None, radius: float):
    if att is None:
        return None
    d2 = np.sum((att - y) ** 2, axis=1)
    i = int(np.argmin(d2))
    return i if d2[i] < radius * radius else None


def _hermite_crossing(y0, f0, y1, f1, h: float, a: np.ndarray, radius: float):
    """Where a step's cubic Hermite interpolant first enters the ball.

    The step goes from y0 (outside the ball of ``radius`` about ``a``) to
    y1 (inside) in time h, with flow f0 and f1 at its ends.  Returns the
    fraction theta of the step at the first crossing and the point there.
    """
    c = (y0 - a, h * f0, 3.0 * (y1 - y0) - h * (2.0 * f0 + f1),
         2.0 * (y0 - y1) + h * (f0 + f1))    # H(theta) - a, powers of theta

    def offset(theta):
        return ((c[3] * theta + c[2]) * theta + c[1]) * theta + c[0]

    def inside(theta):
        return np.sum(offset(theta) ** 2, axis=-1) < radius ** 2
    grid = np.linspace(0.0, 1.0, 33)
    flags = inside(grid[:, None])
    flags[-1] = True                                   # y1 is inside
    k = int(np.argmax(flags))
    lo, hi = grid[max(k - 1, 0)], grid[k]
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return hi, offset(hi) + a


def _capture_rows(Y: np.ndarray, att: np.ndarray | None, radius: float) -> np.ndarray:
    """Index of the attractor capturing each row of Y, -1 where none does."""
    if att is None:
        return np.full(Y.shape[0], -1)
    d2 = np.sum((Y[:, None, :] - att[None, :, :]) ** 2, axis=-1)
    i = np.argmin(d2, axis=1)
    return np.where(d2[np.arange(Y.shape[0]), i] < radius * radius, i, -1)


def _initial_step(y_norm, f_norm):
    """First trial step from |y| and |f|; scalars or per-row arrays."""
    f_norm = np.asarray(f_norm, dtype=float)
    with np.errstate(divide="ignore"):
        h = np.clip(0.01 * (1.0 + y_norm) / f_norm, 1e-10, 0.1)
    return np.where(f_norm == 0.0, 1e-6, h)


_TERMINAL_KINDS = ("converged", "max_time", "stalled")
_CONVERGED, _MAX_TIME, _STALLED = range(3)


@dataclass(frozen=True)
class EnsembleResult:
    """Outcome of ``integrate_ensemble``, one entry per start row."""

    points: np.ndarray             # (n, d) final states
    kinds: np.ndarray              # terminal kind per row, as in Terminal.kind
    attractor_index: np.ndarray    # capturing attractor, -1 where none
    steps: np.ndarray              # step attempts, accepted and rejected
    times: np.ndarray              # final flow times


def integrate_ensemble(P: DAPolynomial, X0, cfg: FlowConfig | None = None,
                       attractors=None) -> EnsembleResult:
    """Integrate the gradient flow from every row of X0 in lockstep.

    Each row takes Dormand-Prince 5(4) steps with error control, a two-rate
    stability limiter, Lyapunov and plateau guards and the stop tests of
    ``integrate``, all with per-row state.  One batched value-and-gradient
    call evaluates a stage for every row still running, and a row leaves
    the batch at its terminal state.  ``integrate`` stays the path for a
    single trajectory whose samples are wanted.
    """
    cfg = cfg or FlowConfig()
    Y = np.array(X0, dtype=float)
    n, dim = Y.shape
    att = _attractor_coords(attractors)
    pv, G = value_gradient_batch(P, Y)
    V = np.einsum("ij,ij->i", pv, pv)
    out = SimpleNamespace(
        points=Y.copy(), kinds=np.zeros(n, dtype=int), index=np.full(n, -1),
        steps=np.zeros(n, dtype=int), times=np.zeros(n))
    live = SimpleNamespace(
        row=np.arange(n), y=Y, f=-G, t=np.zeros(n), v=V,
        slack=tol.LYAPUNOV_SLACK_REL * np.maximum(V, 1.0e-300),
        gnorm=np.linalg.norm(G, axis=1), steps=np.zeros(n, dtype=int),
        lyapunov_fails=np.zeros(n, dtype=int), plateau=np.zeros(n, dtype=int),
        v_plateau_start=V.copy(), just_rejected=np.zeros(n, dtype=bool),
        h_limit=np.full(n, np.inf), since_reject=np.zeros(n, dtype=int))
    live.h = _initial_step(np.linalg.norm(Y, axis=1), live.gnorm)

    def finish(kind: np.ndarray, index: np.ndarray) -> None:
        # record the rows with a terminal kind and drop them from the batch
        done = kind >= 0
        if not np.any(done):
            return
        r = live.row[done]
        out.points[r] = live.y[done]
        out.kinds[r] = kind[done]
        out.index[r] = index[done]
        out.steps[r] = live.steps[done]
        out.times[r] = live.t[done]
        for name, arr in vars(live).items():
            setattr(live, name, arr[~done])

    index = _capture_rows(Y, att, STOP_RADIUS)
    finish(np.where((live.gnorm < cfg.stop_grad) | (index >= 0), _CONVERGED, -1), index)
    while live.row.size:
        m = live.row.size
        finish(np.where((live.steps >= MAX_STEPS) | (live.t >= cfg.max_time),
                        _MAX_TIME, -1), np.full(m, -1))
        m = live.row.size
        if m == 0:
            break
        y, h = live.y, np.minimum(live.h, cfg.max_time - live.t)
        km = np.empty((7, m, dim))
        km[0] = live.f
        flat = km.reshape(7, m * dim)
        for i in range(1, 6):
            yi = y + h[:, None] * (_DP_A[i] @ flat[:i]).reshape(m, dim)
            km[i] = -value_gradient_batch(P, yi)[1]
        y5 = y + h[:, None] * (_DP_A[6] @ flat[:6]).reshape(m, dim)
        pv5, g5 = value_gradient_batch(P, y5)
        km[6] = -g5
        y4 = y + h[:, None] * (_DP_B4 @ flat).reshape(m, dim)
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = np.sqrt(np.mean(((y5 - y4) / sc) ** 2, axis=1))
        live.steps += 1
        v_new = np.einsum("ij,ij->i", pv5, pv5)
        accurate = err_norm <= 1.0
        lyapunov = accurate & (v_new > live.v + live.slack)
        ok = accurate & ~lyapunov
        rejected = ~accurate
        kind = np.full(m, -1)
        index = np.full(m, -1)

        # accuracy says fine but the Lyapunov property failed: halve h
        live.lyapunov_fails = np.where(lyapunov, live.lyapunov_fails + 1,
                                       np.where(ok, 0, live.lyapunov_fails))
        h = np.where(lyapunov, 0.5 * h, h)
        kind[lyapunov & ((h < 1e-14 * np.maximum(1.0, live.t))
                         | (live.lyapunov_fails > 60))] = _STALLED

        # accepted steps: plateau guard (steps that stop delivering a
        # quarter of h |g|^2 while V no longer moves), then the stop tests
        slow = ok & (live.v - v_new < 0.25 * h * live.gnorm * live.gnorm)
        live.v_plateau_start = np.where(slow & (live.plateau == 0), live.v,
                                        live.v_plateau_start)
        live.plateau = np.where(slow, live.plateau + 1, np.where(ok, 0, live.plateau))
        live.t = np.where(ok, live.t + h, live.t)
        live.y = np.where(ok[:, None], y5, y)
        live.f = np.where(ok[:, None], km[6], live.f)
        live.v = np.where(ok, v_new, live.v)
        live.gnorm = np.where(ok, np.linalg.norm(km[6], axis=1), live.gnorm)
        captured = ok & ((idx := _capture_rows(y5, att, STOP_RADIUS)) >= 0)
        index[captured] = idx[captured]
        small = ok & (live.gnorm < cfg.stop_grad)
        long_plateau = ok & ~captured & ~small & (live.plateau >= 25)
        flat_out = long_plateau & (live.v_plateau_start - v_new
                                   <= 0.01 * live.v_plateau_start)
        live.plateau = np.where(long_plateau, 0, live.plateau)
        kind[captured | small | flat_out] = _CONVERGED

        # step size: grow after an accepted step, shrink after a rejected one
        scale = 0.9 * np.where(err_norm == 0.0, 1.0, err_norm) ** -0.2
        grow = np.where(err_norm > 0, scale, 5.0)
        grow = np.where(live.just_rejected, np.minimum(grow, 1.0), grow)
        live.since_reject = np.where(ok, live.since_reject + 1,
                                     np.where(rejected, 0, live.since_reject))
        live.h_limit = np.where(
            ok, live.h_limit * np.where(live.since_reject > 40, 1.05, 1.002),
            np.where(rejected, 0.9 * h, live.h_limit))
        h = np.where(ok, np.minimum(h * np.minimum(5.0, np.maximum(0.2, grow)),
                                    live.h_limit), h)
        shrink = np.fmax(0.2, scale)        # NaN error norms shrink by 0.2
        h = np.where(rejected, h * shrink, h)
        kind[rejected & (h < 1e-16)] = _STALLED
        live.just_rejected = np.where(ok, False, live.just_rejected | lyapunov | rejected)
        live.h = h
        finish(kind, index)
    return EnsembleResult(out.points, np.array(_TERMINAL_KINDS)[out.kinds], out.index,
                          out.steps, out.times)


def _polished_attractors(P: DAPolynomial, points) -> list[AlgebraElement]:
    """Newton-polish candidate points; keep clean, full-rank, distinct roots, sorted.

    Clean is relative to rounding: |P(x)| < NEWTON_RESIDUAL max(1, sum_k |a_k| |x|^k).
    """
    norms = np.linalg.norm(P._rows, axis=1)[::-1]
    found: list[np.ndarray] = []
    for x in points:
        res = newton_polish(P, np.asarray(x, dtype=float))
        scale = max(1.0, float(np.polyval(norms, np.linalg.norm(res.point))))
        if not res.residual < tol.NEWTON_RESIDUAL * scale:
            continue
        if numerical_rank(jacobian_coords(P, res.point)).rank < P.tag.dimension:
            continue
        if all(np.linalg.norm(res.point - q) > tol.ATTRACTOR_DEDUP for q in found):
            found.append(res.point)
    found.sort(key=lambda p: tuple(np.round(p, 9)))
    return [AlgebraElement(P.tag, p) for p in found]


def attractors_from_starts(P: DAPolynomial, starts,
                           cfg: FlowConfig | None = None) -> list[AlgebraElement]:
    """Flow each start to rest, Newton-polish, keep clean isolated roots.

    The flow only needs to deliver each start into a Newton basin, so the
    default gradient stop is loose; the residual and full-rank filters on
    the polished points carry the actual guarantee.
    """
    if len(starts) == 0:
        return []
    cfg = cfg or FlowConfig(stop_grad=1e-4, max_time=1e4)
    return _polished_attractors(P, integrate_ensemble(P, starts, cfg).points)


def find_attractors(P: DAPolynomial, n_starts: int = 32, seed: int = 0,
                    cfg: FlowConfig | None = None) -> list[AlgebraElement]:
    """Multistart gradient flow + Newton polish; deduplicated isolated roots.

    Central polynomials legitimately return an empty list: their minima
    form spheres, which the full-rank filter rejects.
    """
    rng = np.random.default_rng(seed)
    starts = rng.normal(scale=1.5, size=(n_starts, P.tag.dimension))
    return attractors_from_starts(P, starts, cfg)


def _located_attractors(P: DAPolynomial) -> list[AlgebraElement]:
    """Attractors without a flow: the polished isolated points of ``root_set``."""
    return _polished_attractors(P, [s.point.coords for s in root_set(P).strata
                                    if isinstance(s, IsolatedPoint)])


def _first_sphere(D: Deformation) -> Sphere:
    for s in root_set(D.base).strata:
        if isinstance(s, Sphere):
            return s
    raise ValueError("deformation base has no sphere stratum")


def _attracting_axis(D: Deformation, rng: np.random.Generator) -> tuple[Sphere, np.ndarray]:
    """Unit imaginary direction of the restricted-potential minimizer."""
    sphere = _first_sphere(D)
    samples = sample_stratum(sphere, 256, rng)
    vals = [float(potential_coords(D.direction, s.coords)) for s in samples]
    u = samples[int(np.argmin(vals))].coords.copy()
    u[0] = 0.0
    u /= np.linalg.norm(u)
    return sphere, u


def _axis_from_attractors(attractors, sphere: Sphere) -> np.ndarray:
    """Imaginary direction of the attractor the sphere collapses onto.

    The attractor closest to the original sphere pins the separatrix
    orientation exactly, unlike a sampled restricted-potential minimizer.
    """
    center = np.zeros(attractors[0].tag.dimension)
    center[0] = sphere.re
    best = min(attractors,
               key=lambda a: abs(float(np.linalg.norm(a.coords - center))
                                 - sphere.radius))
    u = best.coords.copy()
    u[0] = 0.0
    n = np.linalg.norm(u)
    if n == 0.0:
        raise RuntimeError("attractor has no imaginary part; no axis defined")
    return u / n


@dataclass(frozen=True)
class CollapseSample:
    epsilon: float
    time: float
    censored: bool
    attractor: AlgebraElement | None
    start: np.ndarray
    stats: StepStats


def collapse_time(D: Deformation, eps: float, cfg: FlowConfig | None = None,
                  seed: int = 0) -> CollapseSample:
    """Time for a sphere start at geodesic angle pi/3 to reach an attractor.

    The attracting axis is located as the restricted-potential minimizer
    over stratum samples; the start sits at angle pi/3 from it along a
    deterministic transverse direction.  Collapse time is the time at which
    the trajectory crosses into ``STOP_RADIUS`` of an attractor, located
    on the capturing step's interpolant, so it does not depend on where the
    steps fall.  A run that no attractor captures is censored, whatever
    stopped it.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    cfg = cfg or FlowConfig(max_time=5e7, record_every=64)
    P = D.at(eps)
    rng = np.random.default_rng(seed)
    sphere, u_min = _attracting_axis(D, rng)
    # transverse unit imaginary direction, deterministic given the seed
    w = np.zeros_like(u_min)
    w[1:] = rng.normal(size=w.size - 1)
    w -= np.dot(w, u_min) * u_min
    w[0] = 0.0
    w /= np.linalg.norm(w)
    x0 = np.zeros(P.tag.dimension)
    x0[0] = sphere.re
    x0 += sphere.radius * (math.cos(math.pi / 3) * u_min + math.sin(math.pi / 3) * w)
    attractors = _located_attractors(P)
    if not attractors:
        raise RuntimeError(f"no attractors found at eps={eps}")
    traj = integrate(P, x0, cfg, attractors=attractors)
    idx = traj.terminal.attractor_index
    att = attractors[idx] if idx is not None else None
    return CollapseSample(eps, traj.final_time, att is None, att, x0, traj.stats)


@dataclass(frozen=True)
class CollapseMeasurement:
    epsilons: np.ndarray
    times: np.ndarray
    censored: np.ndarray
    fit_slope: float
    fit_intercept: float
    r_squared: float
    steps: np.ndarray              # accepted integrator steps per epsilon
    rhs_evals: np.ndarray          # value-and-gradient evaluations per epsilon


def _collapse_row(s: CollapseSample) -> tuple[float, float, bool, int, int]:
    return s.epsilon, s.time, s.censored, s.stats.accepted, s.stats.rhs_evals


def _collapse_worker(payload) -> tuple[float, float, bool, int, int]:
    dim, base_rows, dir_rows, eps, seed = payload
    tag = AlgebraTag(dim)
    D = Deformation(DAPolynomial.from_coords(tag, base_rows),
                    DAPolynomial.from_coords(tag, dir_rows))
    return _collapse_row(collapse_time(D, eps, seed=seed))


def measure_collapse(D: Deformation, epsilons, seed: int = 0,
                     workers: int | None = None) -> CollapseMeasurement:
    """Collapse times over an epsilon list plus the log-log fit.

    The per-epsilon runs are independent and deterministic given the seed,
    so they distribute over a process pool (slowest run first); results
    merge in epsilon order regardless of completion order.
    """
    eps = np.sort(np.asarray(list(epsilons), dtype=float))
    if np.any(eps <= 0):
        raise ValueError("epsilons must be positive")
    if workers is None:
        workers = min(eps.size, os.cpu_count() or 1)
    if workers > 1:
        payloads = [(D.base.tag.dimension, D.base.to_coords(),
                     D.direction.to_coords(), float(e), seed)
                    for e in eps]          # ascending eps: slowest job first
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_collapse_worker, payloads))
    else:
        rows = [_collapse_row(collapse_time(D, e, seed=seed)) for e in eps]
    by_eps = {r[0]: r for r in rows}
    _, times, censored, steps, rhs = (np.array(col) for col in
                                      zip(*(by_eps[float(e)] for e in eps)))
    if np.any(censored):
        warnings.warn("censored collapse measurements excluded from fit")
    slope, intercept, r2 = scaling_fit(eps[~censored], times[~censored])
    return CollapseMeasurement(eps, times, censored, slope, intercept, r2, steps, rhs)


def scaling_fit(epsilons, times) -> tuple[float, float, float]:
    """Least squares of log T against log eps -> (slope, intercept, r^2)."""
    eps = np.asarray(epsilons, dtype=float)
    t = np.asarray(times, dtype=float)
    if eps.size < 4:
        raise ValueError("need at least 4 uncensored (eps, T) pairs")
    if np.max(eps) / np.min(eps) < 10.0 * (1.0 - 1e-12):
        raise ValueError("epsilon range must span at least one decade")
    lx = np.log(eps)
    ly = np.log(t)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    fit = A @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass
class BasinReport:
    starts: np.ndarray
    labels: np.ndarray             # attractor index, -1 if unconverged
    attractors: list[AlgebraElement]
    axis: np.ndarray               # unit imaginary reference direction
    fractions: dict[int, float]
    band_mask: np.ndarray          # True where |axis component| <= band
    max_residual: float
    unconverged: list[int]
    max_rise: float                # largest V - V(start) along the labelled flow


EQUATOR_BAND = 0.05
RK4_STABLE = 2.5                   # cap on h*lam; RK4's real-axis bound is about 2.79


def ensemble_labels(P: DAPolynomial, starts: np.ndarray, attractors,
                    max_time: float = 1e5) -> tuple[np.ndarray, np.ndarray, float]:
    """Capture labels for a batch of starts, integrated in lockstep.

    Fixed-step classical Runge-Kutta on the rows not yet captured; a row
    leaves the batch as soon as it enters ``STOP_RADIUS`` of an attractor.
    The step is 0.25, cut to ``RK4_STABLE / lam`` where lam = max 2
    sigma_max(J)^2 is the stiffest potential-Hessian eigenvalue at the
    attractors, so the decay onto them stays inside RK4's real stability
    interval.  Labels agree with per-trajectory adaptive integration
    (checked in tests) at a small fraction of the cost.  Returns (labels,
    final points, largest V - V(start) at any step of any row); -1 marks
    rows still free at max_time.
    """
    X = np.array(starts, dtype=float)
    att = _attractor_coords(attractors)
    h = 0.25
    if att is not None:
        sigma = np.linalg.norm(jacobian_coords(P, att), ord=2, axis=(-2, -1))
        h = min(h, RK4_STABLE / float(np.max(2.0 * sigma * sigma)))
    labels = _capture_rows(X, att, STOP_RADIUS)
    row = np.flatnonzero(labels < 0)        # rows still running, in start order
    Y = X[row]
    t = 0.0
    rise = 0.0
    while t < max_time and row.size:
        pv, g = value_gradient_batch(P, Y)
        v = np.einsum("ij,ij->i", pv, pv)
        if t == 0.0:
            v0 = v
        rise = float(np.maximum(rise, np.max(v - v0)))     # NaN stays NaN
        k1 = -g
        k2 = -gradient_coords_batch(P, Y + 0.5 * h * k1)
        k3 = -gradient_coords_batch(P, Y + 0.5 * h * k2)
        k4 = -gradient_coords_batch(P, Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        idx = _capture_rows(Y, att, STOP_RADIUS)
        hit = idx >= 0
        labels[row[hit]] = idx[hit]
        X[row[hit]] = Y[hit]
        row, Y, v0 = row[~hit], Y[~hit], v0[~hit]
    X[row] = Y
    return labels, X, rise


def _sphere_starts(D: Deformation, P: DAPolynomial, n_samples: int,
                   rng: np.random.Generator):
    """Attractors of P = D.at(eps), their axis, base-sphere starts, equator-band mask."""
    attractors = _located_attractors(P)
    if not attractors:
        raise RuntimeError("no isolated attractors found")
    sphere = _first_sphere(D)
    axis = _axis_from_attractors(attractors, sphere)
    X0 = np.stack([s.coords for s in sample_stratum(sphere, n_samples, rng)])
    unit = X0 / np.maximum(np.linalg.norm(X0, axis=1, keepdims=True), 1e-300)
    return attractors, axis, X0, np.abs(unit @ axis) <= EQUATOR_BAND


def basin_decomposition(D: Deformation, eps: float, n_samples: int,
                        seed: int = 0) -> BasinReport:
    """Label sphere starts by the attractor that captures them.

    ``max_rise`` is the deformation-retract evidence.  Off-manifold starts
    are checked on ``integrate_ensemble`` instead: this fixed RK4 step
    diverges on 19 of 20 Gaussian sigma = 2 starts at eps = 0.3.
    """
    P = D.at(eps)
    attractors, axis, X0, band = _sphere_starts(D, P, n_samples,
                                                np.random.default_rng(seed))
    labels, finals, max_rise = ensemble_labels(P, X0, attractors,
                                               max_time=max(1e4, 400.0 / eps ** 2))
    captured = labels >= 0
    max_res = 0.0
    if np.any(captured):
        res = np.linalg.norm(evaluate_coords(P, finals[captured]), axis=1)
        max_res = float(np.max(res))
    unconverged = list(np.flatnonzero(~captured))
    fractions = {
        j: float(np.mean(labels == j)) for j in range(len(attractors))
    }
    return BasinReport(X0, labels, attractors, axis, fractions, band,
                       max_res, unconverged, max_rise)


@dataclass(frozen=True)
class RestrictedScan:
    points: np.ndarray             # (n, d) stratum samples
    values: np.ndarray             # potential at scan epsilon
    exponents: np.ndarray          # log2 f(2 eps) / f(eps) per point
    min_point: np.ndarray
    max_point: np.ndarray


def restricted_potential_scan(D: Deformation, eps: float, n_points: int = 20,
                              seed: int = 0) -> RestrictedScan:
    """Potential of the deformed polynomial on base-stratum samples.

    Reports per-point values, the growth exponent from doubling epsilon,
    and the extremal sample points (the Morse data of the restriction).
    """
    rng = np.random.default_rng(seed)
    sphere = _first_sphere(D)
    pts = np.stack([s.coords for s in sample_stratum(sphere, n_points, rng)])
    f1 = potential_coords(D.at(eps), pts)
    if eps == 0.0:
        return RestrictedScan(pts, f1, np.full(n_points, np.nan),
                              pts[0], pts[0])
    f2 = potential_coords(D.at(2.0 * eps), pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = np.log2(f2 / f1)
    return RestrictedScan(pts, f1, expo,
                          pts[int(np.argmin(f1))], pts[int(np.argmax(f1))])
