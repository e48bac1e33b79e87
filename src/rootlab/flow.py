"""Gradient flow on the potential landscape and collapse measurements.

The flow x' = -grad ||P(x)||^2 is integrated with the potential enforced
to be non-increasing along accepted steps.  ``integrate`` follows one
trajectory and keeps its samples; it is the linearly implicit W-method
ROS34PW2, whose step is set by accuracy alone, not by the fast radial decay
onto the root set, and collapse times run on it.  It evaluates each point
once: an accepted step makes four kernel calls, and its one SVD factors the
J returned with the value and gradient of the point it starts from.
``integrate_ensemble`` steps a whole start set in lockstep with an
embedded Dormand-Prince 5(4) pair, one batched value-and-gradient call per
stage, under one polynomial or under one polynomial per row, and with one
``FlowConfig`` or one per row; it captures no row at an attractor, so each
row ends on a stop test.  Both integrators control their error with
``tol.FLOW_REL`` and ``tol.FLOW_ABS``.  Multistart attractor search runs
on the ensemble: searches that differ in polynomial, start set and stop
test share one pass (c05's 12-start search on x^2 + ix + 1 and its 5-start
quadratic searches, 323 lockstep steps at seed 1), and each reports its
flow's deterministic effort counters and the Newton iterations of its
polish.  Attractors are isolated full-rank roots, Newton-polished in one
place: multistart search gets its candidates from the flow, while
collapse times and basins start Newton from the isolated points of
``manifolds.root_set``, with no flow and no seed.  Collapse
times and basins read one frame of a deformation family, built in one
place: those attractors, the base sphere and the axis of the attractor the
sphere collapses onto.  On top of these: collapse-time measurement from a
start exactly pi/3 from that axis, the log-log scaling fit of collapse time
against perturbation size, basin decomposition of the initial sphere, and
restricted potential scans.  Basin labels run on a damped
Runge-Kutta-Chebyshev stepper in lockstep with per-row error control
(``ensemble_labels``): explicit, with one batched gradient call per stage,
and with a real stability interval that grows as about 0.65 s^2 in its
stage count s, which suits a gradient flow, whose spectrum is real; a row
that goes non-finite leaves the batch unlabelled.  They also report the
largest rise of V along any labelled trajectory, the evidence that the
flow is a deformation retract onto the attractors.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
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
    stack_tables,
    take_rows,
    value_gradient_batch,
    value_gradient_fn,
)


STOP_RADIUS = 0.05                 # a trajectory this close to an attractor is captured
MAX_STEPS = 5_000_000              # step budget of one trajectory or ensemble row


@dataclass(frozen=True)
class FlowConfig:
    max_time: float = 1e7
    stop_grad: float = 1e-9
    record_every: int = 1          # archive every k-th accepted sample

    def __post_init__(self) -> None:
        for name in ("max_time", "stop_grad"):
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
    inverted through one SVD of J per accepted step.  Each point is
    evaluated once: the value-and-gradient closure returns J with P(x) and
    grad V(x), and the SVD factors the J that came with the accepted point,
    so an accepted step costs four kernel calls (three stages and its end
    point).  Stops when the gradient norm drops below ``cfg.stop_grad``, at
    the crossing into ``STOP_RADIUS`` of one of the supplied attractors
    (located on the step's Hermite interpolant), or at ``cfg.max_time``.
    Accepted steps keep the potential non-increasing (up to a relative
    slack); repeated failures report a stalled terminal.
    """
    cfg = cfg or FlowConfig()
    y = np.array(x0.coords if isinstance(x0, AlgebraElement) else x0, dtype=float)
    att = _attractor_coords(attractors)

    val_grad = value_gradient_fn(P)
    t = 0.0
    pv, g, J = val_grad(y)
    f = -g
    v0 = float(pv @ pv)
    slack = tol.LYAPUNOV_SLACK_REL * max(v0, 1.0e-300)
    times = [t]
    points = [y.copy()]
    pots = [v0]
    v_prev = v0

    gnorm = math.sqrt(f @ f)
    terminal = None
    idx = _capture_index(y, att, STOP_RADIUS)
    if gnorm < cfg.stop_grad or idx is not None:
        terminal = Terminal("converged", idx, "stopped at start")
    abs_y = np.abs(y)
    h = float(_initial_step(np.linalg.norm(y), gnorm))
    dim = y.size
    u = np.zeros((4, dim))
    stage_a = [_W_A[i, :i] for i in range(4)]
    stage_c = [_W_C[i, :i] for i in range(4)]
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
            _, sv, vt = np.linalg.svd(J)
            gn_eig = 2.0 * sv * sv      # 2 J^T J = vt.T diag(gn_eig) vt
            factorizations += 1
        hg = h * _W_G
        w_inv = (vt.T / (1.0 + hg * gn_eig)) @ vt
        u[0] = w_inv @ (hg * f)
        for i in range(1, 4):
            gi = val_grad(y + stage_a[i] @ u[:i])[1]
            u[i] = w_inv @ (_W_G * (stage_c[i] @ u[:i]) - hg * gi)
        n_rhs += 3
        y_new = y + _W_M @ u
        abs_new = np.abs(y_new)
        e = (_W_E @ u) / (tol.FLOW_ABS + tol.FLOW_REL * np.maximum(abs_y, abs_new))
        err_norm = math.sqrt(np.add.reduce(np.square(e)) / dim)
        steps += 1
        if err_norm <= 1.0:
            pv_new, g_new, J_new = val_grad(y_new)
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
                pv_new, g_new, J_new = val_grad(y_new)
                n_rhs += 1
                v_new = float(pv_new @ pv_new)
            t += dt
            y = y_new
            abs_y = abs_new             # stale only after a capture, which ends the loop
            f = -g_new
            J = J_new
            v_prev = v_new
            gn_eig = None
            if accepted % cfg.record_every == 0:
                times.append(t)
                points.append(y.copy())
                pots.append(v_new)
            gnorm = math.sqrt(f @ f)
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
    d2 = np.add.reduce((att - y) ** 2, axis=1)
    i = int(d2.argmin())
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


def _capture_rows(Y: np.ndarray, att: np.ndarray, radius: float) -> np.ndarray:
    """Index of the attractor capturing each row of Y, -1 where none does.

    One attractor at a time, keeping each row's nearest so far: no
    (rows, attractors, d) broadcast, and ties go to the first attractor.
    """
    index = np.full(Y.shape[0], -1)
    best = np.full(Y.shape[0], radius * radius)
    for j, a in enumerate(att):
        d2 = np.add.reduce((Y - a) ** 2, axis=1)
        closer = d2 < best
        best = np.where(closer, d2, best)
        index[closer] = j
    return index


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
    steps: np.ndarray              # step attempts, accepted and rejected
    times: np.ndarray              # final flow times
    accepted: np.ndarray           # accepted steps
    rhs_evals: np.ndarray          # value-and-gradient evaluations, 6 per attempt + 1

    def rows(self, sel) -> "EnsembleResult":
        """The entries of the rows ``sel`` picks (an index, slice or mask)."""
        return EnsembleResult(*(getattr(self, f.name)[sel] for f in fields(self)))

    def effort(self) -> dict:
        """Counters summed over the rows; ``lockstep_steps`` is the loop's length."""
        return {"lockstep_steps": int(self.steps.max(initial=0)),
                "steps": int(self.steps.sum()), "accepted": int(self.accepted.sum()),
                "rhs_evals": int(self.rhs_evals.sum())}


def _row_config(cfg, n: int) -> dict[str, np.ndarray]:
    """Per-row stop settings from one config or one per row."""
    if cfg is None or isinstance(cfg, FlowConfig):
        cfg = [cfg or FlowConfig()] * n
    elif len(cfg) != n:
        raise ValueError("need one FlowConfig per start row")
    return {name: np.array([getattr(c, name) for c in cfg], dtype=float)
            for name in ("stop_grad", "max_time")}


def integrate_ensemble(P, X0, cfg: FlowConfig | Sequence[FlowConfig] | None = None
                       ) -> EnsembleResult:
    """Integrate the gradient flow from every row of X0 in lockstep.

    Each row takes Dormand-Prince 5(4) steps with error control, a two-rate
    stability limiter, Lyapunov and plateau guards and the gradient,
    plateau and time stops of ``integrate``, all with per-row state; no row
    is captured at an attractor.  One batched value-and-gradient
    call evaluates a stage for every row still running, and a row leaves
    the batch at its terminal state.  P is one ``DAPolynomial`` for every
    row, or a sequence of them with one per row: their zero-padded
    coefficient tables (``poly.stack_tables``) leave the batch with their
    rows, while a term shared by every row keeps one table, so many
    polynomials flow in one pass that takes as many steps as its slowest
    row.  ``cfg`` is one ``FlowConfig`` or a sequence of them with
    one per row: gradient stops and time limits are per-row state too, so
    searches with different stop tests share a pass; the error control
    reads ``tol.FLOW_REL`` and ``tol.FLOW_ABS``.  ``integrate`` stays the
    path for a single trajectory whose samples are wanted.
    """
    Y = np.array(X0, dtype=float)
    n, dim = Y.shape
    shared = isinstance(P, DAPolynomial)
    if not shared and len(P) != n:
        raise ValueError("need one polynomial per start row")
    tables = P if shared else stack_tables(P)
    pv, G = value_gradient_batch(tables, Y)
    V = np.einsum("ij,ij->i", pv, pv)
    out = SimpleNamespace(
        points=Y.copy(), kinds=np.zeros(n, dtype=int),
        steps=np.zeros(n, dtype=int), times=np.zeros(n),
        accepted=np.zeros(n, dtype=int))
    live = SimpleNamespace(
        row=np.arange(n), y=Y, f=-G, t=np.zeros(n), v=V,
        slack=tol.LYAPUNOV_SLACK_REL * np.maximum(V, 1.0e-300),
        gnorm=np.linalg.norm(G, axis=1), steps=np.zeros(n, dtype=int),
        accepted=np.zeros(n, dtype=int),
        lyapunov_fails=np.zeros(n, dtype=int), plateau=np.zeros(n, dtype=int),
        v_plateau_start=V.copy(), just_rejected=np.zeros(n, dtype=bool),
        h_limit=np.full(n, np.inf), since_reject=np.zeros(n, dtype=int),
        **_row_config(cfg, n))
    live.h = _initial_step(np.linalg.norm(Y, axis=1), live.gnorm)

    def finish(kind: np.ndarray) -> None:
        # record the rows with a terminal kind and drop them from the batch
        nonlocal tables
        done = kind >= 0
        if not np.any(done):
            return
        r = live.row[done]
        out.points[r] = live.y[done]
        out.kinds[r] = kind[done]
        out.steps[r] = live.steps[done]
        out.times[r] = live.t[done]
        out.accepted[r] = live.accepted[done]
        for name, arr in vars(live).items():
            setattr(live, name, arr[~done])
        tables = take_rows(tables, ~done)   # per-row terms only

    finish(np.where(live.gnorm < live.stop_grad, _CONVERGED, -1))
    while live.row.size:
        finish(np.where((live.steps >= MAX_STEPS) | (live.t >= live.max_time),
                        _MAX_TIME, -1))
        m = live.row.size
        if m == 0:
            break
        y, h = live.y, np.minimum(live.h, live.max_time - live.t)
        km = np.empty((7, m, dim))
        km[0] = live.f
        flat = km.reshape(7, m * dim)
        for i in range(1, 6):
            yi = y + h[:, None] * (_DP_A[i] @ flat[:i]).reshape(m, dim)
            km[i] = -value_gradient_batch(tables, yi)[1]
        y5 = y + h[:, None] * (_DP_A[6] @ flat[:6]).reshape(m, dim)
        pv5, g5 = value_gradient_batch(tables, y5)
        km[6] = -g5
        y4 = y + h[:, None] * (_DP_B4 @ flat).reshape(m, dim)
        sc = tol.FLOW_ABS + tol.FLOW_REL * np.maximum(np.abs(y), np.abs(y5))
        err_norm = np.sqrt(np.mean(((y5 - y4) / sc) ** 2, axis=1))
        live.steps += 1
        v_new = np.einsum("ij,ij->i", pv5, pv5)
        accurate = err_norm <= 1.0
        lyapunov = accurate & (v_new > live.v + live.slack)
        ok = accurate & ~lyapunov
        rejected = ~accurate
        live.accepted += ok
        kind = np.full(m, -1)

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
        small = ok & (live.gnorm < live.stop_grad)
        long_plateau = ok & ~small & (live.plateau >= 25)
        flat_out = long_plateau & (live.v_plateau_start - v_new
                                   <= 0.01 * live.v_plateau_start)
        live.plateau = np.where(long_plateau, 0, live.plateau)
        kind[small | flat_out] = _CONVERGED

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
        finish(kind)
    return EnsembleResult(out.points, np.array(_TERMINAL_KINDS)[out.kinds], out.steps,
                          out.times, out.accepted, 6 * out.steps + 1)


def _polished_attractors(P: DAPolynomial, points) -> tuple[list[AlgebraElement], int]:
    """Newton-polish candidate points; keep clean, full-rank, distinct roots, sorted.

    Clean is relative to rounding: |P(x)| < NEWTON_RESIDUAL max(1, sum_k |a_k| |x|^k).
    The rank test reads the Jacobian Newton returns with its point.
    Returns the roots and the Newton iterations spent on every point.
    """
    norms = np.linalg.norm(P._rows, axis=1)[::-1]
    found: list[np.ndarray] = []
    iterations = 0
    for x in points:
        res = newton_polish(P, np.asarray(x, dtype=float))
        iterations += res.iterations
        scale = max(1.0, float(np.polyval(norms, np.linalg.norm(res.point))))
        if not res.residual < tol.NEWTON_RESIDUAL * scale:
            continue
        if numerical_rank(res.jacobian).rank < P.tag.dimension:
            continue
        if all(np.linalg.norm(res.point - q) > tol.ATTRACTOR_DEDUP for q in found):
            found.append(res.point)
    found.sort(key=lambda p: tuple(np.round(p, 9)))
    return [AlgebraElement(P.tag, p) for p in found], iterations


@dataclass(frozen=True)
class Search:
    """One polynomial's multistart search: its attractors and its rows' flow."""

    attractors: list[AlgebraElement]
    newton_iterations: int         # spent polishing the search's final points
    flow: EnsembleResult

    def effort(self) -> dict:
        """The flow's summed counters plus the Newton iterations."""
        return {**self.flow.effort(), "newton_iterations": self.newton_iterations}


# the search flow only delivers starts into Newton basins, so it stops early
SEARCH_FLOW = FlowConfig(stop_grad=1e-4, max_time=1e4)


def _one_per_poly(value, n: int, single: bool) -> list:
    if single:
        return [value] * n
    value = list(value)
    if len(value) != n:
        raise ValueError("need one entry per polynomial")
    return value


def attractors_from_starts(polys, starts,
                           cfg: FlowConfig | Sequence[FlowConfig] | None = None
                           ) -> list[Search]:
    """Flow each start to rest, Newton-polish, keep clean isolated roots.

    ``starts`` is one start set, shared by every polynomial of ``polys``
    (one algebra), or a sequence of start sets with one per polynomial;
    ``cfg`` is one ``FlowConfig`` or one per polynomial.  Every start of
    every polynomial flows in one ``integrate_ensemble`` pass; the final
    points are grouped by polynomial and each group is polished on its own.
    Returns one ``Search`` per polynomial.  The flow only needs to deliver
    each start into a Newton basin, so the default gradient stop
    (``SEARCH_FLOW``) is loose; the residual and full-rank filters on the
    polished points carry the actual guarantee.
    """
    polys = list(polys)
    n = len(polys)
    dim = polys[0].tag.dimension
    sets = _one_per_poly(starts, n, len(starts) == 0 or np.ndim(starts[0]) < 2)
    sets = [np.asarray(s, dtype=float).reshape(-1, dim) for s in sets]
    cfgs = _one_per_poly(cfg or SEARCH_FLOW, n, cfg is None or isinstance(cfg, FlowConfig))
    sizes = [len(s) for s in sets]

    def per_row(items) -> list:
        return [x for x, k in zip(items, sizes) for _ in range(k)]
    # a polynomial repeated on every row stacks into shared tables
    tables = per_row(polys) if sum(sizes) else polys[0]
    ens = integrate_ensemble(tables, np.concatenate(sets), per_row(cfgs))
    bounds = np.cumsum([0, *sizes])
    groups = [ens.rows(slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]
    return [Search(*_polished_attractors(P, g.points), flow=g) for P, g in zip(polys, groups)]


def gaussian_starts(tag: AlgebraTag, n_starts: int, seed: int) -> np.ndarray:
    """A multistart search's start set: normal coordinates of scale 1.5."""
    return np.random.default_rng(seed).normal(scale=1.5, size=(n_starts, tag.dimension))


def _located_attractors(P: DAPolynomial) -> list[AlgebraElement]:
    """Attractors without a flow: the polished isolated points of ``root_set``."""
    return _polished_attractors(P, [s.point.coords for s in root_set(P).strata
                                    if isinstance(s, IsolatedPoint)])[0]


def _first_sphere(D: Deformation) -> Sphere:
    for s in root_set(D.base).strata:
        if isinstance(s, Sphere):
            return s
    raise ValueError("deformation base has no sphere stratum")


def _family_frame(D: Deformation, P: DAPolynomial
                  ) -> tuple[list[AlgebraElement], Sphere, np.ndarray]:
    """The frame of P = D.at(eps) that collapse times and basins share.

    Returns the located attractors, the base sphere and the unit imaginary
    axis of the attractor the sphere collapses onto: the one whose distance
    from the sphere's center is closest to its radius.
    """
    attractors = _located_attractors(P)
    if not attractors:
        raise RuntimeError("no isolated attractors found")
    sphere = _first_sphere(D)
    center = np.zeros(P.tag.dimension)
    center[0] = sphere.re
    best = min(attractors,
               key=lambda a: abs(float(np.linalg.norm(a.coords - center))
                                 - sphere.radius))
    u = best.coords.copy()
    u[0] = 0.0
    n = np.linalg.norm(u)
    if n == 0.0:
        raise RuntimeError("attractor has no imaginary part; no axis defined")
    return attractors, sphere, u / n


@dataclass(frozen=True)
class CollapseSample:
    epsilon: float
    time: float
    censored: bool
    attractor: AlgebraElement | None
    start: np.ndarray
    stats: StepStats


# collapse runs are long (T ~ 1 / eps^2); one sample in 64 is archived
COLLAPSE_FLOW = FlowConfig(max_time=5e7, record_every=64)


def collapse_time(D: Deformation, eps: float, seed: int = 0) -> CollapseSample:
    """Time for a sphere start at geodesic angle pi/3 to reach an attractor.

    The start sits on the base sphere exactly pi/3 from the axis of the
    family frame (the axis the basin labels use, read from the located
    attractors), along a transverse imaginary direction drawn from the
    seed.  Collapse time is the time at which the trajectory crosses into
    ``STOP_RADIUS`` of an attractor, located on the capturing step's
    interpolant, so it does not depend on where the steps fall.  A run that
    no attractor captures is censored, whatever stopped it.  The run's
    limits are ``COLLAPSE_FLOW``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    P = D.at(eps)
    attractors, sphere, axis = _family_frame(D, P)
    # transverse unit imaginary direction, deterministic given the seed
    w = np.zeros_like(axis)
    w[1:] = np.random.default_rng(seed).normal(size=w.size - 1)
    w -= np.dot(w, axis) * axis
    w[0] = 0.0
    w /= np.linalg.norm(w)
    x0 = np.zeros(P.tag.dimension)
    x0[0] = sphere.re
    x0 += sphere.radius * (math.cos(math.pi / 3) * axis + math.sin(math.pi / 3) * w)
    traj = integrate(P, x0, COLLAPSE_FLOW, attractors=attractors)
    idx = traj.terminal.attractor_index
    att = attractors[idx] if idx is not None else None
    return CollapseSample(eps, traj.final_time, att is None, att, x0, traj.stats)


@dataclass(frozen=True)
class CollapseMeasurement:
    """Collapse times over epsilon, their fit, and each run's ``StepStats``."""

    epsilons: np.ndarray
    times: np.ndarray
    censored: np.ndarray
    fit_slope: float
    fit_intercept: float
    r_squared: float
    stats: tuple[StepStats, ...]   # each epsilon's integrator counters

    def effort(self) -> dict:
        """The per-epsilon integrator counters as lists; ``steps`` is
        ``accepted`` and ``rhs`` is ``rhs_evals``."""
        return {key: [getattr(st, name) for st in self.stats] for key, name in (
            ("steps", "accepted"), ("rhs", "rhs_evals"),
            *((name, name) for name in ("rejected", "lyapunov_rejections",
                                        "factorizations", "h_min", "h_max")))}


def _collapse_row(s: CollapseSample) -> tuple[float, float, bool, StepStats]:
    return s.epsilon, s.time, s.censored, s.stats


def _collapse_worker(payload) -> tuple[float, float, bool, StepStats]:
    dim, base_rows, dir_rows, eps, seed = payload
    tag = AlgebraTag(dim)
    D = Deformation(DAPolynomial.from_coords(tag, base_rows),
                    DAPolynomial.from_coords(tag, dir_rows))
    return _collapse_row(collapse_time(D, eps, seed=seed))


def measure_collapse(D: Deformation, epsilons, seed: int = 0,
                     workers: int | None = None) -> CollapseMeasurement:
    """Collapse times over an epsilon list plus the log-log fit.

    The per-epsilon runs are independent and deterministic given the seed,
    so they distribute over a process pool (slowest run first); results,
    each run's integrator counters included, merge in epsilon order
    regardless of completion order.
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
    _, times, censored, stats = zip(*(by_eps[float(e)] for e in eps))
    times, censored = np.array(times), np.array(censored)
    if np.any(censored):
        warnings.warn("censored collapse measurements excluded from fit")
    slope, intercept, r2 = scaling_fit(eps[~censored], times[~censored])
    return CollapseMeasurement(eps, times, censored, slope, intercept, r2, stats)


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


@dataclass(frozen=True)
class LabelStats:
    """Deterministic effort counters of one ``ensemble_labels`` run."""

    steps: int                     # lockstep steps
    gradient_calls: int            # stages summed over steps (the starts take one more)
    rejected: int                  # row-steps rejected by the error test
    stages_max: int                # most RKC stages in one step
    h_min: float                   # smallest and largest accepted row step
    h_max: float

    def effort(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    stats: LabelStats              # the labelling flow's effort

    def effort(self) -> dict:
        """The labelling flow's steps, batched gradient calls, rejections,
        largest stage count and accepted step range."""
        return self.stats.effort()


EQUATOR_BAND = 0.05
RKC_DAMPING = 2.0 / 13.0           # damping of the Chebyshev stability polynomial
RKC_MARGIN = 2.5 / 2.79            # h*lam kept this far inside the stability bound


@functools.lru_cache(maxsize=None)
def _rkc_stages(s: int) -> tuple[float, np.ndarray]:
    """Damped s-stage Runge-Kutta-Chebyshev coefficients, s >= 2.

    The stability polynomial is R_s(z) = a_s + b_s T_s(w0 + w1 z), with
    w0 = 1 + RKC_DAMPING / s^2 and w1 = T_s'(w0) / T_s''(w0), second order
    (Sommeijer, Shampine & Verwer 1997).  Returns the real stability bound
    beta = (1 + w0) / w1, |R_s| <= 1 on [-beta, 0], and one row
    (mu, nu, mu~, gamma~) per stage j = 1..s of the recurrence that
    ``_rkc_step`` runs; stage 1 reads only mu~.  Cached: one table per s.
    """
    w0 = 1.0 + RKC_DAMPING / s ** 2
    T, dT, ddT = np.zeros(s + 1), np.zeros(s + 1), np.zeros(s + 1)
    T[0], T[1], dT[1] = 1.0, w0, 1.0
    for j in range(2, s + 1):          # Chebyshev T_j and its derivatives at w0
        T[j] = 2.0 * w0 * T[j - 1] - T[j - 2]
        dT[j] = 2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2]
        ddT[j] = 4.0 * dT[j - 1] + 2.0 * w0 * ddT[j - 1] - ddT[j - 2]
    w1 = dT[s] / ddT[s]
    b = np.empty(s + 1)
    b[2:] = ddT[2:] / dT[2:] ** 2
    b[:2] = b[2]
    mu = 2.0 * w0 * b[2:] / b[1:-1]
    mu_t = 2.0 * w1 * b[2:] / b[1:-1]
    table = np.column_stack([
        np.r_[1.0, mu], np.r_[0.0, -b[2:] / b[:-2]], np.r_[b[1] * w1, mu_t],
        np.r_[0.0, -(1.0 - b[1:-1] * T[1:-1]) * mu_t]])
    table.setflags(write=False)         # shared by every caller through the cache
    return (1.0 + w0) / w1, table


def _rkc_step(flow, y, f0, h, table: np.ndarray):
    """One step h of y' = flow(y) on the stages of ``_rkc_stages``; f0 = flow(y).

    h is a scalar or a (rows, 1) column with one step per row.  Makes s - 1
    calls of ``flow``, so a step costs s evaluations with f0.
    """
    prev2, prev = y, y + (h * table[0, 2]) * f0
    for mu, nu, mu_t, gamma_t in table[1:]:
        prev2, prev = prev, ((1.0 - mu - nu) * y + mu * prev + nu * prev2
                             + (h * mu_t) * flow(prev) + (h * gamma_t) * f0)
    return prev


def _rkc_error(y0, y1, f0, f1, h):
    """Local error estimate of an RKC step h from y0 to y1, with the flow f0
    and f1 at its ends: (12 (y0 - y1) + 6 h (f0 + f1)) / 15, O(h^3)
    (Sommeijer, Shampine & Verwer 1997)."""
    return (12.0 * (y0 - y1) + 6.0 * h * (f0 + f1)) / 15.0


def ensemble_labels(P: DAPolynomial, starts: np.ndarray, attractors, max_time: float
                    ) -> tuple[np.ndarray, np.ndarray, float, LabelStats]:
    """Capture labels for a batch of starts, integrated in lockstep.

    Damped Runge-Kutta-Chebyshev with per-row error control on the rows not
    yet captured; a row leaves the batch as soon as it enters
    ``STOP_RADIUS`` of an attractor.  The flow's Jacobian -Hess V is
    symmetric, so its spectrum is real and the stepper needs only a long
    real stability interval.  Each row has its own step h and clock, and is
    accepted or rejected on its own by the embedded error estimate
    ``_rkc_error``, an RMS over ``tol.LABEL_ABS`` + ``tol.LABEL_REL`` max(|y|)
    at both ends of the step; F at the step's end comes from the batched
    call that starts the next step, so the estimate costs no evaluation.
    The controller is h <- h clip(0.8 err^(-1/3), 0.1, 5), with no growth
    right after a rejection; h starts at 0.5, cut to 5 / lam.  Here lam =
    max 2 sigma_max(J)^2 is the stiffest potential-Hessian eigenvalue at the
    attractors, and the stage count s of a step is the smallest whose
    stability bound, times ``RKC_MARGIN``, holds the largest h of the batch
    times lam.  So a row's stage count depends on the batch it rides in:
    one slow row with a long step gives every row that step's stages.  A
    step makes s batched gradient calls, the last with V.  Labels agree
    with per-trajectory adaptive integration and with the classical RK4
    loop this replaced (checked in tests) at a small fraction of the cost.
    A row whose error or V reads non-finite, or whose step underflows its
    clock, leaves the batch unlabelled with its last accepted state, so it
    does not hold the loop open; a non-finite row makes the largest rise
    NaN.  Raises ``ValueError`` without attractors.  Returns (labels, final
    points, largest V - V(start) at any accepted step of any row, the
    effort counters); -1 marks rows still free at max_time or dropped.
    """
    X = np.array(starts, dtype=float)
    att = _attractor_coords(attractors)
    if att is None:
        raise ValueError("ensemble_labels needs at least one attractor")
    sigma = np.linalg.norm(jacobian_coords(P, att), ord=2, axis=(-2, -1))
    lam = float(np.max(2.0 * sigma * sigma))

    def flow(Z):
        return -gradient_coords_batch(P, Z)
    labels = _capture_rows(X, att, STOP_RADIUS)
    row = np.flatnonzero(labels < 0)        # rows still running, in start order
    Y = X[row]
    pv, g = value_gradient_batch(P, Y)
    v0 = np.einsum("ij,ij->i", pv, pv)
    F = -g
    h = np.full((row.size, 1), min(0.5, 5.0 / lam))
    t = np.zeros(row.size)
    may_grow = np.ones(row.size, dtype=bool)    # False right after a rejection
    rise = 0.0
    steps = calls = rejected = stages_max = 0
    h_min, h_max = math.inf, 0.0
    while row.size:
        h = np.minimum(h, (max_time - t)[:, None])
        stages = 2
        while RKC_MARGIN * _rkc_stages(stages)[0] < float(h.max()) * lam:
            stages += 1
        Y1 = _rkc_step(flow, Y, F, h, _rkc_stages(stages)[1])
        pv, g = value_gradient_batch(P, Y1)
        F1 = -g
        v1 = np.einsum("ij,ij->i", pv, pv)
        steps += 1
        calls += stages
        stages_max = max(stages_max, stages)
        scale = tol.LABEL_ABS + tol.LABEL_REL * np.maximum(np.abs(Y), np.abs(Y1))
        err = np.sqrt(np.mean((_rkc_error(Y, Y1, F, F1, h) / scale) ** 2, axis=1))
        finite = np.isfinite(err) & np.isfinite(v1)
        ok = err <= 1.0
        rejected += int(np.count_nonzero(finite & ~ok))
        if not np.all(finite):
            rise = math.nan
        if np.any(ok):
            rise = float(np.maximum(rise, np.max(v1[ok] - v0[ok])))   # NaN stays NaN
            h_min = min(h_min, float(h[ok].min()))
            h_max = max(h_max, float(h[ok].max()))
        t = np.where(ok, t + h[:, 0], t)
        Y = np.where(ok[:, None], Y1, Y)
        F = np.where(ok[:, None], F1, F)
        with np.errstate(divide="ignore"):
            factor = np.clip(0.8 * err ** (-1.0 / 3.0), 0.1, 5.0)
        h = h * np.where(may_grow, factor, np.minimum(factor, 1.0))[:, None]
        may_grow = ok
        idx = _capture_rows(Y, att, STOP_RADIUS)
        hit = idx >= 0
        labels[row[hit]] = idx[hit]
        leave = (hit | ~finite | (t >= max_time)
                 | (h[:, 0] < 1e-14 * np.maximum(1.0, t)))
        X[row[leave]] = Y[leave]
        keep = ~leave
        row, Y, F, v0, h, t, may_grow = (
            row[keep], Y[keep], F[keep], v0[keep], h[keep], t[keep], may_grow[keep])
    X[row] = Y
    return labels, X, rise, LabelStats(steps, calls, rejected, stages_max,
                                       h_min if h_max else 0.0, h_max)


def _sphere_starts(D: Deformation, P: DAPolynomial, n_samples: int,
                   rng: np.random.Generator):
    """Attractors of P = D.at(eps), their axis, base-sphere starts, equator-band mask."""
    attractors, sphere, axis = _family_frame(D, P)
    X0 = np.stack([s.coords for s in sample_stratum(sphere, n_samples, rng)])
    unit = X0 / np.maximum(np.linalg.norm(X0, axis=1, keepdims=True), 1e-300)
    return attractors, axis, X0, np.abs(unit @ axis) <= EQUATOR_BAND


def basin_decomposition(D: Deformation, eps: float, n_samples: int,
                        seed: int = 0) -> BasinReport:
    """Label sphere starts by the attractor that captures them.

    ``max_rise`` is the deformation-retract evidence.  The labels come
    from ``ensemble_labels``, whose error control labels off-manifold starts
    as well (Gaussian sigma = 2 starts at eps = 0.3 as the adaptive flow
    does, in tests), so the sphere is not the only start set it serves.
    """
    P = D.at(eps)
    attractors, axis, X0, band = _sphere_starts(D, P, n_samples,
                                                np.random.default_rng(seed))
    labels, finals, max_rise, stats = ensemble_labels(
        P, X0, attractors, max_time=max(1e4, 400.0 / eps ** 2))
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
                       max_res, unconverged, max_rise, stats)


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
