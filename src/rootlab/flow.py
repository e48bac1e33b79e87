"""Gradient flow on the potential landscape and collapse measurements.

The flow x' = -grad ||P(x)||^2 is integrated with the potential enforced
to be non-increasing along accepted steps, on one method with two drivers:
the linearly implicit W-method ROS34PW2, whose step is set by accuracy
alone, not by the fast radial decay onto the root set.  Both drivers build
W^-1 = (I + 2 h g J^T J)^-1 from the J of the last accepted point with one
inverse per attempt, end a run whose step underflows its clock
(``_underflow``) and end a start whose V, gradient or J is non-finite at
once (``_finite``).  ``integrate`` follows one trajectory and keeps its
samples, and collapse times run on it.  It evaluates each point once: an
accepted step makes four kernel calls, and the J returned with the value
and gradient of the point it starts from builds its W; it controls its
error with ``tol.FLOW_REL`` and ``tol.FLOW_ABS``.  ``_lockstep`` steps a
whole start set in lockstep on the same tableau, controller and Lyapunov
rejection, with one step, clock, W and error test (``tol.LABEL_REL``,
``tol.LABEL_ABS``) per row: four batched kernel calls a step.  It runs
on one ``poly.stack_tables`` pair, so under one polynomial or one per
row, and each row leaves the batch on its own stop rule: capture by an
attractor (basin labels), a gradient stop or a time limit (search), or a
step that underflows its clock.  Multistart attractor search and basin
labels run on it: a search takes one start set and one stop test per
polynomial, and searches that differ in all three share one pass (c05's
12-start search on x^2 + ix + 1 and its 5-start quadratic searches); each
reports its rows' deterministic effort counters and the Newton
iterations of its polish.  A search stacks its rows' tables once, and its
flow and polish read them in one row order.  Every start and attractor
is a coordinate row, and attractors come back as read-only (k, d) rows.
Attractors are isolated full-rank roots, Newton-polished in one place:
multistart search gets its candidates from the flow, while collapse
times and basins start Newton from the isolated points of
``manifolds.root_set``, with no flow and no seed.  Collapse times and
basins read one frame of a deformation family, built in one place: those
attractors, the base sphere and the axis of the attractor the sphere
collapses onto.  On top of these: collapse-time measurement from a start
exactly pi/3 from that axis, the log-log scaling fit of collapse time
against perturbation size, basin decomposition of the initial sphere, and
restricted potential scans.
Basin labels (``ensemble_labels``) also report the largest rise of V
along any labelled trajectory, the evidence that the flow is a
deformation retract onto the attractors.
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import tolerances as tol
from .algebra import AlgebraTag
from .manifolds import (
    IsolatedPoint,
    Sphere,
    _rank_rule,
    root_set,
    sample_stratum,
)
from .poly import (
    DAPolynomial,
    Deformation,
    evaluate_coords,
    gradient_coords_batch,
    newton_polish_rows,
    potential_coords,
    stack_tables,
    take_rows,
    value_gradient_batch,
    value_gradient_fn,
)


STOP_RADIUS = 0.05                 # a trajectory this close to an attractor is captured
MAX_STEPS = 5_000_000              # step budget of one trajectory


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
    """Deterministic effort counters of one ``integrate`` run.

    Each attempt builds its W^-1 with one inverse, so the inverses number
    ``accepted + rejected + lyapunov_rejections``.
    """

    accepted: int                  # accepted steps
    rejected: int                  # steps rejected by the error test
    lyapunov_rejections: int       # accurate steps rejected for raising V
    rhs_evals: int                 # value-and-gradient evaluations
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
# one product per stage gives its argument offset and g C term, (A_i; g C_i),
# and one per step the update and the embedded error, (M; E)
_W_STAGES = [np.stack([_W_A[i, :i], _W_G * _W_C[i, :i]]) for i in range(4)]
_W_STEP = np.stack([_W_M, _W_E])


def integrate(P: DAPolynomial, x0, cfg: FlowConfig | None = None,
              attractors=None) -> Trajectory:
    """Integrate the gradient flow from x0 with the ROS34PW2 W-method.

    Each attempt inverts W = I + 2 h g J^T J once, with J the Jacobian of
    P at the last accepted point, as ``_lockstep`` does for each row.  Each
    point is evaluated once: the value-and-gradient closure returns J with
    P(x) and grad V(x), so an accepted step costs four kernel calls (three
    stages and its end point).  Each stage's argument offset and C term
    come from one product, as do the step's update and error estimate.  The
    first trial step is the tolerance-scaled estimate of ``_starting_step``,
    which the error test accepts from c08's starts.  On c08's eps = 0.01
    run an attempt costs about 50 us of CPU (2-core Xeon).
    ``x0`` is a coordinate row and ``attractors`` (k, d) coordinate rows,
    where None or an empty set captures nothing.
    Stops when the gradient norm drops below ``cfg.stop_grad``, at the
    crossing into ``STOP_RADIUS`` of one of the attractors (located on the
    step's Hermite interpolant), or at ``cfg.max_time``.
    Accepted steps keep the potential non-increasing (up to a relative
    slack); a trial whose V is above that or NaN is rejected.
    The run stalls, keeping its last accepted point, when a rejected step
    underflows its clock (``_underflow``, shared with ``_lockstep``), and at
    once from a start whose V, gradient or J is non-finite (``_finite``).
    """
    cfg = cfg or FlowConfig()
    y = np.array(x0, dtype=float)
    att = (np.asarray(attractors, dtype=float)
           if attractors is not None and len(attractors) else None)

    val_grad = value_gradient_fn(P)
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        pv, g, J = val_grad(y)
        f = -g
        v0 = float(pv @ pv)
        gnorm = math.sqrt(f @ f)
        jtj = J.T @ J
        idx = _capture_index(y, att, STOP_RADIUS)
    slack = tol.LYAPUNOV_SLACK_REL * max(v0, 1.0e-300)
    times = [t]
    points = [y.copy()]
    pots = [v0]
    v_prev = v0

    terminal = None
    if not _finite(v0, g, J):
        terminal = Terminal("stalled", None, "non-finite start")
    elif gnorm < cfg.stop_grad or idx is not None:
        terminal = Terminal("converged", idx, "stopped at start")
    else:
        h = float(_starting_step(y, f, jtj, tol.FLOW_ABS, tol.FLOW_REL))
    abs_y = np.abs(y)
    dim = y.size
    eye = np.eye(dim)
    u = np.zeros((4, dim))
    atol, rtol = tol.FLOW_ABS, tol.FLOW_REL
    steps = accepted = lyapunov_rejections = 0
    n_rhs = 1
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
        # ndarray.dot on these 4- and 8-vectors dispatches in about a
        # third of the time of @
        hg = h * _W_G
        w_inv = np.linalg.inv(eye + (2.0 * hg) * jtj)
        u[0] = w_inv.dot(hg * f)
        for i in range(1, 4):
            stage = _W_STAGES[i].dot(u[:i])
            u[i] = w_inv.dot(stage[1] - hg * val_grad(y + stage[0])[1])
        n_rhs += 3
        step = _W_STEP.dot(u)
        y_new = y + step[0]
        abs_new = np.abs(y_new)
        e = step[1] / (atol + rtol * np.maximum(abs_y, abs_new))
        err_norm = math.sqrt(e.dot(e) / dim)
        steps += 1
        if err_norm <= 1.0:
            pv_new, g_new, J_new = val_grad(y_new)
            n_rhs += 1
            v_new = float(pv_new.dot(pv_new))
        if not (err_norm <= 1.0 and v_new <= v_prev + slack):
            if err_norm <= 1.0:
                # accurate, but V rose or is NaN: halve h
                lyapunov_rejections += 1
                h *= 0.5
            else:
                h *= max(0.2, 0.9 * err_norm ** (-1 / 3))
            just_rejected = True
            if _underflow(h, t, y, f):
                terminal = Terminal("stalled", None, f"step underflow at t={t:.6g}")
            continue
        # plateau guard: on a convex quadratic, a step scaling each
        # Hessian eigendirection by R (exact flow: 0 < R < 1; this
        # method: R >= -0.131) drops V by at least (1 + R) / 2 of the
        # first-order drop f.dy; steps giving under a quarter of it
        # while V no longer moves are at the accuracy floor
        if v_prev - v_new < 0.25 * float(f.dot(y_new - y)):
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
            v_new = float(pv_new.dot(pv_new))
        t += dt
        y = y_new
        abs_y = abs_new                 # stale only after a capture, which ends the loop
        f = -g_new
        jtj = J_new.T.dot(J_new)
        v_prev = v_new
        if accepted % cfg.record_every == 0:
            times.append(t)
            points.append(y.copy())
            pots.append(v_new)
        gnorm = math.sqrt(f.dot(f))
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
    if times[-1] != t:
        times.append(t)
        points.append(y.copy())
        pots.append(v_prev)
    stats = StepStats(accepted, steps - accepted - lyapunov_rejections,
                      lyapunov_rejections, n_rhs, h_min if accepted else 0.0, h_max)
    return Trajectory(np.asarray(times), np.stack(points), np.asarray(pots), terminal,
                      stats)


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


def _starting_step(y, f, jtj, atol, rtol):
    """First trial step of both drivers, from the starting-step estimate of
    Hairer, Norsett & Wanner (Solving ODEs I, II.4); one point, or one
    step per row of a batch (``jtj`` then (n, d, d)).

    In the RMS norm of the error test, weighted by ``atol`` + ``rtol`` |y|:
    h0 = 0.01 |y| / |f|, and the step is
    min(100 h0, (0.01 / max(|f|, |y''|))^(1/3)), the exponent that of the
    embedded error, O(h^3).  |y''| = |Hess V f| is taken with the
    Gauss-Newton Hessian 2 J^T J (``jtj`` = J^T J) in place of the Euler
    probe of the original, so the estimate costs no gradient call.  The
    step shrinks with the tolerance, as the step the error test accepts
    does: from c08's starts it is about a seventh of that step, where a
    scale-free guess, 0.01 (1 + |y|) / |f|, was 35 to 75 times too large
    and cost three rejections.  An estimate that overflows leaves h0, and
    f = 0 gives 1e-6.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = atol + rtol * np.abs(y)
        d0 = np.sqrt(np.mean(np.square(y / scale), axis=-1))
        d1 = np.sqrt(np.mean(np.square(f / scale), axis=-1))
        h0 = np.where(np.minimum(d0, d1) < 1e-5, 1e-6, 0.01 * d0 / d1)
        y2 = 2.0 * (jtj @ f[..., None])[..., 0]
        d2 = np.sqrt(np.mean(np.square(y2 / scale), axis=-1))
        d12 = np.maximum(d1, d2)
        h1 = (0.01 / d12) ** (1 / 3)
        h = np.where(h1 > 0.0, np.minimum(100.0 * h0, h1), h0)
        return np.where(d12 <= 1e-15, np.maximum(1e-6, 1e-3 * h0), h)


def _underflow(h, t, y, f):
    """Whether a step h underflows its clock: h < 1e-14 max(t, |y| / |f|).

    The time scale |y| / |f| keeps the steps of a start far out, whose
    whole flow time is tiny.  Scalars and one vector, or one entry and row
    per row of a batch.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        clock = np.maximum(t, np.linalg.norm(y, axis=-1) / np.linalg.norm(f, axis=-1))
    return h < 1e-14 * clock


def _finite(v, g, J):
    """Whether V, the gradient and the Jacobian are all finite, for one
    point or for each row of a batch (the gradient's last axis, the
    Jacobian's last two)."""
    return np.isfinite(v) & np.isfinite(g).all(axis=-1) & np.isfinite(J).all(axis=(-2, -1))


ENDS = ("captured", "gradient", "time", "dropped")     # how a row leaves the ensemble
_CAPTURED, _GRADIENT, _TIME, _DROPPED = range(len(ENDS))
_CALLS_PER_STEP = 4                # three stages and the end point


@dataclass(frozen=True)
class EnsembleRows:
    """Outcome of ``_lockstep``, one entry per start row.

    The pass-wide counters of a row count the steps the pass made while
    the row rode in it, so those of a pass's longest row are the pass's own.
    """

    points: np.ndarray             # (n, d) last accepted states
    ends: np.ndarray               # how each row left the batch, an index into ENDS
    labels: np.ndarray             # capturing attractor, -1 where none
    steps: np.ndarray              # lockstep steps the row rode
    rejected: np.ndarray           # the row's trial steps rejected by the error test
    lyapunov_rejections: np.ndarray  # and for raising V
    h_min: np.ndarray              # the row's smallest and largest accepted step
    h_max: np.ndarray              # (inf and 0 before its first)
    rise: np.ndarray               # largest V - V(start) at an accepted step; NaN
                                   # for a non-finite start

    def rows(self, sel) -> "EnsembleRows":
        """The entries of the rows ``sel`` picks (an index, slice or mask)."""
        return EnsembleRows(*(getattr(self, f.name)[sel] for f in fields(self)))

    def effort(self) -> dict:
        """These rows' counters together: the steps and batched kernel calls
        (four a step; the starts take one more) the pass made while any of
        them rode, their error and Lyapunov rejections, their accepted step
        range and how many left by each of ``ENDS``."""
        steps = int(self.steps.max(initial=0))
        h_max = float(self.h_max.max(initial=0.0))
        counts = np.bincount(self.ends, minlength=len(ENDS))
        return {"steps": steps, "gradient_calls": _CALLS_PER_STEP * steps,
                "rejected": int(self.rejected.sum()),
                "lyapunov_rejections": int(self.lyapunov_rejections.sum()),
                "h_min": float(self.h_min.min()) if h_max else 0.0, "h_max": h_max,
                "ended": {end: int(c) for end, c in zip(ENDS, counts)}}


def _w_attempt(gradient, y, f, w_inv, hg):
    """One ROS34PW2 trial step of every row of y: (y1, the embedded error).

    ``gradient`` maps a batch of rows to grad V, f = -grad V(y), ``w_inv``
    holds each row's (I + 2 h g J^T J)^-1 and ``hg`` each row's h g as a
    column.  Three calls of ``gradient``, one per stage after the first.
    """
    m, dim = y.shape
    u = np.empty((4, m, dim))
    flat = u.reshape(4, m * dim)
    u[0] = np.einsum("mij,mj->mi", w_inv, hg * f)
    for i in range(1, 4):
        du, cu = (_W_STAGES[i] @ flat[:i]).reshape(2, m, dim)
        u[i] = np.einsum("mij,mj->mi", w_inv, cu - hg * gradient(y + du))
    dy, e = (_W_STEP @ flat).reshape(2, m, dim)
    return y + dy, e


def _lockstep(tables, starts, max_time, stop_grad=None, attractors=None) -> EnsembleRows:
    """Gradient flow from every row of ``starts`` in lockstep on ROS34PW2 steps.

    The W-method of ``integrate``, one row per start: the same tableau,
    first-step estimate (``_starting_step``, at the label tolerances),
    step controller and Lyapunov rejection, with each row's own h, clock,
    error test and W^-1 = (I + 2 h g J^T J)^-1, built from the J of the
    row's last accepted point by one batched inverse per attempt.  So no
    row's step depends on the rows it rides with.  The error test is
    an RMS over ``tol.LABEL_ABS`` + ``tol.LABEL_REL`` max(|y|) at both ends
    of the step.  An attempt makes three batched stage calls of
    ``gradient_coords_batch`` and one end-point call that returns P,
    grad V and J together; a trial whose error, V, gradient or J is
    non-finite is a rejection.  ``tables`` is a ``poly.stack_tables``
    pair in the row order of ``starts``: a shared term serves every row,
    and a per-row term holds one entry per start, which leaves the batch
    with its row (``poly.take_rows``), so many polynomials flow in one
    pass; a per-row term of another length is a ``ValueError``.

    A row leaves the batch, keeping its last accepted state, on the first
    of: capture within ``STOP_RADIUS`` of an attractor (with
    ``attractors``, (k, d) coordinate rows, also at its start), a gradient
    norm below its ``stop_grad`` (if given, also at its start), its
    ``max_time``, or a step that underflows its clock (``_underflow``,
    shared with ``integrate``).  A start whose V, gradient or J is non-finite
    (``_finite``, also shared) leaves at once.  ``max_time`` and
    ``stop_grad`` are scalars or one per row.
    """
    X = np.array(starts, dtype=float)
    n, dim = X.shape
    if any(r.ndim == 2 and len(r) != n for r in tables[0]):
        raise ValueError("need one polynomial per start row")
    att = None if attractors is None else np.asarray(attractors, dtype=float)
    labels = np.full(n, -1) if att is None else _capture_rows(X, att, STOP_RADIUS)
    out = SimpleNamespace(ends=np.full(n, _CAPTURED), steps=np.zeros(n, dtype=int),
                          rejected=np.zeros(n, dtype=int),
                          lyapunov_rejections=np.zeros(n, dtype=int),
                          h_min=np.full(n, np.inf), h_max=np.zeros(n), rise=np.zeros(n))
    row = np.flatnonzero(labels < 0)        # rows still running, in start order
    tables = take_rows(tables, row)
    Y = X[row]
    with np.errstate(over="ignore", invalid="ignore"):
        pv, g, J = value_gradient_batch(tables, Y)
        v = np.einsum("ij,ij->i", pv, pv)
        gn = 2.0 * J.swapaxes(1, 2) @ J
    finite = _finite(v, g, J)
    live = SimpleNamespace(
        row=row, y=Y, f=-g, gn=gn, v=v, v0=v, t=np.zeros(row.size),
        h=_starting_step(Y, -g, 0.5 * gn, tol.LABEL_ABS, tol.LABEL_REL),
        slack=tol.LYAPUNOV_SLACK_REL * np.maximum(v, 1.0e-300),
        just_rejected=np.zeros(row.size, dtype=bool),
        max_time=np.broadcast_to(max_time, n)[row], rejected=np.zeros(row.size, dtype=int),
        lyapunov_rejections=np.zeros(row.size, dtype=int),
        h_min=np.full(row.size, np.inf), h_max=np.zeros(row.size),
        rise=np.where(finite, 0.0, np.nan))
    if stop_grad is not None:
        live.stop_grad = np.broadcast_to(stop_grad, n)[row]
    steps = 0

    def leave(end: np.ndarray) -> None:
        # record the rows with an end and drop them from the batch
        nonlocal tables
        done = end >= 0
        if not np.any(done):
            return
        r = live.row[done]
        X[r] = live.y[done]
        out.ends[r] = end[done]
        out.steps[r] = steps
        for name in ("rejected", "lyapunov_rejections", "h_min", "h_max", "rise"):
            getattr(out, name)[r] = getattr(live, name)[done]
        keep = ~done
        for name, arr in vars(live).items():
            setattr(live, name, arr[keep])
        tables = take_rows(tables, keep)

    end = np.where(finite, -1, _DROPPED)
    if stop_grad is not None:
        end[finite & (np.linalg.norm(live.f, axis=1) < live.stop_grad)] = _GRADIENT
    leave(end)
    eye = np.eye(dim)
    while live.row.size:
        y, f = live.y, live.f
        h = np.minimum(live.h, live.max_time - live.t)
        hg = (h * _W_G)[:, None]
        w_inv = np.linalg.inv(eye + hg[:, :, None] * live.gn)
        with np.errstate(over="ignore", invalid="ignore"):
            y1, e = _w_attempt(lambda Z: gradient_coords_batch(tables, Z), y, f, w_inv, hg)
            pv, g1, J1 = value_gradient_batch(tables, y1)
            v1 = np.einsum("ij,ij->i", pv, pv)
            scale = tol.LABEL_ABS + tol.LABEL_REL * np.maximum(np.abs(y), np.abs(y1))
            err = np.sqrt(np.mean((e / scale) ** 2, axis=1))
            err = np.where(np.isfinite(err) & _finite(v1, g1, J1), err, np.inf)
            accurate = err <= 1.0
            lyapunov = accurate & (v1 > live.v + live.slack)
            ok = accurate & ~lyapunov
            live.rise = np.where(ok, np.maximum(live.rise, v1 - live.v0), live.rise)
            live.gn = np.where(ok[:, None, None], 2.0 * J1.swapaxes(1, 2) @ J1, live.gn)
        steps += 1
        live.rejected += ~accurate
        live.lyapunov_rejections += lyapunov
        live.h_min = np.where(ok, np.minimum(live.h_min, h), live.h_min)
        live.h_max = np.where(ok, np.maximum(live.h_max, h), live.h_max)
        live.t = np.where(ok, live.t + h, live.t)
        live.y = np.where(ok[:, None], y1, y)
        live.f = np.where(ok[:, None], -g1, f)
        live.v = np.where(ok, v1, live.v)
        # integrate's controller: a Lyapunov rejection halves h; otherwise
        # h <- h clip(0.9 err^(-1/3), 0.2, 5), with no growth right after a rejection
        with np.errstate(divide="ignore"):
            factor = 0.9 * err ** (-1.0 / 3.0)
        factor = np.where(live.just_rejected, np.minimum(factor, 1.0), factor)
        live.h = h * np.where(lyapunov, 0.5, np.clip(factor, 0.2, 5.0))
        live.just_rejected = ~ok
        end = np.where(live.t >= live.max_time, _TIME,
                       np.where(_underflow(live.h, live.t, live.y, live.f), _DROPPED, -1))
        if stop_grad is not None:
            end[ok & (np.linalg.norm(live.f, axis=1) < live.stop_grad)] = _GRADIENT
        if att is not None:
            idx = _capture_rows(live.y, att, STOP_RADIUS)
            hit = idx >= 0
            labels[live.row[hit]] = idx[hit]
            end[hit] = _CAPTURED
        leave(end)
    return EnsembleRows(X, out.ends, labels, out.steps, out.rejected,
                        out.lyapunov_rejections, out.h_min, out.h_max, out.rise)


def _polished_attractors(polys, tables, owner, points
                         ) -> tuple[list[np.ndarray], np.ndarray]:
    """Newton-polish candidate points; keep clean, full-rank, distinct roots, sorted.

    Row i of ``points`` is a candidate of ``polys[owner[i]]`` (one
    algebra), and ``tables`` is the ``poly.stack_tables`` pair of the rows'
    polynomials in that row order.  Every row is polished in one
    ``newton_polish_rows`` call on its own polynomial, and the rank test
    reads the Jacobians Newton returns with the points through one batched
    singular-value call and ``numerical_rank``'s rule.  Clean is relative
    to rounding: |P(x)| < NEWTON_RESIDUAL max(1, sum_k |a_k| |x|^k), the
    sum taken by Horner on the norms of the tables' coefficient rows.  The
    dedup and sort then run per polynomial, on its rows that pass both
    filters, in row order.  Returns each polynomial's roots, read-only
    (k, d) coordinate rows, and each row's Newton iterations.
    """
    dim = polys[0].tag.dimension
    X, residual, iterations, J = newton_polish_rows(tables, np.reshape(points, (-1, dim)))
    radius = np.linalg.norm(X, axis=1)
    bound = np.zeros(len(X))
    for row in reversed(tables[0]):
        bound = bound * radius + np.linalg.norm(row, axis=-1)
    keep = residual < tol.NEWTON_RESIDUAL * np.maximum(1.0, bound)
    if keep.any():
        rank, _ = _rank_rule(np.linalg.svd(J[keep], compute_uv=False))
        keep[keep] = rank == dim
    roots = []
    for i in range(len(polys)):
        found: list[np.ndarray] = []
        for x in X[keep & (owner == i)]:
            if all(np.linalg.norm(x - q) > tol.ATTRACTOR_DEDUP for q in found):
                found.append(x)
        found.sort(key=lambda p: tuple(np.round(p, 9)))
        rows = np.array(found).reshape(-1, dim)
        rows.flags.writeable = False
        roots.append(rows)
    return roots, iterations


@dataclass(frozen=True)
class Search:
    """One polynomial's multistart search: its attractors and its rows' flow."""

    attractors: np.ndarray         # (k, d) read-only coordinate rows
    newton_iterations: int         # spent polishing the search's final points
    flow: EnsembleRows             # the search's rows of the flow pass

    def effort(self) -> dict:
        """The rows' flow counters and ends plus the Newton iterations."""
        return {**self.flow.effort(), "newton_iterations": self.newton_iterations}


# the search flow only delivers starts into Newton basins, so it stops early
SEARCH_FLOW = FlowConfig(stop_grad=1e-4, max_time=1e4)


def attractors_from_starts(polys, starts, cfg: Sequence[FlowConfig] | None = None
                           ) -> list[Search]:
    """Flow each start to rest, Newton-polish, keep clean isolated roots.

    ``polys`` are over one algebra, and ``starts`` and ``cfg`` hold one
    entry per polynomial: a start set of coordinate rows (a single row is
    one start) and a ``FlowConfig``; ``cfg=None`` gives every polynomial
    ``SEARCH_FLOW``, and a length that is not one per polynomial is a
    ``ValueError``.  Every start of every polynomial flows in one
    ``_lockstep`` pass of the W-method, each row with its polynomial's
    gradient stop and time limit and its own step and error control at
    ``tol.LABEL_REL`` / ``tol.LABEL_ABS``.  Every
    final point, whatever ended its row, is then polished and filtered in
    one ``_polished_attractors`` pass, each on its own polynomial.  The
    rows' tables are stacked once (``poly.stack_tables``), and both passes
    read them in one row order, polynomial by polynomial.  Returns
    one ``Search`` per polynomial.  The flow only needs to deliver each
    start into a Newton basin, so the default gradient stop
    (``SEARCH_FLOW``) is loose; the residual and full-rank filters on the
    polished points carry the actual guarantee.
    """
    polys, starts = list(polys), list(starts)
    n = len(polys)
    cfgs = [SEARCH_FLOW] * n if cfg is None else list(cfg)
    if len(starts) != n or len(cfgs) != n:
        raise ValueError("need one start set and one FlowConfig per polynomial")
    dim = polys[0].tag.dimension
    sets = [np.asarray(s, dtype=float).reshape(-1, dim) for s in starts]
    sizes = [len(s) for s in sets]
    owner = np.repeat(np.arange(n), sizes)
    # a polynomial repeated on every row stacks into shared tables
    tables = stack_tables([polys[i] for i in owner] or polys[:1])
    rows = _lockstep(tables, np.concatenate(sets),
                     np.repeat([c.max_time for c in cfgs], sizes),
                     stop_grad=np.repeat([c.stop_grad for c in cfgs], sizes))
    roots, iterations = _polished_attractors(polys, tables, owner, rows.points)
    bounds = np.cumsum([0, *sizes])
    return [Search(found, int(iterations[a:b].sum()), rows.rows(slice(a, b)))
            for found, a, b in zip(roots, bounds[:-1], bounds[1:])]


def gaussian_starts(tag: AlgebraTag, n_starts: int, seed: int) -> np.ndarray:
    """A multistart search's start set: normal coordinates of scale 1.5."""
    return np.random.default_rng(seed).normal(scale=1.5, size=(n_starts, tag.dimension))


def _located_attractors(P: DAPolynomial) -> np.ndarray:
    """Attractors without a flow, as (k, d) rows: the polished isolated
    points of ``root_set``."""
    points = [s.point.coords for s in root_set(P).strata if isinstance(s, IsolatedPoint)]
    return _polished_attractors([P], stack_tables([P]), np.zeros(len(points), dtype=int),
                                points)[0][0]


def _first_sphere(D: Deformation) -> Sphere:
    for s in root_set(D.base).strata:
        if isinstance(s, Sphere):
            return s
    raise ValueError("deformation base has no sphere stratum")


def _family_frame(D: Deformation, P: DAPolynomial
                  ) -> tuple[np.ndarray, Sphere, np.ndarray]:
    """The frame of P = D.at(eps) that collapse times and basins share.

    Returns the located attractors as (k, d) rows, the base sphere and the
    unit imaginary axis of the attractor the sphere collapses onto: the one
    whose distance from the sphere's center is closest to its radius.
    """
    attractors = _located_attractors(P)
    if not len(attractors):
        raise ValueError("no isolated attractors found")
    sphere = _first_sphere(D)
    center = np.zeros(P.tag.dimension)
    center[0] = sphere.re
    best = min(attractors,
               key=lambda a: abs(float(np.linalg.norm(a - center)) - sphere.radius))
    u = best.copy()
    u[0] = 0.0
    n = np.linalg.norm(u)
    if n == 0.0:
        raise ValueError("attractor has no imaginary part; no axis defined")
    return attractors, sphere, u / n


@dataclass(frozen=True)
class CollapseSample:
    epsilon: float
    time: float
    censored: bool
    attractor: np.ndarray | None   # the capturing attractor's read-only row
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
                                        "h_min", "h_max")))}


def _collapse_worker(job) -> CollapseSample:
    """One pool job: the collapse sample of (deformation, eps, seed)."""
    D, eps, seed = job
    return collapse_time(D, eps, seed=seed)


def measure_collapse(D: Deformation, epsilons, seed: int = 0,
                     workers: int | None = None) -> CollapseMeasurement:
    """Collapse times over an epsilon list plus the log-log fit.

    Each epsilon's run is one ``integrate`` trajectory, with its W inverse,
    clock guard and non-finite rule.  The runs are independent and
    deterministic given the seed, so they distribute over a process pool
    (slowest run first), each worker handed the deformation, its epsilon
    and the seed; the pool returns the samples, each run's integrator
    counters included, in epsilon order whatever order they finish in.
    """
    eps = np.sort(np.asarray(list(epsilons), dtype=float))
    if np.any(eps <= 0):
        raise ValueError("epsilons must be positive")
    if workers is None:
        workers = min(eps.size, os.cpu_count() or 1)
    jobs = [(D, float(e), seed) for e in eps]      # ascending eps: slowest job first
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(_collapse_worker, jobs))
    else:
        samples = list(map(_collapse_worker, jobs))
    times = np.array([s.time for s in samples])
    censored = np.array([s.censored for s in samples])
    if np.any(censored):
        warnings.warn("censored collapse measurements excluded from fit")
    slope, intercept, r2 = scaling_fit(eps[~censored], times[~censored])
    return CollapseMeasurement(eps, times, censored, slope, intercept, r2,
                               tuple(s.stats for s in samples))


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
    attractors: np.ndarray         # (k, d) read-only coordinate rows
    axis: np.ndarray               # unit imaginary reference direction
    fractions: dict[int, float]
    band_mask: np.ndarray          # True where |axis component| <= band
    max_residual: float
    unconverged: list[int]
    max_rise: float                # largest V - V(start) along the labelled flow
    effort: dict                   # the labelling flow's ``EnsembleRows.effort()``


EQUATOR_BAND = 0.05


def ensemble_labels(P: DAPolynomial, starts: np.ndarray, attractors, max_time: float
                    ) -> tuple[np.ndarray, np.ndarray, float, dict]:
    """Capture labels for a batch of starts, integrated in lockstep.

    The rows flow on ``_lockstep``, the W-method of ``integrate`` with one
    step, clock and error test (``tol.LABEL_REL``, ``tol.LABEL_ABS``) per
    row, until an attractor captures them or ``max_time``.  Labels agree with
    per-trajectory adaptive integration and with a classical RK4 loop
    (checked in tests) at a small fraction of the cost.  A row
    whose step underflows its clock, by the guard ``integrate`` also uses,
    leaves the batch unlabelled with its last accepted state, so it does not
    hold the loop open; a non-finite start, by ``integrate``'s rule too,
    leaves at once, unlabelled, and makes the largest rise NaN.  Raises
    ``ValueError`` without attractors.  Returns (labels, final points,
    largest V - V(start) at any accepted step of any row, the rows'
    ``EnsembleRows.effort()``); -1 marks rows still free at max_time or
    dropped.  ``starts`` and ``attractors`` are coordinate rows.
    """
    if attractors is None or not len(attractors):
        raise ValueError("ensemble_labels needs at least one attractor")
    rows = _lockstep(stack_tables([P]), starts, max_time, attractors=attractors)
    return rows.labels, rows.points, float(np.max(rows.rise, initial=0.0)), rows.effort()


def _sphere_starts(D: Deformation, P: DAPolynomial, n_samples: int,
                   rng: np.random.Generator):
    """Attractors of P = D.at(eps), their axis, base-sphere starts, equator-band mask."""
    attractors, sphere, axis = _family_frame(D, P)
    X0 = sample_stratum(sphere, n_samples, rng)
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
    labels, finals, max_rise, effort = ensemble_labels(
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
                       max_res, unconverged, max_rise, effort)


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
    pts = sample_stratum(sphere, n_points, rng)
    f1 = potential_coords(D.at(eps), pts)
    if eps == 0.0:
        return RestrictedScan(pts, f1, np.full(n_points, np.nan),
                              pts[0], pts[0])
    f2 = potential_coords(D.at(2.0 * eps), pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = np.log2(f2 / f1)
    return RestrictedScan(pts, f1, expo,
                          pts[int(np.argmin(f1))], pts[int(np.argmax(f1))])
