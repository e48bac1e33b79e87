"""Dormand-Prince 5(4) integrators: the reference oracles of the flow.

``integrate`` is the explicit loop ``rootlab.flow.integrate`` ran before it
became a linearly implicit W-method, kept verbatim.  Tests pin the
W-method's collapse times to it.  Its terminal time is the end of the first
accepted step inside the capture radius; ``located_collapse_time`` moves
that to the crossing on that step.  ``integrate_ensemble`` is the lockstep
ensemble the multistart search ran before it moved onto the
Runge-Kutta-Chebyshev ensemble and then the lockstep W-method, kept as it
ran (it drops the J its batched kernel calls return): the same stepper
over a whole start set, pinned to ``integrate`` row by row.  Tests take their
reference search end points and labels from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from types import SimpleNamespace

import numpy as np

from rootlab import flow as fl
from rootlab import tolerances as tol
from rootlab.algebra import AlgebraElement
from rootlab.flow import (
    FlowConfig,
    Terminal,
    Trajectory,
    _capture_index,
    _hermite_crossing,
)
from rootlab.poly import (
    DAPolynomial,
    Deformation,
    stack_tables,
    take_rows,
    value_gradient_batch,
    value_gradient_fn,
)


def _initial_step(y_norm, f_norm):
    """First trial step from |y| and |f|; scalars or per-row arrays."""
    f_norm = np.asarray(f_norm, dtype=float)
    with np.errstate(divide="ignore"):
        h = np.clip(0.01 * (1.0 + y_norm) / f_norm, 1e-10, 0.1)
    return np.where(f_norm == 0.0, 1e-6, h)


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


def integrate(P: DAPolynomial, x0, cfg: FlowConfig | None = None,
              attractors=None) -> Trajectory:
    """Integrate the gradient flow from x0.

    Stops when the gradient norm drops below ``cfg.stop_grad``, when the
    state enters ``STOP_RADIUS`` of one of the supplied attractors, or
    at ``cfg.max_time``.  Accepted steps keep the potential non-increasing
    (up to a relative slack); repeated failures report a stalled terminal.
    """
    cfg = cfg or FlowConfig()
    y = np.array(x0.coords if isinstance(x0, AlgebraElement) else x0, dtype=float)
    att = (np.asarray(attractors, dtype=float)
           if attractors is not None and len(attractors) else None)

    val_grad = value_gradient_fn(P)

    def rhs(v: np.ndarray) -> np.ndarray:
        return -val_grad(v)[1]

    t = 0.0
    pv, g = val_grad(y)[:2]
    f = -g
    v0 = float(pv @ pv)
    slack = tol.LYAPUNOV_SLACK_REL * max(v0, 1.0e-300)
    times = [t]
    points = [y.copy()]
    pots = [v0]
    v_prev = v0

    gnorm = float(np.linalg.norm(f))
    terminal = None
    idx = _capture_index(y, att, fl.STOP_RADIUS)
    if gnorm < cfg.stop_grad or idx is not None:
        terminal = Terminal("converged", idx, "stopped at start")
    h = float(_initial_step(np.linalg.norm(y), gnorm))
    n_stages = 7
    k = np.zeros((n_stages, y.size))
    steps = 0
    accepted = 0
    lyapunov_fails = 0
    plateau = 0
    v_plateau_start = v0
    just_rejected = False
    h_limit = np.inf                # stability limiter learned from rejections
    since_reject = 0
    while terminal is None:
        if steps >= fl.MAX_STEPS:
            terminal = Terminal("max_time", None, "step budget exhausted")
            break
        if t >= cfg.max_time:
            terminal = Terminal("max_time", None, "")
            break
        h = min(h, cfg.max_time - t)
        k[0] = f
        for i in range(1, n_stages - 1):
            yi = y + h * (_DP_A[i] @ k[:i])
            k[i] = rhs(yi)
        y5 = y + h * (_DP_A[6] @ k[:6])       # 5th-order solution (FSAL pair)
        pv_new, g_new = val_grad(y5)[:2]
        k[6] = -g_new
        y4 = y + h * (_DP_B4 @ k)
        err = y5 - y4
        sc = tol.FLOW_ABS + tol.FLOW_REL * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / sc) ** 2)))
        steps += 1
        if err_norm <= 1.0:
            v_new = float(pv_new @ pv_new)
            if v_new > v_prev + slack:
                # accuracy says fine but the Lyapunov property failed: shrink
                lyapunov_fails += 1
                h *= 0.5
                just_rejected = True
                if h < 1e-14 * max(1.0, t) or lyapunov_fails > 60:
                    terminal = Terminal("stalled", None,
                                        f"step underflow at t={t:.6g}")
                    break
                continue
            lyapunov_fails = 0
            # plateau guard: along the flow dV/dt = -|grad V|^2, so accepted
            # steps that stop delivering a fraction of h |g|^2 while V no
            # longer moves have hit the integrator's accuracy floor
            if v_prev - v_new < 0.25 * h * gnorm * gnorm:
                if plateau == 0:
                    v_plateau_start = v_prev
                plateau += 1
            else:
                plateau = 0
            t += h
            y = y5
            f = k[6]                           # FSAL: stage 7 is rhs(y5)
            v_prev = v_new
            accepted += 1
            if accepted % cfg.record_every == 0:
                times.append(t)
                points.append(y.copy())
                pots.append(v_new)
            gnorm = float(np.linalg.norm(f))
            idx = _capture_index(y, att, fl.STOP_RADIUS)
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
            grow = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
            if just_rejected:
                grow = min(grow, 1.0)
                just_rejected = False
            # two-rate limiter recovery: crawl near a live stability bound,
            # recover quickly once the stiff transient has passed
            since_reject += 1
            h_limit *= 1.05 if since_reject > 40 else 1.002
            h = min(h * min(5.0, max(0.2, grow)), h_limit)
        else:
            h_limit = 0.9 * h
            since_reject = 0
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            just_rejected = True
            if h < 1e-16:
                terminal = Terminal("stalled", None, "step underflow")
                break
    if times[-1] != t:
        times.append(t)
        points.append(y.copy())
        pots.append(v_prev)
    return Trajectory(np.asarray(times), np.stack(points), np.asarray(pots), terminal)


def located_collapse_time(D: Deformation, eps: float, seed: int) -> float:
    """``flow.collapse_time`` run on this oracle, its crossing located.

    The oracle records every accepted step, so the ends of the capturing
    step are its last two samples; the crossing is found on the same cubic
    Hermite interpolant the W-method uses.
    """
    seen = {}

    def run(P, x0, cfg, attractors):
        traj = integrate(P, x0, replace(cfg, record_every=1), attractors)
        seen.update(P=P, traj=traj, att=attractors, radius=fl.STOP_RADIUS)
        return traj

    flow_integrate, fl.integrate = fl.integrate, run
    try:
        fl.collapse_time(D, eps, seed=seed)
    finally:
        fl.integrate = flow_integrate
    traj = seen["traj"]
    assert traj.terminal.detail == "captured"
    val_grad = value_gradient_fn(seen["P"])
    (t0, t1), (y0, y1) = traj.times[-2:], traj.points[-2:]
    a = np.asarray(seen["att"], dtype=float)[traj.terminal.attractor_index]
    theta, _ = _hermite_crossing(y0, -val_grad(y0)[1], y1, -val_grad(y1)[1],
                                 t1 - t0, a, seen["radius"])
    return float(t0 + theta * (t1 - t0))


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
    tables = stack_tables([P] if shared else P)
    pv, G, _ = value_gradient_batch(tables, Y)
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
        finish(np.where((live.steps >= fl.MAX_STEPS) | (live.t >= live.max_time),
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
        pv5, g5, _ = value_gradient_batch(tables, y5)
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
