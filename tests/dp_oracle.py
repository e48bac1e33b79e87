"""Dormand-Prince 5(4) single-trajectory integrator: the reference oracle.

This is the explicit loop ``rootlab.flow.integrate`` ran before it became a
linearly implicit W-method, kept verbatim.  Tests pin the W-method's
collapse times to it and pin ``integrate_ensemble``, which runs the same
Dormand-Prince stepper over a whole start set, to it row by row.  Its
terminal time is the end of the first accepted step inside the capture
radius; ``located_collapse_time`` moves that to the crossing on that step.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from rootlab import flow as fl
from rootlab import tolerances as tol
from rootlab.algebra import AlgebraElement
from rootlab.flow import (
    _DP_A,
    _DP_B4,
    FlowConfig,
    Terminal,
    Trajectory,
    _attractor_coords,
    _capture_index,
    _hermite_crossing,
    _initial_step,
)
from rootlab.poly import DAPolynomial, Deformation, value_gradient_fn


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
    att = _attractor_coords(attractors)

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
    a = _attractor_coords(seen["att"])[traj.terminal.attractor_index]
    theta, _ = _hermite_crossing(y0, -val_grad(y0)[1], y1, -val_grad(y1)[1],
                                 t1 - t0, a, seen["radius"])
    return float(t0 + theta * (t1 - t0))
