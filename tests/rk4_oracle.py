"""Fixed-step classical Runge-Kutta basin labels: the reference oracle.

This is the loop ``rootlab.flow.ensemble_labels`` ran before it became a
damped Runge-Kutta-Chebyshev stepper, kept verbatim.  Tests pin the
Chebyshev labels to it, as ``dp_oracle`` keeps the old Dormand-Prince loop.
"""

from __future__ import annotations

import numpy as np

from rootlab.flow import STOP_RADIUS, _capture_rows
from rootlab.poly import (
    DAPolynomial,
    gradient_coords_batch,
    jacobian_coords,
    value_gradient_batch,
)

RK4_STABLE = 2.5                   # cap on h*lam; RK4's real-axis bound is about 2.79


def ensemble_labels(P: DAPolynomial, starts: np.ndarray, attractors,
                    max_time: float = 1e5
                    ) -> tuple[np.ndarray, np.ndarray, float, float, int]:
    """Capture labels for a batch of starts, integrated in lockstep.

    Fixed-step classical Runge-Kutta on the rows not yet captured; a row
    leaves the batch as soon as it enters ``STOP_RADIUS`` of an attractor.
    The step is 0.25, cut to ``RK4_STABLE / lam`` where lam = max 2
    sigma_max(J)^2 is the stiffest potential-Hessian eigenvalue at the
    attractors, so the decay onto them stays inside RK4's real stability
    interval.  Returns (labels, final points, largest V - V(start) at any
    step of any row, the step h, the number of lockstep steps taken); -1
    marks rows still free at max_time.
    """
    X = np.array(starts, dtype=float)
    att = (np.asarray(attractors, dtype=float)
           if attractors is not None and len(attractors) else None)
    h = 0.25
    if att is not None:
        sigma = np.linalg.norm(jacobian_coords(P, att), ord=2, axis=(-2, -1))
        h = min(h, RK4_STABLE / float(np.max(2.0 * sigma * sigma)))
    labels = _capture_rows(X, att, STOP_RADIUS)
    row = np.flatnonzero(labels < 0)        # rows still running, in start order
    Y = X[row]
    t = 0.0
    rise = 0.0
    steps = 0
    while t < max_time and row.size:
        pv, g, _ = value_gradient_batch(P, Y)
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
        steps += 1
        idx = _capture_rows(Y, att, STOP_RADIUS)
        hit = idx >= 0
        labels[row[hit]] = idx[hit]
        X[row[hit]] = Y[hit]
        row, Y, v0 = row[~hit], Y[~hit], v0[~hit]
    X[row] = Y
    return labels, X, rise, h, steps
