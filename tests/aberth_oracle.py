"""Aberth-Ehrlich on one polynomial: the reference oracle.

This is the one-polynomial ``_aberth_roots`` that ``rootlab.manifolds``
ran before its Aberth iteration took a stack of rows, kept verbatim.
Tests pin the batched iteration's roots and sweep counts to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from rootlab import tolerances as tol
from rootlab.manifolds import RootFindingError


def _aberth_roots(coeffs) -> tuple[np.ndarray, int]:
    """``aberth_roots`` and the number of Aberth corrections it applied."""
    c = np.asarray(coeffs, dtype=complex)
    if c.size == 0 or c[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    roots = np.zeros(c.size - 1, dtype=complex)
    c = c / c[-1]
    # roots at zero split off exactly
    n_zero = 0
    while c[n_zero] == 0:
        n_zero += 1
    c = c[n_zero:]
    n = c.size - 1
    if n == 0:
        return roots, 0
    cabs = np.abs(c)
    center = -c[n - 1] / n
    radius = 1.0 + float(np.max(np.abs(c[:-1])))
    angles = 2.0 * np.pi * (np.arange(n) + 0.5) / n + 0.4
    z = center + radius * np.exp(1j * angles)
    dc = c[1:] * np.arange(1, n + 1)
    for sweeps in range(tol.ABERTH_MAX_SWEEPS):
        p = np.polyval(c[::-1], z)
        # backward-style criterion: residual relative to sum |c_k| |z|^k,
        # the only target reachable in floating point for large roots
        bound = np.polyval(cabs[::-1], np.abs(z))
        if np.max(np.abs(p) / bound) < tol.ABERTH_RESIDUAL:
            break
        dp = np.polyval(dc[::-1], z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        z = z - w / denom
    else:
        worst = float(np.max(np.abs(np.polyval(c[::-1], z))
                             / np.polyval(cabs[::-1], np.abs(z))))
        raise RootFindingError(
            f"no convergence after {tol.ABERTH_MAX_SWEEPS} sweeps; "
            f"worst relative residual {worst:.3e}"
        )
    # Newton sweeps tighten well-separated roots to machine precision
    for _ in range(3):
        p = np.polyval(c[::-1], z)
        dp = np.polyval(dc[::-1], z)
        step = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0)
        z_new = z - step
        improved = np.abs(np.polyval(c[::-1], z_new)) <= np.abs(p)
        z = np.where(improved, z_new, z)
    roots[n_zero:] = z
    return roots, sweeps
