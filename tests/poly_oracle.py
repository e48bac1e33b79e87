"""Polynomial value, Jacobian and potential gradient: the reference oracle.

These are the per-power ``einsum`` evaluation and the product-rule Jacobian
that ``rootlab.poly`` ran before its single batched kernel, kept verbatim
apart from building the coefficient tables here from the coefficients.
Tests pin every public value, gradient and Jacobian entry of ``poly`` to
them.
"""

from __future__ import annotations

import numpy as np

from rootlab.algebra import left_matrix, multiply_coords, right_matrix
from rootlab.poly import DAPolynomial


def _tables(P: DAPolynomial) -> tuple[np.ndarray, np.ndarray]:
    # coefficient rows and the stacked matrices of v -> a_k v
    dim = P.tag.dimension
    rows = np.stack([c.coords for c in P.coefficients])
    mats = np.stack([left_matrix(dim, c.coords) for c in P.coefficients])
    return rows, mats


def evaluate_coords(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    """P at a batch of raw coordinate points (leading axes broadcast)."""
    dim = P.tag.dimension
    X = np.asarray(X, dtype=float)
    rows, mats = _tables(P)
    out = np.broadcast_to(rows[0], X.shape).copy()
    if P.degree == 0:
        return out
    xpow = X
    out = out + xpow @ mats[1].T
    for k in range(2, P.degree + 1):
        xpow = multiply_coords(dim, xpow, X)
        out = out + xpow @ mats[k].T
    return out


def jacobian_coords(P: DAPolynomial, x: np.ndarray) -> np.ndarray:
    """Exact derivative of y -> P(y) at x as a d x d real matrix.

    Columns are directional derivatives along the basis; powers are
    differentiated by the product rule over the fixed left bracketing.
    """
    dim = P.tag.dimension
    x = np.asarray(x, dtype=float)
    _, mats = _tables(P)
    J = np.zeros((dim, dim))
    if P.degree == 0:
        return J
    Jk = np.eye(dim)          # derivative of x^1
    J = J + mats[1] @ Jk
    if P.degree >= 2:
        Rx = right_matrix(dim, x)
        xpow = x               # x^(k-1) while building J_k
        for k in range(2, P.degree + 1):
            Jk = Rx @ Jk + left_matrix(dim, xpow)
            J = J + mats[k] @ Jk
            if k < P.degree:
                xpow = multiply_coords(dim, xpow, x)
    return J


def gradient_coords(P: DAPolynomial, x: np.ndarray) -> np.ndarray:
    """Gradient of the potential at raw coordinates: 2 J^T P(x)."""
    v = evaluate_coords(P, x)
    J = jacobian_coords(P, x)
    return 2.0 * (J.T @ v)
