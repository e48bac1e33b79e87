"""Polynomials with left coefficients over a division algebra.

A polynomial is a coefficient list indexed by exponent, evaluated as
``P(x) = sum_k a_k x^k`` with powers bracketed left-to-right (well defined
by power-associativity).  One batched kernel computes P, and on request the
gradient of the potential ``V(x) = ||P(x)||^2`` and the exact Jacobian, at
any leading batch shape, a single point included; the public value,
potential, gradient and Jacobian functions are thin entries into it.  On
top of evaluation the module provides right division by central monic
quadratics, localization of isolated roots into the coefficient
subalgebra, and Newton polishing of approximate roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .algebra import (
    AlgebraElement,
    AlgebraTag,
    _flat_left,
    _flat_right,
    _flat_right_plus_left,
    element,
    multiply,
    multiply_coords,
    real_element,
)


@dataclass(frozen=True)
class DAPolynomial:
    """Left-coefficient polynomial over a tagged algebra (index = exponent)."""

    tag: AlgebraTag
    coefficients: tuple[AlgebraElement, ...]

    # read-only tables of the kernel: coefficient rows and the stacked
    # matrices of v -> a_k v, transposed to act on row vectors
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _left_T: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = tuple(self.coefficients)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for c in coeffs:
            if c.tag != self.tag:
                raise ValueError("coefficient tag mismatch")
        # trim trailing zero coefficients so the leading one is nonzero
        last = len(coeffs) - 1
        while last > 0 and coeffs[last].is_zero():
            last -= 1
        coeffs = coeffs[: last + 1]
        dim = self.tag.dimension
        rows = np.stack([c.coords for c in coeffs])
        left_T = (rows @ _flat_left(dim)).reshape(-1, dim, dim)
        rows.flags.writeable = False
        left_T.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_left_T", left_T)

    @classmethod
    def from_coords(cls, tag: AlgebraTag, rows) -> "DAPolynomial":
        """Build from a list of coordinate lists (the JSON wire format)."""
        return cls(tag, tuple(element(tag, r) for r in rows))

    @classmethod
    def from_real(cls, tag: AlgebraTag, values) -> "DAPolynomial":
        return cls(tag, tuple(real_element(tag, float(v)) for v in values))

    def to_coords(self) -> list[list[float]]:
        return [list(map(float, c.coords)) for c in self.coefficients]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coefficients[0].is_zero()

    @property
    def is_central(self) -> bool:
        return all(np.all(c.coords[1:] == 0.0) for c in self.coefficients)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(k for k, c in enumerate(self.coefficients) if not c.is_zero())

    @property
    def lacunary_gcd(self) -> int:
        g = 0
        for k in self.exponents:
            g = math.gcd(g, k)
        return g

    def max_coeff_norm(self) -> float:
        return float(max(np.linalg.norm(c.coords) for c in self.coefficients))

    def scalar_add(self, other: "DAPolynomial", scale: float) -> "DAPolynomial":
        """self + scale * other, padding the shorter coefficient list."""
        if other.tag != self.tag:
            raise ValueError("algebra mismatch")
        n = max(len(self.coefficients), len(other.coefficients))
        zero = real_element(self.tag, 0.0)
        a = list(self.coefficients) + [zero] * (n - len(self.coefficients))
        b = list(other.coefficients) + [zero] * (n - len(other.coefficients))
        return DAPolynomial(self.tag, tuple(ai + scale * bi for ai, bi in zip(a, b)))

    def __repr__(self) -> str:
        return f"DAPolynomial({self.tag}, degree={self.degree})"


def _kernel(P: DAPolynomial, X: np.ndarray, grad: bool = False, jac: bool = False):
    """P(X), and on request grad V(X) and J(X), at raw points of shape (..., d).

    The one evaluation path of the module.  Powers are bracketed left to
    right, x^k = x^(k-1) x, so with R = right_matrix(x) and L = left_matrix
    the recursion for row vectors is xpow <- xpow R^T for the power and
    J_k^T <- J_k^T R^T + L(x^(k-1))^T for its derivative (J_1 = I,
    J_2 = R + L); the transposes are read off the flat structure tables, and
    P = sum_k a_k x^k, J = sum_k L(a_k) J_k.  Every step is one matmul over
    the batch, whose leading axes are flattened to one.  Returns
    (P, grad V or None, J or None); J of a polynomial of degree <= 1 is a
    read-only view.
    """
    X = np.asarray(X, dtype=float)
    shape = X.shape
    if X.ndim > 2:
        X = X.reshape(-1, shape[-1])
    dim = P.tag.dimension
    mat = X.shape + (dim,)              # (..., d, d)
    rows, left_T = P._rows, P._left_T
    deg = len(rows) - 1
    deriv = grad or jac
    if deg == 0:
        v = np.broadcast_to(rows[0], X.shape).copy()
        JT = np.zeros((dim, dim))
    else:
        v = rows[0] + X @ left_T[1]
        JT = left_T[1]                  # J^T = sum_k J_k^T L(a_k)^T
    if deg >= 2:
        rxT = (X @ _flat_right(dim)).reshape(mat)
        xpow = X
        for k in range(2, deg + 1):
            if deriv and k == 2:        # x^2 has derivative R(x) + L(x)
                JkT = (X @ _flat_right_plus_left(dim)).reshape(mat)
            elif deriv:
                JkT = JkT @ rxT + (xpow @ _flat_left(dim)).reshape(mat)
            xpow = (xpow[..., None, :] @ rxT)[..., 0, :]
            v = v + xpow @ left_T[k]
            if deriv:
                JT = JT + (JkT.reshape(-1, dim) @ left_T[k]).reshape(mat)
    g = 2.0 * (JT @ v[..., None])[..., 0] if grad else None
    J = None
    if jac:
        J = (JT if JT.ndim == len(mat) else np.broadcast_to(JT, mat)).swapaxes(-1, -2)
    if len(shape) > 2:
        v = v.reshape(shape)
        g = None if g is None else g.reshape(shape)
        J = None if J is None else J.reshape(shape + (dim,))
    return v, g, J


def evaluate_coords(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    """P at raw coordinate points, shape (..., d) -> (..., d)."""
    return _kernel(P, X)[0]


def potential_coords(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    v = evaluate_coords(P, X)
    return np.einsum("...k,...k->...", v, v)


def potential(P: DAPolynomial, x: AlgebraElement) -> float:
    """||P(x)||^2; non-negative, zero exactly at roots."""
    if x.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x.tag}")
    return float(potential_coords(P, x.coords))


def jacobian_coords(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    """Exact derivative of y -> P(y): shape (..., d) -> (..., d, d)."""
    return _kernel(P, X, jac=True)[2]


def gradient_coords_batch(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    """Potential gradient 2 J^T P(x) at raw points, shape (..., d) -> (..., d)."""
    return _kernel(P, X, grad=True)[1]


def value_gradient_batch(P: DAPolynomial, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(X) and grad V(X) at raw points, shape (..., d) -> two (..., d) arrays."""
    return _kernel(P, X, grad=True)[:2]


def value_gradient_fn(P: DAPolynomial):
    """x -> (P(x), grad V(x)) at single raw points, for integrator hot loops."""
    def fn(x: np.ndarray):
        return _kernel(P, x, True)[:2]
    return fn


@dataclass(frozen=True)
class CentralQuadratic:
    """Monic real quadratic x^2 - trace x + normterm."""

    trace: float
    normterm: float

    def __post_init__(self) -> None:
        if self.normterm < 0:
            raise ValueError("normterm must be non-negative")

    @classmethod
    def from_element(cls, x0: AlgebraElement) -> "CentralQuadratic":
        return cls(trace=2.0 * x0.real, normterm=x0.norm_sq())

    @property
    def discriminant(self) -> float:
        return self.trace * self.trace - 4.0 * self.normterm


def right_divide_central(
    P: DAPolynomial, M: CentralQuadratic
) -> tuple[DAPolynomial, AlgebraElement, AlgebraElement]:
    """Divide P by the central quadratic M: P = Q M + (A x + B).

    Because M is central the long division uses only real-scalar
    combinations of the coefficients of P, so Q, A and B stay inside the
    coefficient subalgebra and the reconstruction is exact to rounding.
    """
    zero = real_element(P.tag, 0.0)
    work = list(P.coefficients)
    n = len(work) - 1
    if n < 2:
        A = work[1] if n >= 1 else zero
        B = work[0]
        return DAPolynomial(P.tag, (zero,)), A, B
    q = [zero] * (n - 1)
    for k in range(n, 1, -1):
        qk = work[k]
        q[k - 2] = qk
        work[k - 1] = work[k - 1] + M.trace * qk
        work[k - 2] = work[k - 2] - M.normterm * qk
    return DAPolynomial(P.tag, tuple(q)), work[1], work[0]


def remainder_root(P: DAPolynomial, M: CentralQuadratic) -> AlgebraElement | None:
    """The one root of P on the sphere of M, or None when M divides P there.

    Divides P = Q M + (A x + B); on the sphere M = 0, so a root solves
    A x + B = 0 and is -A^-1 B.  A vanishing A (relative to the
    coefficients of P) leaves no linear equation to solve.
    """
    _, A, B = right_divide_central(P, M)
    if np.linalg.norm(A.coords) < tol.SPHERICAL_REMAINDER_REL * (1.0 + P.max_coeff_norm()):
        return None
    return multiply(-1.0 * A.inverse(), B)


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of dividing out the minimal quadratic of a root."""

    point: AlgebraElement | None
    is_spherical: bool


def localize_isolated_root(P: DAPolynomial, x0: AlgebraElement,
                           potential_tol: float = tol.LOCALIZE_ROOT_POTENTIAL
                           ) -> LocalizationResult:
    """Express an (approximate) isolated root through the coefficients of P.

    Builds the minimal central quadratic of x0 and solves the remainder of
    the division by it (``remainder_root``).  A vanishing remainder
    coefficient A certifies instead that the quadratic divides P, i.e. the
    whole sphere through x0 consists of roots.
    """
    if x0.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x0.tag}")
    v = potential(P, x0)
    if v >= potential_tol:
        raise ValueError(f"x0 is not an approximate root: potential {v:.3e}")
    point = remainder_root(P, CentralQuadratic.from_element(x0))
    return LocalizationResult(point, point is None)


def coefficient_subalgebra(P: DAPolynomial) -> tuple[int, list[AlgebraElement]]:
    """Smallest real subalgebra containing 1 and all coefficients.

    Closes the real span of {1, a_k} under multiplication until the
    dimension stabilizes; returns (dimension, orthonormal basis).
    """
    dim = P.tag.dimension
    rows = [np.eye(dim)[0]] + [c.coords for c in P.coefficients]
    basis = _orthonormal_rows(np.stack(rows))
    while True:
        products = [
            multiply_coords(dim, u, v) for u in basis for v in basis
        ]
        enlarged = _orthonormal_rows(np.vstack([basis, np.stack(products)]))
        if enlarged.shape[0] == basis.shape[0]:
            break
        basis = enlarged
    return basis.shape[0], [AlgebraElement(P.tag, b) for b in basis]


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, rows.shape[1]))
    rank = int(np.sum(s > tol.SUBALGEBRA_RANK_ABS * s[0]))
    return vt[:rank]


@dataclass(frozen=True)
class PolishResult:
    point: np.ndarray
    residual: float
    iterations: int


def newton_polish(P: DAPolynomial, x0, target: float = tol.NEWTON_RESIDUAL,
                  max_iter: int = tol.NEWTON_MAX_ITER) -> PolishResult:
    """Newton on the d-dimensional real system P(x) = 0.

    Uses least-squares steps so sphere points (singular Jacobian) are
    polished onto the root set instead of diverging.  ``iterations`` counts
    the steps taken.  Whether the point is clean is the caller's test.
    """
    x = np.array(x0.coords if isinstance(x0, AlgebraElement) else x0, dtype=float)
    v, _, J = _kernel(P, x, jac=True)
    residual = float(np.linalg.norm(v))
    it = 0
    while it < max_iter and residual >= target:
        step, *_ = np.linalg.lstsq(J, -v, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        # halve the step up to 20 times while it overshoots
        for _ in range(21):
            x_new = x + step
            v_new, _, J_new = _kernel(P, x_new, jac=True)
            r_new = float(np.linalg.norm(v_new))
            if r_new <= residual:
                break
            step *= 0.5
        if r_new >= residual and residual < 1e-12:
            break
        x, v, J, residual = x_new, v_new, J_new, r_new
        it += 1
    return PolishResult(x, residual, it)


@dataclass(frozen=True)
class Deformation:
    """Family base + epsilon * direction around a central base polynomial."""

    base: DAPolynomial
    direction: DAPolynomial

    def __post_init__(self) -> None:
        if self.base.tag != self.direction.tag:
            raise ValueError("base and direction must share an algebra")
        if not self.base.is_central:
            raise ValueError("deformation base must be central")

    def at(self, epsilon: float) -> DAPolynomial:
        return self.base.scalar_add(self.direction, float(epsilon))
