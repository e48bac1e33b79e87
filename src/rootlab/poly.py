"""Polynomials with left coefficients over a division algebra.

A polynomial is a coefficient list indexed by exponent, evaluated as
``P(x) = sum_k a_k x^k`` with powers bracketed left-to-right (well defined
by power-associativity).  On top of evaluation the module provides the
potential ``V(x) = ||P(x)||^2`` with its exact gradient and Jacobian, right
division by central monic quadratics, localization of isolated roots into
the coefficient subalgebra, and Newton polishing of approximate roots.
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
    element,
    left_matrix,
    left_matrix_fast,
    multiply,
    multiply_coords,
    real_element,
    right_matrix,
    right_matrix_fast,
)


@dataclass
class DAPolynomial:
    """Left-coefficient polynomial over a tagged algebra (index = exponent)."""

    tag: AlgebraTag
    coefficients: tuple[AlgebraElement, ...]

    _coeff_rows: np.ndarray | None = field(default=None, repr=False, compare=False)
    _left_mats: np.ndarray | None = field(default=None, repr=False, compare=False)
    _fast_eval: object = field(default=None, repr=False, compare=False)

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
        object.__setattr__(self, "coefficients", coeffs[: last + 1])

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

    def coeff_rows(self) -> np.ndarray:
        if self._coeff_rows is None:
            rows = np.stack([c.coords for c in self.coefficients])
            object.__setattr__(self, "_coeff_rows", rows)
        return self._coeff_rows

    def left_mats(self) -> np.ndarray:
        # stacked matrices of v -> a_k v, one slice per coefficient
        if self._left_mats is None:
            dim = self.tag.dimension
            mats = np.stack([left_matrix(dim, c.coords) for c in self.coefficients])
            object.__setattr__(self, "_left_mats", mats)
        return self._left_mats

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


def evaluate_coords(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    """P at a batch of raw coordinate points (leading axes broadcast)."""
    dim = P.tag.dimension
    X = np.asarray(X, dtype=float)
    rows = P.coeff_rows()
    mats = P.left_mats()
    out = np.broadcast_to(rows[0], X.shape).copy()
    if P.degree == 0:
        return out
    xpow = X
    out = out + xpow @ mats[1].T
    for k in range(2, P.degree + 1):
        xpow = multiply_coords(dim, xpow, X)
        out = out + xpow @ mats[k].T
    return out


def evaluate(P: DAPolynomial, x: AlgebraElement) -> AlgebraElement:
    """Value of P at x; tags must match."""
    if x.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x.tag}")
    return AlgebraElement(P.tag, evaluate_coords(P, x.coords))


def potential_coords(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    v = evaluate_coords(P, X)
    return np.sum(v * v, axis=-1)


def potential(P: DAPolynomial, x: AlgebraElement) -> float:
    """||P(x)||^2; non-negative, zero exactly at roots."""
    if x.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x.tag}")
    return float(potential_coords(P, x.coords))


def jacobian_coords(P: DAPolynomial, x: np.ndarray) -> np.ndarray:
    """Exact derivative of y -> P(y) at x as a d x d real matrix.

    Columns are directional derivatives along the basis; powers are
    differentiated by the product rule over the fixed left bracketing.
    """
    dim = P.tag.dimension
    x = np.asarray(x, dtype=float)
    mats = P.left_mats()
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


def jacobian(P: DAPolynomial, x: AlgebraElement) -> np.ndarray:
    if x.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x.tag}")
    return jacobian_coords(P, x.coords)


def gradient_coords(P: DAPolynomial, x: np.ndarray) -> np.ndarray:
    """Gradient of the potential at raw coordinates: 2 J^T P(x)."""
    v = evaluate_coords(P, x)
    J = jacobian_coords(P, x)
    return 2.0 * (J.T @ v)


def gradient_coords_batch(P: DAPolynomial, X: np.ndarray) -> np.ndarray:
    """Potential gradient at a batch of points, shape (n, d) -> (n, d)."""
    return value_gradient_batch(P, X)[1]


def value_gradient_batch(P: DAPolynomial, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(X) and grad V(X) at a batch of raw points, (n, d) -> two (n, d) arrays.

    The recursion of ``value_gradient_fn`` transposed for row vectors, so
    every step is one stacked matmul over the batch.  With R = right_matrix(x)
    and L = left_matrix, x^k = x^(k-1) x reads xpow <- xpow R^T and the power
    derivative J_k^T <- J_k^T R^T + L(x^(k-1))^T; both transposes are read
    off the flat structure tables.  Agrees with evaluate_coords /
    gradient_coords to rounding.
    """
    dim = P.tag.dimension
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    rows = P.coeff_rows()
    mats = P.left_mats()
    if P.degree == 0:
        return np.broadcast_to(rows[0], X.shape).copy(), np.zeros_like(X)
    v = rows[0] + X @ mats[1].T
    JT = mats[1].T                  # J^T = sum_k J_k^T M_k^T, stacked from k = 2
    if P.degree >= 2:
        flat_left = _flat_left(dim)
        rxT = (X @ _flat_right(dim)).reshape(n, dim, dim)
        JkT = rxT + (X @ flat_left).reshape(n, dim, dim)   # derivative of x^2
        xpow = X
        for k in range(2, P.degree + 1):
            if k > 2:
                JkT = JkT @ rxT + (xpow @ flat_left).reshape(n, dim, dim)
            xpow = (xpow[:, None, :] @ rxT)[:, 0]
            v = v + xpow @ mats[k].T
            JT = JT + (JkT.reshape(n * dim, dim) @ mats[k].T).reshape(n, dim, dim)
    return v, 2.0 * (JT @ v[:, :, None])[:, :, 0]


def gradient_potential(P: DAPolynomial, x: AlgebraElement) -> np.ndarray:
    if x.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x.tag}")
    return gradient_coords(P, x.coords)


def value_gradient_fn(P: DAPolynomial):
    """Compiled x -> (P(x), grad V(x)) for single raw points.

    Binds the coefficient matrices once; the per-call work is a handful of
    small BLAS products.  Agrees with evaluate_coords / gradient_coords to
    rounding and exists purely for integrator hot loops.
    """
    if P._fast_eval is not None:
        return P._fast_eval
    dim = P.tag.dimension
    rows = P.coeff_rows()
    mats = P.left_mats()
    deg = P.degree
    a0 = rows[0].copy()
    zero_grad = np.zeros(dim)

    if deg == 0:
        def fn0(x: np.ndarray):
            return a0, zero_grad
        object.__setattr__(P, "_fast_eval", fn0)
        return fn0

    # left bracketing means x^k = x^(k-1) x, i.e. right-multiplication by x
    def fn(x: np.ndarray):
        v = a0 + mats[1] @ x
        J = mats[1]
        if deg >= 2:
            rx = right_matrix_fast(dim, x)
            Jk = rx + left_matrix_fast(dim, x)     # derivative of x^2
            xpow = rx @ x
            v = v + mats[2] @ xpow
            J = J + mats[2] @ Jk
            for k in range(3, deg + 1):
                Jk = rx @ Jk + left_matrix_fast(dim, xpow)
                xpow = rx @ xpow
                v = v + mats[k] @ xpow
                J = J + mats[k] @ Jk
        return v, 2.0 * (J.T @ v)

    object.__setattr__(P, "_fast_eval", fn)
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

    def as_polynomial(self, tag: AlgebraTag) -> DAPolynomial:
        return DAPolynomial.from_real(tag, [self.normterm, -self.trace, 1.0])


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


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of dividing out the minimal quadratic of a root."""

    point: AlgebraElement | None
    is_spherical: bool
    remainder_a: AlgebraElement
    remainder_b: AlgebraElement

    @property
    def found_point(self) -> bool:
        return self.point is not None


def localize_isolated_root(P: DAPolynomial, x0: AlgebraElement,
                           potential_tol: float = tol.LOCALIZE_ROOT_POTENTIAL
                           ) -> LocalizationResult:
    """Express an (approximate) isolated root through the coefficients of P.

    Builds the minimal central quadratic of x0, divides, and solves the
    linear remainder: the returned point is -A^-1 B.  A vanishing remainder
    coefficient A certifies instead that the quadratic divides P, i.e. the
    whole sphere through x0 consists of roots.
    """
    if x0.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x0.tag}")
    v = potential(P, x0)
    if v >= potential_tol:
        raise ValueError(f"x0 is not an approximate root: potential {v:.3e}")
    M = CentralQuadratic.from_element(x0)
    _, A, B = right_divide_central(P, M)
    threshold = tol.SPHERICAL_REMAINDER_REL * (1.0 + P.max_coeff_norm())
    if np.linalg.norm(A.coords) < threshold:
        return LocalizationResult(None, True, A, B)
    point = multiply(-1.0 * A.inverse(), B)
    return LocalizationResult(point, False, A, B)


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
    converged: bool
    iterations: int


def newton_polish(P: DAPolynomial, x0, target: float = tol.NEWTON_RESIDUAL,
                  max_iter: int = tol.NEWTON_MAX_ITER) -> PolishResult:
    """Newton on the d-dimensional real system P(x) = 0.

    Uses least-squares steps so sphere points (singular Jacobian) are
    polished onto the root set instead of diverging.
    """
    x = np.array(x0.coords if isinstance(x0, AlgebraElement) else x0, dtype=float)
    residual = float(np.linalg.norm(evaluate_coords(P, x)))
    for it in range(max_iter):
        if residual < target:
            return PolishResult(x, residual, True, it)
        J = jacobian_coords(P, x)
        v = evaluate_coords(P, x)
        step, *_ = np.linalg.lstsq(J, -v, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        x_new = x + step
        r_new = float(np.linalg.norm(evaluate_coords(P, x_new)))
        # damp if the full step overshoots
        shrink = 0
        while r_new > residual and shrink < 20:
            step *= 0.5
            x_new = x + step
            r_new = float(np.linalg.norm(evaluate_coords(P, x_new)))
            shrink += 1
        if r_new >= residual and residual < 1e-12:
            break
        x, residual = x_new, r_new
    return PolishResult(x, residual, residual < target, max_iter)


@dataclass(frozen=True)
class Deformation:
    """Family base + epsilon * direction around a central base polynomial."""

    base: DAPolynomial
    direction: DAPolynomial
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.base.tag != self.direction.tag:
            raise ValueError("base and direction must share an algebra")
        if not self.base.is_central:
            raise ValueError("deformation base must be central")

    def at(self, epsilon: float | None = None) -> DAPolynomial:
        eps = self.epsilon if epsilon is None else float(epsilon)
        return self.base.scalar_add(self.direction, eps)
