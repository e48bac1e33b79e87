"""Polynomials with left coefficients over a division algebra.

A polynomial is a coefficient list indexed by exponent, evaluated as
``P(x) = sum_k a_k x^k`` with powers bracketed left-to-right (well defined
by power-associativity).  One batched kernel computes P, and on request the
gradient of the potential ``V(x) = ||P(x)||^2`` and the exact Jacobian, at
any leading batch shape, a single point included, for one polynomial or
for a stack of them with one per batch row.  Both come in one table form,
the pair ``stack_tables`` returns, in which a term equal on every row
keeps one shared table; a polynomial's own tables are that pair with
every term shared.  The public value, potential, gradient and Jacobian
functions are thin entries into the kernel.  Every polynomial of degree
>= 2 carries one quadratic table S_2 (d x d^2), built with it: the
Jacobian of a_2 x^2 is linear in x, so one product gives it, and one more
gives a_2 x^2 = 1/2 J_2 x (Euler's identity).  On top of evaluation the
module provides right division by central monic quadratics, localization
of isolated roots into the coefficient subalgebra, and Newton polishing of
approximate roots, every row of a batch at once on its own polynomial.
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
    conjugate_coords,
    element,
    multiply_coords,
    real_element,
)


@dataclass(frozen=True)
class DAPolynomial:
    """Left-coefficient polynomial over a tagged algebra (index = exponent).

    ``_rows`` holds the coefficient rows, (K + 1, d), and ``_tables`` the
    kernel's tables in the form ``stack_tables`` returns, every term
    shared: one coefficient row per term, and one matrix per term k >= 1,
    the transposed matrix of v -> a_k v but for k = 2, whose matrix is the
    (d, d^2) table S_2 of the quadratic term's Jacobian,
    J(a_2 x^2)^T = (x @ S_2).reshape(d, d).  Term 0 has no matrix (None).
    Every array is read-only.
    """

    tag: AlgebraTag
    coefficients: tuple[AlgebraElement, ...]

    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _tables: tuple = field(init=False, repr=False, compare=False)

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
        rows.flags.writeable = False
        left_T = (rows @ _flat_left(dim)).reshape(-1, dim, dim)
        left_T.flags.writeable = False
        mats = [None, *left_T[1:]]
        if len(coeffs) > 2:
            mats[2] = (_flat_right_plus_left(dim).reshape(dim, dim, dim)
                       @ left_T[2]).reshape(dim, dim * dim)
            mats[2].flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_tables", (tuple(rows), tuple(mats)))

    @classmethod
    def from_coords(cls, tag: AlgebraTag, rows) -> "DAPolynomial":
        """Build from a list of coordinate lists (the JSON wire format)."""
        return cls(tag, tuple(element(tag, r) for r in rows))

    @classmethod
    def from_real(cls, tag: AlgebraTag, values) -> "DAPolynomial":
        return cls(tag, tuple(real_element(tag, float(v)) for v in values))

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


def embed(P: DAPolynomial, tag: AlgebraTag) -> DAPolynomial:
    """P over the wider algebra ``tag``: the same coefficients, zero-padded.

    The doubling rule keeps each algebra in the leading coordinates of the
    next (R in C in H in O), so on those points the embedding is P.
    """
    dim = P.tag.dimension
    if tag.dimension < dim:
        raise ValueError(f"cannot embed a polynomial over {P.tag} into {tag}")
    if tag == P.tag:
        return P
    rows = np.zeros((len(P._rows), tag.dimension))
    rows[:, :dim] = P._rows
    return DAPolynomial.from_coords(tag, rows)


def stack_tables(polys) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray | None, ...]]:
    """The kernel tables of polynomials over one algebra, one per batch row.

    The one table form of the module, the form ``DAPolynomial._tables``
    holds: one coefficient row per term k, zero-padded to the largest
    degree K, and one matrix per term k >= 1, the matrix of v -> a_k v,
    transposed, but for k = 2 the quadratic table S_2 (d, d^2) of
    ``DAPolynomial``; term 0 has None.  A term whose coefficient is equal
    on every entry (compared by value) keeps the first entry's own row and
    matrix, a (d,) row and a (d, d) or (d, d^2) matrix, shared by the whole
    batch; any other term holds one per entry, (n, d) and (n, d, d) or
    (n, d, d^2).  So ``stack_tables([P])`` returns P's own arrays.  Every
    public evaluation entry takes this pair in place of a polynomial and
    evaluates entry i of it at batch row i.  One polynomial repeated stacks
    all shared and gives its own bits; a per-row term gives the bits of the
    shared product when each of its coefficients is a real multiple of one
    basis unit (every product is then one exact term), and agrees to
    rounding otherwise.
    """
    polys = list(polys)
    tag = polys[0].tag
    if any(p.tag != tag for p in polys):
        raise ValueError("stacked polynomials must share an algebra")
    dim = tag.dimension
    terms = max(len(p._rows) for p in polys)
    rows = np.zeros((len(polys), terms, dim))
    for i, p in enumerate(polys):
        rows[i, : len(p._rows)] = p._rows

    def term(p, k):
        if k < len(p._rows):
            return p._tables[0][k], p._tables[1][k]
        return np.zeros(dim), np.zeros((dim, dim * dim if k == 2 else dim))

    out = []
    for k in range(terms):
        if np.all(rows[:, k] == rows[0, k]):
            out.append(term(polys[0], k))
        else:
            out.append((rows[:, k],
                        None if k == 0 else np.stack([term(p, k)[1] for p in polys])))
    return tuple(zip(*out))


def take_rows(tables, index):
    """The ``stack_tables`` pair of the batch rows ``index`` selects; shared
    terms stay as they are."""
    rows, mats = tables
    return (tuple(r if r.ndim == 1 else r[index] for r in rows),
            tuple(m if m is None or m.ndim == 2 else m[index] for m in mats))


def _vm(a: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row vectors a times M: one 2-D product for a shared (d, m) matrix,
    a batched one, row by row, for an (n, d, m) matrix per row.  One point
    (d,) takes ``ndarray.dot``, which dispatches in about a third of the
    time of @ at d = 4 and 8."""
    if a.ndim == 1:
        return a.dot(M)
    return (a[:, None, :] @ M)[:, 0] if M.ndim == 3 else a @ M


def _kernel(P, X: np.ndarray, grad: bool = False, jac: bool = False):
    """P(X), and on request grad V(X) and J(X), at raw points of shape (..., d).

    The one evaluation path of the module.  With R = right_matrix(x) and
    L = left_matrix, J = sum_k L(a_k) J_k, J_k the derivative of x^k, and
    the transposes act on row vectors.  The linear term is x L(a_1)^T.  The
    quadratic term comes from its table S_2 alone, at every degree: its
    Jacobian is linear in x, J_2^T = (x S_2).reshape(d, d) with
    J_2 = L(a_2) (R + L), and by Euler's identity for a quadratic
    a_2 x^2 = 1/2 J_2 x, so the term costs one product for J_2 and one
    for the value.  A quadratic zero-padded into a stack of higher degree
    therefore keeps its bits.  Only the terms k >= 3 run the power
    recursion, bracketed left to right, x^k = x^(k-1) x: xpow <- xpow R^T
    for the power and J_k^T <- J_k^T R^T + L(x^(k-1))^T for its derivative
    (``_power_terms``).  P is a ``stack_tables`` pair, or a
    ``DAPolynomial``, whose own ``_tables`` are that pair with every term
    shared; this is the one function that takes either.  Each term is one
    of two cases: a table shared by every row takes one 2-D product over
    the batch, whose leading axes are flattened to one, and a table held
    per row takes a batched product, row by row, for an (n, d) batch.  A
    zero-padded term adds an exact zero.  One point, shape (d,), takes the
    same steps with ``ndarray.dot`` vector products in place of @
    (``_vm``), and matches the batch path's (1, d) row to rounding: on
    c08's quaternion quadratic one (P, grad V, J) call costs 5.3 us of CPU,
    against 11.7 us with the power recursion for x^2 (2-core Xeon, NumPy
    2.4.6 on OpenBLAS 0.3.31).  Returns (P, grad V or None, J or None); J
    of a shared polynomial of degree <= 1 is a read-only view.
    """
    X = np.asarray(X, dtype=float)
    deriv = grad or jac
    shape = X.shape
    if X.ndim > 2:
        X = X.reshape(-1, shape[-1])
    rows, terms = P._tables if isinstance(P, DAPolynomial) else P
    dim = X.shape[-1]
    mat = X.shape + (dim,)              # (..., d, d)
    if len(rows) == 1:
        v = np.broadcast_to(rows[0], X.shape).copy()
        JT = np.zeros((dim, dim))
    else:
        v = rows[0] + _vm(X, terms[1])
        JT = terms[1]                   # J^T = sum_k J_k^T L(a_k)^T
    if len(rows) > 2:
        J2T = _vm(X, terms[2]).reshape(mat)
        v = v + 0.5 * _vm(X, J2T)
        if deriv:
            JT = JT + J2T
    if len(rows) > 3:
        v, JT = _power_terms(X, terms, v, JT, deriv)
    g = None
    if grad:
        g = JT.dot(v + v) if X.ndim == 1 else 2.0 * (JT @ v[..., None])[..., 0]
    J = None
    if jac:
        J = (JT if JT.ndim == len(mat) else np.broadcast_to(JT, mat)).swapaxes(-1, -2)
    if len(shape) > 2:
        v = v.reshape(shape)
        g = None if g is None else g.reshape(shape)
        J = None if J is None else J.reshape(shape + (dim,))
    return v, g, J


def _power_terms(X: np.ndarray, terms, v: np.ndarray, JT, deriv: bool):
    """Add the terms k >= 3 of the table list ``terms`` (term k at index k)
    to P and, with ``deriv``, to J^T, by the power recursion of ``_kernel``;
    X is one point (d,) under shared tables or an (n, d) batch."""
    dim = X.shape[-1]
    mat = X.shape + (dim,)
    rxT = (X @ _flat_right(dim)).reshape(mat)
    xpow = _vm(X, rxT)                  # x^2
    if deriv:                           # x^2 has derivative R(x) + L(x)
        JkT = (X @ _flat_right_plus_left(dim)).reshape(mat)
    for k in range(3, len(terms)):
        if deriv:
            JkT = JkT @ rxT + (xpow @ _flat_left(dim)).reshape(mat)
        xpow = _vm(xpow, rxT)
        v = v + _vm(xpow, terms[k])
        if deriv:
            M = terms[k]
            JT = JT + (JkT @ M if M.ndim == 3
                       else (JkT.reshape(-1, dim) @ M).reshape(mat))
    return v, JT


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


def value_gradient_batch(P: DAPolynomial, X: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P(X), grad V(X) and J(X) at raw points, shape (..., d) -> two (..., d)
    arrays and a (..., d, d) one; J is the transposed view of the J^T that
    the gradient is built from, so it costs no extra product."""
    return _kernel(P, X, True, True)


def value_gradient_fn(P: DAPolynomial):
    """x -> (P(x), grad V(x), J(x)) at single raw points, for integrator hot loops.

    J is a transposed view of the J^T that the gradient is built from, so
    the integrator gets the Jacobian of each point from the same call as its
    value and gradient; all three equal ``value_gradient_batch`` and
    ``jacobian_coords`` at that point bit for bit.  Each call is one
    ``_kernel`` call: for a quadratic, four vector products on the stored
    L(a_1)^T and S_2 tables (5.3 us on c08's polynomial, see ``_kernel``).
    """
    def fn(x: np.ndarray):
        return _kernel(P, x, True, True)
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


def right_divide_central(
    P: DAPolynomial, M: CentralQuadratic
) -> tuple[DAPolynomial, AlgebraElement, AlgebraElement]:
    """Divide P by the central quadratic M: P = Q M + (A x + B).

    Because M is central the long division uses only real-scalar
    combinations of the coefficients of P, so Q, A and B stay inside the
    coefficient subalgebra and the reconstruction is exact to rounding.
    """
    q, A, B = _central_division(P, M)
    return DAPolynomial.from_coords(P.tag, q), element(P.tag, A), element(P.tag, B)


def _central_division(P: DAPolynomial, M: CentralQuadratic
                      ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The coefficient rows of Q, and A and B, of ``right_divide_central``."""
    work = list(P._rows)
    n = len(work) - 1
    zero = np.zeros(P.tag.dimension)
    if n < 2:
        return [zero], (work[1] if n >= 1 else zero), work[0]
    q = [zero] * (n - 1)
    for k in range(n, 1, -1):
        qk = work[k]
        q[k - 2] = qk
        work[k - 1] = work[k - 1] + qk * float(M.trace)
        work[k - 2] = work[k - 2] - qk * float(M.normterm)
    return q, work[1], work[0]


def remainder_root(P: DAPolynomial, M: CentralQuadratic) -> AlgebraElement | None:
    """The one root of P on the sphere of M, or None when M divides P there.

    Divides P = Q M + (A x + B); on the sphere M = 0, so a root solves
    A x + B = 0 and is -A^-1 B.  A vanishing A (relative to the
    coefficients of P) leaves no linear equation to solve.
    """
    _, A, B = _central_division(P, M)
    if np.linalg.norm(A) < tol.SPHERICAL_REMAINDER_REL * (1.0 + P.max_coeff_norm()):
        return None
    A_inv = conjugate_coords(A) / float(np.dot(A, A))
    return AlgebraElement(P.tag, multiply_coords(P.tag.dimension, A_inv * -1.0, B))


@dataclass(frozen=True)
class LocalizationResult:
    """Outcome of dividing out the minimal quadratic of a root."""

    point: AlgebraElement | None
    is_spherical: bool


def localize_isolated_root(P: DAPolynomial, x0: AlgebraElement) -> LocalizationResult:
    """Express an (approximate) isolated root through the coefficients of P.

    Builds the minimal central quadratic of x0 and solves the remainder of
    the division by it (``remainder_root``).  A vanishing remainder
    coefficient A certifies instead that the quadratic divides P, i.e. the
    whole sphere through x0 consists of roots.
    """
    if x0.tag != P.tag:
        raise ValueError(f"algebra mismatch: {P.tag} vs {x0.tag}")
    v = potential(P, x0)
    if v >= tol.LOCALIZE_ROOT_POTENTIAL:
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
    jacobian: np.ndarray           # J at ``point``, from the call that gave ``residual``


def newton_polish(P: DAPolynomial, x0) -> PolishResult:
    """Newton on the d-dimensional real system P(x) = 0 from one coordinate row.

    The one-row call of ``newton_polish_rows``, whose rules it follows:
    least-squares steps, so sphere points (singular Jacobian) are polished
    onto the root set instead of diverging, and a stop once the residual is
    below ``tol.NEWTON_RESIDUAL``.  ``iterations`` counts the steps taken.
    The point's Jacobian comes back with it, so a rank test needs no second
    evaluation.  Whether the point is clean is the caller's test.
    """
    X, residual, iterations, J = newton_polish_rows(stack_tables([P]),
                                                   np.asarray(x0, dtype=float)[None])
    return PolishResult(X[0], float(residual[0]), int(iterations[0]), J[0])


def newton_polish_rows(tables, X0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Newton on P(x) = 0 from every row of X0, (n, d), row i on polynomial i.

    ``tables`` is a ``stack_tables`` pair: a shared term serves every row
    and a per-row term holds row i's polynomial at entry i.  Each row keeps
    its own rules and count: it stops once its residual |P(x)| is below
    ``tol.NEWTON_RESIDUAL``, after ``tol.NEWTON_MAX_ITER`` steps, on a
    non-finite step (a row whose value or Jacobian is non-finite has one),
    or on a step that, halved up to 20 times, cannot lower a residual
    already below ``tol.NEWTON_STALL``; a step that cannot lower a larger
    residual is taken at its last halving.  The step is the minimum-norm
    least-squares solution J^+ (-P(x)), read from one batched
    ``np.linalg.pinv`` of the rows still running with ``lstsq``'s cutoff
    max(M, N) eps, so a sphere point's singular J is polished onto the root
    set instead of diverging; every trial point of the running rows is one
    batched kernel call.  Returns the points, their residuals, each row's
    steps taken and the Jacobians at the points.
    """
    X = np.array(X0, dtype=float)
    dim = X.shape[-1]
    V, _, J = _kernel(tables, X, jac=True)
    J = np.array(J)                     # a shared J comes back as a read-only view
    residual = np.linalg.norm(V, axis=1)
    iterations = np.zeros(len(X), dtype=int)
    cutoff = dim * np.finfo(float).eps
    live = np.flatnonzero((iterations < tol.NEWTON_MAX_ITER)
                          & (residual >= tol.NEWTON_RESIDUAL))
    while live.size:
        live_tables = take_rows(tables, live)
        x, r, Jl, vl = X[live], residual[live], J[live], V[live]
        step = np.full(x.shape, np.nan)
        finite = np.isfinite(vl).all(axis=1) & np.isfinite(Jl).all(axis=(1, 2))
        if finite.any():
            with np.errstate(over="ignore", invalid="ignore"):
                step[finite] = -(np.linalg.pinv(Jl[finite], rcond=cutoff)
                                 @ vl[finite, :, None])[..., 0]
        moving = np.isfinite(step).all(axis=1)
        x_new, v_new, J_new, r_new = x.copy(), vl.copy(), Jl.copy(), r.copy()
        # halve each row's step up to 20 times while it overshoots
        trial = np.flatnonzero(moving)
        for _ in range(21):
            xt = x[trial] + step[trial]
            vt, _, Jt = _kernel(take_rows(live_tables, trial), xt, jac=True)
            rt = np.linalg.norm(vt, axis=1)
            x_new[trial], v_new[trial], J_new[trial], r_new[trial] = xt, vt, Jt, rt
            over = ~(rt <= r[trial])
            trial = trial[over]
            if not trial.size:
                break
            step[trial] *= 0.5
        stalled = (r_new >= r) & (r < tol.NEWTON_STALL)
        take = moving & ~stalled
        rows = live[take]
        X[rows], V[rows], J[rows], residual[rows] = (
            x_new[take], v_new[take], J_new[take], r_new[take])
        iterations[rows] += 1
        live = rows[(iterations[rows] < tol.NEWTON_MAX_ITER)
                    & (residual[rows] >= tol.NEWTON_RESIDUAL)]
    return X, residual, iterations, J


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
