"""Cayley-Dickson arithmetic for the real normed division algebras.

Supported dimensions are 1 (reals), 2 (complex numbers), 4 (quaternions)
and 8 (octonions).  An element is a coordinate vector over the basis
``1, e1, ..., e_{d-1}``.  Products are generated by the doubling rule

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c))

applied recursively to half-vectors.  The rule fixes the whole
multiplication table; under this convention ``i * j = k`` in the
quaternions and ``e1 * e4 = e5`` in the octonions.

Beyond the ring operations the module provides the automorphism machinery
used by the rest of the package: conjugation maps ``q -> h q h^-1`` of the
quaternions (rotations of the imaginary 3-space) and derivations of the
octonions, whose matrix exponentials produce concrete elements of the
octonion automorphism group G2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tolerances as tol

_DIMENSIONS = (1, 2, 4, 8)
_TAG_NAMES = {1: "R", 2: "C", 4: "H", 8: "O"}


@dataclass(frozen=True)
class AlgebraTag:
    """Identifies one of the four normed division algebras by dimension."""

    dimension: int

    def __post_init__(self) -> None:
        if self.dimension not in _DIMENSIONS:
            raise ValueError(
                f"dimension must be one of {_DIMENSIONS}, got {self.dimension}"
            )

    def __str__(self) -> str:
        return _TAG_NAMES[self.dimension]


REALS = AlgebraTag(1)
COMPLEX = AlgebraTag(2)
QUATERNIONS = AlgebraTag(4)
OCTONIONS = AlgebraTag(8)

_BY_NAME = {"R": REALS, "C": COMPLEX, "H": QUATERNIONS, "O": OCTONIONS}


def parse_tag(name: str) -> AlgebraTag:
    """Map a one-letter algebra name (R, C, H, O) to its tag."""
    try:
        return _BY_NAME[name.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown algebra {name!r}; expected one of R, C, H, O")


def conjugate_coords(v: np.ndarray) -> np.ndarray:
    """Conjugation on raw coordinate arrays (last axis is the element)."""
    out = np.array(v, dtype=float, copy=True)
    out[..., 1:] *= -1.0
    return out


def _pair_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Direct recursion on half-vectors; used only to build the tables.
    n = x.shape[0]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    first = _pair_product(a, c) - _pair_product(conjugate_coords(d), b)
    second = _pair_product(d, a) + _pair_product(b, conjugate_coords(c))
    return np.concatenate([first, second])


@lru_cache(maxsize=None)
def structure_tensor(dim: int) -> np.ndarray:
    """Tensor M with (x y)_k = sum_ij x_i y_j M[i, j, k]; entries are 0, +-1."""
    if dim not in _DIMENSIONS:
        raise ValueError(f"unsupported dimension {dim}")
    M = np.zeros((dim, dim, dim))
    eye = np.eye(dim)
    for i in range(dim):
        for j in range(dim):
            M[i, j] = _pair_product(eye[i], eye[j])
    M.flags.writeable = False
    return M


def multiply_coords(dim: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Batched product on raw coordinates; broadcasting over leading axes."""
    return np.einsum("...i,...j,ijk->...k", x, y, structure_tensor(dim))


@lru_cache(maxsize=None)
def _flat_left(dim: int) -> np.ndarray:
    # rows indexed by i, columns by flattened (j, k); x @ _flat_left gives
    # A[j, k] = sum_i x_i M[i, j, k], i.e. left_matrix(x).T flattened
    m = structure_tensor(dim).reshape(dim, dim * dim).copy()
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def _flat_right(dim: int) -> np.ndarray:
    # rows indexed by j; x @ _flat_right gives B[i, k] = sum_j x_j M[i, j, k]
    m = structure_tensor(dim).transpose(1, 0, 2).reshape(dim, dim * dim).copy()
    m.flags.writeable = False
    return m


@lru_cache(maxsize=None)
def _flat_right_plus_left(dim: int) -> np.ndarray:
    # x @ _flat_right_plus_left gives (right_matrix(x) + left_matrix(x)).T flattened
    m = _flat_right(dim) + _flat_left(dim)
    m.flags.writeable = False
    return m


def left_matrix(dim: int, z: np.ndarray) -> np.ndarray:
    """Matrix of v -> z v."""
    return np.einsum("i,ijk->kj", z, structure_tensor(dim))


def right_matrix(dim: int, z: np.ndarray) -> np.ndarray:
    """Matrix of v -> v z."""
    return np.einsum("j,ijk->ki", z, structure_tensor(dim))


@dataclass(frozen=True)
class AlgebraElement:
    """Immutable coordinate vector in a tagged division algebra."""

    tag: AlgebraTag
    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coords, dtype=float, copy=True).reshape(-1)
        if c.shape != (self.tag.dimension,):
            raise ValueError(
                f"expected {self.tag.dimension} coordinates, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def real(self) -> float:
        return float(self.coords[0])

    @property
    def imag(self) -> np.ndarray:
        return self.coords[1:].copy()

    def norm_sq(self) -> float:
        return float(np.dot(self.coords, self.coords))

    def norm(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def conjugate(self) -> "AlgebraElement":
        return AlgebraElement(self.tag, conjugate_coords(self.coords))

    def inverse(self) -> "AlgebraElement":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero element has no inverse")
        return AlgebraElement(self.tag, conjugate_coords(self.coords) / n2)

    def is_zero(self) -> bool:
        return not np.any(self.coords)

    def allclose(self, other: "AlgebraElement", atol: float = 1e-12) -> bool:
        return self.tag == other.tag and bool(
            np.allclose(self.coords, other.coords, rtol=0.0, atol=atol)
        )

    def _check_tag(self, other: "AlgebraElement") -> None:
        if self.tag != other.tag:
            raise ValueError(f"algebra mismatch: {self.tag} vs {other.tag}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_tag(other)
        return AlgebraElement(self.tag, self.coords + other.coords)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_tag(other)
        return AlgebraElement(self.tag, self.coords - other.coords)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.tag, -self.coords)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        if isinstance(other, (int, float)):
            return AlgebraElement(self.tag, self.coords * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return AlgebraElement(self.tag, self.coords * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return AlgebraElement(self.tag, self.coords / float(other))
        return NotImplemented

    def __repr__(self) -> str:
        vals = ", ".join(f"{v:.6g}" for v in self.coords)
        return f"{self.tag}[{vals}]"


def element(tag: AlgebraTag, coords) -> AlgebraElement:
    return AlgebraElement(tag, np.asarray(coords, dtype=float))


def basis_element(tag: AlgebraTag, k: int) -> AlgebraElement:
    if not 0 <= k < tag.dimension:
        raise ValueError(f"basis index {k} out of range for {tag}")
    c = np.zeros(tag.dimension)
    c[k] = 1.0
    return AlgebraElement(tag, c)


def real_element(tag: AlgebraTag, value: float) -> AlgebraElement:
    c = np.zeros(tag.dimension)
    c[0] = value
    return AlgebraElement(tag, c)


def random_element(tag: AlgebraTag, rng: np.random.Generator) -> AlgebraElement:
    return AlgebraElement(tag, rng.normal(size=tag.dimension))


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Algebra product; bilinear, norm-multiplicative, associative for d <= 4."""
    x._check_tag(y)
    return AlgebraElement(x.tag, multiply_coords(x.tag.dimension, x.coords, y.coords))


def power(x: AlgebraElement, k: int) -> AlgebraElement:
    """k-th power with left-to-right bracketing ((x x) x) ...; k >= 0."""
    if k < 0 or int(k) != k:
        raise ValueError("exponent must be a non-negative integer")
    out = real_element(x.tag, 1.0)
    for _ in range(int(k)):
        out = multiply(out, x)
    return out


def commutator(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return multiply(x, y) - multiply(y, x)


def associator(x: AlgebraElement, y: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    return multiply(multiply(x, y), z) - multiply(x, multiply(y, z))


def law_residuals(tag: AlgebraTag, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
    """Worst law residuals over the rows of x and y, each of shape (n, d).

    ``norm_mult`` is relative to |x| |y|; ``alternativity`` (x(xy) = (xx)y,
    (yx)x = y(xx)) and ``power_assoc`` (x^8 left-folded against balanced) to
    1 + |(xx)y| and 1 + |x^8|.
    """
    d = tag.dimension
    xy = multiply_coords(d, x, y)
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(y, axis=1)
    rel = np.abs(np.linalg.norm(xy, axis=1) - nx * ny) / (nx * ny)
    lhs1 = multiply_coords(d, x, xy)
    rhs1 = multiply_coords(d, multiply_coords(d, x, x), y)
    yx = multiply_coords(d, y, x)
    lhs2 = multiply_coords(d, yx, x)
    rhs2 = multiply_coords(d, y, multiply_coords(d, x, x))
    scale = 1.0 + np.linalg.norm(rhs1, axis=1)
    alt = max(float(np.max(np.linalg.norm(lhs1 - rhs1, axis=1) / scale)),
              float(np.max(np.linalg.norm(lhs2 - rhs2, axis=1) / scale)))
    p2 = multiply_coords(d, x, x)
    p4b = multiply_coords(d, p2, p2)
    p8b = multiply_coords(d, p4b, p4b)
    left = x
    for _ in range(7):
        left = multiply_coords(d, left, x)
    rel_pow = np.linalg.norm(left - p8b, axis=1) / (1.0 + np.linalg.norm(p8b, axis=1))
    return {"norm_mult": float(np.max(rel)), "alternativity": alt,
            "power_assoc": float(np.max(rel_pow))}


@dataclass(frozen=True)
class LinearMap:
    """Real-linear map on a tagged algebra, stored as a d x d matrix."""

    tag: AlgebraTag
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d = self.tag.dimension
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.tag != self.tag:
            raise ValueError(f"algebra mismatch: {self.tag} vs {x.tag}")
        return AlgebraElement(self.tag, self.matrix @ x.coords)

    def unit_residual(self) -> float:
        e0 = np.zeros(self.tag.dimension)
        e0[0] = 1.0
        return float(np.linalg.norm(self.matrix @ e0 - e0))

    def orthogonality_residual(self) -> float:
        d = self.tag.dimension
        return float(np.max(np.abs(self.matrix.T @ self.matrix - np.eye(d))))

    def multiplicativity_residual(self, rng: np.random.Generator,
                                  n_pairs: int = 32) -> float:
        """Max of ||g(xy) - g(x) g(y)|| over random unit pairs."""
        dim = self.tag.dimension
        worst = 0.0
        for _ in range(n_pairs):
            x = rng.normal(size=dim)
            y = rng.normal(size=dim)
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            lhs = self.matrix @ multiply_coords(dim, x, y)
            rhs = multiply_coords(dim, self.matrix @ x, self.matrix @ y)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        return worst

    def is_automorphism(self, rng: np.random.Generator | None = None) -> bool:
        if rng is None:
            rng = np.random.default_rng(0)
        return (
            self.unit_residual() <= tol.AUTOMORPHISM_ORTHO_ABS
            and self.orthogonality_residual() <= tol.AUTOMORPHISM_ORTHO_ABS
            and self.multiplicativity_residual(rng) <= tol.AUTOMORPHISM_MULT_ABS
        )


def conjugation_automorphism(h: AlgebraElement) -> LinearMap:
    """Matrix of q -> h q h^-1 on the quaternions.

    Fixes the reals and rotates the imaginary 3-space.  Conjugation is only
    an automorphism of an associative algebra, so non-quaternion tags are
    rejected.
    """
    if h.tag != QUATERNIONS:
        raise ValueError("conjugation automorphisms require the quaternions")
    if h.norm_sq() == 0.0:
        raise ZeroDivisionError("cannot conjugate by zero")
    dim = h.tag.dimension
    hinv = h.inverse()
    mat = left_matrix(dim, h.coords) @ right_matrix(dim, hinv.coords)
    return LinearMap(h.tag, mat)


def derivation(a: AlgebraElement, b: AlgebraElement) -> LinearMap:
    """Octonion derivation D(x) = [[a,b], x] - 3 [a, b, x].

    Satisfies the Leibniz rule D(xy) = D(x) y + x D(y) and kills the unit;
    the span of these maps is the Lie algebra of the automorphism group.
    """
    if a.tag != OCTONIONS or b.tag != OCTONIONS:
        raise ValueError("derivations are built over the octonions")
    dim = a.tag.dimension
    c = commutator(a, b)
    la = left_matrix(dim, a.coords)
    lb = left_matrix(dim, b.coords)
    lab = left_matrix(dim, multiply(a, b).coords)
    ad_c = left_matrix(dim, c.coords) - right_matrix(dim, c.coords)
    assoc_op = lab - la @ lb
    return LinearMap(a.tag, ad_c - 3.0 * assoc_op)


def matrix_exponential(mat: np.ndarray) -> np.ndarray:
    """exp(mat) by scaling-and-squaring with a Taylor kernel.

    The argument is rescaled by 2^-s so its 1-norm is at most 1/4, the
    series is summed to machine precision, and the result squared s times.
    Accurate to ~1e-14 relative for the small dense matrices used here.
    """
    A = np.asarray(mat, dtype=float)
    n = A.shape[0]
    norm1 = float(np.linalg.norm(A, 1))
    s = max(0, int(np.ceil(np.log2(norm1 / 0.25))) if norm1 > 0.25 else 0)
    B = A / (2.0 ** s)
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 30):
        term = term @ B / k
        out = out + term
        if np.max(np.abs(term)) < 1e-20:
            break
    for _ in range(s):
        out = out @ out
    return out


def automorphism_from_derivation(a: AlgebraElement, b: AlgebraElement,
                                 t: float) -> LinearMap:
    """exp(t D_{a,b}): a concrete octonion automorphism."""
    d = derivation(a, b)
    return LinearMap(a.tag, matrix_exponential(t * d.matrix))
