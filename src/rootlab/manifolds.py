"""Root sets of polynomials as strata of points and spheres.

Every root of a polynomial over an algebra of dimension d lies on the
sphere {a + b u : u unit imaginary} of a conjugate pair a +- b i of a real
auxiliary polynomial (a real auxiliary root is a point on the real axis).
A central polynomial vanishes on all of each sphere, of dimension d - 2;
any other polynomial has one root on it, found by dividing out the
sphere's quadratic, unless the quadratic divides it.  The module computes
the strata (via an Aberth-Ehrlich simultaneous root finder whose roots are
grouped by multiplicity), samples them as (n, d) coordinate rows, checks
the cyclic symmetry of lacunary complex polynomials and orbit invariance
under automorphisms, and scans the Hausdorff dimension of a deformation
family across epsilon = 0 by reading the strata at each epsilon; none of
it needs a flow or a seed.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .algebra import (
    COMPLEX,
    AlgebraElement,
    AlgebraTag,
    LinearMap,
)
from .poly import (
    CentralQuadratic,
    DAPolynomial,
    Deformation,
    jacobian_coords,
    potential,
    remainder_root,
)


class RootFindingError(RuntimeError):
    """Simultaneous iteration failed to reach the residual target."""


@dataclass(frozen=True)
class IsolatedReal:
    """A root on the real axis."""

    value: float
    tag: AlgebraTag

    @property
    def dimension(self) -> int:
        return 0


@dataclass(frozen=True)
class IsolatedPoint:
    """A single non-real root."""

    point: AlgebraElement

    @property
    def tag(self) -> AlgebraTag:
        return self.point.tag

    @property
    def dimension(self) -> int:
        return 0


@dataclass(frozen=True)
class Sphere:
    """Stratum {re + radius * u : u unit imaginary}, dimension d - 2."""

    re: float
    radius: float
    tag: AlgebraTag

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    @property
    def dimension(self) -> int:
        return self.tag.dimension - 2


RootStratum = IsolatedReal | IsolatedPoint | Sphere


@dataclass(frozen=True)
class RootSet:
    strata: tuple[RootStratum, ...]
    hausdorff_dimension: int
    aberth_sweeps: int                  # Aberth corrections on the auxiliary polynomial
    merged_groups: tuple[int, ...]      # sizes of the root groups merged as one root

    def effort(self) -> dict:
        """The root finder's counters, for artifacts and claim details."""
        return {"aberth_sweeps": self.aberth_sweeps,
                "merged_groups": list(self.merged_groups)}


def aberth_roots(coeffs) -> np.ndarray:
    """All roots of a complex-coefficient polynomial, simultaneous iteration.

    Coefficients are indexed by exponent.  The one-row call of the batched
    ``_aberth_roots``: starts from a perturbed circle, applies
    Aberth-Ehrlich corrections until every residual |p(z_i)| falls below
    the (scale-adjusted) target, then runs a few Newton sweeps.
    """
    return _roots_of_rows([coeffs])[0][0]


def _roots_of_rows(coeff_rows) -> list[tuple[np.ndarray, int]]:
    """The roots of polynomials of any degrees and the Aberth corrections of each.

    Each row is made monic and its exact zero roots split off; the rows
    left with the same degree then run one ``_aberth_roots`` pass together.
    """
    out: list = [None] * len(coeff_rows)
    by_degree: dict[int, list] = {}
    for i, coeffs in enumerate(coeff_rows):
        c = np.asarray(coeffs, dtype=complex)
        if c.size == 0 or c[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        c = c / c[-1]
        n_zero = 0
        while c[n_zero] == 0:
            n_zero += 1
        by_degree.setdefault(c.size - 1 - n_zero, []).append((i, n_zero, c[n_zero:]))
    for n, rows in by_degree.items():
        found, sweeps = (_aberth_roots(np.stack([c for _, _, c in rows])) if n
                         else (np.zeros((len(rows), 0), dtype=complex), [0] * len(rows)))
        for (i, n_zero, _), z, k in zip(rows, found, sweeps):
            out[i] = (np.concatenate([np.zeros(n_zero, dtype=complex), z]), int(k))
    return out


def _horner(C: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Row i of C (index = exponent) at the points of row i of Z, by the
    steps of ``np.polyval``, so each row keeps its one-polynomial bits."""
    y = np.zeros_like(Z)
    for k in range(C.shape[1] - 1, -1, -1):
        y = y * Z + C[:, k, None]
    return y


def _aberth_roots(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aberth-Ehrlich on a stack of monic rows of one degree n >= 1.

    Rows of C are complex coefficients indexed by exponent, with nonzero
    constant terms.  Each row iterates as it would alone and freezes at
    the sweep whose residual test it passes: the polynomial values are
    Horner steps on rows and the sums of 1/(z_i - z_j) run along each row.
    Returns the roots, (m, n), and each row's Aberth corrections, (m,); a
    row still short of the target after ``tol.ABERTH_MAX_SWEEPS`` raises
    ``RootFindingError`` with its worst residual.
    """
    n = C.shape[1] - 1
    cabs = np.abs(C)
    center = -C[:, n - 1] / n
    radius = 1.0 + np.max(np.abs(C[:, :-1]), axis=1)
    angles = 2.0 * np.pi * (np.arange(n) + 0.5) / n + 0.4
    Z = center[:, None] + radius[:, None] * np.exp(1j * angles)
    dC = C[:, 1:] * np.arange(1, n + 1)
    sweeps = np.zeros(len(C), dtype=int)
    live = np.arange(len(C))
    diag = np.arange(n)
    for sweep in range(tol.ABERTH_MAX_SWEEPS):
        z = Z[live]
        p = _horner(C[live], z)
        # backward-style criterion: residual relative to sum |c_k| |z|^k,
        # the only target reachable in floating point for large roots
        bound = _horner(cabs[live], np.abs(z))
        done = np.max(np.abs(p) / bound, axis=1) < tol.ABERTH_RESIDUAL
        sweeps[live[done]] = sweep
        if done.any():
            live, z, p = live[~done], z[~done], p[~done]
            if not live.size:
                break
        dp = _horner(dC[live], z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, :, None] - z[:, None, :]
        diff[:, diag, diag] = np.inf
        s = np.sum(1.0 / diff, axis=2)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        Z[live] = z - w / denom
    else:
        i = live[0]
        worst = float(np.max(np.abs(_horner(C[i:i + 1], Z[i:i + 1]))
                             / _horner(cabs[i:i + 1], np.abs(Z[i:i + 1]))))
        raise RootFindingError(
            f"no convergence after {tol.ABERTH_MAX_SWEEPS} sweeps; "
            f"worst relative residual {worst:.3e}"
        )
    # Newton sweeps tighten well-separated roots to machine precision
    for _ in range(3):
        p = _horner(C, Z)
        dp = _horner(dC, Z)
        step = np.where(dp != 0, p / np.where(dp == 0, 1, dp), 0)
        z_new = Z - step
        improved = np.abs(_horner(C, z_new)) <= np.abs(p)
        Z = np.where(improved, z_new, Z)
    return Z, sweeps


def root_set(P: DAPolynomial) -> RootSet:
    """Strata of P over an algebra of dimension >= 2: the one-polynomial
    call of ``root_sets``."""
    return root_sets([P])[0]


def root_sets(polys) -> list[RootSet]:
    """Strata of each polynomial over an algebra of dimension >= 2.

    Every root of P lies on the sphere [z] = {Re z + |Im z| u : u unit
    imaginary} of a root z of a real auxiliary polynomial (Gordon & Motzkin):
    the real parts of the coefficients when P is central, else the companion
    C(t) = sum_m t^m sum_{j+k=m} <a_j, a_k>.  The auxiliary polynomials of
    all of ``polys`` are solved together, one batched Aberth pass per degree
    (``_roots_of_rows``), each row as it would be alone.  A polynomial's
    Aberth roots are grouped by multiplicity (``_multiple_root``): a real
    root or a sphere of roots of a non-central P is (at least) a double
    root of C.  Roots with |Im z| up to ``CONJUGATE_PAIR_REL`` (relative)
    count as real, and each upper-half-plane root stands for its conjugate
    pair.  A central P vanishes at each real z and on each whole sphere;
    any other P has the one root -A^-1 B on [z] (``remainder_root``), or
    all of [z] when A vanishes.  Real strata come first, then the others by
    (Re z, Im z).  Each set records the Aberth corrections applied to its C
    and the size of every group of two or more Aberth roots merged into one
    root.
    """
    polys = list(polys)
    for P in polys:
        if P.tag.dimension < 2:
            raise ValueError("root strata need an algebra of dimension >= 2")
        if P.is_zero:
            raise ValueError("zero polynomial has no meaningful root set")
    auxes = [P._rows[:, 0] if P.is_central
             else sum(np.convolve(col, col) for col in P._rows.T) for P in polys]
    return [_strata(P, aux, roots, sweeps)
            for P, aux, (roots, sweeps) in zip(polys, auxes, _roots_of_rows(auxes))]


def _strata(P: DAPolynomial, aux: np.ndarray, roots: np.ndarray, sweeps: int) -> RootSet:
    """The root set of P from the Aberth roots of its auxiliary polynomial."""
    scale = 1.0 + float(np.max(np.abs(roots), initial=0.0))
    zs, merged = [], []
    free = np.ones(roots.size, dtype=bool)
    for seed in range(roots.size):
        if free[seed]:
            members, z = _multiple_root(aux, roots, free, seed, scale)
            free[members] = False
            zs.append(z)
            if len(members) > 1:
                merged.append(len(members))
    real_tol = tol.CONJUGATE_PAIR_REL * scale
    upper = sorted((z for z in zs if z.imag > real_tol), key=lambda z: (z.real, z.imag))
    strata: list[RootStratum] = []
    for z in [complex(z.real, 0.0) for z in zs if abs(z.imag) <= real_tol] + upper:
        x = (None if P.is_central
             else remainder_root(P, CentralQuadratic(2.0 * z.real, abs(z) ** 2)))
        if x is not None:
            strata.append(IsolatedPoint(x))
        elif z.imag == 0.0:
            strata.append(IsolatedReal(z.real, P.tag))
        else:
            strata.append(Sphere(re=z.real, radius=z.imag, tag=P.tag))
    dim = max((s.dimension for s in strata), default=0)
    return RootSet(tuple(strata), dim, sweeps, tuple(merged))


def _multiple_root(aux: np.ndarray, roots: np.ndarray, free: np.ndarray, seed: int,
                   scale: float) -> tuple[list[int], complex]:
    """The largest group of free roots nearest ``roots[seed]`` that is one
    root, and that root: the group's mean, put on the real axis when m is.

    Aberth splits a k-fold root by about ABERTH_RESIDUAL^(1/k), so groups of
    k within rho_k = 4 ABERTH_RESIDUAL^(1/k) scale of their mean are the
    candidates (4 covers the constant).  Newton on aux^(k-1), which has a
    simple root there, takes the mean to m; the group is one root when aux
    passes Aberth's backward test at m to order k - 1: |t_j| <= ABERTH_RESIDUAL
    s_j for j < k (``_taylor``).  Distinct roots spread h leave |t_(k-2)| of
    order h^2, so near 1 they merge below h ~ 1e-6 and stay apart from 1e-4
    up; in between, Aberth's roots, and so the strata, are only good to ~h.
    """
    idx = np.flatnonzero(free)
    near = idx[np.argsort(np.abs(roots[idx] - roots[seed]), kind="stable")]
    rho = 4.0 * tol.ABERTH_RESIDUAL ** (1.0 / np.arange(1, idx.size + 1)) * scale
    # a group of k needs its k-th nearest root within 2 rho_k of the seed
    ks = np.flatnonzero(np.abs(roots[near] - roots[seed]) <= 2.0 * rho) + 1
    for k in ks[ks > 1][::-1]:
        group = sorted(near[:k])
        mean = complex(np.mean(roots[group]))
        if np.max(np.abs(roots[group] - mean)) > rho[k - 1]:
            continue
        m = mean
        for _ in range(4):
            (t_k1, _), (t_k, _) = _taylor(aux, m, k + 1)[k - 1:]  # t_(k-1), t_k
            m -= t_k1 / (k * t_k) if t_k else 0.0
        if all(abs(t) <= tol.ABERTH_RESIDUAL * s for t, s in _taylor(aux, m, k)):
            real = abs(m.imag) <= tol.CONJUGATE_PAIR_REL * scale
            return group, complex(mean.real, 0.0) if real else mean
    return [seed], complex(roots[seed])


def _taylor(aux: np.ndarray, m: complex, n: int) -> list[tuple[complex, float]]:
    """Taylor coefficients t_j, j < n, of aux at m, by repeated synthetic
    division by (t - m), each with its backward-error scale s_j (the same
    division of the |c_i| by (t - |m|)).
    """
    c = np.asarray(aux, dtype=complex)[::-1].tolist()   # highest power first
    s = [abs(v) for v in c]
    out = []
    for _ in range(n):
        for i in range(1, len(c)):
            c[i] += m * c[i - 1]
            s[i] += abs(m) * s[i - 1]
        out.append((c.pop(), s.pop()))
    return out


def sample_stratum(stratum: RootStratum, n: int, seed_or_rng) -> np.ndarray:
    """n points of a stratum as coordinate rows, (n, d); spheres are sampled
    uniformly, and a point stratum repeats its point."""
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng(seed_or_rng)       # a Generator passes through
    out = np.zeros((n, stratum.tag.dimension))
    if isinstance(stratum, IsolatedReal):
        out[:, 0] = stratum.value
    elif isinstance(stratum, IsolatedPoint):
        out[:] = stratum.point.coords
    else:
        g = rng.normal(size=(n, out.shape[1] - 1))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        out[:, 0] = stratum.re
        out[:, 1:] = stratum.radius * g
    return out


@dataclass(frozen=True)
class CdSymmetryReport:
    order: int
    n_roots: int
    max_mismatch: float
    passed: bool


def cd_symmetry_check(P: DAPolynomial) -> CdSymmetryReport:
    """Rotate the roots of a complex polynomial by 2 pi / d.

    d is the gcd of the exponents carrying nonzero coefficients; rotation
    by that angle must permute the root set.
    """
    if P.tag != COMPLEX:
        raise ValueError("cyclic symmetry check runs over the complex numbers")
    d = max(P.lacunary_gcd, 1)
    coeffs = [complex(c.coords[0], c.coords[1]) for c in P.coefficients]
    roots = aberth_roots(coeffs)
    if roots.size == 0:
        return CdSymmetryReport(d, 0, 0.0, True)
    omega = cmath.exp(2j * cmath.pi / d)
    rotated = roots * omega
    dist = np.abs(rotated[:, None] - roots[None, :])
    mismatch = float(np.max(np.min(dist, axis=1)))
    threshold = tol.CD_ROTATION_MATCH * (1.0 + float(np.max(np.abs(roots))))
    return CdSymmetryReport(d, roots.size, mismatch, mismatch <= threshold)


def orbit_invariance_check(P: DAPolynomial, g: LinearMap, x: AlgebraElement,
                           rng: np.random.Generator | None = None) -> float:
    """Potential of P at g(x); near zero when the orbit of a root stays a root."""
    if potential(P, x) >= tol.ORBIT_ROOT_POTENTIAL:
        raise ValueError("x must be a root to high accuracy")
    if not g.is_automorphism(rng):
        raise ValueError("g does not satisfy the automorphism invariants")
    return potential(P, g.apply(x))


@dataclass(frozen=True)
class RankResult:
    rank: int
    ambiguous: bool


def numerical_rank(matrix: np.ndarray) -> RankResult:
    """Rank by SVD with a relative cutoff; flags near-threshold spectra."""
    rank, ambiguous = _rank_rule(np.linalg.svd(np.asarray(matrix, dtype=float),
                                               compute_uv=False))
    return RankResult(int(rank), bool(ambiguous))


def _rank_rule(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank and near-threshold flag of singular values (..., k), each row in
    descending order: the values above ``RANK_REL_CUTOFF`` times the largest
    count, and one within a factor 10 of that cutoff is ambiguous.  A zero
    or empty spectrum has rank 0 and no flag."""
    cut = tol.RANK_REL_CUTOFF * s[..., :1]
    rank = np.sum(s > cut, axis=-1)
    ambiguous = np.any((s > 0.1 * cut) & (s < 10.0 * cut), axis=-1)
    return rank, ambiguous


@dataclass(frozen=True)
class DimensionScanRow:
    epsilon: float
    dimension: int
    n_roots: int
    flagged: bool
    effort: dict                # RootSet.effort() of the row's root set


def hausdorff_dimension_scan(D: Deformation, epsilons) -> list[DimensionScanRow]:
    """Dimension of the root set along a deformation family.

    Each row reads the strata of ``D.at(epsilon)``, every row's and the
    base's from one ``root_sets`` call, so the dimension is exact at
    epsilon = 0 and away from it alike.  A row is flagged when the Jacobian
    rank at one of its isolated points lies near the SVD cutoff, so that
    the point may not be isolated after all.
    """
    epsilons = [float(e) for e in epsilons]
    polys = [D.at(eps) for eps in epsilons]
    base, *sets = root_sets([D.base, *polys])
    if not any(isinstance(s, Sphere) for s in base.strata):
        raise ValueError("scan expects a base with a non-real stratum")
    rows = []
    for eps, P, rs in zip(epsilons, polys, sets):
        flagged = any(numerical_rank(jacobian_coords(P, s.point.coords)).ambiguous
                      for s in rs.strata if isinstance(s, IsolatedPoint))
        rows.append(DimensionScanRow(eps, rs.hausdorff_dimension, len(rs.strata), flagged,
                                     rs.effort()))
    return rows
