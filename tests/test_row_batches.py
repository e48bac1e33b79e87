"""Row-batched Newton and Aberth against their one-row oracles.

``poly.newton_polish_rows`` polishes every row of a batch on its own
polynomial, and ``manifolds._aberth_roots`` iterates a stack of auxiliary
polynomials; each row must do what the one-point Newton of
``poly_oracle`` and the one-polynomial Aberth of ``aberth_oracle`` do
alone.  c05's own batches are recorded from the claim at seeds 0-24.
"""

import aberth_oracle
import numpy as np
import poly_oracle
import pytest

from rootlab import claims as cl
from rootlab import flow as fl
from rootlab import manifolds as mf
from rootlab import poly as pl
from rootlab import tolerances as tol
from rootlab.algebra import QUATERNIONS
from rootlab.poly import DAPolynomial


@pytest.fixture(scope="module")
def c05_batches():
    """Per seed 0-24: c05's polish input (polynomials, each row's owner, the
    points) with the rows' Newton output, and the auxiliary rows of its
    ``root_sets`` call."""
    out = []
    with pytest.MonkeyPatch.context() as m:
        polish, newton, roots = fl._polished_attractors, fl.newton_polish_rows, mf._roots_of_rows

        def polished(polys, tables, owner, points):
            seen["polish"] = (list(polys), np.array(owner), np.array(points))
            return polish(polys, tables, owner, points)

        def rows(tables, X0):
            seen["newton"] = newton(tables, X0)
            return seen["newton"]

        def aberth(coeff_rows):
            seen["aux"] = [np.array(c) for c in coeff_rows]
            return roots(coeff_rows)
        m.setattr(fl, "_polished_attractors", polished)
        m.setattr(fl, "newton_polish_rows", rows)
        m.setattr(mf, "_roots_of_rows", aberth)
        for seed in range(25):
            seen = {}
            cl.claim_localization(False, seed)
            out.append(seen)
    return out


def _same_as_oracle(P, x0, point, iterations):
    ref = poly_oracle.newton_polish(P, x0)
    assert iterations == ref.iterations
    assert np.linalg.norm(point - ref.point) <= 1e-14 * np.linalg.norm(ref.point)


def test_newton_rows_match_per_point_lstsq_newton_at_c05_end_points(c05_batches):
    rows = 0
    for seen in c05_batches:
        polys, owner, points = seen["polish"]
        X, _, iterations, _ = seen["newton"]
        row_polys = [polys[i] for i in owner]
        assert len(row_polys) == len(X) == 12 + 5 * (len(polys) - 1)
        for i, (P, x0) in enumerate(zip(row_polys, points)):
            _same_as_oracle(P, x0, X[i], iterations[i])
        rows += len(X)
    assert rows == 25 * 112


def _polynomial(rows):
    return DAPolynomial.from_coords(QUATERNIONS, rows)


def test_newton_rows_match_the_oracle_on_hard_rows():
    xx1 = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    backtrack = np.array([0.05, 0.02, 0.0, 0.01])
    # the full first step from near 0 overshoots: the row halves it
    v, _, J = pl._kernel(xx1, backtrack, jac=True)
    step = np.linalg.lstsq(J, -v, rcond=None)[0]
    assert np.linalg.norm(pl.evaluate_coords(xx1, backtrack + step)) > np.linalg.norm(v)
    # a purely imaginary point: J is singular on the sphere's tangent space
    sphere = np.array([0.0, 0.6, 0.3, 0.0])
    assert np.linalg.matrix_rank(pl.jacobian_coords(xx1, sphere)) == 2
    # |a_0| / |a_1| overflows: the first step is non-finite and the row stops
    huge = _polynomial([[1e300, 0, 0, 0], [1e-200, 0, 0, 0]])
    cases = [(xx1, backtrack), (xx1, sphere), (huge, np.zeros(4)),
             (_polynomial([[2, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]]),
              np.array([0.3, -0.2, 0.4, 0.1]))]
    iterations = []
    for P, x0 in cases:
        with np.errstate(over="ignore"):
            got = pl.newton_polish(P, x0)
            _same_as_oracle(P, x0, got.point, got.iterations)
        assert isinstance(got.iterations, int)
        iterations.append(got.iterations)
        assert not (P is huge and np.isfinite(got.residual))
    assert iterations[0] > 0 and iterations[1] > 0 and iterations[2] == 0


def test_one_row_newton_equals_its_batch_row():
    P = _polynomial([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    X0 = np.random.default_rng(3).normal(scale=1.5, size=(20, 4))
    X0[0] = [0.0, 0.6, 0.3, 0.0]
    X, residual, iterations, J = pl.newton_polish_rows(pl.stack_tables([P]), X0)
    for i, x0 in enumerate(X0):
        one = pl.newton_polish(P, x0)
        assert np.array_equal(one.point, X[i]) and np.array_equal(one.jacobian, J[i])
        assert one.residual == residual[i] and one.iterations == iterations[i]


def _same_roots(coeff_rows):
    got = mf._roots_of_rows(coeff_rows)
    for c, (roots, sweeps) in zip(coeff_rows, got):
        ref_roots, ref_sweeps = aberth_oracle._aberth_roots(c)
        assert np.array_equal(roots, ref_roots) and sweeps == ref_sweeps
    return got


def test_aberth_rows_match_the_one_polynomial_oracle_at_c05(c05_batches):
    for seen in c05_batches:
        assert len(seen["aux"]) == 21
        _same_roots(seen["aux"])


def test_aberth_rows_of_mixed_degrees_zero_and_double_roots():
    central = DAPolynomial.from_real(QUATERNIONS, [2, -3, 1])
    double = DAPolynomial.from_real(QUATERNIONS, [1, -2, 1])       # (x - 1)^2
    companion = _polynomial([[1, 0.5, 0, 0], [0.3, -1, 0, 0], [1, 0, 0, 0]])
    cubic = _polynomial([[2, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    # central rows (auxiliary degree K) run beside companion rows (2K)
    polys = [central, companion, double, cubic, companion.scalar_add(central, 0.5)]
    aux = [P._rows[:, 0] if P.is_central else sum(np.convolve(c, c) for c in P._rows.T)
           for P in polys]
    assert [a.size - 1 for a in aux] == [2, 4, 2, 6, 4]
    got = _same_roots(aux)
    sets = mf.root_sets(polys)
    assert [rs.aberth_sweeps for rs in sets] == [sweeps for _, sweeps in got]
    assert sets[2].merged_groups == (2,)
    # exact zero roots split off; the rows left of degree 2 run together
    got = _same_roots([[0, 0, 2, -3, 1], [0, 1, 0, 1], [1, 0, 1], [0, 0, 5],
                       [1, -2, 1], [4, 0, 5, 0, 1]])
    assert [r.size for r, _ in got] == [4, 3, 2, 2, 2, 4]
    assert got[3][1] == 0 and not np.any(got[3][0])


def test_a_row_that_does_not_converge_raises_its_own_residual(monkeypatch):
    rows = [[2, -3, 1], [1, -2, 1], [1, 0, 1]]
    needs = [aberth_oracle._aberth_roots(c)[1] for c in rows]
    assert needs[1] > max(needs[0], needs[2])
    monkeypatch.setattr(tol, "ABERTH_MAX_SWEEPS", needs[1])
    with pytest.raises(mf.RootFindingError) as ours:
        mf._roots_of_rows(rows)
    with pytest.raises(mf.RootFindingError) as ref:
        aberth_oracle._aberth_roots(rows[1])
    assert str(ours.value) == str(ref.value)
    _same_roots([rows[0], rows[2]])
