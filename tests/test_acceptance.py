"""Acceptance battery: every claim at full budget, one pass/fail line each.

Each test drives one registered claim (the same code path as the
``rootlab claims`` subcommand) at its stated tolerance and runtime budget
and prints a summary line.  Every claim but c11 must pass.

c11's restored-phase check (order parameter within 0.1 of 1/3 at
(eps, T) = (2.5, 2.5) for x^2 + 1 + eps(ix + 1)) does not hold for that
family: a deterministic quadrature of the same Gibbs average gives 0.9337,
and the sampler agrees with it, so the claim reports that single check red.
The c11 test therefore checks the sampler against the quadrature instead of
the claim's verdict: the claim must finish inside its budget, no check other
than ``H_restored`` may fail, and the sampler's ``H_restored`` must lie
within 4 of its reported standard errors of the quadrature value.  It does
not assert that c11 fails, so a corrected target leaves it green.
"""

import numpy as np
import pytest

from rootlab import claims as cl
from rootlab import poly as pl
from rootlab.algebra import QUATERNIONS
from rootlab.poly import DAPolynomial

SEED = 1


def _measure(claim_id):
    result = cl.run_claim(claim_id, quick=False, seed=SEED)
    mark = "PASS" if result.passed else "FAIL"
    print(f"[acceptance] {result.claim_id} {mark} "
          f"({result.seconds:.1f}s / {result.budget_seconds:.0f}s budget): "
          f"{result.title} -> {result.measured}")
    return result


def _run(claim_id):
    result = _measure(claim_id)
    assert result.passed, (
        f"{result.claim_id} {result.title}: expected {result.expected}; "
        f"measured {result.measured}; tolerance {result.tolerance}; "
        f"details {result.details}")
    return result


def _family(eps):
    """The benchmark family x^2 + 1 + eps(ix + 1) over H."""
    return DAPolynomial.from_coords(
        QUATERNIONS, [[1 + eps, 0, 0, 0], [0, eps, 0, 0], [1, 0, 0, 0]])


def _quadrature_m(P, T, nodes):
    """<x1^2> / <|Im x|^2> under exp(-V/T) by tensor Gauss-Legendre.

    P's coefficients lie in span{1, i}, so V is invariant under conjugation
    by e^{i theta}, which rotates the (x2, x3) plane.  The angle integrates
    out, leaving (x0, x1, rho) with weight rho.  The box half-width
    4 T^{1/4} puts the weight at its edge below 1e-14 for the c11 cell.
    """
    half = 4.0 * T ** 0.25
    t, w = np.polynomial.legendre.leggauss(nodes)
    x, wx = half * t, half * w
    rho = 0.5 * half * (t + 1.0)
    wrho = 0.5 * half * w * rho
    X0, X1, R = np.meshgrid(x, x, rho, indexing="ij")
    weight = wx[:, None, None] * wx[None, :, None] * wrho[None, None, :]
    V = pl.potential_coords(P, np.stack([X0, X1, R, np.zeros_like(R)], axis=-1))
    g = weight * np.exp(-(V - V.min()) / T)
    return float(np.sum(g * X1 ** 2) / np.sum(g * (X1 ** 2 + R ** 2)))


def test_c01_algebra_laws():
    _run("c01")


def test_c02_dimensional_inflation():
    _run("c02")


def test_c03_automorphism_invariance():
    _run("c03")


def test_c04_jacobian_rank():
    _run("c04")


def test_c05_localization():
    _run("c05")


def test_c06_breathing_consistency():
    _run("c06")


def test_c07_spectra():
    _run("c07")


def test_c08_critical_slowing_down():
    _run("c08")


def test_c09_potential_scaling():
    _run("c09")


def test_c10_basins():
    # V never rises along the labelled flow, at a second seed as well
    result = _run("c10")
    assert result.details["max_rise"] <= 1e-10, result.details
    assert cl.run_claim("c10", quick=False, seed=2).details["max_rise"] <= 1e-10


def test_c11_order_parameter():
    result = _measure("c11")
    assert result.seconds <= result.budget_seconds, result.measured
    assert set(result.details["failing"]) <= {"H_restored"}, result.details
    coarse = _quadrature_m(_family(2.5), 2.5, 61)
    truth = _quadrature_m(_family(2.5), 2.5, 81)
    assert abs(coarse - truth) <= 1e-6
    m = result.details["H_restored"]
    stderr = result.details["H_restored_stderr"]
    assert stderr > 0.0, result.details
    assert abs(m - truth) <= 4.0 * stderr, (
        f"H_restored {m} +- {stderr} vs quadrature {truth:.6f}")


def test_c11_quadrature_is_isotropic_at_eps_zero():
    # x^2 + 1 is symmetric under every rotation of Im H, so m = 1/3 exactly
    assert _quadrature_m(_family(0.0), 2.5, 81) == pytest.approx(1 / 3, abs=1e-12)


def test_c12_entropy_scaling():
    _run("c12")


def test_c13_hausdorff_discontinuity():
    _run("c13")
