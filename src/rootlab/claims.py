"""Machine-checkable claims: one entry per acceptance criterion.

Each claim runs a self-contained experiment and reports expected value,
measured value, tolerance and verdict; the elapsed time must also stay
inside the claim's runtime budget.  ``run_claims`` drives the registry and
is shared by the command line and the acceptance test suite.  Quick mode
shrinks the Monte Carlo budgets while keeping every verdict green.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dynamics as dyn
from . import flow as fl
from . import manifolds as mf
from . import thermo as th
from . import tolerances as tol
from .algebra import (
    COMPLEX,
    OCTONIONS,
    QUATERNIONS,
    REALS,
    automorphism_from_derivation,
    basis_element,
    conjugation_automorphism,
    law_residuals,
    multiply_coords,
    random_element,
)
from .poly import (
    DAPolynomial,
    Deformation,
    jacobian_coords,
    newton_polish,
    potential_coords,
)


@dataclass
class ClaimResult:
    claim_id: str
    title: str
    expected: str
    measured: str
    tolerance: str
    passed: bool
    seconds: float = 0.0
    budget_seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "expected": self.expected,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "budget_seconds": self.budget_seconds,
            **({"details": self.details} if self.details else {}),
        }


def _benchmark(tag=QUATERNIONS) -> Deformation:
    base = DAPolynomial.from_real(tag, [1, 0, 1])
    rows = [[0.0] * tag.dimension for _ in range(2)]
    rows[0][0] = 1.0
    rows[1][1] = 1.0
    return Deformation(base, DAPolynomial.from_coords(tag, rows))


def claim_algebra_laws(quick: bool, seed: int) -> ClaimResult:
    n = 3000 if quick else 10000
    rng = np.random.default_rng(seed)
    limits = {"norm_mult": tol.NORM_MULTIPLICATIVITY_REL,
              "alternativity": tol.ALTERNATIVITY_ABS,
              "power_assoc": tol.POWER_ASSOCIATIVITY_ABS,
              "associativity": tol.ASSOCIATIVITY_ABS}
    worst = {}
    for tag in (REALS, COMPLEX, QUATERNIONS, OCTONIONS):
        x = rng.normal(size=(n, tag.dimension))
        y = rng.normal(size=(n, tag.dimension))
        for law, r in law_residuals(tag, x, y).items():
            worst[f"{law}_{tag}"] = r
    # associativity for d <= 4, witness for octonions
    for tag in (COMPLEX, QUATERNIONS):
        d = tag.dimension
        x, y, z = (rng.normal(size=(1000, d)) for _ in range(3))
        a = multiply_coords(d, multiply_coords(d, x, y), z) - multiply_coords(
            d, x, multiply_coords(d, y, z))
        worst[f"associativity_{tag}"] = float(np.max(np.linalg.norm(a, axis=1)))
    e = [basis_element(OCTONIONS, k) for k in range(8)]
    witness = ((e[1] * e[2]) * e[4] - e[1] * (e[2] * e[4])).norm()
    worst_val = max(worst.values())
    passed = (all(r < limits[key.rsplit("_", 1)[0]] for key, r in worst.items())
              and witness > 0.5)
    return ClaimResult(
        "c01", "algebra laws on random ensembles",
        "all law residuals < 1e-12 (relative); nonzero octonion associator",
        f"worst residual {worst_val:.2e}; witness norm {witness:.2f}",
        "1e-12 relative", passed, budget_seconds=5.0, details=worst)


def claim_inflation(quick: bool, seed: int) -> ClaimResult:
    rng = np.random.default_rng(seed)
    dims = {}
    worst_pot = 0.0
    for tag, want in ((QUATERNIONS, 2), (OCTONIONS, 6)):
        P = DAPolynomial.from_real(tag, [1, 0, 1])
        rs = mf.root_set(P)
        dims[str(tag)] = rs.hausdorff_dimension
        stratum = rs.strata[0]
        for s in mf.sample_stratum(stratum, 32, rng):
            res = newton_polish(P, s.coords)
            worst_pot = max(worst_pot, float(potential_coords(P, res.point)))
    passed = dims == {"H": 2, "O": 6} and worst_pot < tol.STRATUM_POTENTIAL
    return ClaimResult(
        "c02", "sphere dimensions of x^2 + 1",
        "dimension 2 over H and 6 over O; 32 polished samples each below 1e-18",
        f"dims {dims}; worst sample potential {worst_pot:.2e}",
        "potential < 1e-18", passed, budget_seconds=1.0, details=dims)


def claim_automorphism_invariance(quick: bool, seed: int) -> ClaimResult:
    n = 30 if quick else 100
    rng = np.random.default_rng(seed)
    worst = 0.0
    P_O = DAPolynomial.from_real(OCTONIONS, [1, 0, 1])
    sphere_O = mf.root_set(P_O).strata[0]
    for x in mf.sample_stratum(sphere_O, n, rng):
        a = random_element(OCTONIONS, rng)
        b = random_element(OCTONIONS, rng)
        g = automorphism_from_derivation(a, b, float(rng.uniform(0.1, 2.0)))
        worst = max(worst, mf.orbit_invariance_check(P_O, g, x, rng))
    P_H = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    sphere_H = mf.root_set(P_H).strata[0]
    for x in mf.sample_stratum(sphere_H, n, rng):
        h = random_element(QUATERNIONS, rng)
        while h.norm() < 1e-3:
            h = random_element(QUATERNIONS, rng)
        worst = max(worst, mf.orbit_invariance_check(P_H, conjugation_automorphism(h), x, rng))
    passed = worst < tol.ORBIT_RESIDUAL
    return ClaimResult(
        "c03", "root orbits under automorphisms",
        f"{n} automorphism/root pairs per algebra keep potential < 1e-12",
        f"worst orbit residual {worst:.2e}",
        "1e-12", passed, budget_seconds=10.0)


def claim_jacobian_rank(quick: bool, seed: int) -> ClaimResult:
    rng = np.random.default_rng(seed)
    ranks = {}
    ok = True
    for tag, expect in ((QUATERNIONS, 2), (OCTONIONS, 2)):
        P = DAPolynomial.from_real(tag, [1, 0, 1])
        sphere = mf.root_set(P).strata[0]
        got = set()
        for x in mf.sample_stratum(sphere, 50, rng):
            r = mf.numerical_rank(jacobian_coords(P, x.coords))
            got.add(r.rank)
            ok = ok and not r.ambiguous
        ranks[f"sphere_{tag}"] = sorted(got)
        ok = ok and got == {expect}
    # isolated roots carry full rank
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    P_iso = DAPolynomial.from_coords(QUATERNIONS, rows)
    iso = [s.point for s in mf.root_set(P_iso).strata if isinstance(s, mf.IsolatedPoint)]
    got = {mf.numerical_rank(jacobian_coords(P_iso, x.coords)).rank for x in iso}
    ranks["isolated_H"] = sorted(got)
    ok = ok and got == {4} and len(iso) == 2
    return ClaimResult(
        "c04", "jacobian rank on spheres vs isolated roots",
        "rank 2 at 50 sphere samples (H and O); full rank 4 at isolated roots",
        f"{ranks}",
        "exact rank via relative SVD cutoff 1e-8", ok,
        budget_seconds=5.0, details=ranks)


def claim_localization(quick: bool, seed: int) -> ClaimResult:
    rng = np.random.default_rng(seed)
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    P = DAPolynomial.from_coords(QUATERNIONS, rows)
    att = fl.find_attractors(P, 12, seed)
    worst_offaxis = max(float(np.max(np.abs(a.coords[2:]))) for a in att)
    n_quads = 8 if quick else 20
    cfg = fl.FlowConfig(stop_grad=1e-3, max_time=500.0)
    worst_offplane = 0.0
    n_roots = 0
    for _ in range(n_quads):
        c0 = [rng.normal(), rng.normal(), 0.0, 0.0]
        c1 = [rng.normal(), rng.normal(), 0.0, 0.0]
        Q = DAPolynomial.from_coords(QUATERNIONS, [c0, c1, [1, 0, 0, 0]])
        roots = fl.find_attractors(Q, 5, seed, cfg)
        n_roots += len(roots)
        for r in roots:
            worst_offplane = max(worst_offplane, float(np.max(np.abs(r.coords[2:]))))
    passed = (len(att) == 2 and worst_offaxis < 1e-8
              and worst_offplane < 1e-8 and n_roots >= n_quads)
    return ClaimResult(
        "c05", "isolated roots live in the coefficient subalgebra",
        "i-axis roots for x^2+ix+1; complex-coefficient quadratics localize into C",
        f"off-axis {worst_offaxis:.2e}; off-plane {worst_offplane:.2e} over {n_roots} roots",
        "components outside the subalgebra < 1e-8", passed,
        budget_seconds=5.0)


def claim_breathing(quick: bool, seed: int) -> ClaimResult:
    a = dyn.Waveform(5.0, ((0.5, 0.1, 0.0),))
    b = dyn.Waveform(4.0, ())
    tr = dyn.simulate_breathing(2, a, b, (0.0, 20.0), 0.01)
    vieta_sum = np.max(np.abs(tr.r_inner ** 2 + tr.r_outer ** 2 - np.abs(tr.a)))
    vieta_prod = np.max(np.abs(tr.r_inner ** 2 * tr.r_outer ** 2 - tr.b))
    lin = dyn.simulate_breathing(2, lambda t: 0.0, lambda t: -t / 4.0, (-1, 1), 0.01)
    quad = dyn.simulate_breathing(2, lambda t: 0.0, lambda t: -t * t / 4.0, (-1, 1), 0.01)
    ev_lin = dyn.detect_boundaries(lin).delta_crossings
    ev_quad = dyn.detect_boundaries(quad).delta_crossings
    classify_ok = (len(ev_lin) == 1 and ev_lin[0].kind == dyn.TRANSVERSAL
                   and len(ev_quad) == 1 and ev_quad[0].kind == dyn.TANGENTIAL)
    passed = bool(tr.valid.all() and vieta_sum < 1e-12 and vieta_prod < 1e-12
                  and classify_ok)
    return ClaimResult(
        "c06", "breathing radii and crossing classification",
        "Vieta identities along the trace < 1e-12; linear vs quadratic "
        "crossings classified transversal vs tangential",
        f"vieta ({vieta_sum:.2e}, {vieta_prod:.2e}); kinds "
        f"({ev_lin[0].kind if ev_lin else '-'}, {ev_quad[0].kind if ev_quad else '-'})",
        "1e-12; exact kind", passed, budget_seconds=1.0)


def claim_spectra(quick: bool, seed: int) -> ClaimResult:
    n, dt = 4096, 0.05
    f1 = 50 / (n * dt)
    f2 = 80 / (n * dt)
    a = dyn.Waveform(5.0, ((0.4, f1, 0.0),))
    b = dyn.Waveform(4.0, ((0.3, f2, 0.0),))
    tr = dyn.simulate_breathing(2, a, b, (0.0, (n - 1) * dt), dt)
    spec = dyn.psd(tr.r_inner, dt)
    report = dyn.spectral_peaks(spec, f1, f2)
    inter = report.entry("f1+f2")
    rng = np.random.default_rng(seed)
    noise = rng.normal(size=16384)
    rnoise = dyn.psd(noise, 0.01)
    parseval = dyn.integrated_power(rnoise) / float(np.var(noise))
    passed = inter.is_peak and abs(parseval - 1.0) < 0.01
    return ClaimResult(
        "c07", "nonlinear coupling shows in the radius spectrum",
        "intermodulation peak at f1+f2 at least 10 dB above the floor; "
        "integrated white-noise power within 1% of variance",
        f"f1+f2 at {inter.db_above_floor:.1f} dB; parseval ratio {parseval:.4f}",
        ">= 10 dB; 1%", passed, budget_seconds=5.0,
        details={e.label: round(e.db_above_floor, 1) for e in report.entries})


def claim_critical_slowing(quick: bool, seed: int) -> ClaimResult:
    D = _benchmark()
    eps = np.geomspace(0.01, 0.1, 4) if quick else np.geomspace(0.005, 0.1, 5)
    m = fl.measure_collapse(D, eps, seed=seed)
    passed = (-2.15 <= m.fit_slope <= -1.85) and m.r_squared > 0.99
    return ClaimResult(
        "c08", "collapse time grows as 1/eps^2",
        "log-log slope in [-2.15, -1.85] with r^2 > 0.99",
        f"slope {m.fit_slope:.4f}, r^2 {m.r_squared:.6f}",
        "slope window; r^2 > 0.99", passed, budget_seconds=60.0,
        details={"times": [round(t, 2) for t in m.times],
                 "steps": [int(n) for n in m.steps],
                 "rhs": [int(n) for n in m.rhs_evals]})


def claim_potential_scaling(quick: bool, seed: int) -> ClaimResult:
    D = _benchmark()
    scan = fl.restricted_potential_scan(D, 0.05, n_points=20, seed=seed)
    ratios = 2.0 ** scan.exponents
    worst = float(np.max(np.abs(ratios - 4.0)))
    passed = worst < 0.04
    return ClaimResult(
        "c09", "restricted potential scales quadratically in eps",
        "f(2 eps)/f(eps) = 4 within 1% at 20 stratum points",
        f"worst |ratio - 4| = {worst:.2e}",
        "0.04 absolute", passed, budget_seconds=1.0)


def claim_basins(quick: bool, seed: int) -> ClaimResult:
    # eps small enough that the separatrix (displaced to cos(phi) = -eps/2
    # at finite eps) stays inside the excluded equator band
    D = _benchmark()
    n = 150 if quick else 500
    rep = fl.basin_decomposition(D, 0.08, n, seed=seed)
    axis_comp = rep.starts[:, 1:] @ rep.axis[1:]
    keep = ~rep.band_mask
    captured = rep.labels[keep] >= 0
    att_axis = np.array([float(np.dot(a.coords[1:], rep.axis[1:]))
                         for a in rep.attractors])
    pos_idx = int(np.argmax(att_axis))
    neg_idx = int(np.argmin(att_axis))
    expected = np.where(axis_comp[keep] > 0, pos_idx, neg_idx)
    agree = captured & (rep.labels[keep] == expected)
    frac_captured = float(np.mean(captured))
    frac_agree = float(np.mean(agree))
    passed = frac_captured >= 0.98 and frac_agree >= 0.98
    return ClaimResult(
        "c10", "hemispheres are the basins of the axis attractors",
        ">= 98% of sphere starts outside the equator band captured with "
        "hemisphere-matching labels",
        f"captured {frac_captured:.3f}; labels agree {frac_agree:.3f} "
        f"(n = {int(np.sum(keep))})",
        ">= 0.98", passed, budget_seconds=60.0,
        details={"fractions": rep.fractions, "max_residual": rep.max_residual,
                 "max_rise": rep.max_rise})


def claim_order_parameter(quick: bool, seed: int) -> ClaimResult:
    scale = 0.5 if quick else 1.0
    steps = int(30000 * scale)
    results = {}
    P_H = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    r = th.sample_gibbs(P_H, th.GibbsConfig(0.01, chains=16, steps=steps, seed=seed))
    results["H_central"] = r.stats.order_parameter
    P_O = DAPolynomial.from_real(OCTONIONS, [1, 0, 1])
    r = th.sample_gibbs(P_O, th.GibbsConfig(0.01, chains=24, steps=steps, seed=seed + 1))
    results["O_central"] = r.stats.order_parameter
    P_iso = DAPolynomial.from_coords(QUATERNIONS,
                                     [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    r = th.sample_gibbs(P_iso, th.GibbsConfig(0.01, chains=16,
                                              steps=int(20000 * scale), seed=seed + 2))
    results["H_aligned"] = r.stats.order_parameter
    D = _benchmark()
    r = th.sample_gibbs(D.at(2.5), th.GibbsConfig(2.5, chains=8,
                                                  steps=int(20000 * scale), seed=seed + 3))
    results["H_restored"] = r.stats.order_parameter
    restored_stderr = r.stats.order_parameter_stderr
    checks = {
        "H_central": abs(results["H_central"] - 1 / 3) <= 0.05,
        "O_central": abs(results["O_central"] - 1 / 7) <= 0.04,
        "H_aligned": results["H_aligned"] >= 0.95,
        "H_restored": abs(results["H_restored"] - 1 / 3) <= 0.1,
    }
    passed = all(checks.values())
    # independent brute-force cross-check of the restored cell, so the
    # sampler value can be compared against a flow-free oracle
    truth, ess = _importance_sampled_m(D.at(2.5), 2.5, seed)
    return ClaimResult(
        "c11", "order parameter across the phase diagram",
        "1/3 +- 0.05 (H central), 1/7 +- 0.04 (O central), >= 0.95 aligned, "
        "within 0.1 of 1/3 restored",
        "; ".join(f"{k}={v:.4f}" for k, v in results.items()),
        "per-phase windows", passed, budget_seconds=600.0,
        details={**{k: round(v, 4) for k, v in results.items()},
                 "H_restored_stderr": round(restored_stderr, 4),
                 "restored_brute_force": round(truth, 4),
                 "restored_brute_force_ess": int(ess),
                 "failing": [k for k, ok in checks.items() if not ok]})


def _importance_sampled_m(P: DAPolynomial, T: float, seed: int,
                          n: int = 2_000_000) -> tuple[float, float]:
    """Order parameter by plain importance sampling from a wide Gaussian.

    Draws in chunks of 100k rows from one generator (the same numbers as one
    draw of n rows, in a fraction of the memory) and keeps streaming
    log-sum-exp sums: each is stored relative to the largest log-weight seen
    so far and rescaled when that maximum grows.
    """
    chunk = 100_000
    sigma = 1.3 * max(1.0, T ** 0.25)
    rng = np.random.default_rng(seed)
    top = -np.inf
    sums = np.zeros(4)              # sum w, sum w x1^2, sum w |Im x|^2, sum w^2
    for start in range(0, n, chunk):
        X = rng.normal(scale=sigma, size=(min(chunk, n - start), P.tag.dimension))
        logw = -potential_coords(P, X) / T + np.sum(X * X, axis=1) / (2.0 * sigma ** 2)
        new_top = max(top, float(logw.max()))
        shift = np.exp(top - new_top)
        sums *= [shift, shift, shift, shift * shift]
        top = new_top
        w = np.exp(logw - top)
        sums += [np.sum(w), np.sum(w * X[:, 1] ** 2),
                 np.sum(w * np.sum(X[:, 1:] ** 2, axis=1)), np.sum(w * w)]
    return float(sums[1] / sums[2]), float(sums[0] ** 2 / sums[3])


def claim_entropy_scaling(quick: bool, seed: int) -> ClaimResult:
    scale = 0.5 if quick else 1.0
    ladder = [0.002, 0.005, 0.01, 0.02]
    cfg = th.GibbsConfig(0.01, chains=8, steps=int(15000 * scale))
    results = {}
    P_Hc = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    results["H_central"] = th.entropy_coefficient(P_Hc, ladder, cfg, seed=seed).alpha
    P_iso = DAPolynomial.from_coords(QUATERNIONS,
                                     [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
    results["H_isolated"] = th.entropy_coefficient(P_iso, ladder, cfg, seed=seed + 1).alpha
    P_Oc = DAPolynomial.from_real(OCTONIONS, [1, 0, 1])
    cfg_o = th.GibbsConfig(0.01, chains=12, steps=int(15000 * scale))
    results["O_central"] = th.entropy_coefficient(P_Oc, ladder, cfg_o, seed=seed + 2).alpha
    checks = {
        "H_central": abs(results["H_central"] - 1.0) <= 0.15,
        "H_isolated": abs(results["H_isolated"] - 2.0) <= 0.2,
        "O_central": abs(results["O_central"] - 1.0) <= 0.2,
    }
    passed = all(checks.values())
    return ClaimResult(
        "c12", "entropy slope counts the stiff directions",
        "alpha = 1.0 +- 0.15 (H central), 2.0 +- 0.2 (H isolated), "
        "1.0 +- 0.2 (O central)",
        "; ".join(f"{k}={v:.3f}" for k, v in results.items()),
        "per-case windows", passed, budget_seconds=600.0,
        details={k: round(v, 3) for k, v in results.items()})


def claim_dimension_drop(quick: bool, seed: int) -> ClaimResult:
    D = _benchmark()
    rows = mf.hausdorff_dimension_scan(D, [0.0, 0.1])
    dims = {r.epsilon: r.dimension for r in rows}
    flagged = any(r.flagged for r in rows)
    passed = dims == {0.0: 2, 0.1: 0} and not flagged
    return ClaimResult(
        "c13", "root-set dimension drops discontinuously",
        "dimension 2 at eps = 0 and 0 at eps = 0.1",
        f"{dims}; flagged rows: {flagged}",
        "exact dimensions", passed, budget_seconds=30.0,
        details={str(k): v for k, v in dims.items()})


REGISTRY = [
    claim_algebra_laws,
    claim_inflation,
    claim_automorphism_invariance,
    claim_jacobian_rank,
    claim_localization,
    claim_breathing,
    claim_spectra,
    claim_critical_slowing,
    claim_potential_scaling,
    claim_basins,
    claim_order_parameter,
    claim_entropy_scaling,
    claim_dimension_drop,
]

CLAIM_IDS = [f"c{i + 1:02d}" for i in range(len(REGISTRY))]


def run_claim(claim_id: str, quick: bool = False, seed: int = 0) -> ClaimResult:
    try:
        fn = REGISTRY[CLAIM_IDS.index(claim_id)]
    except ValueError:
        raise KeyError(f"unknown claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    t0 = time.perf_counter()
    result = fn(quick, seed)
    result.seconds = time.perf_counter() - t0
    if result.seconds > result.budget_seconds:
        result.passed = False
        result.measured += " [over budget]"
    return result


def run_claims(quick: bool = False, seed: int = 0,
               only: list[str] | None = None) -> list[ClaimResult]:
    ids = only or CLAIM_IDS
    return [run_claim(cid, quick, seed) for cid in ids]
