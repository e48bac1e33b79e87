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
    AlgebraElement,
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
    dims, effort = {}, {}
    worst_pot = 0.0
    for tag, want in ((QUATERNIONS, 2), (OCTONIONS, 6)):
        P = DAPolynomial.from_real(tag, [1, 0, 1])
        rs = mf.root_set(P)
        dims[str(tag)] = rs.hausdorff_dimension
        effort[str(tag)] = rs.effort()
        stratum = rs.strata[0]
        for s in mf.sample_stratum(stratum, 32, rng):
            res = newton_polish(P, s)
            worst_pot = max(worst_pot, float(potential_coords(P, res.point)))
    passed = dims == {"H": 2, "O": 6} and worst_pot < tol.STRATUM_POTENTIAL
    return ClaimResult(
        "c02", "sphere dimensions of x^2 + 1",
        "dimension 2 over H and 6 over O; 32 polished samples each below 1e-18",
        f"dims {dims}; worst sample potential {worst_pot:.2e}",
        "potential < 1e-18", passed, budget_seconds=1.0,
        details={**dims, "root_set": effort})


def claim_automorphism_invariance(quick: bool, seed: int) -> ClaimResult:
    n = 30 if quick else 100
    rng = np.random.default_rng(seed)
    worst = 0.0
    P_O = DAPolynomial.from_real(OCTONIONS, [1, 0, 1])
    sphere_O = mf.root_set(P_O).strata[0]
    for row in mf.sample_stratum(sphere_O, n, rng):
        x = AlgebraElement(OCTONIONS, row)
        a = random_element(OCTONIONS, rng)
        b = random_element(OCTONIONS, rng)
        g = automorphism_from_derivation(a, b, float(rng.uniform(0.1, 2.0)))
        worst = max(worst, mf.orbit_invariance_check(P_O, g, x, rng))
    P_H = DAPolynomial.from_real(QUATERNIONS, [1, 0, 1])
    sphere_H = mf.root_set(P_H).strata[0]
    for row in mf.sample_stratum(sphere_H, n, rng):
        x = AlgebraElement(QUATERNIONS, row)
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
    ranks, effort = {}, {}
    ok = True
    for tag, expect in ((QUATERNIONS, 2), (OCTONIONS, 2)):
        P = DAPolynomial.from_real(tag, [1, 0, 1])
        rs = mf.root_set(P)
        effort[f"sphere_{tag}"] = rs.effort()
        sphere = rs.strata[0]
        got = set()
        for x in mf.sample_stratum(sphere, 50, rng):
            r = mf.numerical_rank(jacobian_coords(P, x))
            got.add(r.rank)
            ok = ok and not r.ambiguous
        ranks[f"sphere_{tag}"] = sorted(got)
        ok = ok and got == {expect}
    # isolated roots carry full rank
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    P_iso = DAPolynomial.from_coords(QUATERNIONS, rows)
    rs = mf.root_set(P_iso)
    effort["isolated_H"] = rs.effort()
    iso = [s.point for s in rs.strata if isinstance(s, mf.IsolatedPoint)]
    got = {mf.numerical_rank(jacobian_coords(P_iso, x.coords)).rank for x in iso}
    ranks["isolated_H"] = sorted(got)
    ok = ok and got == {4} and len(iso) == 2
    return ClaimResult(
        "c04", "jacobian rank on spheres vs isolated roots",
        "rank 2 at 50 sphere samples (H and O); full rank 4 at isolated roots",
        f"{ranks}",
        "exact rank via relative SVD cutoff 1e-8", ok,
        budget_seconds=5.0, details={**ranks, "root_set": effort})


def _recall(rs: mf.RootSet, found) -> dict:
    """Attractors found against the isolated points of a root set."""
    expected = sum(isinstance(s, mf.IsolatedPoint) for s in rs.strata)
    return {"found": len(found), "expected": expected}


def claim_localization(quick: bool, seed: int) -> ClaimResult:
    rng = np.random.default_rng(seed)
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    P = DAPolynomial.from_coords(QUATERNIONS, rows)
    n_quads = 8 if quick else 20
    quads = []
    for _ in range(n_quads):
        c0 = [rng.normal(), rng.normal(), 0.0, 0.0]
        c1 = [rng.normal(), rng.normal(), 0.0, 0.0]
        quads.append(DAPolynomial.from_coords(QUATERNIONS, [c0, c1, [1, 0, 0, 0]]))
    # one lockstep pass: x^2+ix+1 from 12 starts with the search's default
    # stop, every quadratic from the same 5 starts with a looser one
    first, *searches = fl.attractors_from_starts(
        [P, *quads],
        [fl.gaussian_starts(QUATERNIONS, 12, seed),
         *[fl.gaussian_starts(QUATERNIONS, 5, seed)] * n_quads],
        [fl.SEARCH_FLOW, *[fl.FlowConfig(stop_grad=1e-3, max_time=500.0)] * n_quads])
    att = first.attractors
    worst_offaxis = float(np.max(np.abs(att[:, 2:])))
    roots = np.concatenate([s.attractors for s in searches])
    worst_offplane = float(np.max(np.abs(roots[:, 2:]), initial=0.0))
    n_roots = len(roots)
    passed = (len(att) == 2 and worst_offaxis < 1e-8
              and worst_offplane < 1e-8 and n_roots >= n_quads)
    # recall against root_sets and search effort, per polynomial and in total
    sets = mf.root_sets([P, *quads])
    recall, *recalls = [_recall(rs, s.attractors) for rs, s in zip(sets, [first, *searches])]
    total = {k: sum(row[k] for row in [recall, *recalls]) for k in recall}
    quad_rows = [{**r, **rs.effort(), **s.effort()}
                 for r, rs, s in zip(recalls, sets[1:], searches)]
    lockstep = [row["steps"] for row in quad_rows]
    return ClaimResult(
        "c05", "isolated roots live in the coefficient subalgebra",
        "i-axis roots for x^2+ix+1; complex-coefficient quadratics localize into C",
        f"off-axis {worst_offaxis:.2e}; off-plane {worst_offplane:.2e} over {n_roots} roots",
        "components outside the subalgebra < 1e-8", passed,
        budget_seconds=5.0, details={
            "recall": total, "x^2+ix+1": {**recall, **sets[0].effort(), **first.effort()},
            "quadratics": quad_rows,
            # one pass takes the slowest quadratic's steps, not their sum
            "quadratic_search": {
                "steps": max(lockstep), "steps_if_separate": sum(lockstep),
                "gradient_calls": max(row["gradient_calls"] for row in quad_rows),
                **{k: sum(row[k] for row in quad_rows)
                   for k in ("rejected", "lyapunov_rejections", "newton_iterations")}}})


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
        # the sd of the Parseval ratio itself, against its 1% window
        details={**{e.label: round(e.db_above_floor, 1) for e in report.entries},
                 "parseval_sd": dyn._parseval_sd(noise.size)})


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
        details={"times": [round(t, 2) for t in m.times], **m.effort()})


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
    att_axis = rep.attractors[:, 1:] @ rep.axis[1:]
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
                 "max_rise": rep.max_rise, **rep.effort})


def _sampler_effort(stats, proposal_scale) -> dict:
    """A cell's acceptance, ESS, R-hat and adapted scale for claim details.

    ``stats`` is a cell's EnsembleStats, or an EntropyEstimate for one list
    per ladder rung.
    """
    return {"acceptance": np.round(stats.acceptance, 4).tolist(),
            "ess": np.round(stats.ess, 1).tolist(), "rhat": np.round(stats.rhat, 4).tolist(),
            "proposal_scale": np.round(proposal_scale, 6).tolist()}


def claim_order_parameter(quick: bool, seed: int) -> ClaimResult:
    scale = 0.5 if quick else 1.0
    steps = int(30000 * scale)
    D = _benchmark()
    # the three H cells ride in the O cell's Metropolis loop
    cells = {
        "H_central": (DAPolynomial.from_real(QUATERNIONS, [1, 0, 1]),
                      th.GibbsConfig(0.01, chains=16, steps=steps, seed=seed)),
        "H_aligned": (DAPolynomial.from_coords(QUATERNIONS,
                                               [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
                      th.GibbsConfig(0.01, chains=16, steps=int(20000 * scale),
                                     seed=seed + 2)),
        "H_restored": (D.at(2.5), th.GibbsConfig(2.5, chains=8, steps=int(20000 * scale),
                                                 seed=seed + 3)),
        "O_central": (DAPolynomial.from_real(OCTONIONS, [1, 0, 1]),
                      th.GibbsConfig(0.01, chains=24, steps=steps, seed=seed + 1)),
    }
    polys, cfgs = zip(*cells.values())
    runs = dict(zip(cells, th.sample_gibbs_ladder(polys, cfgs)))
    for r in runs.values():
        if isinstance(r, th.SamplerDiagnosticError):
            raise r
    results = {k: runs[k].stats.order_parameter
               for k in ("H_central", "O_central", "H_aligned", "H_restored")}
    restored_stderr = runs["H_restored"].stats.order_parameter_stderr
    checks = {
        "H_central": abs(results["H_central"] - 1 / 3) <= 0.05,
        "O_central": abs(results["O_central"] - 1 / 7) <= 0.04,
        "H_aligned": results["H_aligned"] >= 0.95,
        "H_restored": abs(results["H_restored"] - 1 / 3) <= 0.1,
    }
    passed = all(checks.values())
    # the restored cell's exact Gibbs average, a deterministic cross-check
    # of the sampler value (61 nodes agree with 81 to 3e-9)
    nodes = 61
    truth = th.order_parameter_quadrature(D.at(2.5), 2.5, nodes)
    return ClaimResult(
        "c11", "order parameter across the phase diagram",
        "1/3 +- 0.05 (H central), 1/7 +- 0.04 (O central), >= 0.95 aligned, "
        "within 0.1 of 1/3 restored",
        "; ".join(f"{k}={v:.4f}" for k, v in results.items()),
        "per-phase windows", passed, budget_seconds=600.0,
        details={**{k: round(v, 4) for k, v in results.items()},
                 "H_restored_stderr": round(restored_stderr, 4),
                 "restored_quadrature": round(truth, 4),
                 "restored_quadrature_nodes": nodes,
                 "failing": [k for k, ok in checks.items() if not ok],
                 "sampler": {k: _sampler_effort(runs[k].stats, runs[k].proposal_scale)
                             for k in results},
                 "lockstep_steps": {"H": max(c.steps for c in cfgs[:3]), "O": steps,
                                    "loop": max(c.steps for c in cfgs)}})


def claim_entropy_scaling(quick: bool, seed: int) -> ClaimResult:
    scale = 0.5 if quick else 1.0
    ladder = [0.002, 0.005, 0.01, 0.02]
    cfg = th.GibbsConfig(0.01, chains=8, steps=int(15000 * scale))
    cfg_o = th.GibbsConfig(0.01, chains=12, steps=int(15000 * scale))
    # the three ladders, two over H and one over O, run as one Metropolis loop
    ladders = {"H_central": (DAPolynomial.from_real(QUATERNIONS, [1, 0, 1]), cfg, seed),
               "H_isolated": (DAPolynomial.from_coords(
                   QUATERNIONS, [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0]]), cfg, seed + 1),
               "O_central": (DAPolynomial.from_real(OCTONIONS, [1, 0, 1]), cfg_o, seed + 2)}
    polys, cells = [], []
    for P, template, ladder_seed in ladders.values():
        temps, rungs = th.entropy_cells(ladder, template, ladder_seed)
        polys += [P] * len(rungs)
        cells += rungs
    n = len(temps)
    runs = th.sample_gibbs_ladder(polys, cells, keep_samples=False)
    estimates = {k: th.entropy_estimate(temps, runs[i * n:(i + 1) * n])
                 for i, k in enumerate(ladders)}
    results = {k: e.alpha for k, e in estimates.items()}
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
        details={**{k: round(v, 3) for k, v in results.items()},
                 "sampler": {k: _sampler_effort(e, e.proposal_scale)
                             for k, e in estimates.items()},
                 "lockstep_steps": {"H": cfg.steps, "O": cfg_o.steps,
                                    "loop": max(c.steps for c in cells)}})


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
        details={**{str(k): v for k, v in dims.items()},
                 "root_set": {str(r.epsilon): r.effort for r in rows}})


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
