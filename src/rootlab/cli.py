"""Command-line experiment driver.

Every subcommand reads a flat JSON config (flags override file values),
runs one experiment, and writes CSV/JSON artifacts atomically into the
output directory.  Outputs embed the effective config and are
byte-identical for identical config and seed.  ``claims`` runs the full
acceptance battery and exits nonzero when any claim fails; its wall-clock
times go to ``timings.json``, the one artifact outside that contract.

Range syntax for sweeps: ``lo:hi:logN`` (geometric) or ``lo:hi:linN``.
Polynomials are JSON arrays of coordinate arrays indexed by exponent,
e.g. ``[[1,0,0,0],[0,1,0,0],[1,0,0,0]]`` is 1 + i x + x^2 over H.
Waveforms are ``{"offset": 5.0, "components": [[amp, freq_hz, phase], ...]}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import claims as cl
from . import dynamics as dyn
from . import flow as fl
from . import manifolds as mf
from . import thermo as th
from .algebra import multiply_coords, parse_tag
from .poly import DAPolynomial, Deformation, potential_coords

ENV_OUT = "ROOTLAB_OUT"


class ConfigError(ValueError):
    pass


def parse_range(text: str) -> np.ndarray:
    """lo:hi:logN or lo:hi:linN."""
    try:
        lo_s, hi_s, spec = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
        kind, n_s = spec[:3], spec[3:]
        n = int(n_s)
        if n < 1:
            raise ValueError
        if kind == "log":
            return np.geomspace(lo, hi, n)
        if kind == "lin":
            return np.linspace(lo, hi, n)
        raise ValueError
    except (ValueError, IndexError):
        raise ConfigError(f"bad range {text!r}; expected lo:hi:logN or lo:hi:linN")


def parse_poly(tag_name: str, text: str) -> DAPolynomial:
    tag = parse_tag(tag_name)
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad polynomial JSON: {exc}")
    try:
        return DAPolynomial.from_coords(tag, rows)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad polynomial: {exc}")


def parse_waveform(text: str) -> dyn.Waveform:
    try:
        data = json.loads(text)
        comps = tuple(tuple(float(v) for v in c) for c in data.get("components", []))
        return dyn.Waveform(float(data["offset"]), comps)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad waveform: {exc}")


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: Path, config: dict, payload: dict) -> None:
    atomic_write(path, json.dumps({"config": config, **payload},
                                  indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, config: dict, header: str, rows: list[str]) -> None:
    cfg_line = "# config: " + json.dumps(config, sort_keys=True)
    atomic_write(path, "\n".join([cfg_line, header] + rows) + "\n")


def effective_config(args: argparse.Namespace, keys: list[str],
                     require: list[str] = ()) -> dict:
    """Config-file values overridden by explicit flags, echoed into outputs."""
    merged: dict = {}
    if getattr(args, "config", None):
        try:
            merged.update(json.loads(Path(args.config).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    for k in keys:
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            merged[k] = v
    missing = [k for k in require if merged.get(k) is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    return merged


def out_dir(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    return Path(os.environ.get(ENV_OUT, "rootlab-out"))


def cmd_algebra_check(args) -> int:
    cfg = effective_config(args, ["algebra", "n", "seed"])
    cfg.setdefault("algebra", "O")
    cfg.setdefault("n", 10000)
    tag = parse_tag(cfg["algebra"])
    rng = np.random.default_rng(int(cfg["seed"]))
    d = tag.dimension
    n = int(cfg["n"])
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(n, d))
    xy = multiply_coords(d, x, y)
    nx = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
    report = {
        "norm_multiplicativity_rel": float(np.max(
            np.abs(np.linalg.norm(xy, axis=1) - nx) / nx)),
    }
    lhs = multiply_coords(d, x, xy)
    rhs = multiply_coords(d, multiply_coords(d, x, x), y)
    report["alternativity_abs"] = float(np.max(np.linalg.norm(lhs - rhs, axis=1)))
    p2 = multiply_coords(d, x, x)
    p4 = multiply_coords(d, p2, p2)
    left = multiply_coords(d, multiply_coords(d, p2, x), x)
    report["power_assoc_rel"] = float(np.max(
        np.linalg.norm(left - p4, axis=1) / (1 + np.linalg.norm(p4, axis=1))))
    write_json(out_dir(args) / "algebra-check.json", cfg, {"laws": report})
    print(json.dumps(report, indent=2))
    return 0


def cmd_inflate(args) -> int:
    cfg = effective_config(args, ["algebra", "poly", "samples", "seed"],
                           require=["algebra", "poly"])
    cfg.setdefault("samples", 32)
    P = parse_poly(cfg["algebra"], cfg["poly"])
    rs = mf.central_root_set(P)
    rng = np.random.default_rng(int(cfg["seed"]))
    strata = []
    for s in rs.strata:
        entry: dict = {"dimension": s.dimension}
        if isinstance(s, mf.Sphere):
            entry.update(kind="sphere", re=s.re, radius=s.radius)
        elif isinstance(s, mf.IsolatedReal):
            entry.update(kind="isolated-real", value=s.value)
        else:
            entry.update(kind="isolated-point",
                         point=[float(v) for v in s.point.coords])
        worst = max(float(potential_coords(P, p.coords))
                    for p in mf.sample_stratum(s, int(cfg["samples"]), rng))
        entry["worst_sample_potential"] = worst
        strata.append(entry)
    payload = {"hausdorff_dimension": rs.hausdorff_dimension, "strata": strata}
    write_json(out_dir(args) / "inflate.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_symmetry(args) -> int:
    cfg = effective_config(args, ["poly"], require=["poly"])
    P = parse_poly("C", cfg["poly"])
    rep = mf.cd_symmetry_check(P)
    payload = {"order": rep.order, "n_roots": rep.n_roots,
               "max_mismatch": rep.max_mismatch, "pass": rep.passed}
    write_json(out_dir(args) / "symmetry.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_breathe(args) -> int:
    cfg = effective_config(args, ["k", "a", "b", "t0", "t1", "dt"],
                           require=["a", "b", "t1", "dt"])
    cfg.setdefault("k", 2)
    cfg.setdefault("t0", 0.0)
    a = parse_waveform(cfg["a"])
    b = parse_waveform(cfg["b"])
    tr = dyn.simulate_breathing(int(cfg["k"]), a, b,
                                (float(cfg["t0"]), float(cfg["t1"])),
                                float(cfg["dt"]))
    rep = dyn.detect_boundaries(tr)
    out = out_dir(args)
    rows = [
        f"{tr.times[i]:.12g},{tr.a[i]:.12g},{tr.b[i]:.12g},{tr.delta[i]:.12g},"
        f"{tr.r_inner[i]:.12g},{tr.r_outer[i]:.12g},{tr.gap[i]:.12g},{int(tr.valid[i])}"
        for i in range(tr.times.size)
    ]
    write_csv(out / "breathe-trace.csv", cfg, "t,a,b,delta,r_inner,r_outer,gap,valid", rows)
    payload = {
        "delta_crossings": [
            {"t": e.t_c, "kind": e.kind, "delta_dot": e.delta_dot}
            for e in rep.delta_crossings
        ],
        "a_zeros": list(rep.a_zeros),
        "b_zeros": list(rep.b_zeros),
        "valid_fraction": float(np.mean(tr.valid)),
    }
    write_json(out / "breathe-boundaries.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_spectra(args) -> int:
    cfg = effective_config(args, ["k", "a", "b", "n", "dt"],
                           require=["a", "b"])
    cfg.setdefault("k", 2)
    cfg.setdefault("n", 4096)
    cfg.setdefault("dt", 0.05)
    a = parse_waveform(cfg["a"])
    b = parse_waveform(cfg["b"])
    n, dt = int(cfg["n"]), float(cfg["dt"])
    tr = dyn.simulate_breathing(int(cfg["k"]), a, b, (0.0, (n - 1) * dt), dt)
    if not tr.valid.all():
        raise ConfigError("drive leaves the two-sphere regime; spectra need a valid trace")
    spec = dyn.psd(tr.r_inner, dt)
    out = out_dir(args)
    rows = [f"{f:.12g},{p:.12g}" for f, p in zip(spec.freqs, spec.power)]
    write_csv(out / "spectra-psd.csv", cfg, "freq_hz,power", rows)
    f1 = a.components[0][1] if a.components else None
    f2 = b.components[0][1] if b.components else None
    payload: dict = {}
    if f1 is not None:
        rep = dyn.spectral_peaks(spec, f1, f2)
        payload = {"floor": rep.floor, "peaks": [
            {"label": e.label, "freq": e.freq_requested, "bin_freq": e.freq_bin,
             "power": e.power, "db_above_floor": e.db_above_floor,
             "is_peak": e.is_peak} for e in rep.entries]}
    write_json(out / "spectra-peaks.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_localize(args) -> int:
    cfg = effective_config(args, ["algebra", "poly", "starts", "seed"],
                           require=["algebra", "poly"])
    cfg.setdefault("starts", 16)
    P = parse_poly(cfg["algebra"], cfg["poly"])
    roots = fl.find_attractors(P, int(cfg["starts"]), int(cfg["seed"]))
    from .poly import coefficient_subalgebra, localize_isolated_root
    dim, basis = coefficient_subalgebra(P)
    entries = []
    for r in roots:
        loc = localize_isolated_root(P, r)
        entries.append({
            "root": [float(v) for v in r.coords],
            "spherical": loc.is_spherical,
            "localized": ([float(v) for v in loc.point.coords]
                          if loc.point is not None else None),
        })
    payload = {"coefficient_subalgebra_dimension": dim, "roots": entries}
    write_json(out_dir(args) / "localize.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def _parse_deformation(cfg: dict) -> Deformation:
    tag = cfg.get("algebra", "H")
    base = parse_poly(tag, cfg.get("base", "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]"))
    default_dir = "[[1,0,0,0],[0,1,0,0]]"
    direction = parse_poly(tag, cfg.get("direction", default_dir))
    return Deformation(base, direction)


def cmd_collapse(args) -> int:
    cfg = effective_config(args, ["algebra", "base", "direction", "eps", "seed"])
    cfg.setdefault("eps", "0.005:0.1:log5")
    D = _parse_deformation(cfg)
    eps = parse_range(cfg["eps"])
    m = fl.measure_collapse(D, eps, seed=int(cfg["seed"]))
    payload = {
        "epsilons": [float(e) for e in m.epsilons],
        "times": [float(t) for t in m.times],
        "slope": m.fit_slope,
        "intercept": m.fit_intercept,
        "r2": m.r_squared,
    }
    write_json(out_dir(args) / "collapse.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_basins(args) -> int:
    cfg = effective_config(args, ["algebra", "base", "direction", "eps",
                                  "samples", "seed"])
    cfg.setdefault("eps", 0.5)
    cfg.setdefault("samples", 500)
    D = _parse_deformation(cfg)
    rep = fl.basin_decomposition(D, float(cfg["eps"]), int(cfg["samples"]),
                                 seed=int(cfg["seed"]))
    out = out_dir(args)
    rows = []
    for i in range(rep.starts.shape[0]):
        coords = ",".join(f"{v:.12g}" for v in rep.starts[i])
        rows.append(f"{coords},{rep.labels[i]},{int(rep.band_mask[i])}")
    d = rep.starts.shape[1]
    header = ",".join(f"x{j}" for j in range(d)) + ",label,equator_band"
    write_csv(out / "basins-labels.csv", cfg, header, rows)
    payload = {
        "attractors": [[float(v) for v in a.coords] for a in rep.attractors],
        "fractions": {str(k): v for k, v in rep.fractions.items()},
        "max_residual": rep.max_residual,
        "unconverged": len(rep.unconverged),
    }
    write_json(out / "basins-summary.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_thermo(args) -> int:
    cfg = effective_config(args, ["algebra", "poly", "temperature", "chains",
                                  "steps", "entropy_ladder", "seed"],
                           require=["poly"])
    cfg.setdefault("chains", 8)
    cfg.setdefault("steps", 20000)
    P = parse_poly(cfg.get("algebra", "H"), cfg["poly"])
    seed = int(cfg["seed"])
    out = out_dir(args)
    if cfg.get("entropy_ladder"):
        ladder = parse_range(cfg["entropy_ladder"])
        base = th.GibbsConfig(temperature=float(ladder[0]),
                              chains=int(cfg["chains"]), steps=int(cfg["steps"]))
        est = th.entropy_coefficient(P, ladder, base, seed=seed)
        payload = {
            "temperatures": [float(t) for t in est.temperatures],
            "alpha_fluctuation": [float(a) for a in est.alphas],
            "alpha_mean_based": [float(a) for a in est.alphas_mean_based],
            "alpha": est.alpha,
            "regime_warning": est.regime_warning,
        }
        write_json(out / "thermo-entropy.json", cfg, payload)
    else:
        if "temperature" not in cfg:
            raise ConfigError("thermo needs --temperature or --entropy-ladder")
        gc = th.GibbsConfig(temperature=float(cfg["temperature"]),
                            chains=int(cfg["chains"]), steps=int(cfg["steps"]),
                            seed=seed)
        res = th.sample_gibbs(P, gc)
        s = res.stats
        payload = {
            "mean_V": s.mean_V, "var_V": s.var_V,
            "order_parameter": s.order_parameter,
            "order_parameter_stderr": s.order_parameter_stderr,
            "acceptance": s.acceptance, "ess": s.ess, "rhat": s.rhat,
            "second_moments": [float(v) for v in s.second_moments],
            "proposal_scale": res.proposal_scale,
        }
        write_json(out / "thermo-stats.json", cfg, payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_phase_diagram(args) -> int:
    cfg = effective_config(args, ["algebra", "base", "direction", "eps_grid",
                                  "t_grid", "chains", "steps", "seed"])
    cfg.setdefault("eps_grid", "0:2.5:lin3")
    cfg.setdefault("t_grid", "0.05:2.5:log3")
    cfg.setdefault("chains", 8)
    cfg.setdefault("steps", 8000)
    D = _parse_deformation(cfg)
    eps_grid = parse_range(cfg["eps_grid"])
    t_grid = parse_range(cfg["t_grid"])
    template = th.GibbsConfig(temperature=float(t_grid[0]),
                              chains=int(cfg["chains"]), steps=int(cfg["steps"]))
    diagram = th.phase_diagram(D, eps_grid, t_grid, template,
                               seed=int(cfg["seed"]))
    rows = [
        f"{c.epsilon:.12g},{c.temperature:.12g},{c.m:.12g},{c.m_stderr:.12g},"
        f"{c.mean_V:.12g},{c.var_V:.12g},{c.acceptance:.12g},{c.flag}"
        for c in diagram.cells
    ]
    write_csv(out_dir(args) / "phase-diagram.csv", cfg,
              "epsilon,T,m,m_stderr,mean_V,var_V,acceptance,flag", rows)
    print(f"wrote {len(rows)} cells")
    return 0


def cmd_claims(args) -> int:
    cfg = effective_config(args, ["quick", "only", "seed"])
    quick = bool(cfg.get("quick"))
    only = cfg["only"].split(",") if cfg.get("only") else None
    results = cl.run_claims(quick=quick, seed=int(cfg["seed"]), only=only)
    out = out_dir(args)
    write_json(out / "claims.json", cfg, {r.claim_id: r.as_dict() for r in results})
    # wall-clock times vary run to run, so they stay out of claims.json
    write_json(out / "timings.json", cfg, {r.claim_id: {
        "seconds": round(r.seconds, 3), "budget_seconds": r.budget_seconds,
        "headroom": round(1.0 - r.seconds / r.budget_seconds, 3)} for r in results})
    n_fail = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.claim_id} {r.title}: {r.measured} ({r.seconds:.1f}s)")
        n_fail += 0 if r.passed else 1
    return 1 if n_fail else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rootlab",
        description="root manifolds over division algebras: experiments and claims",
    )
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./rootlab-out)")
    p.add_argument("--config", help="flat JSON config file; flags override")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, seed_required, flags):
        sp = sub.add_parser(name)
        for flag, kw in flags:
            sp.add_argument(flag, **kw)
        if seed_required is not None:
            sp.add_argument("--seed", type=int, required=seed_required,
                            help="rng seed" + (" (required)" if seed_required else ""))
        sp.set_defaults(handler=fn)

    f = lambda **kw: kw  # noqa: E731
    add("algebra-check", cmd_algebra_check, True,
        [("--algebra", f(help="R|C|H|O")), ("--n", f(type=int))])
    add("inflate", cmd_inflate, True,
        [("--algebra", f()), ("--poly", f()), ("--samples", f(type=int))])
    add("symmetry", cmd_symmetry, None, [("--poly", f())])
    add("breathe", cmd_breathe, None,
        [("--k", f(type=int)), ("--a", f()), ("--b", f()),
         ("--t0", f(type=float)), ("--t1", f(type=float)),
         ("--dt", f(type=float))])
    add("spectra", cmd_spectra, None,
        [("--k", f(type=int)), ("--a", f()), ("--b", f()),
         ("--n", f(type=int)), ("--dt", f(type=float))])
    add("localize", cmd_localize, True,
        [("--algebra", f()), ("--poly", f()), ("--starts", f(type=int))])
    add("collapse", cmd_collapse, True,
        [("--algebra", f()), ("--base", f()), ("--direction", f()),
         ("--eps", f(help="lo:hi:logN"))])
    add("basins", cmd_basins, True,
        [("--algebra", f()), ("--base", f()), ("--direction", f()),
         ("--eps", f(type=float)), ("--samples", f(type=int))])
    add("thermo", cmd_thermo, True,
        [("--algebra", f()), ("--poly", f()),
         ("--temperature", f(type=float)), ("--chains", f(type=int)),
         ("--steps", f(type=int)),
         ("--entropy-ladder", f(help="lo:hi:logN of temperatures"))])
    add("phase-diagram", cmd_phase_diagram, True,
        [("--algebra", f()), ("--base", f()), ("--direction", f()),
         ("--eps-grid", f()), ("--t-grid", f()), ("--chains", f(type=int)),
         ("--steps", f(type=int))])
    add("claims", cmd_claims, True,
        [("--quick", f(action="store_true", default=None)),
         ("--only", f(help="comma-separated claim ids"))])
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
