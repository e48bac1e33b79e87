"""Command-line experiment driver.

``COMMANDS`` declares each subcommand's handler and parameters, each with
its type and default or marked required.  A run's config is those defaults,
then a flat JSON ``--config`` file (any parameter, the seed included), then
explicit flags.  Every CSV/JSON artifact, written atomically, echoes that
full config and is byte-identical for identical config and seed; CSV fields
are quoted where needed.  ``claims`` runs the acceptance battery and exits
nonzero when any claim fails; its wall-clock times go to ``timings.json``,
the one artifact outside that contract.

Range syntax for sweeps: ``lo:hi:logN`` (geometric) or ``lo:hi:linN``.
Polynomials are JSON arrays of coordinate arrays indexed by exponent,
e.g. ``[[1,0,0,0],[0,1,0,0],[1,0,0,0]]`` is 1 + i x + x^2 over H.
Waveforms are ``{"offset": 5.0, "components": [[amp, freq_hz, phase], ...]}``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import claims as cl
from . import dynamics as dyn
from . import flow as fl
from . import manifolds as mf
from . import thermo as th
from .algebra import law_residuals, parse_tag
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


def emit(path: Path, config: dict, payload: dict) -> None:
    """Write a JSON artifact and print its payload."""
    write_json(path, config, payload)
    print(json.dumps(payload, indent=2))


def _csv_field(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{v:.12g}"
    return v if isinstance(v, str) else str(int(v))     # ints; bools as 0/1


def write_csv(path: Path, config: dict, columns: dict) -> None:
    """A ``# config:`` line, then the named columns as quoted-as-needed CSV."""
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*([_csv_field(v) for v in col] for col in columns.values())))
    atomic_write(path, buf.getvalue())


def cmd_algebra_check(cfg: dict, out: Path) -> int:
    tag = parse_tag(cfg["algebra"])
    x, y = np.random.default_rng(cfg["seed"]).normal(size=(2, cfg["n"], tag.dimension))
    emit(out / "algebra-check.json", cfg, {"laws": law_residuals(tag, x, y)})
    return 0


def cmd_inflate(cfg: dict, out: Path) -> int:
    P = parse_poly(cfg["algebra"], cfg["poly"])
    rs = mf.root_set(P)
    rng = np.random.default_rng(cfg["seed"])
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
        entry["worst_sample_potential"] = max(
            float(potential_coords(P, p.coords))
            for p in mf.sample_stratum(s, cfg["samples"], rng))
        strata.append(entry)
    emit(out / "inflate.json", cfg,
         {"hausdorff_dimension": rs.hausdorff_dimension, "strata": strata})
    return 0


def cmd_symmetry(cfg: dict, out: Path) -> int:
    rep = mf.cd_symmetry_check(parse_poly("C", cfg["poly"]))
    emit(out / "symmetry.json", cfg, {"order": rep.order, "n_roots": rep.n_roots,
                                      "max_mismatch": rep.max_mismatch,
                                      "pass": rep.passed})
    return 0


def cmd_breathe(cfg: dict, out: Path) -> int:
    a = parse_waveform(cfg["a"])
    b = parse_waveform(cfg["b"])
    tr = dyn.simulate_breathing(cfg["k"], a, b, (cfg["t0"], cfg["t1"]), cfg["dt"])
    rep = dyn.detect_boundaries(tr)
    write_csv(out / "breathe-trace.csv", cfg, dict(
        t=tr.times, a=tr.a, b=tr.b, delta=tr.delta, r_inner=tr.r_inner,
        r_outer=tr.r_outer, gap=tr.gap, valid=tr.valid))
    emit(out / "breathe-boundaries.json", cfg, {
        "delta_crossings": [{"t": e.t_c, "kind": e.kind, "delta_dot": e.delta_dot}
                            for e in rep.delta_crossings],
        "a_zeros": list(rep.a_zeros),
        "b_zeros": list(rep.b_zeros),
        "valid_fraction": float(np.mean(tr.valid)),
    })
    return 0


def cmd_spectra(cfg: dict, out: Path) -> int:
    a = parse_waveform(cfg["a"])
    b = parse_waveform(cfg["b"])
    n, dt = cfg["n"], cfg["dt"]
    tr = dyn.simulate_breathing(cfg["k"], a, b, (0.0, (n - 1) * dt), dt)
    if not tr.valid.all():
        raise ConfigError("drive leaves the two-sphere regime; spectra need a valid trace")
    spec = dyn.psd(tr.r_inner, dt)
    write_csv(out / "spectra-psd.csv", cfg, {"freq_hz": spec.freqs, "power": spec.power})
    payload: dict = {}
    if a.components:
        f2 = b.components[0][1] if b.components else None
        rep = dyn.spectral_peaks(spec, a.components[0][1], f2)
        payload = {"floor": rep.floor, "peaks": [
            {"label": e.label, "freq": e.freq_requested, "bin_freq": e.freq_bin,
             "power": e.power, "db_above_floor": e.db_above_floor,
             "is_peak": e.is_peak} for e in rep.entries]}
    emit(out / "spectra-peaks.json", cfg, payload)
    return 0


def cmd_localize(cfg: dict, out: Path) -> int:
    from .poly import coefficient_subalgebra, localize_isolated_root
    P = parse_poly(cfg["algebra"], cfg["poly"])
    roots = fl.find_attractors(P, cfg["starts"], cfg["seed"])
    dim, _ = coefficient_subalgebra(P)
    entries = []
    for r in roots:
        loc = localize_isolated_root(P, r)
        entries.append({
            "root": [float(v) for v in r.coords],
            "spherical": loc.is_spherical,
            "localized": ([float(v) for v in loc.point.coords]
                          if loc.point is not None else None),
        })
    emit(out / "localize.json", cfg,
         {"coefficient_subalgebra_dimension": dim, "roots": entries})
    return 0


def _parse_deformation(cfg: dict) -> Deformation:
    return Deformation(parse_poly(cfg["algebra"], cfg["base"]),
                       parse_poly(cfg["algebra"], cfg["direction"]))


def cmd_collapse(cfg: dict, out: Path) -> int:
    m = fl.measure_collapse(_parse_deformation(cfg), parse_range(cfg["eps"]),
                            seed=cfg["seed"])
    emit(out / "collapse.json", cfg, {
        "epsilons": [float(e) for e in m.epsilons], "times": [float(t) for t in m.times],
        "slope": m.fit_slope, "intercept": m.fit_intercept, "r2": m.r_squared})
    return 0


def cmd_basins(cfg: dict, out: Path) -> int:
    rep = fl.basin_decomposition(_parse_deformation(cfg), cfg["eps"], cfg["samples"],
                                 seed=cfg["seed"])
    columns = {f"x{j}": rep.starts[:, j] for j in range(rep.starts.shape[1])}
    columns.update(label=rep.labels, equator_band=rep.band_mask)
    write_csv(out / "basins-labels.csv", cfg, columns)
    emit(out / "basins-summary.json", cfg, {
        "attractors": [[float(v) for v in a.coords] for a in rep.attractors],
        "fractions": {str(k): v for k, v in rep.fractions.items()},
        "max_residual": rep.max_residual,
        "max_rise": rep.max_rise,
        "unconverged": len(rep.unconverged),
    })
    return 0


def cmd_thermo(cfg: dict, out: Path) -> int:
    P = parse_poly(cfg["algebra"], cfg["poly"])
    if cfg.get("entropy_ladder"):
        if "temperature" in cfg:
            raise ConfigError("--temperature and --entropy-ladder exclude each other")
        ladder = parse_range(cfg["entropy_ladder"])
        base = th.GibbsConfig(temperature=float(ladder[0]),
                              chains=cfg["chains"], steps=cfg["steps"])
        est = th.entropy_coefficient(P, ladder, base, seed=cfg["seed"])
        emit(out / "thermo-entropy.json", cfg, {
            "temperatures": [float(t) for t in est.temperatures],
            "alpha_fluctuation": [float(a) for a in est.alphas],
            "alpha_mean_based": [float(a) for a in est.alphas_mean_based],
            "alpha": est.alpha,
            "regime_warning": est.regime_warning,
            "acceptance": [float(a) for a in est.acceptance],
            "ess": [float(e) for e in est.ess],
            "rhat": [float(r) for r in est.rhat],
            "proposal_scale": [float(c) for c in est.proposal_scale],
        })
        return 0
    if "temperature" not in cfg:
        raise ConfigError("thermo needs --temperature or --entropy-ladder")
    res = th.sample_gibbs(P, th.GibbsConfig(
        temperature=cfg["temperature"], chains=cfg["chains"], steps=cfg["steps"],
        seed=cfg["seed"]))
    s = res.stats
    emit(out / "thermo-stats.json", cfg, {
        "mean_V": s.mean_V, "var_V": s.var_V,
        "order_parameter": s.order_parameter,
        "order_parameter_stderr": s.order_parameter_stderr,
        "acceptance": s.acceptance, "ess": s.ess, "rhat": s.rhat,
        "second_moments": [float(v) for v in s.second_moments],
        "proposal_scale": res.proposal_scale,
    })
    return 0


def cmd_phase_diagram(cfg: dict, out: Path) -> int:
    t_grid = parse_range(cfg["t_grid"])
    template = th.GibbsConfig(temperature=float(t_grid[0]),
                              chains=cfg["chains"], steps=cfg["steps"])
    diagram = th.phase_diagram(_parse_deformation(cfg), parse_range(cfg["eps_grid"]),
                               t_grid, template, seed=cfg["seed"])
    # one column per PhaseCell field, in field order
    names = ("epsilon", "T", "m", "m_stderr", "mean_V", "var_V", "acceptance", "flag")
    write_csv(out / "phase-diagram.csv", cfg,
              dict(zip(names, zip(*map(astuple, diagram.cells)))))
    print(f"wrote {len(diagram.cells)} cells")
    return 0


def cmd_claims(cfg: dict, out: Path) -> int:
    only = cfg["only"].split(",") if cfg.get("only") else None
    results = cl.run_claims(quick=cfg["quick"], seed=cfg["seed"], only=only)
    write_json(out / "claims.json", cfg, {r.claim_id: r.as_dict() for r in results})
    # wall-clock times vary run to run, so they stay out of claims.json
    write_json(out / "timings.json", cfg, {r.claim_id: {
        "seconds": round(r.seconds, 3), "budget_seconds": r.budget_seconds,
        "headroom": round(1.0 - r.seconds / r.budget_seconds, 3)} for r in results})
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] {r.claim_id} {r.title}: {r.measured} ({r.seconds:.1f}s)")
    return 0 if all(r.passed for r in results) else 1


REQUIRED = object()                # default marker: a flag or --config must set it


class Param(NamedTuple):
    """One subcommand parameter; a default of None lets it stay unset."""
    name: str                      # config key; the flag is --name with '-' for '_'
    type: Callable[[Any], Any] = str
    default: Any = None
    help: str = ""


SEED = Param("seed", int, REQUIRED, "rng seed")
POLY = Param("poly", str, REQUIRED)
DEFORMATION = (Param("algebra", str, "H"),
               Param("base", str, "[[1,0,0,0],[0,0,0,0],[1,0,0,0]]"),
               Param("direction", str, "[[1,0,0,0],[0,1,0,0]]"))
WAVEFORMS = (Param("k", int, 2), Param("a", str, REQUIRED), Param("b", str, REQUIRED))

COMMANDS: dict[str, tuple[Callable[[dict, Path], int], tuple[Param, ...]]] = {
    "algebra-check": (cmd_algebra_check, (
        Param("algebra", str, "O", "R|C|H|O"), Param("n", int, 10000), SEED)),
    "inflate": (cmd_inflate, (
        Param("algebra", str, REQUIRED), POLY, Param("samples", int, 32), SEED)),
    "symmetry": (cmd_symmetry, (POLY,)),
    "breathe": (cmd_breathe, (
        *WAVEFORMS, Param("t0", float, 0.0), Param("t1", float, REQUIRED),
        Param("dt", float, REQUIRED))),
    "spectra": (cmd_spectra, (
        *WAVEFORMS, Param("n", int, 4096), Param("dt", float, 0.05))),
    "localize": (cmd_localize, (
        Param("algebra", str, REQUIRED), POLY, Param("starts", int, 16), SEED)),
    "collapse": (cmd_collapse, (
        *DEFORMATION, Param("eps", str, "0.005:0.1:log5", "lo:hi:logN"), SEED)),
    "basins": (cmd_basins, (
        *DEFORMATION, Param("eps", float, 0.5), Param("samples", int, 500), SEED)),
    "thermo": (cmd_thermo, (
        Param("algebra", str, "H"), POLY, Param("temperature", float),
        Param("chains", int, 8), Param("steps", int, 20000),
        Param("entropy_ladder", str, None, "lo:hi:logN of temperatures"), SEED)),
    "phase-diagram": (cmd_phase_diagram, (
        *DEFORMATION, Param("eps_grid", str, "0:2.5:lin3"),
        Param("t_grid", str, "0.05:2.5:log3"), Param("chains", int, 8),
        Param("steps", int, 8000), SEED)),
    "claims": (cmd_claims, (
        Param("quick", bool, False), Param("only", str, None, "comma-separated claim ids"),
        SEED)),
}


def effective_config(args: argparse.Namespace) -> dict:
    """Table defaults, then the --config file, then explicit flags, typed."""
    params = COMMANDS[args.command][1]
    cfg = {p.name: p.default for p in params if p.default is not None}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update({p.name: data[p.name] for p in params
                    if data.get(p.name) is not None})
    cfg.update({p.name: getattr(args, p.name) for p in params if hasattr(args, p.name)})
    missing = [p.name for p in params if cfg.get(p.name) is REQUIRED]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    try:
        return {p.name: p.type(cfg[p.name]) for p in params if p.name in cfg}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter value: {exc}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rootlab",
        description="root manifolds over division algebras: experiments and claims",
    )
    p.add_argument("--out", help=f"output directory (default ${ENV_OUT} or ./rootlab-out)")
    p.add_argument("--config", help="flat JSON config file; flags override")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, params) in COMMANDS.items():
        sp = sub.add_parser(name)
        for q in params:
            note = ("required" if q.default is REQUIRED
                    else None if q.default is None else f"default {q.default}")
            kind = {"action": "store_true"} if q.type is bool else {"type": q.type}
            sp.add_argument("--" + q.name.replace("_", "-"), dest=q.name,
                            default=argparse.SUPPRESS,
                            help=", ".join(filter(None, (q.help, note))) or None, **kind)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = Path(args.out or os.environ.get(ENV_OUT, "rootlab-out"))
    try:
        return COMMANDS[args.command][0](effective_config(args), out)
    except (ValueError, KeyError) as exc:         # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
