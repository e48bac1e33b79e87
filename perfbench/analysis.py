"""Trace arithmetic: self time, percentiles and the per-layer metrics.

Everything here reads a ``spans.SpanTable`` and does no timing of its own,
so it can be checked on synthetic span lists (see ``test_analysis.py``).
"""

from __future__ import annotations

import numpy as np

from spans import LAYERS, SpanTable


def self_times(t: SpanTable) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Children are nested intervals of one thread, so their durations add up
    to the covered time.  A span from another process never counts against
    a parent: it ran at the same time, not inside it.
    """
    dur = t.end - t.start
    covered = np.zeros(len(t))
    child = np.flatnonzero(t.parent >= 0)
    child = child[t.pid[t.parent[child]] == t.pid[child]]
    np.add.at(covered, t.parent[child], dur[child])
    return dur - covered


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(v, q))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def name_mask(t: SpanTable, *names: str) -> np.ndarray:
    ids = [i for i, n in enumerate(t.names) if n in names]
    return np.isin(t.name, ids)


def has_ancestor(t: SpanTable, outer: np.ndarray) -> np.ndarray:
    """True where some strict ancestor of the span satisfies ``outer``."""
    hit = np.zeros(len(t), dtype=bool)
    cur = t.parent.copy()
    live = cur >= 0
    while np.any(live):
        idx = np.flatnonzero(live)
        hit[idx] |= outer[cur[idx]]
        cur[idx] = t.parent[cur[idx]]
        live = (cur >= 0) & ~hit
    return hit


def _note_values(t: SpanTable, mask: np.ndarray, key: str) -> list:
    return [t.notes[i][key] for i in np.flatnonzero(mask)
            if i in t.notes and key in t.notes[i]]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(t: SpanTable) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced run plus a dict of supporting counts.

    Metrics that do not apply to the trace (no trajectories, no sampler
    calls, fewer than 100 trajectories for a p90) read 0 and are listed
    under ``not_applicable`` in the returned info.
    """
    out: dict[str, float] = {}
    info: dict = {"spans": len(t), "pids": sorted(set(t.pid.tolist())),
                  "not_applicable": []}
    dur = t.end - t.start
    self_t = self_times(t)
    layer_ids = np.array([LAYERS.index(layer_of(n)) if layer_of(n) in LAYERS
                          else len(LAYERS) for n in t.names] or [0], dtype=int)
    span_layer = layer_ids[t.name] if len(t) else np.zeros(0, dtype=int)
    calls = np.bincount(span_layer, minlength=len(LAYERS) + 1)
    busy = np.bincount(span_layer, weights=self_t, minlength=len(LAYERS) + 1)
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.calls"] = float(calls[i])
        out[f"{layer}.self_s"] = float(busy[i])

    def na(name: str) -> float:
        info["not_applicable"].append(name)
        return 0.0

    # poly: single-point value-and-gradient closure, batched kernels, Newton
    vg = name_mask(t, "poly.vg")
    out["poly.vg_calls"] = float(np.sum(vg))
    out["poly.vg_us"] = float(np.mean(dur[vg]) * 1e6) if np.any(vg) else na("poly.vg_us")
    batched = name_mask(t, "poly.evaluate_coords", "poly.gradient_coords_batch") & (t.rows > 0)
    out["poly.batch_points"] = float(np.sum(t.rows[batched]))
    outer_batch = batched & ~has_ancestor(t, batched)
    out["poly.batch_ns_per_point"] = (
        _ratio(np.sum(dur[outer_batch]) * 1e9, np.sum(t.rows[outer_batch]))
        if np.any(outer_batch) else na("poly.batch_ns_per_point"))
    polish = name_mask(t, "poly.newton_polish")
    out["poly.newton_polishes"] = float(np.sum(polish))
    iters = _note_values(t, polish, "iterations")
    out["poly.newton_iters_per_polish"] = (float(np.mean(iters)) if iters
                                           else na("poly.newton_iters_per_polish"))

    # flow: trajectories, RHS work per unit of flow time, attractor yield, pool
    traj = name_mask(t, "flow.integrate")
    n_traj = int(np.sum(traj))
    info["trajectories"] = n_traj
    out["flow.trajectories"] = float(n_traj)
    rhs = int(np.sum(vg & has_ancestor(t, traj)))
    info["rhs_calls_in_integrate"] = rhs
    flow_time = float(np.sum(_note_values(t, traj, "final_time")))
    info["flow_time"] = flow_time
    out["flow.rhs_per_flow_time"] = (_ratio(rhs, flow_time) if flow_time > 0
                                     else na("flow.rhs_per_flow_time"))
    out["flow.rhs_per_trajectory"] = (_ratio(rhs, n_traj) if n_traj
                                      else na("flow.rhs_per_trajectory"))
    out["flow.traj_s.p50"] = (percentile(dur[traj], 50) if n_traj
                              else na("flow.traj_s.p50"))
    out["flow.traj_s.p90"] = (percentile(dur[traj], 90) if n_traj >= 100
                              else na("flow.traj_s.p90"))
    converged = _note_values(t, traj, "converged")
    out["flow.nonconverged_frac"] = (_ratio(converged.count(False), n_traj) if n_traj
                                     else na("flow.nonconverged_frac"))
    search = name_mask(t, "flow.attractors_from_starts")
    starts = sum(_note_values(t, search, "starts"))
    found = sum(_note_values(t, search, "found"))
    info["attractor_search"] = {"starts": starts, "found": found}
    out["flow.attractor_yield"] = (_ratio(found, starts) if starts
                                   else na("flow.attractor_yield"))
    out["flow.pool_speedup"], info["collapse"] = _pool_speedup(t, dur)
    if not out["flow.pool_speedup"]:
        na("flow.pool_speedup")

    # thermo: chain-steps, their rate and their useful-work ratio
    gibbs = name_mask(t, "thermo.sample_gibbs")
    ok = [i for i in np.flatnonzero(gibbs) if "chain_steps" in t.notes.get(i, {})]
    steps = sum(t.notes[i]["chain_steps"] for i in ok)
    kept = sum(t.notes[i]["kept"] for i in ok)
    out["thermo.chain_steps"] = float(steps)
    out["thermo.chain_steps_per_s"] = (_ratio(steps, np.sum(dur[ok])) if ok
                                       else na("thermo.chain_steps_per_s"))
    out["thermo.ess_per_chain_step"] = (
        _ratio(sum(t.notes[i]["ess"] for i in ok), kept) if ok
        else na("thermo.ess_per_chain_step"))
    out["thermo.acceptance"] = (
        _ratio(sum(t.notes[i]["acceptance"] * t.notes[i]["kept"] for i in ok), kept)
        if ok else na("thermo.acceptance"))
    out["thermo.diag_errors"] = float(sum(
        1 for i in np.flatnonzero(gibbs)
        if t.notes.get(i, {}).get("error") == "SamplerDiagnosticError"))
    info["sampler_calls"] = int(np.sum(gibbs))
    return out, info


def _pool_speedup(t: SpanTable, dur: np.ndarray) -> tuple[float, dict]:
    """Summed per-epsilon busy time over ``measure_collapse`` wall time.

    Busy time is the duration of every ``collapse_time`` span, in any
    process, that starts inside a ``measure_collapse`` span.  The info says
    whether those spans covered every epsilon of every call, and from which
    worker pids they came.
    """
    outer = np.flatnonzero(name_mask(t, "flow.measure_collapse"))
    inner = np.flatnonzero(name_mask(t, "flow.collapse_time"))
    busy = 0.0
    wall = 0.0
    covered = True
    workers: set[int] = set()
    for o in outer:
        inside = inner[(t.start[inner] >= t.start[o]) & (t.start[inner] <= t.end[o])]
        busy += float(np.sum(dur[inside]))
        wall += float(dur[o])
        seen = sorted(t.notes[i]["eps"] for i in inside if "eps" in t.notes.get(i, {}))
        covered &= seen == sorted(t.notes.get(o, {}).get("eps", [None]))
        workers |= {int(p) for p in t.pid[inside] if p != t.pid[o]}
    info = {"calls": len(outer), "collapse_spans": len(inner),
            "all_eps_covered": bool(covered), "worker_pids": sorted(workers)}
    return (_ratio(busy, wall) if wall else 0.0), info
