"""rootlab benchmark: one workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up several fresh interpreters to time set-up, then runs
the workload back to back until ``--seconds`` have passed (at least once)
and reports the end-to-end metrics.  ``--trace 1`` times the kernel table,
runs the workload once untraced and once with every public function of the
traced layers wrapped, requires identical claim outputs from both, and
reports the per-layer metrics.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, where an attempt is one
claim run and a failure is a claim that raised or whose verdict differs
from the one recorded for that claim and seed (``perfbench/verdicts.json``).
The line before it is the full report: machine record, set-up samples,
and every claim's verdict, ``measured`` string and ``details``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "budget_frac": "ratio",
    "peak_rss_mb": "MB",
}
CLAIM_METRIC_IDS = ("c05", "c08", "c10", "c11", "c12", "c13")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from kernels import BATCHES

    units = {}
    for layer in ("algebra", "poly", "manifolds", "flow", "thermo"):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "poly.vg_calls": "count", "poly.vg_us": "us",
        "poly.batch_points": "count", "poly.batch_ns_per_point": "ns",
        "poly.newton_polishes": "count", "poly.newton_iters_per_polish": "count",
        "flow.trajectories": "count", "flow.rhs_per_flow_time": "rhs/flow_time",
        "flow.rhs_per_trajectory": "rhs/traj", "flow.traj_s.p50": "s",
        "flow.traj_s.p90": "s", "flow.nonconverged_frac": "ratio",
        "flow.attractor_yield": "ratio", "flow.pool_speedup": "ratio",
        "thermo.chain_steps": "count", "thermo.chain_steps_per_s": "1/s",
        "thermo.ess_per_chain_step": "ratio", "thermo.acceptance": "ratio",
        "thermo.diag_errors": "count",
    })
    for cid in CLAIM_METRIC_IDS:
        units[f"claims.{cid}.s"] = "s"
        units[f"claims.{cid}.budget_frac"] = "ratio"
    units["claims.failed_frac"] = "ratio"
    for alg in "RCHO":
        for n in BATCHES:
            units[f"poly.vg_us.{alg}.b{n}"] = "us"
    for alg in "RCHO":
        units[f"algebra.mul_ns.{alg}"] = "ns"
    units["trace.overhead_frac"] = "ratio"
    return units


def import_rootlab():
    """Import the checkout's ``src/rootlab``; exit with an error if it is not there."""
    src = ROOT / "src"
    if not (src / "rootlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rootlab sources under {src}")
    sys.path.insert(0, str(src))
    import rootlab
    from rootlab import algebra, claims, flow, manifolds, poly, thermo  # noqa: F401

    if Path(rootlab.__file__).resolve().parent != (src / "rootlab").resolve():
        sys.exit(f"perfbench: imported rootlab from {rootlab.__file__}, not {src}")
    return claims


def set_up(workload: str):
    """Imports plus the workload's claim entry points: what set-up times."""
    import workloads

    return workloads.claim_functions(import_rootlab(), workload)


def measure_setup(workload: str) -> list[float]:
    """Seconds from launching a fresh interpreter to inputs ready, per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    threads = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                          "MKL_NUM_THREADS") if k in os.environ}
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                     if k in blas},
            "blas_thread_env": threads}


def peak_rss_mb() -> float:
    """Larger ``ru_maxrss`` of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def wall(records) -> float:
    return sum(r["seconds"] for r in records)


def per_claim(records) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        out.setdefault(r["claim"], []).append(r)
    return out


def failed_frac(records) -> float:
    """Share of the workload's claims with a false numerical verdict at any seed."""
    claims = per_claim(records)
    return sum(any(r.get("passed") is False for r in rs) for rs in claims.values()) / len(claims)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Passes until ``seconds`` have gone (at least one); per-claim medians.

    ``wall_s`` is the sum over the workload's claims of each claim's median
    time over its seeds, and ``budget_frac`` the largest median time over
    budget among them.
    """
    import workloads

    setup = measure_setup(workload)
    entries = set_up(workload)
    records = []
    passes = 0
    stop = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < stop:
        records += workloads.run_pass(entries, seed, passes)
        passes += 1
    claims = per_claim(records)
    median_s = {cid: statistics.median(r["seconds"] for r in rs)
                for cid, rs in claims.items()}
    budget = {cid: median_s[cid] / rs[0]["budget_seconds"]
              for cid, rs in claims.items() if "budget_seconds" in rs[0]}
    unexpected = workloads.unexpected(records)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(median_s.values()),
        "budget_frac": max(budget.values(), default=0.0),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "setup_samples_s": setup,
        "passes": passes,
        "claim_median_s": median_s,
        "claim_samples": {cid: len(rs) for cid, rs in claims.items()},
        "claim_budget_frac": budget,
        "failed_frac": failed_frac(records),
        "budget_note": ("quick-mode c08 over the full-mode c08 budget"
                        if workload == "collapse" else ""),
        "unexpected": unexpected,
        "records": records,
    }
    result = {"correct": not unexpected, "attempted": len(records),
              "failed": len(unexpected)}
    return result | {"metrics": metrics}, report


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    import workloads
    from analysis import layer_metrics
    from kernels import kernel_table
    from spans import Recorder, install

    entries = set_up(workload)
    from rootlab import algebra, poly

    kernels = kernel_table(algebra, poly, seed)
    base = workloads.run_once(entries, seed)
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-trace-", dir=ROOT))
    try:
        rec = Recorder(out_dir)
        wrapped = install(rec)
        spanned = [(cid, quick, k, rec.wrap(f"claims.{cid}", fn))
                   for cid, quick, k, fn in entries]
        with_trace = workloads.run_once(spanned, seed)
        table = rec.table()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    metrics, info = layer_metrics(table)
    by_claim = {r["claim"]: r for r in base}
    for cid in CLAIM_METRIC_IDS:
        r = by_claim.get(cid, {})
        if "budget_frac" not in r:
            info["not_applicable"] += [f"claims.{cid}.s", f"claims.{cid}.budget_frac"]
        metrics[f"claims.{cid}.s"] = r.get("seconds", 0.0)
        metrics[f"claims.{cid}.budget_frac"] = r.get("budget_frac", 0.0)
    metrics["claims.failed_frac"] = failed_frac(base)
    metrics.update(kernels)
    metrics["trace.overhead_frac"] = (wall(with_trace) - wall(base)) / wall(base)
    unexpected = workloads.unexpected(base) + workloads.unexpected(with_trace)
    identical = workloads.outputs(base) == workloads.outputs(with_trace)
    workers_ok = (info["collapse"]["calls"] == 0
                  or (info["collapse"]["all_eps_covered"]
                      and bool(info["collapse"]["worker_pids"])))
    report = {
        "functions_wrapped": wrapped,
        "untraced_wall_s": wall(base),
        "traced_wall_s": wall(with_trace),
        "traced_outputs_identical": identical,
        "worker_spans_cover_all_eps": workers_ok,
        "unexpected": unexpected,
        "layers": info,
        "records": base,
    }
    result = {"correct": not unexpected and identical and workers_ok,
              "attempted": len(base) + len(with_trace), "failed": len(unexpected)}
    return result | {"metrics": metrics}, report


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        set_up(args.workload)
        print(time.monotonic())
        return 0
    if args.trace:
        result, report = traced(args.workload, args.seed)
        units = per_layer_units()
    else:
        result, report = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END
    mismatch = set(units) ^ set(result["metrics"])
    if mismatch:
        raise RuntimeError(f"metric set mismatch: {sorted(mismatch)}")
    result["metrics"] = {k: {"value": float(result["metrics"][k]), "unit": u}
                         for k, u in units.items()}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_record()} | report
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
