"""The four workloads: which acceptance claims each runs, and how.

Each workload drives claims through ``claims.REGISTRY`` / ``claims.CLAIM_IDS``
(the path ``rootlab claims --only`` takes), one claim after another in one
process: a closed loop with one client.  The verdict is read from the claim
function itself, so a runtime-budget overrun shows only in ``budget_frac``,
never as a failed verdict.

A claim's run time depends on its seed (c05 takes 4.1 s to 6.8 s over seeds
0 to 5), so one pass runs each claim at several seeds and the benchmark
reports each claim's median.  The claim seeds come from ``SEED_POOL``, at
whose every seed each claim's verdict was recorded (``verdicts.json``); the
workload seed picks the position in the pool.
"""

from __future__ import annotations

import json
import time
import traceback
from pathlib import Path

# (claim id, quick mode, seeds per pass) per workload, in run order.  The
# counts give more samples to the claims whose time spreads most between
# runs (c05 most: its time sets multistart's budget_frac) while one pass of
# any workload stays under ~50 s.
WORKLOADS = {
    "collapse": (("c08", True, 2),),
    "multistart": (("c05", False, 4), ("c13", False, 1)),
    "basins": (("c10", False, 2),),
    "gibbs": (("c11", False, 1), ("c12", False, 1)),
}
# Each claim with its mode, as the workloads run it.
CLAIMS = {cid: quick for claims in WORKLOADS.values() for cid, quick, _ in claims}

# The claim seeds.  Workload seed ``s`` starts at position ``s mod 25``, so
# seeds 0 to 23 (the Tier-1 seed 1 among them) reach the claims unchanged.
# 1966449962 is a seed at which c05 is red: its 12-start attractor search on
# x^2 + ix + 1 finds one of the two roots (one miss in 101 seeds checked).
# It stays in the pool, counted like c11, so the miss shows.
SEED_POOL = tuple(range(24)) + (1966449962,)

# Numerical verdict of every claim at every pool seed, recorded by
# ``record_verdicts.py`` at the commit that introduced the benchmark.  c11 is
# red there: its H_restored window does not hold for the benchmark family
# (the sampler agrees with an independent importance-sampling check).  Red
# verdicts are expected and counted, never skipped.
VERDICTS_FILE = Path(__file__).resolve().parent / "verdicts.json"


def load_verdicts() -> dict[str, dict[str, bool]]:
    return json.loads(VERDICTS_FILE.read_text())


def pool_seed(seed: int, position: int) -> int:
    """The claim seed ``position`` places after workload seed ``seed``'s start."""
    return SEED_POOL[(seed + position) % len(SEED_POOL)]


def claim_functions(claims, workload: str) -> list[tuple[str, bool, int, object]]:
    """Resolve a workload's claims to their registered functions."""
    return [(cid, quick, per_pass, claims.REGISTRY[claims.CLAIM_IDS.index(cid)])
            for cid, quick, per_pass in WORKLOADS[workload]]


def run_claim(cid: str, quick: bool, fn, seed: int) -> dict:
    """Run one claim at ``seed`` and record its verdict, outputs and time.

    A claim that raises is recorded with its traceback; it counts as a
    failed operation and the caller goes on with the next claim.
    """
    t0 = time.perf_counter()
    try:
        result = fn(quick, seed)
    except Exception:
        return {"claim": cid, "seed": seed, "seconds": time.perf_counter() - t0,
                "error": traceback.format_exc()}
    seconds = time.perf_counter() - t0
    return {
        "claim": cid, "seed": seed, "seconds": seconds,
        "budget_seconds": result.budget_seconds,
        "budget_frac": seconds / result.budget_seconds,
        "passed": bool(result.passed),
        "measured": result.measured,
        "details": json.loads(json.dumps(result.details, default=str)),
    }


def run_pass(entries, seed: int, index: int) -> list[dict]:
    """Pass ``index``: each claim at its next ``per_pass`` pool seeds."""
    return [run_claim(cid, quick, fn, pool_seed(seed, index * per_pass + k))
            for cid, quick, per_pass, fn in entries for k in range(per_pass)]


def run_once(entries, seed: int) -> list[dict]:
    """Each claim once, at the first pool seed of pass 0."""
    return [run_claim(cid, quick, fn, pool_seed(seed, 0)) for cid, quick, _, fn in entries]


def outputs(records: list[dict]) -> str:
    """Claim outputs as one canonical string, for byte-for-byte comparison."""
    return json.dumps([[r["claim"], r["seed"], r.get("passed"), r.get("measured"),
                        r.get("details")] for r in records], sort_keys=True)


def unexpected(records: list[dict]) -> list[str]:
    """Claims that raised or whose verdict differs from the recorded one."""
    verdicts = load_verdicts()
    return [r["claim"] for r in records
            if "error" in r or r["passed"] != verdicts[r["claim"]][str(r["seed"])]]
