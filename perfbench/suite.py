"""Run every workload once per seed and print each claim's budget fraction.

    python3 perfbench/suite.py --seeds 1,2

Each run is a fresh interpreter (``run.py --trace 0 --seconds 0``, one
pass), one after another.  The first seed is the Tier-1 seed; the others
are held out, so a claim that only fits its budget at seed 1 shows.  The
table gives each claim's time and budget fraction at the seed itself
(seeds 0 to 23 reach the claims unchanged; see ``workloads.SEED_POOL``).
Prints one JSON object per run before the table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, pool_seed

RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 600


def run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    return {
        "workload": workload, "seed": seed, "correct": result["correct"],
        "wall_s": result["metrics"]["wall_s"]["value"],
        "budget_frac": result["metrics"]["budget_frac"]["value"],
        "failed_frac": report["failed_frac"],
        # the claim run at the seed itself, not at the pass's other pool seeds
        "claims": {r["claim"]: {"seconds": r["seconds"],
                                "budget_frac": r.get("budget_frac"),
                                "passed": r.get("passed")}
                   for r in report["records"] if r["seed"] == pool_seed(seed, 0)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,2")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    rows = []
    for seed in seeds:
        for workload in WORKLOADS:
            rows.append(run(workload, seed))
            print(json.dumps(rows[-1]), flush=True)
    print(f"{'claim':6} " + " ".join(f"{'seed ' + str(s):>18}" for s in seeds))
    cids = [cid for w in WORKLOADS.values() for cid, *_ in w]
    for cid in cids:
        cells = []
        for seed in seeds:
            c = next(r["claims"][cid] for r in rows if r["seed"] == seed and cid in r["claims"])
            frac = c["budget_frac"]
            cells.append(f"{c['seconds']:7.2f}s {frac:6.3f}" if frac is not None
                         else f"{'error':>18}")
        print(f"{cid:6} " + " ".join(f"{cell:>18}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
