"""Record every workload claim's numerical verdict at every pool seed.

    python3 perfbench/record_verdicts.py                  # all claims
    python3 perfbench/record_verdicts.py --claims c05,c13  # a subset

Runs each claim of ``workloads.WORKLOADS`` (in its workload's mode) at every
seed of ``workloads.SEED_POOL`` and merges the verdicts into
``perfbench/verdicts.json``, the table the correctness gate compares every
run against.  Run it only at a commit whose verdicts are to become the
expected ones; a claim that is red at a seed is recorded red and counted,
never dropped.  One line per claim run goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads
from run import import_rootlab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--claims", default=",".join(workloads.CLAIMS))
    args = ap.parse_args(argv)
    claims = import_rootlab()
    wanted = args.claims.split(",")
    recorded = {}
    for cid in wanted:
        quick = workloads.CLAIMS[cid]
        fn = claims.REGISTRY[claims.CLAIM_IDS.index(cid)]
        for seed in workloads.SEED_POOL:
            r = workloads.run_claim(cid, quick, fn, seed)
            if "error" in r:
                sys.exit(f"perfbench: {cid} raised at seed {seed}:\n{r['error']}")
            recorded.setdefault(cid, {})[str(seed)] = r["passed"]
            print(json.dumps({k: r[k] for k in ("claim", "seed", "passed", "seconds",
                                                "measured")}), flush=True)
    table = workloads.load_verdicts() if workloads.VERDICTS_FILE.is_file() else {}
    table.update(recorded)
    workloads.VERDICTS_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
