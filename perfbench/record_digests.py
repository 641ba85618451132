"""Record the SHA-256 of stdout of every CLI job in the seed-0 job lists.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json, which run.py compares each CLI job against
whenever the job's argv has a recorded digest.  Every output is first
checked by the invariant oracles.  Re-record only on purpose: the program's
exact output is meant to stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys

import jobs
import oracles
from run import DIGESTS, JOB_TIMEOUT_S, SRC
from workloads import WORKLOADS


def main():
    digests = {}
    for workload in WORKLOADS.values():
        if workload.kind != "cli":
            continue
        for block in workload.blocks(0):
            for job in block:
                key = " ".join(job["argv"])
                if key in digests:
                    continue
                outcome = jobs.run_cli(SRC, job["argv"], JOB_TIMEOUT_S)
                reason = "timed out" if outcome.timed_out else oracles.check_cli(
                    job["argv"], outcome.code, outcome.stdout, {})
                if reason is not None:
                    print("error: %s: %s" % (key, reason), file=sys.stderr)
                    return 1
                digests[key] = hashlib.sha256(outcome.stdout).hexdigest()
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("%d digests written to %s" % (len(digests), DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
