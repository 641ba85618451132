"""Compare perfbench's end-to-end metrics between two revisions, in alternating pairs.

    python3 tools/compare.py --parent REV --change REV --workload W [--workload W ...]
        --pairs N --seconds S --seed FIRST --out BENCH_<label>.json

Each revision is unpacked with `git archive` into a temporary directory of
its own, which is removed afterwards.  Pair i runs every workload once per
side with seed FIRST + i, and the side that runs first alternates: the
parent runs first in pair 0.  A run is `perfbench/run.py --workload W
--seed FIRST+i --seconds S --trace 0` inside the side's tree, under the
interpreter that runs this script and with PYTHONDONTWRITEBYTECODE=1; its
last line of stdout is its result.

The file written records the machine, both revisions, every per-pair
value of each end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the parent's interquartile range and the pairs each side won,
ties counting for neither and the direction taken from the metric's
`better`.  When any run fails, is not correct or has a failed job, the
script exits 1 and writes nothing.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Refused(Exception):
    """A run whose result may not be recorded."""


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, **kwargs).stdout


def unpack(rev, into):
    """The files of rev, unpacked into the directory into."""
    subprocess.run(["tar", "-x", "-C", into], input=git("archive", "--format=tar", rev), check=True)


def run_benchmark(tree, workload, seed, seconds):
    """The result of one untraced perfbench run of tree: its last line of stdout."""
    argv = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise Refused("%s exited %d: %s" % (" ".join(argv[1:]), done.returncode, done.stderr.strip()[-500:]))
    return json.loads(lines[-1])


def checked(result, side, workload, seed):
    """result, when it is correct and no job failed; otherwise Refused."""
    if not result.get("correct") or result.get("failed", 1) != 0:
        raise Refused("%s %s seed %d: correct %s, %s of %s jobs failed" % (
            side, workload, seed, result.get("correct"), result.get("failed"), result.get("attempted")))
    return result


def play(trees, workloads, pairs, seconds, first_seed):
    """{workload: [(parent result, change result) per pair]}, run in the
    alternating order; trees maps "parent" and "change" to their trees."""
    results = {workload: [] for workload in workloads}
    for pair in range(pairs):
        seed = first_seed + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in workloads:
            got = {side: checked(run_benchmark(trees[side], workload, seed, seconds), side, workload, seed)
                   for side in order}
            results[workload].append((got["parent"], got["change"]))
            print("pair %d seed %d %s, parent/change: %s" % (pair, seed, workload, ", ".join(
                "%s %.6g/%.6g" % (name, entry["value"], got["change"]["metrics"][name]["value"])
                for name, entry in sorted(got["parent"]["metrics"].items()))), file=sys.stderr, flush=True)
    return results


def compare(trees, workloads, pairs, seconds, first_seed):
    """The record of the pairs, without the revisions: Refused when a run
    may not be recorded.  The metrics and their directions are the
    end-to-end metrics of the parent tree's BENCHMARK.json."""
    with open(os.path.join(trees["parent"], "BENCHMARK.json"), encoding="utf-8") as handle:
        better = {metric["name"]: metric["better"] for metric in json.load(handle)["end_to_end"]}
    results = play(trees, workloads, pairs, seconds, first_seed)
    return {
        "machine": machine(),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %g --trace 0" % seconds,
        "protocol": "both revisions unpacked by git archive into directories of their own; pair i runs "
                    "each workload once per side with seed %d + i, the side that runs first alternating, "
                    "parent first in pair 0" % first_seed,
        "seeds": [first_seed + pair for pair in range(pairs)],
        "seconds": seconds,
        "workloads": {workload: summarize(pairs, better) for workload, pairs in results.items()},
    }


def summarize(pairs, better):
    """Per-metric figures of one workload's pairs; better maps each
    end-to-end metric to "lower" or "higher"."""
    metrics = {}
    for name, direction in better.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if direction == "lower" else -1
        q_parent, q_change = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": direction,
            "parent": parent,
            "change": change,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [q_parent[0], q_parent[2]],
            "change_quartiles": [q_change[0], q_change[2]],
            "parent_iqr": q_parent[2] - q_parent[0],
            "pairs_change_better": sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0),
            "pairs_parent_better": sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0),
        }
    return {
        "pairs": len(pairs),
        "attempted_jobs": {"parent": sum(p["attempted"] for p, _ in pairs),
                           "change": sum(c["attempted"] for _, c in pairs)},
        "failed_jobs": sum(p["failed"] + c["failed"] for p, c in pairs),
        "metrics": metrics,
    }


def machine():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "PYTHONDONTWRITEBYTECODE": "1",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    revs = {side: git("rev-parse", "--verify", getattr(args, side) + "^{commit}", text=True).strip()
            for side in ("parent", "change")}
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        trees = {"parent": parent, "change": change}
        for side, tree in trees.items():
            unpack(revs[side], tree)
        try:
            record = compare(trees, args.workload, args.pairs, args.seconds, args.seed)
        except Refused as exc:
            print("refused: %s; nothing written" % exc, file=sys.stderr)
            return 1
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(dict(record, parent=revs["parent"], change=revs["change"]), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
