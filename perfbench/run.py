"""End-to-end benchmark of periodhecke, driven from outside as its users drive it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is scalar-chains, coset-tables, residual-session, or all.  One client
runs a closed loop: the next job is sent only after the previous one has
completed, and at most one worker process exists at a time.  With --trace 0
the run replays the seed's job list, whole blocks at a time, until S
seconds have passed, and reports the end-to-end metrics.  With --trace 1 it
runs a fixed prefix of the list with wrappers at every module boundary,
replays the same jobs untraced, and reports the per-layer metrics and the
tracing overhead.  Every job's output is checked.  Latencies are taken on
the workers' CPU clock and, in the end-to-end metrics, scaled by a reference
loop each worker runs around its job (see jobs.py and scaled()); the
wall-clock and unscaled figures are printed alongside.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the same figures for people, with
provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import jobs
import oracles
import tracing
from workloads import WORKLOADS, list_digest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

# Set-up probes run before the first block and after every block, so that
# their median spans the whole run: the machine's speed drifts.
SETUP_PROBES_FIRST = 5
SETUP_PROBES_PER_BLOCK = 2
JOB_TIMEOUT_S = 40.0
# No job is dispatched this long after the run started, whatever --seconds
# says, so that a run ends within its time limit even on a slow commit.
HARD_STOP_S = 120.0

# The CPU time the reference loop stands for: a job that takes k times as long
# as the loop in its own worker is reported as taking k * REFERENCE_UNIT_S.
REFERENCE_UNIT_S = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MiB",
}


class CliRunner:
    """Runs each job as a cold CLI process."""

    def __init__(self, trace, digests):
        self.trace = trace
        self.digests = digests
        self.summary = None
        self.rss_kb = 0

    def run(self, job):
        """Returns (wall seconds, CPU seconds, reference loop CPU seconds or
        None, completed, failure reason or None)."""
        argv = job["argv"]
        outcome = jobs.run_cli(SRC, argv, JOB_TIMEOUT_S, self.trace)
        self.rss_kb = max(self.rss_kb, outcome.rss_kb)
        if outcome.timed_out:
            return outcome.latency, outcome.cpu, None, False, "timed out after %.0f s" % JOB_TIMEOUT_S
        reason = oracles.check_cli(argv, outcome.code, outcome.stdout, self.digests)
        if self.trace and "trace" in outcome.meta:
            self.summary = tracing.merge(self.summary, outcome.meta["trace"])
            counters = self.summary["counters"]
            counters["cli.output_bytes"] += len(outcome.stdout)
            if reason is None and argv[0] in ("hecke-scalar", "hecke-vector"):
                tracing.count_wire(counters, json.loads(outcome.stdout))
        return outcome.latency, outcome.cpu, outcome.reference, True, reason

    def close(self):
        return self.summary, self.rss_kb


class SessionRunner:
    """Runs jobs in one warm library process, replaced only if a job times out."""

    def __init__(self, trace):
        self.trace = trace
        self.session = None
        self.summary = None
        self.rss_kb = 0

    def run(self, job):
        if self.session is None:
            self.session = jobs.Session(SRC, self.trace)
        start = time.perf_counter()
        reply = self.session.run(job, JOB_TIMEOUT_S)
        if reply is None:
            self._stop(kill=True)
            wall = time.perf_counter() - start
            return wall, wall, None, False, "no reply within %.0f s" % JOB_TIMEOUT_S
        wall = time.perf_counter() - start
        return (reply.get("latency_s", wall), reply.get("cpu_s", wall), reply.get("reference_s"), True,
                oracles.check_session(job, reply))

    def _stop(self, kill):
        final, rss_kb = self.session.close(kill)
        self.session = None
        self.rss_kb = max(self.rss_kb, rss_kb)
        if final and "trace" in final:
            self.summary = tracing.merge(self.summary, final["trace"])

    def close(self):
        if self.session is not None:
            self._stop(kill=False)
        return self.summary, self.rss_kb


def make_runner(workload, trace, digests):
    return SessionRunner(trace) if workload.kind == "session" else CliRunner(trace, digests)


def play(runner, blocks, deadline, seconds=None, after_block=None):
    """Run whole blocks in order, wrapping around the list, until `seconds`
    have passed (at least one block); with seconds=None run each block once.
    Calls after_block() after each block.  Returns the job records and the
    number of blocks played."""
    records, played, start = [], 0, time.perf_counter()

    def more():
        if seconds is None:
            return played < len(blocks)
        return played == 0 or time.perf_counter() - start < seconds

    while more():
        for job in blocks[played % len(blocks)]:
            if time.perf_counter() > deadline:
                return records, played
            wall, cpu, reference, completed, reason = runner.run(job)
            records.append({"job": job, "wall": wall, "cpu": cpu, "scaled": scaled(cpu, reference),
                            "reference": reference, "completed": completed, "reason": reason})
            if reason is not None:
                print("FAILED %s: %s" % (json.dumps(job, sort_keys=True), reason), flush=True)
        played += 1
        if after_block is not None:
            after_block()
    return records, played


def scaled(cpu, reference_s):
    """CPU seconds in units of the reference loop run in the same worker.

    On a shared machine other tenants slow the core down, in phases of
    seconds, so that one job's CPU time varies up to twofold; the loop run
    right before and after the job slows down with it, and the ratio stays
    within a few percent.  Left unscaled when the worker never reported its
    loop (a job that timed out).
    """
    return cpu if not reference_s else cpu * REFERENCE_UNIT_S / reference_s


def nearest_rank(values, percentile):
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[min(rank, len(ordered)) - 1]


def latencies(records, clock):
    """Latencies of the completed jobs; with none completed the timed-out
    ones stand in, so that the run still reports."""
    return [r[clock] for r in records if r["completed"]] or [r[clock] for r in records]


def latency_metrics(latencies_s, tail_percentile):
    return {
        "jobs_per_s": len(latencies_s) / sum(latencies_s),
        "job_p50_s": statistics.median(latencies_s),
        "job_tail_s": nearest_rank(latencies_s, tail_percentile),
    }


def end_to_end(workload, records, setup, rss_kb):
    """The end-to-end metrics, on the scaled clock; `setup` holds the set-up
    probes' (CPU seconds, reference loop CPU seconds, peak RSS)."""
    return dict(
        latency_metrics(latencies(records, "scaled"), workload.tail_percentile),
        setup_s=statistics.median(scaled(seconds, reference_s) for seconds, reference_s, _ in setup),
        peak_rss_mb=max([rss_kb] + [rss for _, _, rss in setup]) / 1024.0,
    )


def per_layer(summary, traced_s, untraced_s):
    functions, counters = summary["functions"], summary["counters"]
    metrics = {}
    for name in tracing.FUNCTIONS:
        calls, total, own = functions[name]
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_s"] = (own, "s")
        metrics[name + ".total_s"] = (total, "s")
    for name in ("cli.output_bytes", "farey.chain_steps", "congruence.cosets_built", "hecke.terms", "numeric.psi_evals"):
        metrics[name] = (counters[name], "B" if name == "cli.output_bytes" else "count")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["congruence.coset_table.hit_ratio"] = (
        ratio(counters["congruence.coset_table.hits"], functions["congruence.coset_table"][0]), "ratio")
    metrics["hecke.cells_nonempty_ratio"] = (ratio(counters["hecke.cells_nonempty"], counters["hecke.cells"]), "ratio")
    metrics["numeric.psi_evals_per_apply"] = (
        ratio(counters["numeric.psi_evals"], functions["numeric.apply_hecke_numeric"][0]), "count")
    wrapped = 0.0
    for layer in tracing.LAYERS:
        own = sum(stats[2] for name, stats in functions.items() if name.split(".")[0] == layer)
        wrapped += own
        metrics["layer.%s.self_s" % layer] = (own, "s")
        metrics["layer.%s.share" % layer] = (ratio(own, traced_s), "ratio")
    metrics["layer.unwrapped.self_s"] = (traced_s - wrapped, "s")
    metrics["layer.unwrapped.share"] = (ratio(traced_s - wrapped, traced_s), "ratio")
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.untraced_job_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (summary["spans"], "count")
    return metrics


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    """Where and on what the run was made; git fields are None outside a checkout."""
    top = _git("rev-parse", "--show-toplevel")
    inside = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git("rev-parse", "HEAD") if inside else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if inside else None,
    }


def run_workload(workload, seed, seconds, trace, digests, machine):
    start = time.perf_counter()
    deadline = start + HARD_STOP_S
    blocks = workload.blocks(seed)
    info = dict(machine, workload=workload.name, seed=seed, trace=trace,
                job_list_sha256=list_digest(blocks), job_list_jobs=sum(len(b) for b in blocks))
    if trace:
        traced_blocks = blocks[:workload.trace_blocks]
        runner = make_runner(workload, True, digests)
        traced, _ = play(runner, traced_blocks, deadline)
        summary, _ = runner.close()
        runner = make_runner(workload, False, digests)
        untraced, _ = play(runner, traced_blocks, deadline)
        runner.close()
        records = traced + untraced
        metrics = per_layer(
            summary or tracing.Tracer().summary(),
            sum(latencies(traced, "cpu")),
            sum(latencies(untraced, "cpu")),
        )
        info.update(blocks_played=len(traced_blocks), repeats=2)
    else:
        modules = jobs.SESSION_MODULES if workload.kind == "session" else jobs.CLI_MODULES
        setup = []

        def probe(count):
            setup.extend(jobs.probe_setup(SRC, modules) for _ in range(count))

        probe(SETUP_PROBES_FIRST)
        runner = make_runner(workload, False, digests)
        records, played = play(runner, blocks, deadline, seconds, lambda: probe(SETUP_PROBES_PER_BLOCK))
        _, rss_kb = runner.close()
        values = end_to_end(workload, records, setup, rss_kb)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        loops = [r["reference"] for r in records if r["reference"]] + [ref for _, ref, _ in setup]
        info.update(
            wall_clock=latency_metrics(latencies(records, "wall"), workload.tail_percentile),
            cpu_clock=dict(latency_metrics(latencies(records, "cpu"), workload.tail_percentile),
                           setup_s=statistics.median(seconds for seconds, _, _ in setup)),
            reference_loop_s=statistics.median(loops),
        )
        info.update(blocks_played=played, setup_probes=len(setup),
                    tail_percentile=workload.tail_percentile,
                    tail_samples=sum(1 for r in records if r["completed"]))
    failed = sum(1 for r in records if r["reason"] is not None)
    info.update(jobs=len(records), failed=failed, failed_share=failed / max(1, len(records)),
                wall_s=round(time.perf_counter() - start, 3))
    return {
        "correct": bool(records) and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, info


def report(name, result, info):
    print("== %s (seed %d, %s)" % (name, info["seed"], "traced" if info["trace"] else "untraced"))
    for metric, entry in result["metrics"].items():
        print("  %-42s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    print("  %-42s %14.6g ratio  (%d of %d jobs)" % ("failed_share", info["failed_share"], info["failed"], info["jobs"]))
    if not info["trace"]:
        print("  job_tail_s is p%d over %d completed jobs" % (info["tail_percentile"], info["tail_samples"]))
        print("  wall clock: " + ", ".join("%s %.6g" % item for item in sorted(info["wall_clock"].items())))
        print("  CPU clock, unscaled: " + ", ".join("%s %.6g" % item for item in sorted(info["cpu_clock"].items())))
        print("  reference loop: median %.6g CPU s (reported as %g s)" % (info["reference_loop_s"], REFERENCE_UNIT_S))
    print(json.dumps({"provenance": info}, sort_keys=True), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "periodhecke", "__init__.py")):
        print("error: no periodhecke sources under %s" % SRC, file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    machine = provenance()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, info = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), digests, machine)
        report(name, result, info)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else {"workloads": results}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
