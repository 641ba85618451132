"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They cover the job generator, that every oracle can fail, timeouts, the
reference loop, the traced worker, and that the metric names match
BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys

import jobs
import oracles
import run
import tracing
import workloads


def _cli(argv, trace=False):
    outcome = jobs.run_cli(run.SRC, argv, 60, trace)
    assert not outcome.timed_out and outcome.code == 0
    return outcome


def _library():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import periodhecke

    return periodhecke


def test_generator_is_deterministic_and_depends_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = workload.blocks(3)
        assert first == workload.blocks(3)
        assert first != workload.blocks(4)
        assert len(first) == workload.list_blocks >= workload.trace_blocks
        assert workloads.list_digest(first) == workloads.list_digest(workload.blocks(3))


def test_session_pairs_meet_the_workload_constraints():
    for n, m in workloads.SESSION_PAIRS:
        assert n <= 120 and m * n <= 600 and math.gcd(m, n) in (1, m)
        assert all(m % d for d in range(2, m))
    for block in workloads.WORKLOADS["residual-session"].blocks(5):
        pairs = [(job["n"], job["m"]) for job in block if job["kind"] == "residual"]
        assert sorted(set(pairs)) == sorted(workloads.SESSION_PAIRS)
        assert [job["n"] <= 6 for job in block if job["kind"] == "checks"] == [True, True]


def test_oracles_accept_the_program_output():
    for argv in (
        ["cosets", "--n", "12"],
        ["rho", "--n", "12", "--word", "TST'S"],
        ["hecke-scalar", "--m", "6"],
        ["hecke-vector", "--n", "6", "--m", "5"],
        ["hecke-vector", "--n", "1", "--m", "7"],
        ["lns", "--q=5/13"],
        ["mq", "--q=5/13"],
    ):
        outcome = _cli(argv)
        assert oracles.check_cli(argv, outcome.code, outcome.stdout, {}) is None, argv


def test_digest_oracle_rejects_a_flipped_byte():
    argv = ["cosets", "--n", "6"]
    stdout = _cli(argv).stdout
    digests = {" ".join(argv): hashlib.sha256(stdout).hexdigest()}
    assert oracles.check_cli(argv, 0, stdout, digests) is None
    flipped = bytearray(stdout)
    flipped[len(flipped) // 2] ^= 1
    assert oracles.check_cli(argv, 0, bytes(flipped), digests) is not None
    assert oracles.check_cli(argv, 1, stdout, digests) is not None


def test_recorded_digests_cover_the_default_seed():
    with open(run.DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    for name in ("scalar-chains", "coset-tables"):
        for block in workloads.WORKLOADS[name].blocks(0):
            assert all(" ".join(job["argv"]) in digests for job in block)


def test_cosets_oracle_rejects_a_wrong_mu_and_a_repeated_coset():
    payload = json.loads(_cli(["cosets", "--n", "10"]).stdout)
    assert oracles.check_cosets(10, payload) is None
    assert oracles.check_cosets(10, dict(payload, mu=payload["mu"] + 1)) is not None
    assert oracles.check_cosets(10, dict(payload, reps=payload["reps"][:-1])) is not None
    (a, b), (c, d) = payload["reps"][2]
    # T * g lies in the same right coset of Gamma0(10) as g.
    repeated = payload["reps"][:3] + [[[a + c, b + d], [c, d]]] + payload["reps"][4:]
    assert oracles.check_cosets(10, dict(payload, reps=repeated)) is not None


def test_exact_oracles_reject_corrupted_output():
    scalar = json.loads(_cli(["hecke-scalar", "--m", "6"]).stdout)
    assert oracles.check_hecke_scalar(6, scalar[1:]) is not None
    vector = json.loads(_cli(["hecke-vector", "--n", "4", "--m", "3"]).stdout)
    cell = next(cell for row in vector["entries"] for cell in row if cell)
    cell[0]["matrix"][0][0] += 1
    assert oracles.check_hecke_vector(4, 3, vector) is not None
    chain = json.loads(_cli(["lns", "--q=5/13"]).stdout)
    assert oracles.check_lns((5, 13), chain) is None
    assert oracles.check_lns((5, 13), chain[:1] + chain[2:]) is not None
    assert oracles.check_lns((5, 12), chain) is not None
    total = json.loads(_cli(["mq", "--q=5/13"]).stdout)
    assert oracles.check_mq((5, 13), total) is None
    assert oracles.check_mq((5, 13), total[1:]) is not None
    assert oracles.check_mq((5, 13), [dict(total[0], coeff=2)] + total[1:]) is not None


def test_residual_oracle_rejects_a_column_rotated_operator():
    ph = _library()
    table = ph.coset_table(6)
    op = ph.vector_hecke(table, 5)
    rotated = ph.HeckeOperatorMatrix(op.n, op.m, [row[1:] + row[:1] for row in op.entries])
    job = {"kind": "residual"}
    for orbit in range(4):
        psi = jobs.cusp_solution(ph, table, orbit)
        residual, largest = jobs.image_residual(ph, table, op, psi, [0.7, 2.3])
        assert oracles.check_session(job, {"residual": residual, "image_max": largest}) is None
        residual, largest = jobs.image_residual(ph, table, rotated, psi, [0.7, 2.3])
        assert oracles.check_session(job, {"residual": residual, "image_max": largest}) is not None


def test_checks_oracle_rejects_a_failed_or_empty_suite():
    job = {"kind": "checks"}
    assert oracles.check_session(job, {"checks": [["a", True]]}) is None
    assert oracles.check_session(job, {"checks": [["a", True], ["b", False]]}) is not None
    assert oracles.check_session(job, {"checks": []}) is not None
    assert oracles.check_session(job, {"error": "Traceback\nValueError: x\n"}) is not None


def test_a_timed_out_cli_job_fails_and_is_not_retried(monkeypatch):
    dispatched = []
    real_run_cli = jobs.run_cli

    def counting_run_cli(*args, **kwargs):
        dispatched.append(args[1])
        return real_run_cli(*args, **kwargs)

    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.05)
    monkeypatch.setattr(jobs, "run_cli", counting_run_cli)
    job = {"kind": "cli", "argv": ["cosets", "--n", "400"]}
    records, played = run.play(run.CliRunner(False, {}), [[job]], deadline=math.inf)
    assert played == 1 and len(dispatched) == 1
    (record,) = records
    assert not record["completed"] and record["reason"].startswith("timed out")


def test_a_timed_out_session_job_fails_and_is_not_retried(monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.05)
    slow = {"kind": "residual", "n": 120, "m": 5, "orbit": 0, "points": [0.5, 2.0]}
    fast = {"kind": "checks", "n": 2, "m": 2}
    runner = run.SessionRunner(False)
    records, _ = run.play(runner, [[slow]], deadline=math.inf)
    assert len(records) == 1 and not records[0]["completed"] and records[0]["reason"]
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 60)
    records, _ = run.play(runner, [[fast]], deadline=math.inf)
    runner.close()
    assert records[0]["completed"] and records[0]["reason"] is None
    assert records[0]["reference"] > 0


def test_workers_report_their_reference_loop_and_times_are_scaled_by_it():
    outcome = _cli(["cosets", "--n", "6"])
    assert outcome.reference > 0 and outcome.cpu > 0 and outcome.latency > 0
    seconds, reference_s, rss_kb = jobs.probe_setup(run.SRC, jobs.CLI_MODULES)
    assert seconds > 0 and reference_s > 0 and rss_kb > 0
    assert math.isclose(run.scaled(0.3, 2 * run.REFERENCE_UNIT_S), 0.15)
    assert run.scaled(0.3, None) == 0.3


def test_traced_worker_counts_repeat_and_self_time_is_bounded():
    argv = ["hecke-vector", "--n", "4", "--m", "3"]
    first = _cli(argv, trace=True).meta["trace"]
    second = _cli(argv, trace=True).meta["trace"]
    counts = lambda summary: ({k: v[0] for k, v in summary["functions"].items()}, summary["counters"])
    assert counts(first) == counts(second)
    calls = counts(first)[0]
    assert calls["cli.main"] == 1 and calls["hecke.vector_hecke"] == 1 and calls["hecke.phi"] == 6 * 4
    assert calls["congruence.CosetTable.index"] > 0 and first["counters"]["farey.chain_steps"] > 0
    for _, total, own in first["functions"].values():
        assert -1e-6 <= own <= total + 1e-9
    assert "trace" not in _cli(argv).meta


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)
    layer = run.per_layer(tracing.Tracer().summary(), 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in spec["per_layer"])
