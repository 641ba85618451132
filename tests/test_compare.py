"""tools/compare.py on synthetic perfbench results: no benchmark is run."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare)

UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MiB"}


def result(values, correct=True, failed=0):
    """A run's last line, with values for the metrics it names and 1.0 for
    the others."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 1.0), "unit": unit} for name, unit in UNITS.items()},
    }


@pytest.fixture
def trees(tmp_path):
    trees = {}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
        trees[side] = str(tmp_path / side)
    return trees


def fake_runs(monkeypatch, trees, values):
    """Replace the benchmark by values[side][seed], and return the list of
    (side, workload, seed) the runs were asked for, in order."""
    calls = []
    sides = {tree: side for side, tree in trees.items()}

    def run(tree, workload, seed, seconds):
        calls.append((sides[tree], workload, seed))
        return values[sides[tree]][seed]

    monkeypatch.setattr(compare, "run_benchmark", run)
    return calls


def test_pairs_alternate_and_the_statistics_follow_each_metrics_direction(monkeypatch, trees):
    # peak_rss_mb (lower is better): the change wins pairs 0, 1, 2 and 4,
    # ties pair 3 and loses pair 5.  jobs_per_s (higher is better): the
    # change wins every pair.
    parent_rss = [22.0, 22.1, 21.9, 22.0, 22.3, 21.8]
    change_rss = [21.7, 21.8, 21.6, 22.0, 21.9, 21.9]
    values = {
        "parent": {7 + k: result({"peak_rss_mb": rss, "jobs_per_s": 20.0}) for k, rss in enumerate(parent_rss)},
        "change": {7 + k: result({"peak_rss_mb": rss, "jobs_per_s": 21.0 + k}) for k, rss in enumerate(change_rss)},
    }
    calls = fake_runs(monkeypatch, trees, values)
    record = compare.compare(trees, ["coset-tables", "scalar-chains"], 6, 35.0, 7)
    assert calls[:8] == [
        ("parent", "coset-tables", 7), ("change", "coset-tables", 7),
        ("parent", "scalar-chains", 7), ("change", "scalar-chains", 7),
        ("change", "coset-tables", 8), ("parent", "coset-tables", 8),
        ("change", "scalar-chains", 8), ("parent", "scalar-chains", 8),
    ]
    assert len(calls) == 24 and record["seeds"] == [7, 8, 9, 10, 11, 12]
    workload = record["workloads"]["coset-tables"]
    assert workload["pairs"] == 6 and workload["failed_jobs"] == 0
    assert workload["attempted_jobs"] == {"parent": 60, "change": 60}
    rss = workload["metrics"]["peak_rss_mb"]
    assert (rss["unit"], rss["better"]) == ("MiB", "lower")
    assert rss["parent"] == parent_rss and rss["change"] == change_rss
    assert rss["parent_median"] == pytest.approx(22.0) and rss["change_median"] == pytest.approx(21.85)
    # statistics.quantiles' default (exclusive) method.
    assert rss["parent_quartiles"] == pytest.approx([21.875, 22.15])
    assert rss["change_quartiles"] == pytest.approx([21.675, 21.925])
    assert rss["parent_iqr"] == pytest.approx(0.275)
    assert (rss["pairs_change_better"], rss["pairs_parent_better"]) == (4, 1)
    rate = workload["metrics"]["jobs_per_s"]
    assert rate["better"] == "higher"
    assert (rate["pairs_change_better"], rate["pairs_parent_better"]) == (6, 0)
    # Every other metric ties in every pair.
    setup = workload["metrics"]["setup_s"]
    assert (setup["pairs_change_better"], setup["pairs_parent_better"], setup["parent_iqr"]) == (0, 0, 0)
    assert set(workload["metrics"]) == set(UNITS)


@pytest.mark.parametrize(
    "bad", [result({}, correct=False), result({}, failed=1)], ids=["not-correct", "failed-job"]
)
def test_a_run_that_is_not_correct_or_has_a_failed_job_is_refused(monkeypatch, trees, bad):
    good = {seed: result({}) for seed in range(3)}
    calls = fake_runs(monkeypatch, trees, {"parent": good, "change": {**good, 1: bad}})
    with pytest.raises(compare.Refused, match="change coset-tables seed 1"):
        compare.compare(trees, ["coset-tables"], 3, 35.0, 0)
    # Pair 1 runs the change first, and nothing runs after the refusal.
    assert calls == [("parent", "coset-tables", 0), ("change", "coset-tables", 0), ("change", "coset-tables", 1)]


def test_a_refused_comparison_exits_1_and_writes_nothing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(compare, "git", lambda *args, **kwargs: "0" * 40)
    monkeypatch.setattr(compare, "unpack", lambda rev, into: shutil.copy(ROOT / "BENCHMARK.json", into))
    monkeypatch.setattr(compare, "run_benchmark", lambda tree, workload, seed, seconds: result({}, failed=2))
    out = tmp_path / "BENCH_x.json"
    argv = ["--parent", "A", "--change", "B", "--workload", "coset-tables", "--pairs", "2",
            "--seconds", "1", "--seed", "0", "--out", str(out)]
    assert compare.main(argv) == 1
    assert not out.exists()
    assert "nothing written" in capsys.readouterr().err
    # The same runs, all correct, are written.
    monkeypatch.setattr(compare, "run_benchmark", lambda tree, workload, seed, seconds: result({}))
    assert compare.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["parent"] == record["change"] == "0" * 40
    assert record["workloads"]["coset-tables"]["pairs"] == 2
