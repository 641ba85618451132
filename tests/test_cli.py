import json
from pathlib import Path

import jsonschema
import pytest

from periodhecke.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def validate(name, payload):
    schema = json.loads((SCHEMA_DIR / ("%s.schema.json" % name)).read_text())
    jsonschema.validate(payload, schema)


CASES = [
    ("farey", ["farey", "--n", "3"]),
    ("lns", ["lns", "--q", "2/3"]),
    ("mq", ["mq", "--q", "1/2"]),
    ("cosets", ["cosets", "--n", "4"]),
    ("rho", ["rho", "--n", "4", "--word", "TST'"]),
    ("sigma", ["sigma", "--g", "0,-1,1,0", "--A", "1,0,0,2"]),
    ("hecke-scalar", ["hecke-scalar", "--m", "4"]),
    ("hecke-vector", ["hecke-vector", "--n", "2", "--m", "3"]),
    ("hecke-vector", ["hecke-vector", "--n", "3", "--m", "1"]),
    ("sm", ["sm", "--m", "4"]),
    ("check-three-term", ["check-three-term", "--n", "2", "--m", "3", "--points", "10"]),
    ("check-laplace", ["check-laplace", "--points", "3"]),
    ("check-eta-loop", ["check-eta-loop", "--panels", "8", "--doublings", "1"]),
    ("verify-all", ["verify-all", "--n", "1", "--m", "2", "--points", "5"]),
]


# A case is named after its schema, with its flags added when the schema
# already has a case.
CASE_IDS = []
for name, argv in CASES:
    CASE_IDS.append(" ".join([name] + argv[1:]) if name in CASE_IDS else name)


@pytest.mark.parametrize("name,argv", CASES, ids=CASE_IDS)
def test_subcommand_emits_valid_json(capsys, name, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0
    validate(name, json.loads(out))


@pytest.mark.parametrize(
    "argv",
    [
        ["farey", "--n", "2"],
        ["hecke-vector", "--n", "3", "--m", "2"],
        ["cosets", "--n", "6"],
        ["verify-all", "--n", "2", "--m", "2", "--points", "5"],
    ],
    ids=["farey", "hecke-vector", "cosets", "verify-all"],
)
def test_output_is_byte_identical_across_runs(capsys, argv):
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_known_outputs(capsys):
    code, out = run_cli(capsys, ["farey", "--n", "0"])
    assert code == 0
    assert json.loads(out) == ["-1/0", "0/1", "1/0"]
    code, out = run_cli(capsys, ["hecke-scalar", "--m", "2"])
    assert len(json.loads(out)) == 4
    code, out = run_cli(capsys, ["lns", "--q", "2/3"])
    assert json.loads(out) == ["-1/0", "0/1", "1/2", "2/3"]
    code, out = run_cli(capsys, ["rho", "--n", "1", "--word", "TS"])
    assert json.loads(out) == [0]


def test_tsv_variant_flattens_row_major(capsys):
    code, out = run_cli(capsys, ["sm", "--m", "2", "--format", "tsv"])
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["1", "0", "0", "2"]
    assert len(rows) == 4
    code, out = run_cli(capsys, ["mq", "--q", "1/2", "--format", "tsv"])
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows == [["1", "1", "0", "0", "1"], ["1", "2", "-1", "1", "0"]]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "farey.json"
    code, out = run_cli(capsys, ["farey", "--n", "1", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == ["-1/0", "-1/1", "0/1", "1/1", "1/0"]


def test_usage_errors_exit_two(capsys):
    assert main(["hecke-vector", "--n", "2", "--m", "0"]) == 2
    assert main(["lns", "--q", "1/2/3"]) == 2
    assert main(["mq", "--q", "3/2"]) == 2
    assert main(["sigma", "--g", "1,0,0", "--A", "1,0,0,2"]) == 2
    assert main(["rho", "--n", "2", "--word", "TXT"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["farey"]) == 2  # missing required flag
    capsys.readouterr()
    for command in ("hecke-vector", "check-three-term", "verify-all"):
        for m in ("0", "-4"):
            assert main([command, "--n", "2", "--m", m]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Hecke index must be positive" in captured.err


def test_check_failure_exits_one(capsys):
    # An absurdly tight tolerance forces the three-term check to fail.
    code = main(
        ["check-three-term", "--n", "1", "--m", "2", "--points", "5", "--tolerance", "1e-30"]
    )
    assert code == 1
    out = capsys.readouterr().out
    validate("check-three-term", json.loads(out))


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "periodhecke", "farey", "--n", "0"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == ["-1/0", "0/1", "1/0"]


def test_verify_all_passes_reference_instance(capsys):
    code, out = run_cli(capsys, ["verify-all", "--n", "1", "--m", "2", "--points", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "level-one-reduction" in names
    assert "transfer-equation-signs" in names


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check-eta-loop", "--panels", "8", "--doublings", "0"], "--doublings"),
        (["check-three-term", "--n", "2", "--m", "3", "--points", "0"], "--points"),
        (["verify-all", "--n", "2", "--m", "3", "--points", "0"], "--points"),
        (["check-laplace", "--points", "0"], "--points"),
        (["check-laplace", "--h", "1e-3", "--h2", "1e-3"], "--h and --h2 must differ"),
        (["check-three-term", "--n", "2", "--m", "3", "--s", "nan"], "must be finite"),
        (["verify-all", "--n", "2", "--m", "3", "--s", "1,inf"], "must be finite"),
    ],
    ids=[
        "no-doublings",
        "no-points",
        "verify-no-points",
        "laplace-no-points",
        "equal-steps",
        "nan-s",
        "inf-s",
    ],
)
def test_checks_without_evidence_exit_two(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_non_finite_payload_is_not_printed_as_json(capsys, monkeypatch):
    from periodhecke import cli

    monkeypatch.setattr(cli, "_cmd_farey", lambda args: (lambda: {"x": float("nan")}, lambda: [["nan"]], 0))
    assert main(["farey", "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "JSON compliant" in captured.err


def test_run_all_checks_needs_a_sample_point():
    from periodhecke.verify import run_all_checks

    with pytest.raises(ValueError, match="sample point"):
        run_all_checks(2, 3, points=0)


def test_verify_all_passes_a_correct_operator_away_from_s_equal_one(capsys):
    code, out = run_cli(capsys, ["verify-all", "--n", "2", "--m", "3", "--s", "2.5", "--points", "5"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_check_three_term_reports_the_residual_relative_to_the_image(capsys):
    code, out = run_cli(capsys, ["check-three-term", "--n", "2", "--m", "3", "--s", "2.5", "--points", "5"])
    assert code == 0
    payload = json.loads(out)
    validate("check-three-term", payload)
    assert payload["max_residual"] < 1e-12


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["lns", "--q", "-1/2"], ["-1/0", "-1/1", "-1/2"]),
        (["lns", "--q", "-97/130"], ["-1/0", "-1/1", "-3/4", "-50/67", "-97/130"]),
        (["sigma", "--g", "-1,0,0,-1", "--A", "1,0,0,2"], {"sigma": [[1, 0], [0, 2]]}),
    ],
    ids=["lns", "lns-level-130", "sigma"],
)
def test_values_starting_with_a_dash_parse(capsys, argv, expected):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert json.loads(out) == expected


def test_mq_of_a_negative_rational_parses_and_names_the_domain(capsys):
    assert main(["mq", "--q", "-1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "defined for rationals in [0, 1)" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-laplace", "--s", "1e200", "--points", "3"],
        ["check-three-term", "--n", "1", "--m", "2", "--s", "-400", "--points", "3"],
        ["verify-all", "--n", "2", "--m", "3", "--s", "-400", "--points", "3"],
        ["check-eta-loop", "--s", "1e200", "--panels", "2", "--doublings", "1"],
    ],
    ids=["laplace", "three-term", "verify-all", "eta-loop"],
)
def test_oversized_spectral_parameter_exits_two_with_a_message(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--s %s drives the numeric weights out of the floating-point range" % argv[argv.index("--s") + 1] in captured.err


@pytest.mark.parametrize("s", ["0", "1"])
def test_check_laplace_at_a_zero_eigenvalue_exits_two(capsys, s):
    assert main(["check-laplace", "--s", s, "--points", "3"]) == 2
    assert "eigenvalue s(1-s) is 0" in capsys.readouterr().err


def test_vanishing_reference_solution_exits_two(capsys):
    assert main(["check-three-term", "--n", "1", "--m", "2", "--s", "0", "--points", "3"]) == 2
    assert "reference solution vanishes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,target,cap",
    [
        ("farey", "farey_sequence", "FAREY_LEVEL_CAP"),
        ("cosets", "coset_table", "COSET_LEVEL_CAP"),
        ("rho", "coset_table", "COSET_LEVEL_CAP"),
        ("hecke-vector", "coset_table", "COSET_LEVEL_CAP"),
        ("verify-all", "run_all_checks", "COSET_LEVEL_CAP"),
        ("hecke-scalar", "h_tilde", "SCALAR_INDEX_CAP"),
        ("sm", "gen_sm", "SM_INDEX_CAP"),
        ("hecke-vector", "coset_table", "VECTOR_INDEX_CAP"),
        ("check-three-term", "coset_table", "THREE_TERM_INDEX_CAP"),
        ("verify-all", "run_all_checks", "VERIFY_INDEX_CAP"),
    ],
)
def test_levels_above_the_cap_exit_two_before_any_work(capsys, monkeypatch, command, target, cap):
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("%s was started" % target)

    monkeypatch.setattr(cli, target, forbidden)
    limit = getattr(cli, cap)
    # A level cap is exceeded at --m 2, an index cap at level 1.
    flag, other = ("--m", ["--n", "1"]) if "INDEX" in cap else ("--n", ["--m", "2"])
    extra = {"rho": ["--word", "T"], "hecke-vector": other, "check-three-term": other, "verify-all": other}
    assert main([command, flag, str(limit + 1)] + extra.get(command, [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s must be at most %d, got %d" % (flag, limit, limit + 1) in captured.err



@pytest.mark.parametrize(
    "command,target,cap",
    [
        ("hecke-vector", "coset_table", "VECTOR_SIZE_CAP"),
        ("check-three-term", "coset_table", "THREE_TERM_SIZE_CAP"),
        ("verify-all", "run_all_checks", "VERIFY_SIZE_CAP"),
    ],
)
def test_operators_above_the_size_cap_exit_two_before_any_work(capsys, monkeypatch, command, target, cap):
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("%s was started" % target)

    monkeypatch.setattr(cli, target, forbidden)
    argv = [command, "--n", "400", "--m", "61"]
    size = 720 * 62  # mu(400) * sigma(61), each within its own cap
    assert size > getattr(cli, cap)
    assert main(argv) == 2
    assert "must be at most %d, got %d" % (getattr(cli, cap), size) in capsys.readouterr().err
    monkeypatch.setattr(cli, cap, size - 1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mu(n)*sigma(m) must be at most %d, got %d for --n 400 --m 61" % (size - 1, size) in captured.err
    monkeypatch.setattr(cli, cap, size)
    with pytest.raises(AssertionError, match="was started"):
        main(argv)


def test_the_size_cap_counts_every_member_of_x_m(capsys, monkeypatch):
    # mu(6) * (240 + 1) = 2892 is under the cap, but the operator visits
    # mu(6) * sigma(240) = 12 * 744 = 8928 pairs (j, A).
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("run_all_checks was started")

    monkeypatch.setattr(cli, "run_all_checks", forbidden)
    assert 12 * 241 <= cli.VERIFY_SIZE_CAP < 12 * 744
    assert main(["verify-all", "--n", "6", "--m", "240"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mu(n)*sigma(m) must be at most %d, got 8928 for --n 6 --m 240" % cli.VERIFY_SIZE_CAP in captured.err


@pytest.mark.parametrize(
    "command,target,default,size_cap",
    [
        ("check-three-term", "coset_table", "THREE_TERM_POINTS", "THREE_TERM_SIZE_CAP"),
        ("verify-all", "run_all_checks", "VERIFY_POINTS", "VERIFY_SIZE_CAP"),
    ],
)
def test_points_above_the_sampling_cap_exit_two_before_any_work(capsys, monkeypatch, command, target, default, size_cap):
    # The cap is the work of the largest operator at the default --points.
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("%s was started" % target)

    monkeypatch.setattr(cli, target, forbidden)
    limit = getattr(cli, default) * getattr(cli, size_cap)
    assert main([command, "--n", "1", "--m", "1", "--points", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--points*mu(n)*sigma(m) must be at most %d, got %d" % (limit, limit + 1) in captured.err
    # mu(2) * sigma(3) = 12 multiplies --points.
    points = limit // 12 + 1
    assert main([command, "--n", "2", "--m", "3", "--points", str(points)]) == 2
    assert "must be at most %d, got %d" % (limit, 12 * points) in capsys.readouterr().err
    with pytest.raises(AssertionError, match="was started"):
        main([command, "--n", "1", "--m", "1", "--points", str(limit)])


@pytest.mark.parametrize(
    "command,target,flag,cap,extra",
    [
        ("check-laplace", "laplace_fd", "--points", "LAPLACE_POINTS_CAP", []),
        ("check-eta-loop", "eta_line_integral", "--doublings", "ETA_DOUBLINGS_CAP", ["--panels", "1"]),
    ],
)
def test_kernel_check_counts_above_the_cap_exit_two_before_any_work(capsys, monkeypatch, command, target, flag, cap, extra):
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("%s was started" % target)

    monkeypatch.setattr(cli, target, forbidden)
    limit = getattr(cli, cap)
    assert main([command, flag, str(limit + 1)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s must be at most %d, got %d" % (flag, limit, limit + 1) in captured.err
    with pytest.raises(AssertionError, match="was started"):
        main([command, flag, str(limit)] + extra)


def test_eta_loop_panel_total_above_the_cap_exits_two_before_any_work(capsys, monkeypatch):
    # One doubling integrates with panels and 2 * panels, 3 * panels in all.
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("eta_line_integral was started")

    monkeypatch.setattr(cli, "eta_line_integral", forbidden)
    panels = cli.ETA_PANELS_CAP // 3 + 1
    argv = ["check-eta-loop", "--panels", str(panels), "--doublings", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--panels*(2^(doublings+1)-1) must be at most %d, got %d" % (cli.ETA_PANELS_CAP, 3 * panels) in captured.err
    monkeypatch.setattr(cli, "ETA_PANELS_CAP", 3 * panels)
    with pytest.raises(AssertionError, match="was started"):
        main(argv)
