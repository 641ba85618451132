import argparse
import json
from pathlib import Path

import jsonschema
import pytest

from periodhecke.cli import build_parser, main
from periodhecke.congruence import gamma0_index
from periodhecke.exact_core import divisors
from periodhecke.hecke import HeckeOperatorMatrix, gen_sm, vector_hecke
from periodhecke.numeric import eta_line_integral, laplace_fd

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
    ("check-three-term", ["check-three-term", "--n", "2", "--m", "3"]),
    ("check-laplace", ["check-laplace"]),
    ("check-eta-loop", ["check-eta-loop"]),
    ("verify-all", ["verify-all", "--n", "1", "--m", "2"]),
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
        ["verify-all", "--n", "2", "--m", "2"],
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


@pytest.mark.parametrize("target", ["", "missing/farey.json"], ids=["directory", "missing-directory"])
def test_an_unwritable_out_exits_two_with_a_message(tmp_path, capsys, target):
    # Exit 1 means a check failed its tolerance, so a write error is a 2.
    assert main(["farey", "--n", "1", "--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


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


def rotated_vector_hecke(table, m):
    op = vector_hecke(table, m)
    return HeckeOperatorMatrix(op.n, op.m, [(mat, image[1:] + image[:1]) for mat, image in op.columns])


# One broken ingredient per check command, with the arguments it runs at.
MUTANTS = [
    (["check-three-term", "--n", "2", "--m", "3"], "vector_hecke", rotated_vector_hecke),
    # An error of order h: the observed order drops to about 1.
    (["check-laplace"], "laplace_fd", lambda f, z, h: laplace_fd(f, z, h) + h),
    # A constant offset: successive magnitudes no longer shrink.
    (["check-eta-loop"], "eta_line_integral", lambda *args, **kwargs: eta_line_integral(*args, **kwargs) + 1.0),
]


def test_check_failure_exits_one(capsys, monkeypatch):
    # Every check can fail at its fixed settings: each passes as it is and
    # exits 1, still printing a valid payload, with its mutant patched in.
    from periodhecke import cli

    for argv, target, mutant in MUTANTS:
        assert main(argv) == 0
        validate(argv[0], json.loads(capsys.readouterr().out))
        with monkeypatch.context() as patch:
            patch.setattr(cli, target, mutant)
            assert main(argv) == 1, argv[0]
        validate(argv[0], json.loads(capsys.readouterr().out))


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
    code, out = run_cli(capsys, ["verify-all", "--n", "1", "--m", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "level-one-reduction" in names
    assert "transfer-equation-signs" in names


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check-three-term", "--n", "2", "--m", "3", "--s", "nan"], "must be finite"),
        (["verify-all", "--n", "2", "--m", "3", "--s", "1,inf"], "must be finite"),
    ],
    ids=["nan-s", "inf-s"],
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
    # run_all_checks samples through sample_points, which refuses zero points.
    from periodhecke.verify import sample_points

    with pytest.raises(ValueError, match="sample point"):
        sample_points(0)


def test_verify_all_passes_a_correct_operator_away_from_s_equal_one(capsys):
    code, out = run_cli(capsys, ["verify-all", "--n", "2", "--m", "3", "--s", "2.5"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_check_three_term_reports_the_residual_relative_to_the_image(capsys):
    code, out = run_cli(capsys, ["check-three-term", "--n", "2", "--m", "3", "--s", "2.5"])
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
        ["check-laplace", "--s", "1e200"],
        ["check-three-term", "--n", "1", "--m", "2", "--s", "-400"],
        ["verify-all", "--n", "2", "--m", "3", "--s", "-400"],
        ["check-eta-loop", "--s", "1e200"],
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
    assert main(["check-laplace", "--s", s]) == 2
    assert "eigenvalue s(1-s) is 0" in capsys.readouterr().err


def test_vanishing_reference_solution_exits_two(capsys):
    for command in ("check-three-term", "verify-all"):
        assert main([command, "--n", "1", "--m", "2", "--s", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference solution vanishes" in captured.err


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
    "command,target,cap,label,count",
    [
        ("hecke-vector", "coset_table", "VECTOR_SIZE_CAP", "sigma(m)", 62),
        ("check-three-term", "coset_table", "THREE_TERM_SIZE_CAP", "|S_m|", len(gen_sm(61))),
        ("verify-all", "run_all_checks", "VERIFY_SIZE_CAP", "|S_m|", len(gen_sm(61))),
    ],
)
def test_operators_above_the_size_cap_exit_two_before_any_work(capsys, monkeypatch, command, target, cap, label, count):
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("%s was started" % target)

    monkeypatch.setattr(cli, target, forbidden)
    argv = [command, "--n", "400", "--m", "61"]
    size = 720 * count  # mu(400) * sigma(61) or |S_61|, each within its own cap
    assert size > getattr(cli, cap)
    assert main(argv) == 2
    assert "must be at most %d, got %d" % (getattr(cli, cap), size) in capsys.readouterr().err
    monkeypatch.setattr(cli, cap, size - 1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mu(n)*%s must be at most %d, got %d for --n 400 --m 61" % (label, size - 1, size) in captured.err
    monkeypatch.setattr(cli, cap, size)
    with pytest.raises(AssertionError, match="was started"):
        main(argv)


def test_the_size_cap_counts_every_member_of_x_m(capsys, monkeypatch):
    # mu(n) * sigma(m) is under the cap, but every (j, B) with B in S_m is
    # visited: the chain of each member of X_m counts with its length.
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("work was started")

    monkeypatch.setattr(cli, "coset_table", forbidden)
    monkeypatch.setattr(cli, "run_all_checks", forbidden)
    for command, cap, n, m in [
        ("check-three-term", cli.THREE_TERM_SIZE_CAP, 19, 109),
        ("verify-all", cli.VERIFY_SIZE_CAP, 23, 241),
    ]:
        mu = gamma0_index(n)
        size = mu * len(gen_sm(m))
        assert mu * sum(divisors(m)) <= cap < size
        assert main([command, "--n", str(n), "--m", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mu(n)*|S_m| must be at most %d, got %d for --n %d --m %d" % (cap, size, n, m) in captured.err


@pytest.mark.parametrize("command,target", [("lns", "lns"), ("mq", "m_of_q")])
def test_rationals_above_the_level_cap_exit_two_before_any_chain(capsys, monkeypatch, command, target):
    # A chain takes up to level(q) + 1 steps, so the level bounds its work.
    from periodhecke import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("%s was started" % target)

    monkeypatch.setattr(cli, target, forbidden)
    limit = cli.CHAIN_LEVEL_CAP
    for q in ("1/%d" % (limit + 1), "%d/7" % (limit + 1), "-%d/3" % (limit + 1)):
        assert main([command, "--q", q]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the level max(|a|, b) of --q must be at most %d, got %d" % (limit, limit + 1) in captured.err
    with pytest.raises(AssertionError, match="was started"):
        main([command, "--q", "%d/%d" % (limit - 1, limit)])


# Every option each subcommand accepts, besides --format and --out.  The
# check commands run at fixed settings, so they take no tuning flags.
INTERFACE = {
    "farey": ["--n"],
    "lns": ["--q"],
    "mq": ["--q"],
    "cosets": ["--n"],
    "rho": ["--n", "--word"],
    "sigma": ["--g", "--A"],
    "hecke-scalar": ["--m"],
    "hecke-vector": ["--n", "--m"],
    "sm": ["--m"],
    "check-three-term": ["--n", "--m", "--s"],
    "check-laplace": ["--s"],
    "check-eta-loop": ["--s"],
    "verify-all": ["--n", "--m", "--s"],
}


def test_each_subcommand_accepts_exactly_its_pinned_options():
    (subparsers,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    accepted = {
        name: sorted(option for action in sub._actions for option in action.option_strings if option not in ("-h", "--help"))
        for name, sub in subparsers.choices.items()
    }
    assert accepted == {name: sorted(flags + ["--format", "--out"]) for name, flags in INTERFACE.items()}


@pytest.mark.parametrize(
    "argv",
    [
        ["check-three-term", "--n", "2", "--m", "3", "--points", "5"],
        ["check-three-term", "--n", "2", "--m", "3", "--tolerance", "1e300"],
        ["verify-all", "--n", "2", "--m", "3", "--points", "5"],
        ["verify-all", "--n", "2", "--m", "3", "--tolerance", "1e300"],
        ["check-laplace", "--h", "1e-2"],
        ["check-laplace", "--h2", "1e-3"],
        ["check-laplace", "--points", "3"],
        ["check-laplace", "--order-window", "9"],
        ["check-eta-loop", "--panels", "8"],
        ["check-eta-loop", "--doublings", "1"],
        ["check-eta-loop", "--min-ratio", "0"],
    ],
    ids=lambda argv: " ".join([argv[0], argv[-2]]),
)
def test_a_removed_tuning_flag_exits_two(capsys, argv):
    # Options are never abbreviated, so --h is not read as --help.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: %s" % " ".join(argv[-2:]) in captured.err
