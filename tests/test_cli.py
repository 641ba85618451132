import argparse
import importlib
import json
import re
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from periodhecke import cli
from periodhecke.cli import build_parser, main
from periodhecke.congruence import gamma0_index
from periodhecke.congruence import coset_table
from periodhecke.exact_core import IntMatrix2, S, T, divisors
from periodhecke.farey import ExtendedRational, m_of_q
from periodhecke.formal import FormalSum, h_tilde
from periodhecke.bookkeeping import gen_sm
from periodhecke.hecke import HeckeOperatorMatrix, vector_hecke
from periodhecke.numeric import eta_line_integral, laplace_fd

from mutants import forbidden, rotated, unmapped

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


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def assert_same_json_text(text, expected):
    # Compared as the pieces between the "],[" that separate cells, so that
    # a failure names the first piece that differs; pytest would diff two
    # long lines for minutes.
    assert text.split("],[") == expected.split("],[")


# mu = 1 (n = 1), the identity (m = 1), m | n (None in the column maps and
# rows with empty cells), composite m, coprime levels, and mu = 216 and 272.
@pytest.mark.parametrize(
    "n,m", [(1, 1), (1, 7), (3, 1), (2, 3), (4, 2), (12, 6), (13, 13), (6, 4), (30, 7), (93, 2), (110, 3), (201, 3)]
)
def test_the_operator_json_text_is_what_json_dumps_writes(n, m):
    op = vector_hecke(coset_table(n), m)
    assert_same_json_text(cli._json_operator(op), dumps(op.to_json_obj()))


def test_the_operator_json_text_writes_unreached_rows_and_shared_cells():
    # Rows 1 and 3 are reached by no B, row 0 ends in a run of two empty
    # cells, cell (0, 1) holds two terms and row 2 has an empty cell before
    # its first term and one between its two terms.
    op = HeckeOperatorMatrix(
        5,
        2,
        [
            (IntMatrix2(1, 0, 0, 2), (1, None, 1, None)),
            (IntMatrix2(1, 1, 0, 2), (1, None, 3, None)),
            (IntMatrix2(2, 0, 0, 1), (0, None, None, None)),
        ],
    )
    entries = op.to_json_obj()["entries"]
    assert entries[1] == entries[3] == [()] * 4 and len(entries[0][1]) == 2
    assert_same_json_text(cli._json_operator(op), dumps(op.to_json_obj()))


def test_the_operator_json_writer_holds_about_two_copies_of_its_text():
    # The peak holds the text twice, as its rows and joined: 2.1 times its
    # length on Python 3.11, where a mu x mu grid of cells took it to 5.7.
    op = vector_hecke(coset_table(201), 3)
    tracemalloc.start()
    try:
        text = cli._json_operator(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(text), peak / len(text)


def test_the_formal_sum_json_text_is_what_json_dumps_writes():
    sums = [h_tilde(m) for m in [1, 2, 6, 13, 62]]
    sums += [m_of_q(ExtendedRational.from_string(q)) for q in ["0", "1/2", "3/7", "112/113", "233/377"]]
    sums += [FormalSum(), FormalSum([(-3, S), (10**30, T), (1, S * T)])]
    for total in sums:
        assert cli._json_formal_sum(total) == dumps(total.to_json_obj()), total


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


# Runs whose --out file must hold exactly the bytes their stdout gets.
OUT_RUNS = [
    ["hecke-vector", "--n", "6", "--m", "5"],
    ["hecke-scalar", "--m", "6"],
    ["cosets", "--n", "12"],
    ["check-three-term", "--n", "2", "--m", "3"],
]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "farey.json"
    code, out = run_cli(capsys, ["farey", "--n", "1", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == ["-1/0", "-1/1", "0/1", "1/1", "1/0"]
    for argv in OUT_RUNS:
        for fmt in ("json", "tsv"):
            run = argv + ["--format", fmt]
            code, out = run_cli(capsys, run)
            assert code == 0
            assert run_cli(capsys, run + ["--out", str(target)]) == (0, "")
            assert target.read_bytes() == out.encode("utf-8"), run


@pytest.mark.parametrize("target", ["", "missing/farey.json"], ids=["directory", "missing-directory"])
def test_an_unwritable_out_exits_two_with_a_message(tmp_path, capsys, target):
    # Exit 1 means a check failed its tolerance, so a write error is a 2.
    assert main(["farey", "--n", "1", "--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def test_an_empty_out_path_exits_two_with_a_message(capsys):
    # An empty path is no file, not a request for stdout.
    assert main(["hecke-vector", "--n", "1", "--m", "1", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "''" in captured.err


def test_usage_errors_exit_two(capsys):
    assert main(["hecke-vector", "--n", "2", "--m", "0"]) == 2
    assert main(["lns", "--q", "1/2/3"]) == 2
    assert main(["mq", "--q", "3/2"]) == 2
    assert main(["sigma", "--g", "1,0,0", "--A", "1,0,0,2"]) == 2
    assert main(["rho", "--n", "2", "--word", "TXT"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["farey"]) == 2  # missing required flag
    capsys.readouterr()
    for command, message in [
        (["hecke-vector", "--n", "2"], "Hecke index must be positive"),
        (["check-three-term", "--n", "2"], "Hecke index must be positive"),
        (["verify-all", "--n", "2"], "Hecke index must be positive"),
        (["hecke-scalar"], "Hecke index must be positive"),
        (["sm"], "determinant must be positive"),
    ]:
        for m in ("0", "-4"):
            assert main(command + ["--m", m]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err


# Arguments that int() or float() reads but that are not plain numbers,
# and what each run writes to stderr.
NOT_PLAIN_INTEGERS = [
    (["lns", "--q=\u0663/7"], "malformed rational '\u0663/7'"),
    (["lns", "--q=1_000/3"], "malformed rational '1_000/3'"),
    (["mq", "--q", "abc"], "malformed rational 'abc'"),
    (["mq", "--q", "3/"], "malformed rational '3/'"),
    (["lns", "--q", "/7"], "malformed rational '/7'"),
    (["lns", "--q", "3.0/7"], "malformed rational '3.0/7'"),
    (["lns", "--q", "0x10/3"], "malformed rational '0x10/3'"),
    (["lns", "--q", "++3/7"], "malformed rational '++3/7'"),
    (["mq", "--q", "\uff13/7"], "malformed rational '\uff13/7'"),
    # Only the ASCII whitespace that int() skips may surround a number, not
    # a no-break space, a line separator, a file separator or next-line.
    (["lns", "--q", "\u00a01/2"], "malformed rational '\\xa01/2'"),
    (["mq", "--q", "1/2\u2028"], "malformed rational '1/2\\u2028'"),
    (["lns", "--q", "\x1c1/2"], "malformed rational '\\x1c1/2'"),
    (["sigma", "--g", "1,0,0,1", "--A", "\u0664,0,0,2"], "matrix entries must be integers"),
    (["sigma", "--g", "1_0,0,0,1", "--A", "1,0,0,2"], "matrix entries must be integers"),
    (["sigma", "--g", "1,0,0,1", "--A", "1,0,0,2.0"], "matrix entries must be integers"),
    (["sigma", "--g", "1,0,,1", "--A", "1,0,0,2"], "matrix entries must be integers"),
    (["sigma", "--g", "\u00a01,0,0,1", "--A", "1,0,0,2"], "matrix entries must be integers"),
    (["sigma", "--g", "1,0,0,1", "--A", "1,0,0,\x852"], "matrix entries must be integers"),
    (["verify-all", "--n", "2", "--m", "3", "--s", "\u0663"], "spectral parameter must be given as re or re,im"),
    (["check-three-term", "--n", "2", "--m", "3", "--s", "1_0"], "spectral parameter must be given as re or re,im"),
    (["check-laplace", "--s", "0.9,\u0661"], "spectral parameter must be given as re or re,im"),
]


@pytest.mark.parametrize("argv,message", NOT_PLAIN_INTEGERS, ids=[" ".join(argv) for argv, _ in NOT_PLAIN_INTEGERS])
def test_only_plain_integers_parse(capsys, argv, message):
    # int() and float() alone would also read other Unicode digits and underscores.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


# --n and --m values that int() reads but that are not plain integers,
# and the last line argparse writes to stderr for each.
NOT_PLAIN_FLAG_INTEGERS = [
    (["cosets", "--n", "\u0663"], "periodhecke cosets: error: argument --n: invalid int value: '\u0663'"),
    (["cosets", "--n", "1_0"], "periodhecke cosets: error: argument --n: invalid int value: '1_0'"),
    (
        ["hecke-vector", "--n", "\uff12", "--m", "3"],
        "periodhecke hecke-vector: error: argument --n: invalid int value: '\uff12'",
    ),
    (["hecke-scalar", "--m", "\uff16"], "periodhecke hecke-scalar: error: argument --m: invalid int value: '\uff16'"),
    (["cosets", "--n", "abc"], "periodhecke cosets: error: argument --n: invalid int value: 'abc'"),
]


@pytest.mark.parametrize(
    "argv,last_line", NOT_PLAIN_FLAG_INTEGERS, ids=[" ".join(argv) for argv, _ in NOT_PLAIN_FLAG_INTEGERS]
)
def test_only_plain_integers_parse_as_n_and_m(capsys, argv, last_line):
    # The message stays argparse's own for type=int, also for what int()
    # itself refuses.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == last_line


PLAIN_INTEGERS = [
    (["lns", "--q", " 3 / 7 "], '["-1/0","0/1","1/3","2/5","3/7"]'),
    (["lns", "--q=+06/014"], '["-1/0","0/1","1/3","2/5","3/7"]'),
    (["lns", "--q=3/-7"], '["-1/0","-1/1","-1/2","-3/7"]'),
    (["sigma", "--g", " 1, 1,0 ,+1", "--A", "4,0,0,2"], '{"sigma":[[4,0],[0,2]]}'),
    (["cosets", "--n", " +02 "], '{"mu":3,"reps":[[[1,0],[0,1]],[[-1,-1],[1,0]],[[-1,0],[-1,-1]]]}'),
]


@pytest.mark.parametrize("argv,expected", PLAIN_INTEGERS, ids=[" ".join(argv) for argv, _ in PLAIN_INTEGERS])
def test_a_plain_integer_may_carry_a_sign_leading_zeros_and_whitespace(capsys, argv, expected):
    assert run_cli(capsys, argv) == (0, expected + "\n")


# One broken ingredient per check command, with the arguments it runs at.
MUTANTS = [
    (["check-three-term", "--n", "2", "--m", "3"], "vector_hecke", rotated),
    # An error of order h: the observed order drops to about 1.
    (["check-laplace"], "laplace_fd", lambda f, z, h: laplace_fd(f, z, h) + h),
    # A constant offset: successive magnitudes no longer shrink.
    (["check-eta-loop"], "eta_line_integral", lambda *args, **kwargs: eta_line_integral(*args, **kwargs) + 1.0),
]


def test_a_vanishing_hecke_image_exits_two(capsys, monkeypatch):
    # With no term in any cell the image is 0, and a relative residual
    # would divide by 0.
    from periodhecke import hecke

    monkeypatch.setattr(hecke, "vector_hecke", unmapped)
    assert main(["check-three-term", "--n", "2", "--m", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the Hecke image vanishes at --s 1,0, so there is nothing to check\n"


def test_check_failure_exits_one(capsys, monkeypatch):
    # Every check can fail at its fixed settings: each passes as it is and
    # exits 1, still printing a valid payload, with its mutant patched in
    # where the check subcommands read it.
    for argv, target, mutant in MUTANTS:
        assert main(argv) == 0
        validate(argv[0], json.loads(capsys.readouterr().out))
        with monkeypatch.context() as patch:
            patch.setattr(work_module(target), target, mutant)
            assert main(argv) == 1, argv[0]
        validate(argv[0], json.loads(capsys.readouterr().out))


# Runs at |s| > 1: measured against max |psi| or max |image| alone, or
# under a tolerance that ignores |s|, a correct operator fails each one.
LARGE_S_RUNS = [
    ["verify-all", "--n", "6", "--m", "5", "--s=-60", "--format", "tsv"],
    ["verify-all", "--n", "2", "--m", "2", "--s", "0.5,1e5", "--format", "tsv"],
    ["check-three-term", "--n", "2", "--m", "2", "--s", "0.5,1e7"],
]


@pytest.mark.parametrize("argv", LARGE_S_RUNS, ids=" ".join)
def test_a_correct_operator_passes_at_large_s_and_a_rotated_one_fails(capsys, monkeypatch, argv):
    from periodhecke import hecke, verify

    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(verify if argv[0] == "verify-all" else hecke, "vector_hecke", rotated)
    assert main(argv) == 1
    if argv[0] == "verify-all":
        assert "three-term-preserved\tFAIL\t" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["check-three-term", "--n", "2", "--m", "3", "--s", "0.5,1e11"],
        ["verify-all", "--n", "3", "--m", "2", "--s=-110"],
        # Near s = 0 the reference solution is nearly constant: at s = 0 a
        # swap of rows 0 and 1 read max_residual 0.0 here.
        ["check-three-term", "--n", "2", "--m", "2", "--s", "0"],
        ["verify-all", "--n", "2", "--m", "3", "--s", "1e-12"],
    ],
    ids=" ".join,
)
def test_an_s_where_the_tolerance_cannot_fail_a_misplaced_column_exits_two(capsys, monkeypatch, argv):
    from periodhecke import checks, hecke, verify

    # |s| < SMALLEST_S, where no weight can overflow, is refused before the
    # operator is built; the other refusals follow an overflow check.
    if abs(checks._parse_complex(argv[-1].split("=")[-1])) < verify.SMALLEST_S:
        for module in (hecke, verify):
            monkeypatch.setattr(module, "vector_hecke", forbidden("vector_hecke"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot tell a misplaced column from rounding" in captured.err


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


def modules_loaded_by(script):
    """The periodhecke modules a fresh interpreter holds after running script."""
    import subprocess
    import sys

    probe = script + "\nimport json, sys\nprint(json.dumps([k for k in sys.modules if k.startswith('periodhecke')]))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout))


def run_main(argv, code=0):
    """A script that runs main(argv) and asserts its exit code, with stdout
    and stderr discarded."""
    return (
        "import contextlib, os\nfrom periodhecke.cli import main\n"
        "with open(os.devnull, 'w') as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "    assert main(%r) == %d" % (argv, code)
    )


def layers(*names):
    return {"periodhecke", "periodhecke.cli"} | {"periodhecke." + name for name in names}


EXACT_LAYERS = layers(
    "exact_core", "farey", "formal", "congruence", "permutation", "representatives", "bookkeeping", "hecke"
)
CHECKS_LOAD = EXACT_LAYERS | layers("numeric", "verify", "checks")
# Only verify-all reads the representatives: check-three-term's operator
# and residuals act on the table's points alone.
THREE_TERM_LOAD = CHECKS_LOAD - {"periodhecke.representatives"}

# What a fresh interpreter compiles for each subcommand: the layers that
# its work runs, and none for an import, --help or a level or index over
# its cap.  A check subcommand loads checks, which reads --s and the caps.
LOADED = [
    ("import", "import periodhecke.cli", layers()),
    ("from-import", "from periodhecke import cli", layers()),
    ("help", run_main(["--help"]), layers()),
    ("over-cap", run_main(["cosets", "--n", "401"], 2), layers()),
    # Every value is read before a layer is imported: --q and its level by
    # farey, which defines the rationals.
    ("malformed-word", run_main(["rho", "--n", "4", "--word", "TXT"], 2), layers()),
    ("malformed-second-matrix", run_main(["sigma", "--g", "1,0,0,1", "--A", "1,0,0"], 2), layers()),
    ("malformed-q", run_main(["lns", "--q", "abc"], 2), layers("exact_core", "farey")),
    ("decimal-q", run_main(["mq", "--q", "3.0/7"], 2), layers("exact_core", "farey")),
    ("q-over-level-cap", run_main(["lns", "--q", "100001/1"], 2), layers("exact_core", "farey")),
    ("farey", run_main(["farey", "--n", "5"]), layers("exact_core", "farey")),
    ("lns", run_main(["lns", "--q", "5/13"]), layers("exact_core", "farey")),
    ("mq", run_main(["mq", "--q", "5/13"]), layers("exact_core", "farey", "formal")),
    ("cosets", run_main(["cosets", "--n", "12"]), layers("exact_core", "congruence", "representatives")),
    ("rho", run_main(["rho", "--n", "12", "--word", "TST'"]), layers("exact_core", "congruence", "permutation")),
    ("sigma", run_main(["sigma", "--g", "0,-1,1,0", "--A", "1,0,0,2"]), layers("exact_core", "bookkeeping")),
    ("sm", run_main(["sm", "--m", "12"]), layers("exact_core", "bookkeeping")),
    ("hecke-scalar", run_main(["hecke-scalar", "--m", "6"]), layers("exact_core", "formal")),
    ("hecke-vector", run_main(["hecke-vector", "--n", "6", "--m", "5"]), layers("exact_core", "congruence", "hecke")),
    ("check-three-term", run_main(["check-three-term", "--n", "2", "--m", "3"]), THREE_TERM_LOAD),
    ("check-laplace", run_main(["check-laplace"]), layers("exact_core", "permutation", "numeric", "checks")),
    ("check-eta-loop", run_main(["check-eta-loop"]), layers("exact_core", "permutation", "numeric", "checks")),
    ("verify-all", run_main(["verify-all", "--n", "1", "--m", "2"]), CHECKS_LOAD),
    ("verify-all-over-level-cap", run_main(["verify-all", "--n", "401", "--m", "2"], 2), layers("checks")),
    ("check-three-term-over-index-cap", run_main(["check-three-term", "--n", "2", "--m", "121"], 2), layers("checks")),
    ("check-laplace-at-zero", run_main(["check-laplace", "--s", "0"], 2), layers("checks")),
    # The size cap reads mu(n) and |S_m|, as hecke-vector's reads mu(n) and sigma(m).
    (
        "verify-all-over-size-cap",
        run_main(["verify-all", "--n", "400", "--m", "61"], 2),
        layers("exact_core", "congruence", "checks"),
    ),
]


EXACT_RUNS = [row for row in LOADED if row[2] <= EXACT_LAYERS]
CHECK_RUNS = [row for row in LOADED if row[2] in (CHECKS_LOAD, THREE_TERM_LOAD)]
OTHER_CHECK_RUNS = [row for row in LOADED if row not in EXACT_RUNS + CHECK_RUNS]


@pytest.mark.parametrize("script,expected", [row[1:] for row in EXACT_RUNS], ids=[row[0] for row in EXACT_RUNS])
def test_a_cold_cli_run_loads_only_the_exact_layers(script, expected):
    # Only those that its work runs: a subcommand imports its layers when
    # it runs, after its caps are checked.
    assert modules_loaded_by(script) == expected


@pytest.mark.parametrize("script,expected", [row[1:] for row in CHECK_RUNS], ids=[row[0] for row in CHECK_RUNS])
def test_a_cold_check_run_loads_the_check_modules_and_every_exact_layer(script, expected):
    assert modules_loaded_by(script) == expected


@pytest.mark.parametrize(
    "script,expected", [row[1:] for row in OTHER_CHECK_RUNS], ids=[row[0] for row in OTHER_CHECK_RUNS]
)
def test_a_cold_check_run_loads_only_the_layers_it_calls(script, expected):
    # The numeric checks call numeric alone, and a refused check loads
    # only what its refusal reads.
    assert modules_loaded_by(script) == expected


def test_the_hecke_layer_loads_no_farey_layer():
    # S_m is walked on the integer chains of exact_core.
    assert modules_loaded_by("import periodhecke.hecke") == {
        "periodhecke", "periodhecke.exact_core", "periodhecke.hecke"
    }


def test_the_package_alone_loads_no_module():
    script = "import periodhecke\nassert not hasattr(periodhecke, 'no_such_name')\nassert 'hecke_image' in dir(periodhecke)"
    assert modules_loaded_by(script) == {"periodhecke"}


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

    monkeypatch.setattr(cli, "_cmd_farey", lambda args: (lambda: cli.dumps({"x": float("nan")}), lambda: ["nan"], 0))
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


@pytest.mark.parametrize(
    "token,attached",
    [
        ("-1", True),
        ("-0.5", True),
        ("-.5", True),
        ("-\u0663/7", True),  # ARABIC-INDIC DIGIT THREE
        ("-\u0967", True),  # DEVANAGARI DIGIT ONE
        ("-\U0001d7d9", True),  # MATHEMATICAL DOUBLE-STRUCK DIGIT ONE
        ("-\u00b2", False),  # SUPERSCRIPT TWO: a digit, but not a decimal one
        ("-\u216b", False),  # ROMAN NUMERAL TWELVE
        ("-", False),
        ("--", False),
        ("--q", False),
        ("-x", False),
        ("-S", False),
        ("1", False),
        ("", False),
    ],
)
def test_a_dash_value_is_what_the_regex_dash_digit_or_point_matches(token, attached):
    # The test matches re.match(r"-[\d.]", token) without a regex: \d
    # accepts exactly what isdecimal() does.
    assert bool(re.match(r"-[\d.]", token)) == attached
    expected = ["--q=" + token] if attached else ["--q", token]
    assert cli._attach_dash_values(["--q", token]) == expected
    # A value is attached only to a flag that has none yet.
    assert cli._attach_dash_values(["--q=1", token]) == ["--q=1", token]


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


@pytest.mark.parametrize(
    "s,code",
    [(s, 2) for s in ["1e-3", "1e-6", "1e-9", "0,1e-6", "-1e-7"]]
    + [(s, 0) for s in [None, "0.5,1", "0.1", "5", "-3", "0.999999", "1.00001"]],
    ids=str,
)
def test_check_laplace_at_the_finite_difference_noise_floor_exits_two(capsys, s, code):
    # Near s = 0 the eigenvalue term is nearly 0, and the rounding of the
    # h2 stencil outgrows it: a correct laplace_fd read order 1.01 at 1e-3.
    assert main(["check-laplace"] + ([] if s is None else ["--s", s])) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == "error: the step-h2 Laplace errors are at the finite-difference noise floor at --s %s\n" % s
    else:
        assert captured.err == ""


@pytest.mark.parametrize("s", ["0", "0,0", "-0.0", "1e-300"])
def test_check_eta_loop_where_the_integrals_vanish_exits_two(capsys, s):
    # All three magnitudes are 0 here, so no ratio exists.
    assert main(["check-eta-loop", "--s", s]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the loop integrals vanish at --s %s, so there is nothing to check" % s in captured.err


@pytest.mark.parametrize(
    "s,code",
    [(s, 2) for s in ["1e-12", "1e-9", "1e-6", "1e-5", "0,1e-6"]] + [(s, 0) for s in ["2e-5", "1e-4", None]],
    ids=str,
)
def test_check_eta_loop_at_the_finite_difference_noise_floor_exits_two(capsys, s, code):
    # Below the rounding error of one central difference the magnitudes are
    # noise, so their ratios would pass or fail by chance (0,1e-6 passed).
    assert main(["check-eta-loop"] + ([] if s is None else ["--s", s])) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert "the loop integrals are at the finite-difference noise floor at --s %s" % s in captured.err
    else:
        assert captured.err == ""


# Two settings of each check command; no golden file holds their TSV.
CHECK_SETTINGS = [
    ["check-three-term", "--n", "2", "--m", "3"],
    ["check-three-term", "--n", "4", "--m", "3", "--s", "2.5"],
    ["check-laplace"],
    ["check-laplace", "--s", "0.5,2"],
    ["check-eta-loop"],
    ["check-eta-loop", "--s", "0.5,2"],
    ["verify-all", "--n", "1", "--m", "2"],
    ["verify-all", "--n", "6", "--m", "2", "--s", "0.5,3"],
]


def check_tsv_from_json(command, payload):
    """The TSV lines of a check command, rebuilt from its JSON payload."""
    if command == "verify-all":
        verdict = lambda passed: "pass" if passed else "FAIL"
        lines = ["%s\t%s\t%s" % (c["name"], verdict(c["pass"]), c["detail"]) for c in payload["checks"]]
        return lines + ["all_pass\t%s\t" % verdict(payload["all_pass"])]
    if command == "check-eta-loop":
        return ["%s\t%s" % (key, " ".join(repr(x) for x in payload[key])) for key in ("panels", "magnitudes", "ratios")]
    return ["%s\t%r" % (key, payload[key]) for key in sorted(payload)]


@pytest.mark.parametrize("argv", CHECK_SETTINGS, ids=" ".join)
def test_a_check_command_prints_its_json_payload_as_tsv_lines(capsys, argv):
    code, out = run_cli(capsys, argv)
    tsv_code, tsv = run_cli(capsys, argv + ["--format", "tsv"])
    assert code == tsv_code == 0
    assert tsv.split("\n") == check_tsv_from_json(argv[0], json.loads(out)) + [""]


def test_vanishing_reference_solution_exits_two(capsys):
    for command in ("check-three-term", "verify-all"):
        assert main([command, "--n", "1", "--m", "2", "--s", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference solution vanishes" in captured.err


def work_module(target):
    """The module a subcommand reads target from when it runs: every
    subcommand imports its work from the home module then, and
    run_all_checks is verify's."""
    import periodhecke

    return importlib.import_module("periodhecke." + periodhecke._HOME.get(target, "verify"))


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

    monkeypatch.setattr(work_module(target), target, forbidden(target))
    limit = getattr(cli, cap)
    # A level cap is exceeded at --m 2, an index cap at level 1.
    flag, other = ("--m", ["--n", "1"]) if "INDEX" in cap else ("--n", ["--m", "2"])
    extra = {"rho": ["--word", "T"], "hecke-vector": other, "check-three-term": other, "verify-all": other}
    assert main([command, flag, str(limit + 1)] + extra.get(command, [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s must be at most %d, got %d" % (flag, limit, limit + 1) in captured.err
    # The patch is live: the cap itself is admitted and reaches the work.
    with pytest.raises(AssertionError, match="was started"):
        main([command, flag, str(limit)] + extra.get(command, []))



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

    monkeypatch.setattr(work_module(target), target, forbidden(target))
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


@pytest.mark.parametrize(
    "command,target",
    [("hecke-vector", "coset_table"), ("check-three-term", "coset_table"), ("verify-all", "run_all_checks")],
)
def test_a_level_below_one_exits_two_at_the_size_cap(capsys, monkeypatch, command, target):
    # The size cap reads mu(n), which is defined for n >= 1 only.
    monkeypatch.setattr(work_module(target), target, forbidden(target))
    for n in ("0", "-4"):
        assert main([command, "--n", n, "--m", "2"]) == 2
        assert capsys.readouterr() == ("", "error: level must be positive\n")


def test_the_size_cap_counts_every_member_of_x_m(capsys, monkeypatch):
    # mu(n) * sigma(m) is under the cap, but every (j, B) with B in S_m is
    # visited: the chain of each member of X_m counts with its length.
    from periodhecke import cli

    for target in ("coset_table", "run_all_checks"):
        monkeypatch.setattr(work_module(target), target, forbidden(target))
    for command, cap_name, n, m in [
        ("check-three-term", "THREE_TERM_SIZE_CAP", 19, 109),
        ("verify-all", "VERIFY_SIZE_CAP", 23, 241),
    ]:
        cap = getattr(cli, cap_name)
        mu = gamma0_index(n)
        size = mu * len(gen_sm(m))
        assert mu * sum(divisors(m)) <= cap < size
        assert main([command, "--n", str(n), "--m", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mu(n)*|S_m| must be at most %d, got %d for --n %d --m %d" % (cap, size, n, m) in captured.err
        # The patches are live: a cap of exactly mu(n)*|S_m| reaches the work.
        with monkeypatch.context() as patch:
            patch.setattr(cli, cap_name, size)
            with pytest.raises(AssertionError, match="was started"):
                main([command, "--n", str(n), "--m", str(m)])


@pytest.mark.parametrize("command,target", [("lns", "lns"), ("mq", "m_of_q")])
def test_rationals_above_the_level_cap_exit_two_before_any_chain(capsys, monkeypatch, command, target):
    # A chain takes up to level(q) + 1 steps, so the level bounds its work.
    from periodhecke import cli

    monkeypatch.setattr(work_module(target), target, forbidden(target))
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


def subparsers_of(parser):
    (action,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", sorted(INTERFACE))
def test_a_one_subcommand_parser_prints_what_the_full_parser_prints(name):
    # Both parsers are built here, so they share the Python version and the
    # terminal width.
    full, single = build_parser(), build_parser(name)
    assert list(subparsers_of(single)) == [name]
    assert subparsers_of(single)[name].format_help() == subparsers_of(full)[name].format_help()
    assert single.format_usage() == full.format_usage()


@pytest.mark.parametrize(
    "argv",
    [
        ["cosets"],
        ["hecke-vector", "--n", "2"],
        ["sigma", "--g", "1,0,0,1"],
        ["cosets", "--n", "3", "extra"],
        ["lns", "--q", "1/2", "extra"],
        ["farey", "--n", "2", "--format", "xml"],
        ["verify-all", "--n", "1", "--m", "2", "--format", "yaml"],
        ["cosets", "--n", "x"],
        ["check-three-term", "--n", "x", "--m", "2"],
    ]
    + [[name, "--help"] for name in sorted(INTERFACE)],
    ids=" ".join,
)
def test_main_answers_as_the_full_parser_does(capsys, monkeypatch, argv):
    def outcome():
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    own = outcome()
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert outcome() == own


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
