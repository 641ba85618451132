"""Byte-for-byte comparison of CLI output with a recorded golden corpus.

Each case runs `periodhecke.cli.main(argv)` in-process and compares the
bytes written to stdout with `tests/golden/<name>`.  A change that alters
any recorded byte is a change of output, not a refactoring.  CI also
replays every case in CASES through the installed `periodhecke` script,
each in a fresh process, so a new case needs no entry anywhere else.  To
add a case, append it to CASES and record only the new files with

    PYTHONPATH=src python tests/test_golden.py NAME...
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from periodhecke.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

VECTOR_PAIRS = [(1, 2), (1, 37), (2, 2), (2, 3), (4, 3), (6, 5), (13, 13), (25, 3), (30, 7)]

CASES = [
    (
        "hecke-vector-%d-%d.%s" % (n, m, fmt),
        ["hecke-vector", "--n", str(n), "--m", str(m), "--format", fmt],
    )
    for n, m in VECTOR_PAIRS
    for fmt in ("json", "tsv")
] + [
    ("hecke-vector-110-3.tsv", ["hecke-vector", "--n", "110", "--m", "3", "--format", "tsv"]),
    ("hecke-scalar-1.json", ["hecke-scalar", "--m", "1"]),
    ("hecke-scalar-6.json", ["hecke-scalar", "--m", "6"]),
    ("hecke-scalar-13.tsv", ["hecke-scalar", "--m", "13", "--format", "tsv"]),
    ("hecke-scalar-62.tsv", ["hecke-scalar", "--m", "62", "--format", "tsv"]),
    ("sm-1.json", ["sm", "--m", "1"]),
    ("sm-12.json", ["sm", "--m", "12"]),
    ("sm-7.tsv", ["sm", "--m", "7", "--format", "tsv"]),
    ("cosets-1.json", ["cosets", "--n", "1"]),
    ("cosets-12.json", ["cosets", "--n", "12"]),
    ("cosets-30.tsv", ["cosets", "--n", "30", "--format", "tsv"]),
    ("cosets-166.tsv", ["cosets", "--n", "166", "--format", "tsv"]),
    ("cosets-250.json", ["cosets", "--n", "250"]),
    ("rho-1-TS.json", ["rho", "--n", "1", "--word", "TS"]),
    ("rho-6-TSTpS.json", ["rho", "--n", "6", "--word", "TST'S"]),
    ("rho-12-TpTp.tsv", ["rho", "--n", "12", "--word", "T'T'", "--format", "tsv"]),
    ("rho-268-STTpSTTT.json", ["rho", "--n", "268", "--word", "STT'STTT"]),
    ("mq-0.json", ["mq", "--q", "0"]),
    ("mq-5-13.json", ["mq", "--q=5/13"]),
    ("mq-7-19.tsv", ["mq", "--q=7/19", "--format", "tsv"]),
    ("mq-97-263.tsv", ["mq", "--q=97/263", "--format", "tsv"]),
    ("lns-1-0.json", ["lns", "--q", "1/0"]),
    ("lns-5-13.json", ["lns", "--q=5/13"]),
    ("lns-m3-7.tsv", ["lns", "--q=-3/7", "--format", "tsv"]),
    ("lns-262-263.json", ["lns", "--q=262/263"]),
    ("lns-m97-130.json", ["lns", "--q=-97/130"]),
    ("lns-250-101.json", ["lns", "--q=250/101"]),
    ("farey-0.json", ["farey", "--n", "0"]),
    ("farey-5.json", ["farey", "--n", "5"]),
    ("farey-3.tsv", ["farey", "--n", "3", "--format", "tsv"]),
    ("sigma-S-1002.json", ["sigma", "--g", "0,-1,1,0", "--A", "1,0,0,2"]),
    ("sigma-TS-1103.json", ["sigma", "--g", "1,-1,1,0", "--A", "1,1,0,3"]),
    ("sigma-T-4002.tsv", ["sigma", "--g", "1,1,0,1", "--A", "4,0,0,2", "--format", "tsv"]),
]


def run(argv):
    """Exit code and stdout bytes of one in-process CLI run."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue().encode("utf-8")


def test_case_names_are_unique():
    assert len({name for name, _ in CASES}) == len(CASES)


def test_every_golden_file_is_a_case():
    # CI reads CASES too, so a golden file with no case is checked nowhere.
    assert {path.name for path in GOLDEN_DIR.iterdir()} == {name for name, _ in CASES}


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden_bytes(name, argv):
    code, out = run(argv)
    assert code == 0
    assert out == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    wanted = set(sys.argv[1:])
    for name, argv in CASES:
        if name in wanted:
            code, out = run(argv)
            if code != 0:
                sys.exit("%s exited %d" % (name, code))
            (GOLDEN_DIR / name).write_bytes(out)
