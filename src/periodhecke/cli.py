"""Command-line front end.

Every subcommand prints a machine-readable payload (JSON by default, TSV
via --format tsv) that is byte-identical across runs for identical
arguments.  Exit codes: 0 success / all checks passed, 1 a numeric check
failed its tolerance, 2 usage or precondition error (main reports every
ValueError, ArithmeticError and OSError as `error: <message>`).

Importing this module loads no layer of the package.  Each subcommand
imports the layer functions it calls when it runs, after its arguments
are read and its level and index caps are checked, so a run compiles only
the layers it executes.  --help, a malformed word, matrix, integer or --s,
and a level or index over its cap compile none; a malformed --q loads
exact_core, which reads it, and a --q over its level cap farey too.  The
check subcommands live in periodhecke.checks and follow the same rule.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import _plain_number

# Largest accepted levels and Hecke indices, so that no command runs for
# minutes.  `farey --n` lists about 1.2 n^2 rationals (3 MB of JSON at 500).
# A chain from --q takes at most level(q) + 1 steps, so the level
# max(|a|, b) of --q is capped (mq --q 99999/100000 takes about 0.6 s).
# A level-400 coset table takes about 0.6 ms and its representatives about
# 0.01 s; each index cap is at most 1 s at level 1.  The operator commands
# handle mu(n) * |S_m| pairs (j, B), so that product has a cap of its own
# (hecke-vector caps mu(n) * sigma(m), sigma(m) the divisor sum).  The
# slowest admitted runs found take about 0.8 s (hecke-vector --n 1 --m 1440),
# 1.2 s (check-three-term --n 3 --m 114) and 1.1 s (verify-all --n 3 --m 216)
# as whole processes (CPU time, best of 7, no bytecode cache, Python 3.11 on
# a shared 2-core VM; the coset figures are best of 15 fresh processes).
FAREY_LEVEL_CAP = 500
CHAIN_LEVEL_CAP = 100000
COSET_LEVEL_CAP = 400
SCALAR_INDEX_CAP = 1500
SM_INDEX_CAP = 500
VECTOR_INDEX_CAP = 1500
THREE_TERM_INDEX_CAP = 120
VERIFY_INDEX_CAP = 250
VECTOR_SIZE_CAP = 12000
THREE_TERM_SIZE_CAP = 9000
VERIFY_SIZE_CAP = 20000


def _parse_rational(text):
    """--q as an extended rational whose level is within its cap."""
    from .exact_core import ExtendedRational

    q = ExtendedRational.from_string(text)
    from .farey import level

    _capped(level(q), CHAIN_LEVEL_CAP, "the level max(|a|, b) of --q")
    return q


def _capped(value, cap, flag="--n"):
    if value > cap:
        raise ValueError("%s must be at most %d, got %d" % (flag, cap, value))
    return value


def operator_size_capped(args, index_cap, size_cap, merel=True):
    """--n and --m within their caps and mu(n) * |S_m| within size_cap,
    |S_m| counted as the total chain length over X_m; hecke-vector
    (merel=False) caps mu(n) * sigma(m), sigma(m) the divisor sum."""
    n, m = _capped(args.n, COSET_LEVEL_CAP), _capped(args.m, index_cap, "--m")
    if m < 1:
        raise ValueError("Hecke index must be positive, got %d" % m)
    from .congruence import gamma0_index

    if merel:
        from .exact_core import _merel_keys

        label, count = "|S_m|", sum(1 for _ in _merel_keys(m))
    else:
        from .exact_core import divisors

        label, count = "sigma(m)", sum(divisors(m))
    size = gamma0_index(n) * count
    if size > size_cap:
        raise ValueError(
            "mu(n)*%s must be at most %d, got %d for --n %d --m %d" % (label, size_cap, size, n, m)
        )
    return n, m


def _attach_dash_values(argv):
    """Write `--flag -1/2` as `--flag=-1/2`, for a value that starts with a
    dash and then a point or a decimal digit of any script: argparse reads
    a separate value that starts with '-' as a flag unless it is a plain
    negative number."""
    out = []
    for token in argv:
        dash_value = token[:1] == "-" and (token[1:2] == "." or token[1:2].isdecimal())
        if dash_value and out and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_matrix(text):
    """--g or --A as 'a,b,c,d': the four entries row by row."""
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError("matrix must be given as a,b,c,d")
    try:
        return [_plain_number(part) for part in parts]
    except ValueError:
        raise ValueError("matrix entries must be integers") from None


def _parse_word(text):
    """A product of the generators written as a string of T, S and T'."""
    end = re.match(r"(T'|T|S)*", text).end()
    if end < len(text):
        raise ValueError("word may only contain T, S and T' (got %r)" % text[end])
    from .exact_core import I, S, T, T_PRIME

    g, mats = I, {"T'": T_PRIME, "T": T, "S": S}
    for letter in re.findall(r"T'|T|S", text):
        g = g * mats[letter]
    return g


def dumps(payload):
    """The JSON text of payload, with sorted keys and no spaces; a NaN or an
    infinity raises ValueError, since JSON has no such number."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


# One term of a formal sum or of an operator cell, as dumps writes
# {"coeff": c, "matrix": mat.rows()}.
_JSON_TERM = '{"coeff":%d,"matrix":[[%d,%d],[%d,%d]]}'
# A matrix as one TSV line, row-major, and a term as its coefficient
# followed by its matrix.
_TSV_MATRIX = "%d\t%d\t%d\t%d"
_TSV_TERM = "%d\t" + _TSV_MATRIX


def _json_formal_sum(total):
    """The JSON text of total.to_json_obj()."""
    return "[%s]" % ",".join(_JSON_TERM % ((coeff,) + mat.key) for coeff, mat in total)


def _json_operator(op):
    """The JSON text of op.to_json_obj(): each B's term is written once,
    and only the cells that terms land in are joined from their terms;
    every other cell stays the text []."""
    cells = {}
    for mat, image in op.columns:
        term = _JSON_TERM % ((1,) + mat.key)
        for j, i in enumerate(image):
            if i is not None:
                cells.setdefault((j, i), []).append(term)
    rows = [["[]"] * op.mu for _ in range(op.mu)]
    for (j, i), terms in cells.items():
        rows[j][i] = "[%s]" % ",".join(terms)
    entries = ",".join("[%s]" % ",".join(row) for row in rows)
    return '{"entries":[%s],"m":%d,"mu":%d,"n":%d}' % (entries, op.m, op.mu, op.n)


def _tsv_formal_sum(total):
    """One line per term."""
    return [_TSV_TERM % ((coeff,) + mat.key) for coeff, mat in total]


def _tsv_operator(op):
    """One line j, i, 1, B per term, in the order of the dense view: by
    row j, then column i, then the key of B.  The part after i is written
    once per B."""
    by_row = [[] for _ in range(op.mu)]
    for mat, image in op.columns:
        tail = _TSV_TERM % ((1,) + mat.key)
        for j, i in enumerate(image):
            if i is not None:
                by_row[j].append((i, tail))
    for j, terms in enumerate(by_row):
        terms.sort(key=lambda term: term[0])
        for i, tail in terms:
            yield "%d\t%d\t%s" % (j, i, tail)


def _cmd_farey(args):
    n = _capped(args.n, FAREY_LEVEL_CAP)
    from .farey import farey_sequence

    rationals = [str(r) for r in farey_sequence(n)]
    return lambda: dumps(rationals), lambda: rationals, 0


def _cmd_lns(args):
    q = _parse_rational(args.q)
    from .farey import lns

    rationals = [str(r) for r in lns(q)]
    return lambda: dumps(rationals), lambda: rationals, 0


def _cmd_mq(args):
    q = _parse_rational(args.q)
    from .farey import m_of_q

    total = m_of_q(q)
    return lambda: _json_formal_sum(total), lambda: _tsv_formal_sum(total), 0


def _cmd_cosets(args):
    n = _capped(args.n, COSET_LEVEL_CAP)
    from .congruence import coset_table

    table = coset_table(n)
    return (
        lambda: dumps({"mu": table.mu, "reps": [g.rows() for g in table.reps]}),
        lambda: [_TSV_MATRIX % g.key for g in table.reps],
        0,
    )


def _cmd_rho(args):
    n, g = _capped(args.n, COSET_LEVEL_CAP), _parse_word(args.word)
    from .congruence import coset_table, rho

    image = rho(coset_table(n), g).image
    return lambda: dumps(image), lambda: ["\t".join(map(str, image))], 0


def _cmd_sigma(args):
    g, a = _parse_matrix(args.g), _parse_matrix(args.A)
    from .exact_core import IntMatrix2
    from .hecke import sigma

    result = sigma(IntMatrix2(*g), IntMatrix2(*a))
    return lambda: dumps({"sigma": result.rows()}), lambda: [_TSV_MATRIX % result.key], 0


def _cmd_hecke_scalar(args):
    m = _capped(args.m, SCALAR_INDEX_CAP, "--m")
    from .exact_core import h_tilde

    total = h_tilde(m)
    return lambda: _json_formal_sum(total), lambda: _tsv_formal_sum(total), 0


def _cmd_hecke_vector(args):
    n, m = operator_size_capped(args, VECTOR_INDEX_CAP, VECTOR_SIZE_CAP, merel=False)
    from .congruence import coset_table
    from .hecke import vector_hecke

    op = vector_hecke(coset_table(n), m)
    return lambda: _json_operator(op), lambda: _tsv_operator(op), 0


def _cmd_sm(args):
    m = _capped(args.m, SM_INDEX_CAP, "--m")
    from .hecke import gen_sm

    mats = gen_sm(m)
    return lambda: dumps([g.rows() for g in mats]), lambda: [_TSV_MATRIX % g.key for g in mats], 0


def _cmd_check(args):
    """A check subcommand: checks.cmd_<name> with the dashes of the name
    read as underscores."""
    from . import checks

    return getattr(checks, "cmd_" + args.command.replace("-", "_"))(args)


def build_parser(command=None):
    """The parser for `periodhecke <command> ...`.  When command names a
    subcommand, only its subparser is built, under the metavar argparse
    would show for every name, so usage and error lines stay the same.
    Otherwise (help, no command, an unknown one) every subparser is built
    under the default metavar, since the errors for a missing or unknown
    command name the action by its dest."""
    n_flag = m_flag = {"type": _plain_number, "required": True}
    subcommands = {
        "farey": (_cmd_farey, {"n": n_flag}),
        "lns": (_cmd_lns, {"q": {"required": True}}),
        "mq": (_cmd_mq, {"q": {"required": True}}),
        "cosets": (_cmd_cosets, {"n": n_flag}),
        "rho": (_cmd_rho, {"n": n_flag, "word": {"required": True}}),
        "sigma": (_cmd_sigma, {"g": {"required": True}, "A": {"required": True}}),
        "hecke-scalar": (_cmd_hecke_scalar, {"m": m_flag}),
        "hecke-vector": (_cmd_hecke_vector, {"n": n_flag, "m": m_flag}),
        "sm": (_cmd_sm, {"m": m_flag}),
        "check-three-term": (_cmd_check, {"n": n_flag, "m": m_flag, "s": {"default": "1,0"}}),
        "check-laplace": (_cmd_check, {"s": {"default": "0.9,0"}}),
        "check-eta-loop": (_cmd_check, {"s": {"default": "0.8,0"}}),
        "verify-all": (_cmd_check, {"n": n_flag, "m": m_flag, "s": {"default": "1,0"}}),
    }
    parser = argparse.ArgumentParser(
        prog="periodhecke",
        description="Exact Hecke operator matrices on period functions for "
        "congruence subgroups, with numeric verification checks.",
    )
    known = command in subcommands
    metavar = "{%s}" % ",".join(subcommands) if known else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if known else subcommands:
        func, flags = subcommands[name]
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, options in flags.items():
            p.add_argument("--" + flag, **options)
        p.add_argument("--format", choices=["json", "tsv"], default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # Every _cmd_* returns (json_of, tsv_of, code): json_of() returns the
        # JSON text and tsv_of() the TSV lines, each a str; only the
        # requested one is called.
        json_of, tsv_of, code = args.func(args)
        text = json_of() if args.format == "json" else "\n".join(tsv_of())
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return code
