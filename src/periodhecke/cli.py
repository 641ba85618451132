"""Command-line front end.

Every subcommand prints a machine-readable payload (JSON by default, TSV
via --format tsv) that is byte-identical across runs for identical
arguments.  Exit codes: 0 success / all checks passed, 1 a numeric check
failed its tolerance, 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import contextmanager

from .congruence import coset_table, gamma0_index, rho
from .exact_core import ExtendedRational, I, IntMatrix2, S, T, T_PRIME, divisors
from .farey import farey_sequence, level, lns, m_of_q
from .hecke import gen_sm, gen_xm, h_tilde, sigma, vector_hecke
from .numeric import cusp_solution, eta_line_integral, hecke_image, laplace_fd, r_zeta
from .verify import RELATIVE_TOLERANCE, residual_and_scale, run_all_checks, sample_points

# Largest accepted levels and Hecke indices, so that no command runs for
# minutes.  `farey --n` lists about 1.2 n^2 rationals (3 MB of JSON at 500).
# A chain from --q takes at most level(q) + 1 steps, so the level
# max(|a|, b) of --q is capped (mq --q 99999/100000 takes about 1.7 s).
# A level-400 coset table takes under 0.1 s; each index cap is at most 2 s
# at level 1.  The operator commands handle mu(n) * |S_m| pairs (j, B), so
# that product has a cap of its own (hecke-vector caps mu(n) * sigma(m),
# sigma(m) the divisor sum).  The slowest admitted runs found take about
# 2.0 s (hecke-vector --n 7 --m 1499), 2.3 s (check-three-term --n 3 --m 114)
# and 2.2 s (verify-all --n 3 --m 216) as whole runs (CPU time, best of 3,
# Python 3.11 on a shared 2-core VM).
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

# The fixed settings of the check commands.
THREE_TERM_POINTS = 100
LAPLACE_H = 1e-2
LAPLACE_H2 = 1e-3
LAPLACE_POINTS = 100
LAPLACE_ORDER_WINDOW = 0.4
ETA_PANELS = (32, 64, 128)
ETA_MIN_RATIO = 3.0


class UsageError(ValueError):
    pass


def _parse_rational(text):
    try:
        q = ExtendedRational.from_string(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _capped(level(q), CHAIN_LEVEL_CAP, "the level max(|a|, b) of --q")
    return q


def _parse_matrix(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("matrix must be given as a,b,c,d")
    try:
        return IntMatrix2(*(int(p) for p in parts))
    except ValueError:
        raise UsageError("matrix entries must be integers") from None


def _parse_complex(text):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise UsageError("spectral parameter must be given as re or re,im")
    if not all(math.isfinite(p) for p in parts):
        raise UsageError("spectral parameter must be finite, got %r" % text)
    return complex(*parts)


def _capped(value, cap, flag="--n"):
    if value > cap:
        raise UsageError("%s must be at most %d, got %d" % (flag, cap, value))
    return value


def _operator_size_capped(args, index_cap, size_cap, merel=True):
    """--n and --m within their caps and mu(n) * |S_m| within size_cap,
    |S_m| counted as the total chain length over X_m; hecke-vector
    (merel=False) caps mu(n) * sigma(m), sigma(m) the divisor sum."""
    n, m = _capped(args.n, COSET_LEVEL_CAP), _capped(args.m, index_cap, "--m")
    if m < 1:
        raise UsageError("Hecke index must be positive, got %d" % m)
    if merel:
        label, count = "|S_m|", sum(len(lns(ExtendedRational(a.b, a.d))) - 1 for a in gen_xm(m))
    else:
        label, count = "sigma(m)", sum(divisors(m))
    size = gamma0_index(n) * count
    if size > size_cap:
        raise UsageError(
            "mu(n)*%s must be at most %d, got %d for --n %d --m %d" % (label, size_cap, size, n, m)
        )
    return n, m


@contextmanager
def _float_range(s_text):
    """Report a spectral parameter that drives the weights z^(-2s) or the
    kernel powers out of the floating-point range (an overflow, a division
    by a power that underflowed to 0, or a result _finite rejects) as a
    usage error."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise UsageError(
            "--s %s drives the numeric weights out of the floating-point range; "
            "choose a smaller |s|" % s_text
        ) from None


def _finite(*values):
    if not all(math.isfinite(abs(x)) for x in values):
        raise OverflowError("non-finite numeric result")


def _attach_dash_values(argv):
    """Write `--flag -1/2` as `--flag=-1/2`: argparse reads a separate value
    that starts with '-' as a flag unless it is a plain negative number."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_word(text):
    """A product of the generators written as a string of T, S and T'."""
    g = I
    i = 0
    while i < len(text):
        for letter, mat in (("T'", T_PRIME), ("T", T), ("S", S)):
            if text.startswith(letter, i):
                g = g * mat
                i += len(letter)
                break
        else:
            raise UsageError("word may only contain T, S and T' (got %r)" % text[i])
    return g


def _flat_rows(mat):
    return [str(x) for x in mat.key]


def _tsv_formal_sum(total):
    return [[str(coeff)] + _flat_rows(mat) for coeff, mat in total]


def _tsv_operator(op):
    """One row (j, i, 1, B) per term, in the order of the dense view: by
    row j, then column i, then the key of B.  The cells after i are joined
    once per B."""
    by_row = [[] for _ in range(op.mu)]
    for mat, image in op.columns:
        tail = "\t".join(["1"] + _flat_rows(mat))
        for j, i in enumerate(image):
            if i is not None:
                by_row[j].append((i, tail))
    for j, terms in enumerate(by_row):
        terms.sort(key=lambda term: term[0])
        for i, tail in terms:
            yield [str(j), str(i), tail]


def _render(payload_of, rows_of, fmt):
    """Every _cmd_* returns (payload_of, rows_of, code): builders of the
    JSON payload and of the TSV rows.  Only the requested one is called."""
    if fmt == "json":
        return json.dumps(payload_of(), sort_keys=True, separators=(",", ":"), allow_nan=False)
    return "\n".join("\t".join(row) for row in rows_of())


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_farey(args):
    seq = farey_sequence(_capped(args.n, FAREY_LEVEL_CAP))
    payload = [str(r) for r in seq]
    return lambda: payload, lambda: [[s] for s in payload], 0


def _cmd_lns(args):
    payload = [str(r) for r in lns(_parse_rational(args.q))]
    return lambda: payload, lambda: [[s] for s in payload], 0


def _cmd_mq(args):
    total = m_of_q(_parse_rational(args.q))
    return total.to_json_obj, lambda: _tsv_formal_sum(total), 0


def _cmd_cosets(args):
    table = coset_table(_capped(args.n, COSET_LEVEL_CAP))
    return (
        lambda: {"mu": table.mu, "reps": [g.rows() for g in table.reps]},
        lambda: [_flat_rows(g) for g in table.reps],
        0,
    )


def _cmd_rho(args):
    table = coset_table(_capped(args.n, COSET_LEVEL_CAP))
    perm = rho(table, _parse_word(args.word))
    return lambda: list(perm.image), lambda: [[str(j) for j in perm.image]], 0


def _cmd_sigma(args):
    g = _parse_matrix(args.g)
    a_mat = _parse_matrix(args.A)
    result = sigma(g, a_mat)
    return lambda: {"sigma": result.rows()}, lambda: [_flat_rows(result)], 0


def _cmd_hecke_scalar(args):
    total = h_tilde(_capped(args.m, SCALAR_INDEX_CAP, "--m"))
    return total.to_json_obj, lambda: _tsv_formal_sum(total), 0


def _cmd_hecke_vector(args):
    n, m = _operator_size_capped(args, VECTOR_INDEX_CAP, VECTOR_SIZE_CAP, merel=False)
    op = vector_hecke(coset_table(n), m)
    return op.to_json_obj, lambda: _tsv_operator(op), 0


def _cmd_sm(args):
    mats = gen_sm(_capped(args.m, SM_INDEX_CAP, "--m"))
    return lambda: [g.rows() for g in mats], lambda: [_flat_rows(g) for g in mats], 0


def _cmd_check_three_term(args):
    s = _parse_complex(args.s)
    n, m = _operator_size_capped(args, THREE_TERM_INDEX_CAP, THREE_TERM_SIZE_CAP)
    table = coset_table(n)
    psi = cusp_solution(table, s)
    op = vector_hecke(table, m)
    with _float_range(args.s):
        worst, largest = residual_and_scale(
            hecke_image(op, psi, s), table, s, sample_points(THREE_TERM_POINTS)
        )
        _finite(worst, largest)
    if largest == 0:
        raise UsageError("the Hecke image vanishes at --s %s, so there is nothing to check" % args.s)
    relative = worst / largest
    payload = {"max_residual": relative, "points": THREE_TERM_POINTS}
    rows = [["max_residual", repr(relative)], ["points", str(THREE_TERM_POINTS)]]
    return lambda: payload, lambda: rows, 0 if relative <= RELATIVE_TOLERANCE else 1


def _cmd_check_laplace(args):
    s = _parse_complex(args.s)
    if s * (1 - s) == 0:
        raise UsageError("--s must not be 0 or 1: the eigenvalue s(1-s) is 0, so no relative error exists")
    zeta = 0.7
    f = lambda z: r_zeta(z, zeta) ** s
    worst_coarse = worst_fine = 0.0
    with _float_range(args.s):
        for k in range(LAPLACE_POINTS):
            z0 = -1.5 + 3.0 * k / (LAPLACE_POINTS - 1) + 1j * (0.6 + 0.05 * k)
            reference = s * (1 - s) * f(z0)
            worst_coarse = max(worst_coarse, abs(laplace_fd(f, z0, LAPLACE_H) - reference) / abs(reference))
            worst_fine = max(worst_fine, abs(laplace_fd(f, z0, LAPLACE_H2) - reference) / abs(reference))
        _finite(worst_coarse, worst_fine)
        order = math.log(worst_coarse / worst_fine) / math.log(LAPLACE_H / LAPLACE_H2)
    payload = {
        "error_h": worst_coarse,
        "error_h2": worst_fine,
        "h": LAPLACE_H,
        "h2": LAPLACE_H2,
        "order": order,
    }
    rows = [[k, repr(payload[k])] for k in sorted(payload)]
    code = 0 if abs(order - 2.0) <= LAPLACE_ORDER_WINDOW else 1
    return lambda: payload, lambda: rows, code


def _cmd_check_eta_loop(args):
    s = _parse_complex(args.s)
    u = lambda z: r_zeta(z, -1.5) ** s
    v = lambda z: r_zeta(z, 3.0) ** s
    loop = [0.2 + 0.5j, 1.2 + 0.5j, 1.2 + 1.5j, 0.2 + 1.5j, 0.2 + 0.5j]
    with _float_range(args.s):
        magnitudes = [abs(eta_line_integral(u, v, loop, steps=p)) for p in ETA_PANELS]
        _finite(*magnitudes)
        ratios = [coarse / fine for coarse, fine in zip(magnitudes, magnitudes[1:])]
    payload = {"magnitudes": magnitudes, "panels": ETA_PANELS, "ratios": ratios}
    rows = [
        ["panels", " ".join(str(p) for p in ETA_PANELS)],
        ["magnitudes", " ".join(repr(x) for x in magnitudes)],
        ["ratios", " ".join(repr(x) for x in ratios)],
    ]
    code = 0 if all(r > ETA_MIN_RATIO for r in ratios) else 1
    return lambda: payload, lambda: rows, code


def _cmd_verify_all(args):
    s = _parse_complex(args.s)
    n, m = _operator_size_capped(args, VERIFY_INDEX_CAP, VERIFY_SIZE_CAP)
    with _float_range(args.s):
        checks = run_all_checks(n, m, s=s)
    all_pass = all(passed for _, passed, _ in checks)
    payload = {
        "all_pass": all_pass,
        "checks": [
            {"detail": detail, "name": name, "pass": passed}
            for name, passed, detail in checks
        ],
        "m": args.m,
        "n": args.n,
    }
    rows = [[name, "pass" if passed else "FAIL", detail] for name, passed, detail in checks]
    rows.append(["all_pass", "pass" if all_pass else "FAIL", ""])
    return lambda: payload, lambda: rows, 0 if all_pass else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="periodhecke",
        description="Exact Hecke operator matrices on period functions for "
        "congruence subgroups, with numeric verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name, allow_abbrev=False)
        for flag, options in flags.items():
            p.add_argument("--" + flag, **options)
        p.add_argument("--format", choices=["json", "tsv"], default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    n_flag = m_flag = {"type": int, "required": True}
    add("farey", _cmd_farey, n=n_flag)
    add("lns", _cmd_lns, q={"required": True})
    add("mq", _cmd_mq, q={"required": True})
    add("cosets", _cmd_cosets, n=n_flag)
    add("rho", _cmd_rho, n=n_flag, word={"required": True})
    add("sigma", _cmd_sigma, g={"required": True}, A={"required": True})
    add("hecke-scalar", _cmd_hecke_scalar, m=m_flag)
    add("hecke-vector", _cmd_hecke_vector, n=n_flag, m=m_flag)
    add("sm", _cmd_sm, m=m_flag)
    add("check-three-term", _cmd_check_three_term, n=n_flag, m=m_flag, s={"default": "1,0"})
    add("check-laplace", _cmd_check_laplace, s={"default": "0.9,0"})
    add("check-eta-loop", _cmd_check_eta_loop, s={"default": "0.8,0"})
    add("verify-all", _cmd_verify_all, n=n_flag, m=m_flag, s={"default": "1,0"})
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload_of, rows_of, code = args.func(args)
        _emit(_render(payload_of, rows_of, args.format), args.out)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
