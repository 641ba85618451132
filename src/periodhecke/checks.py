"""The four check subcommands of the command line: check-three-term,
check-laplace, check-eta-loop and verify-all.

periodhecke.cli imports this module, and with it the numeric layer and
verify, only when one of them runs.  Each cmd_* function takes the parsed
arguments of its subcommand and returns (json_of, tsv_of, code) as every
subcommand of periodhecke.cli does: the JSON text of its payload, and its
TSV lines, one `key<TAB>value` per field or `name<TAB>pass|FAIL<TAB>detail`
per check.  The caps stay in cli with the other caps and are read from it
when a command runs.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager

from . import _plain_number, cli
from .congruence import coset_table
from .hecke import vector_hecke
from .numeric import ETA_FD_STEP, cusp_solution, eta_line_integral, hecke_image, laplace_fd, r_zeta
from .verify import SMALLEST_S, residual_and_scale, run_all_checks, sample_points, three_term_tolerance

# The fixed settings of the check commands.
THREE_TERM_POINTS = 100
LAPLACE_H = 1e-2
LAPLACE_H2 = 1e-3
LAPLACE_POINTS = 100
LAPLACE_ORDER_WINDOW = 0.4
ETA_PANELS = (32, 64, 128)
ETA_MIN_RATIO = 3.0


def _parse_complex(text):
    try:
        parts = [_plain_number(p, float) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise ValueError("spectral parameter must be given as re or re,im")
    if not all(math.isfinite(p) for p in parts):
        raise ValueError("spectral parameter must be finite, got %r" % text)
    return complex(*parts)


@contextmanager
def _float_range(s_text):
    """Report a spectral parameter that drives the weights z^(-2s) or the
    kernel powers out of the floating-point range (an overflow, a division
    by a power that underflowed to 0, or a result _finite rejects) as a
    ValueError that names --s."""
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            "--s %s drives the numeric weights out of the floating-point range; "
            "choose a smaller |s|" % s_text
        ) from None


def _finite(*values):
    if not all(math.isfinite(abs(x)) for x in values):
        raise OverflowError("non-finite numeric result")


def cmd_check_three_term(args):
    s = _parse_complex(args.s)
    n, m = cli.operator_size_capped(args, cli.THREE_TERM_INDEX_CAP, cli.THREE_TERM_SIZE_CAP)
    table = coset_table(n)
    psi = cusp_solution(table, s)
    if abs(s) < SMALLEST_S:  # no weight can overflow at such s, so refuse it before any work
        three_term_tolerance(s)
    op = vector_hecke(table, m)
    zetas = sample_points(THREE_TERM_POINTS)
    with _float_range(args.s):
        worst, largest = residual_and_scale(hecke_image(op, psi, s), table, s, zetas)
        _finite(worst, largest)
    if largest == 0:
        raise ValueError("the Hecke image vanishes at --s %s, so there is nothing to check" % args.s)
    tolerance = three_term_tolerance(s)
    relative = worst / largest
    payload = {"max_residual": relative, "points": THREE_TERM_POINTS}
    lines = ["max_residual\t%r" % relative, "points\t%d" % THREE_TERM_POINTS]
    return lambda: cli.dumps(payload), lambda: lines, 0 if relative <= tolerance else 1


def cmd_check_laplace(args):
    s = _parse_complex(args.s)
    if s * (1 - s) == 0:
        raise ValueError("--s must not be 0 or 1: the eigenvalue s(1-s) is 0, so no relative error exists")
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
        # The stencil's weights sum to 8 in absolute value, so values of f
        # correct to a relative epsilon leave laplace_fd a rounding error up
        # to 8 eps y^2 |f| / h^2, largest at the last (highest) z0.  Below the
        # error a second-order stencil leaves at h2, worst_coarse * (h2/h)^2,
        # rounding lowers the order by at most log10(2), inside the window.
        rounding = 8 * sys.float_info.epsilon * z0.imag ** 2 / (LAPLACE_H2 ** 2 * abs(s * (1 - s)))
        if rounding > worst_coarse * (LAPLACE_H2 / LAPLACE_H) ** 2:
            raise ValueError("the step-h2 Laplace errors are at the finite-difference noise floor at --s %s" % args.s)
        order = math.log(worst_coarse / worst_fine) / math.log(LAPLACE_H / LAPLACE_H2)
    payload = {
        "error_h": worst_coarse,
        "error_h2": worst_fine,
        "h": LAPLACE_H,
        "h2": LAPLACE_H2,
        "order": order,
    }
    lines = ["%s\t%r" % (k, payload[k]) for k in sorted(payload)]
    code = 0 if abs(order - 2.0) <= LAPLACE_ORDER_WINDOW else 1
    return lambda: cli.dumps(payload), lambda: lines, code


def cmd_check_eta_loop(args):
    s = _parse_complex(args.s)
    u = lambda z: r_zeta(z, -1.5) ** s
    v = lambda z: r_zeta(z, 3.0) ** s
    loop = [0.2 + 0.5j, 1.2 + 0.5j, 1.2 + 1.5j, 0.2 + 1.5j, 0.2 + 0.5j]
    with _float_range(args.s):
        magnitudes = [abs(eta_line_integral(u, v, loop, steps=p)) for p in ETA_PANELS]
        _finite(*magnitudes)
        # Constant weights (s = 0) close the form exactly; weights that
        # underflowed to 0 leave the range error of the ratios below.
        if not any(magnitudes) and u(loop[0]) * v(loop[0]) != 0:
            raise ValueError("the loop integrals vanish at --s %s, so there is nothing to check" % args.s)
        # Under the rounding error of one central difference, ratios are noise.
        if magnitudes[0] < sys.float_info.epsilon / ETA_FD_STEP * max(abs(u(z) * v(z)) for z in loop):
            raise ValueError("the loop integrals are at the finite-difference noise floor at --s %s" % args.s)
        ratios = [coarse / fine for coarse, fine in zip(magnitudes, magnitudes[1:])]
    payload = {"magnitudes": magnitudes, "panels": ETA_PANELS, "ratios": ratios}
    lines = ["%s\t%s" % (key, " ".join(map(repr, payload[key]))) for key in ("panels", "magnitudes", "ratios")]
    code = 0 if all(r > ETA_MIN_RATIO for r in ratios) else 1
    return lambda: cli.dumps(payload), lambda: lines, code


def cmd_verify_all(args):
    s = _parse_complex(args.s)
    n, m = cli.operator_size_capped(args, cli.VERIFY_INDEX_CAP, cli.VERIFY_SIZE_CAP)
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
    lines = ["%s\t%s\t%s" % (name, "pass" if passed else "FAIL", detail) for name, passed, detail in checks]
    lines.append("all_pass\t%s\t" % ("pass" if all_pass else "FAIL"))
    return lambda: cli.dumps(payload), lambda: lines, 0 if all_pass else 1
