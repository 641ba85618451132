"""Instance-level invariant suite behind the CLI's verify-all command.

Each check returns (name, passed, detail); the set is parameterized by the
level n and the Hecke index m >= 1, mirroring the exact and numeric
properties the library is built around.
"""

from __future__ import annotations

import math
import random

from .congruence import coset_table, gamma0_contains, rho
from .exact_core import ExtendedRational, FormalSum, I, IntMatrix2, S, T, T_PRIME, xgcd
from .farey import chain_matrices, farey_sequence, left_neighbor, level
from .hecke import gen_sm, gen_xm, h_tilde, in_xm, phi, sigma, vector_hecke
from .numeric import (
    constant_lift,
    cusp_solution,
    hecke_image,
    three_term_residual,
    transfer_residual,
)

__all__ = ["run_all_checks", "residual_and_scale", "sample_points"]

RELATIVE_TOLERANCE = 1e-9
VERIFY_POINTS = 25


def _random_word(rng, max_len=6):
    g = I
    for _ in range(rng.randint(0, max_len)):
        g = g * rng.choice([T, S, T_PRIME])
    return g


def _random_gamma0(rng, n):
    while True:
        c = n * rng.randint(-4, 4)
        d = rng.randint(-15, 15)
        g, x, y = xgcd(d, -c)
        if g != 1:
            continue
        t = rng.randint(-2, 2)
        return IntMatrix2(x + t * c, y + t * d, c, d)


def sample_points(points):
    """`points` evenly spaced abscissae from 0.1 to 10 for the residual checks."""
    if points < 1:
        raise ValueError("residual checks need at least one sample point")
    return [0.1 + 9.9 * k / max(1, points - 1) for k in range(points)]


def _max_abs(current, values):
    """The largest |v| over values and current, the maximum so far (None
    before the first values); NaN if any of them is NaN, which max() alone
    would skip unless it came first."""
    magnitudes = [abs(v) for v in values]
    if current is not None:
        magnitudes.append(current)
    return math.nan if any(map(math.isnan, magnitudes)) else max(magnitudes)


def residual_and_scale(psi, table, s, zetas):
    """The largest three-term residual of psi over the points zetas, and
    the largest |psi| there, which the residual is measured against; each
    is NaN if any value it folds is NaN.

    psi is called three times per point: the scale reads the value
    psi(zeta) that the residual evaluates, and one point's values are held
    at a time."""
    held = {}

    def recorded(z):
        held[z] = psi(z)
        return held[z]

    worst = largest = None
    for zeta in zetas:
        held.clear()
        worst = _max_abs(worst, three_term_residual(recorded, table, s, zeta))
        largest = _max_abs(largest, held[zeta])
    return worst, largest


def _record_matches(table, maps, a_mat, j):
    """True iff phi's record for (A, j) is a coset membership and, for each
    link L of its sigma, the column map f_{L sigma} in maps sends row j to
    the coset of reps[phi] * L^-1 when gcd(a, n) = 1 and to None otherwise."""
    m, n, rec = a_mat.det, table.n, phi(table, a_mat, j)
    numerator = a_mat * table.reps[j] * rec.sigma.adjugate()
    if any(entry % m for entry in numerator.key):
        return False
    target = table.reps[rec.phi]
    unimodular = IntMatrix2(*(entry // m for entry in numerator.key))
    return gamma0_contains(n, unimodular * target.inverse()) and all(
        maps.get(link * rec.sigma, (None,) * table.mu)[j]
        == (table.index(target * link.inverse()) if math.gcd(a_mat.a, n) == 1 else None)
        for link in chain_matrices(ExtendedRational(rec.sigma.b, rec.sigma.d))
    )


def run_all_checks(n, m, s=1.0):
    """Run the invariant suite for level n and Hecke index m >= 1; returns
    a list of (name, passed, detail) triples."""
    rng = random.Random(0)
    table = coset_table(n)
    psi = cusp_solution(table, s)
    checks = []

    # The divisor sum is counted here without divisors(), which gen_xm uses.
    xm = gen_xm(m)
    size = len(xm)
    expected = sum(d for d in range(1, m + 1) if m % d == 0)
    ok = size == expected and len(set(xm)) == size and all(in_xm(a, m) for a in xm)
    checks.append(("xm-size", ok, "|X_m| = %d, divisor sum = %d" % (size, expected)))

    ht = h_tilde(m)
    sm_mats = gen_sm(m)
    sm = FormalSum.from_matrices(sm_mats)
    checks.append(
        (
            "scalar-sum-equals-enumeration",
            ht == sm and all(coeff == 1 for coeff, _ in ht),
            "%d terms" % len(ht),
        )
    )

    # The level-lev sequence is the part of the top one with level <= lev,
    # so the scan oracle walks left from q to the first such member.
    top = farey_sequence(min(10 + m, 30))
    ok = True
    for k in range(1, len(top)):
        q = top[k]
        lev = level(q)
        i = k - 1
        while level(top[i]) > lev:
            i -= 1
        neighbor = left_neighbor(q)
        if neighbor != top[i] or (lev > 0 and level(neighbor) >= lev):
            ok = False
            break
    checks.append(("farey-left-neighbor", ok, "scan oracle + level descent"))

    ok = True
    for _ in range(50):
        g, gp = _random_word(rng), _random_word(rng)
        if rho(table, gp) @ rho(table, g) != rho(table, gp * g):
            ok = False
            break
    checks.append(("rho-homomorphism", ok, "50 random word pairs"))

    ok = all(rho(table, _random_gamma0(rng, n)).image[0] == 0 for _ in range(20))
    checks.append(("rho-fixes-identity-coset", ok, "20 random subgroup elements"))

    ok = True
    for _ in range(20):
        g = _random_word(rng, 4)
        image = sorted((sigma(g, a) for a in xm), key=lambda x: x.key)
        if image != xm or any(sigma(g.inverse(), sigma(g, a)) != a for a in xm):
            ok = False
            break
    checks.append(("sigma-bijection-and-inverse", ok, "20 random words on X_m"))

    op = vector_hecke(table, m)
    maps = dict(op.columns)
    ok = all(_record_matches(table, maps, a_mat, j) for a_mat in xm for j in range(table.mu))
    checks.append(("coset-record-membership", ok, "all (A, j) pairs"))

    # The constructor already holds every B to S_m; what it does not
    # enforce is which B occur and how their maps cover the rows.
    if math.gcd(m, n) == 1:
        cosets = set(range(table.mu))
        ok = [mat for mat, _ in op.columns] == sm_mats and all(
            set(image) == cosets for _, image in op.columns
        )
        detail = "support S_m, every column map a permutation"
    else:
        ok = all(any(image[j] is not None for _, image in op.columns) for j in range(table.mu))
        detail = "every row reached"
    checks.append(("operator-entry-conditions", ok, detail))

    if n == 1:
        checks.append(
            ("level-one-reduction", op.row_sum(0) == ht, "single entry vs scalar sum")
        )

    zetas = sample_points(VERIFY_POINTS)
    worst_in, largest_in = residual_and_scale(psi, table, s, zetas)
    checks.append(
        (
            "three-term-input",
            largest_in > 0 and worst_in <= 1e-12 * largest_in,
            "max residual %.3e, max |psi| %.3e" % (worst_in, largest_in),
        )
    )

    worst_out, largest_out = residual_and_scale(hecke_image(op, psi, s), table, s, zetas)
    checks.append(
        (
            "three-term-preserved",
            largest_out > 0 and worst_out <= RELATIVE_TOLERANCE * largest_out,
            "max residual %.3e, max |image| %.3e (relative tolerance %.1e)"
            % (worst_out, largest_out, RELATIVE_TOLERANCE),
        )
    )

    if n == 1:
        # 1/z solves the plus sign of the transfer variant at s = 1 only.
        reciprocal = constant_lift(lambda z: 1.0 / z, 1)
        plus = max(abs(transfer_residual(reciprocal, table, 1, 1, z)[0]) for z in zetas)
        minus = abs(transfer_residual(reciprocal, table, 1, -1, 1.0)[0])
        checks.append(
            (
                "transfer-equation-signs",
                plus < 1e-12 and minus > 1e-2,
                "s = 1 reference 1/z: plus %.3e, minus at 1 is %.3e" % (plus, minus),
            )
        )

    return checks
