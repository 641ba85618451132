"""Instance-level invariant suite behind the CLI's verify-all command.

Each check returns (name, passed, detail); the set is parameterized by the
level n and the Hecke index m >= 1, mirroring the exact and numeric
properties the library is built around.
"""

from __future__ import annotations

import math
import random

from .congruence import coset_table, rho
from .exact_core import ExtendedRational, FormalSum, I, IntMatrix2, S, T, T_PRIME, xgcd
from .farey import farey_sequence, left_neighbor, level, m_of_q
from .hecke import gen_sm, gen_xm, h_tilde, in_xm, phi, sigma, vector_hecke
from .numeric import _residual_and_terms, constant_lift, cusp_solution, hecke_image, transfer_residual

__all__ = ["run_all_checks", "reference_columns", "residual_and_scale", "sample_points", "three_term_tolerance"]

RELATIVE_TOLERANCE = 1e-12
VERIFY_POINTS = 25
# The least sample point, where three_term_tolerance bounds a misplaced
# column's relative residual at negative s.
FIRST_POINT = 0.1
# The least |s| the three-term checks accept: as s tends to 0 the reference
# solution tends to a constant, and ever more misplaced columns pass.
SMALLEST_S = 1e-9

# rho without its memo, for the random words the checks use once, so that
# they do not evict the permutations of the residual jobs that share it.
_rho_once = rho.__wrapped__


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
    """`points` evenly spaced abscissae from FIRST_POINT to 10 for the residual checks."""
    if points < 1:
        raise ValueError("residual checks need at least one sample point")
    return [FIRST_POINT + (10 - FIRST_POINT) * k / max(1, points - 1) for k in range(points)]


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
    the largest of the three terms it sums there, psi(zeta),
    rho psi(zeta+1) and (zeta+1)^(-2s) rho psi(zeta/(zeta+1)), which the
    residual is measured against; each is NaN if any value it folds is NaN.

    Both fold the residual and the three terms that numeric evaluates at a
    point, so psi is called three times per point and one point's values
    are held at a time."""
    worst = largest = None
    for zeta in zetas:
        residual, (base, shifted, moved, c) = _residual_and_terms(psi, table, s, zeta)
        worst = _max_abs(worst, residual)
        largest = _max_abs(largest, [*base, *shifted, *(c * v for v in moved)])
    return worst, largest


def three_term_tolerance(s):
    """The relative tolerance of the three-term checks at s,
    RELATIVE_TOLERANCE * max(1, |s|): the rounding error of the weights
    (z+1)^(-2s) grows with |s|.  Below Re s = 0 a misplaced column's
    relative residual can fall like (1 + FIRST_POINT)^(2 Re s) (2.6e-9 for
    a rotated T_3 at level 2 and s = -100), so where 20 times the tolerance
    exceeds that factor no check could fail it, and ValueError is raised,
    as it is for |s| < SMALLEST_S."""
    tolerance = RELATIVE_TOLERANCE * max(1.0, abs(s))
    if abs(s) < SMALLEST_S or 20 * tolerance > (1 + FIRST_POINT) ** (2 * min(0.0, s.real)):
        raise ValueError(
            "at s = %s the three-term tolerance %.1e cannot tell a misplaced column from rounding" % (s, tolerance)
        )
    return tolerance


def reference_columns(table, m):
    """{B: f_B} for the B that reach a row, from phi's records one (A, j) at
    a time over X_m: when gcd(a, n) = 1, row j of each L * sigma, L a link
    of the chain of sigma, lands in the coset of reps[phi] * L^-1.  None when
    A * reps[j] * sigma^-1 is not in Gamma0(n) * reps[phi] or a row is reached twice."""
    n, columns, xm = table.n, {}, gen_xm(m)
    chains = {s: [(link * s, link.inverse()) for link in m_of_q(ExtendedRational(s.b, s.d)).support()] for s in xm}
    for a_mat in xm:
        for j, (_, _, c, d) in enumerate(rep.key for rep in table.reps):
            rec = phi(table, a_mat, j)
            s, target = rec.sigma, table.reps[rec.phi]
            # The bottom row of A * reps[j] * adj(sigma), which phi has divided by m.
            u, v = a_mat.d * c * s.d // m, a_mat.d * (d * s.a - c * s.b) // m
            if (u * target.d - v * target.c) % n:
                return None
            if math.gcd(a_mat.a, n) > 1:  # outside the defining set, A reaches no row
                continue
            for mat, inverse in chains[s]:
                image = columns.setdefault(mat, [None] * table.mu)
                if image[j] is not None:
                    return None
                image[j] = table.index(target * inverse)
    return {mat: tuple(image) for mat, image in columns.items()}


def run_all_checks(n, m, s=1.0):
    """Run the invariant suite for level n and Hecke index m >= 1; returns
    a list of (name, passed, detail) triples."""
    rng = random.Random(0)
    table = coset_table(n)
    psi = cusp_solution(table, s)
    if abs(s) < SMALLEST_S:  # no weight can overflow at such s, so refuse it before any work
        three_term_tolerance(s)
    checks = []

    # The divisor sum is counted here without divisors(), which gen_xm uses.
    xm = gen_xm(m)
    size = len(xm)
    expected = sum(d for d in range(1, m + 1) if m % d == 0)
    ok = size == expected and len(set(xm)) == size and all(in_xm(a, m) for a in xm)
    checks.append(("xm-size", ok, "|X_m| = %d, divisor sum = %d" % (size, expected)))

    ht, sm_mats = h_tilde(m), gen_sm(m)
    ok = ht == FormalSum.from_matrices(sm_mats) and all(coeff == 1 for coeff, _ in ht)
    checks.append(("scalar-sum-equals-enumeration", ok, "%d terms" % len(ht)))

    # The level-lev sequence is the part of the top one with level <= lev,
    # so the scan oracle walks left from q to the first such member.
    top = farey_sequence(min(10 + m, 30))
    levels = [level(q) for q in top]
    ok = True
    for k in range(1, len(top)):
        q, lev = top[k], levels[k]
        i = k - 1
        while levels[i] > lev:
            i -= 1
        neighbor = left_neighbor(q)
        if neighbor != top[i] or (lev > 0 and level(neighbor) >= lev):
            ok = False
            break
    checks.append(("farey-left-neighbor", ok, "scan oracle + level descent"))

    ok = True
    for _ in range(50):
        g, gp = _random_word(rng), _random_word(rng)
        if _rho_once(table, gp) @ _rho_once(table, g) != _rho_once(table, gp * g):
            ok = False
            break
    checks.append(("rho-homomorphism", ok, "50 random word pairs"))

    ok = all(_rho_once(table, _random_gamma0(rng, n)).image[0] == 0 for _ in range(20))
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
    checks.append(("coset-record-membership", dict(op.columns) == reference_columns(table, m), "all (A, j) pairs"))

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
    # Both residuals are measured before the tolerance is read: where the
    # weights overflow, that overflow is reported, not the tolerance's refusal.
    measured = [
        (name, *residual_and_scale(f, table, s, zetas))
        for name, f in (("three-term-input", psi), ("three-term-preserved", hecke_image(op, psi, s)))
    ]
    tolerance = three_term_tolerance(s)
    for name, worst, largest in measured:
        detail = "max residual %.3e, largest term %.3e (relative tolerance %.1e)" % (worst, largest, tolerance)
        checks.append((name, largest > 0 and worst <= tolerance * largest, detail))

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
