import math
import random

import pytest

from periodhecke.congruence import coset_table, rho
from periodhecke.exact_core import I, IntMatrix2, S, T, T_PRIME
from periodhecke.hecke import HeckeOperatorMatrix, vector_hecke
from periodhecke.numeric import (
    _residual_and_terms,
    apply_hecke_numeric,
    constant_lift,
    cusp_solution,
    eta_line_integral,
    hecke_image,
    laplace_fd,
    r_zeta,
    slash_eval,
    three_term_residual,
    transfer_residual,
)
from periodhecke.verify import _random_word, sample_points

from mutants import mutated


def reciprocal(z):
    return 1.0 / z


def test_slash_identity_and_shift():
    for zeta in (0.1, 0.7, 3.0):
        assert slash_eval(reciprocal, I, 1, zeta) == pytest.approx(1 / zeta)
        assert slash_eval(reciprocal, T, 1, zeta) == pytest.approx(1 / (zeta + 1))


def test_slash_preconditions():
    with pytest.raises(ValueError):
        slash_eval(reciprocal, S, 1, 1.0)  # negative entry
    with pytest.raises(ValueError):
        slash_eval(reciprocal, IntMatrix2(1, 2, 2, 4), 1, 1.0)  # det 0
    with pytest.raises(ValueError):
        slash_eval(reciprocal, T, 1, -1.0)


def _random_nonnegative_matrix(rng):
    while True:
        g = IntMatrix2(*(rng.randint(0, 4) for _ in range(4)))
        if g.det > 0:
            return g


@pytest.mark.parametrize("s", [1, 0.5 + 14.13j])
def test_slash_cocycle(s):
    rng = random.Random(30)
    worst = 0.0
    for _ in range(100):
        alpha = _random_nonnegative_matrix(rng)
        gamma = _random_nonnegative_matrix(rng)
        zeta = rng.uniform(0.2, 5.0)
        inner = lambda t: slash_eval(reciprocal, alpha, s, t)
        lhs = slash_eval(inner, gamma, s, zeta)
        rhs = slash_eval(reciprocal, alpha * gamma, s, zeta)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst < 1e-10


def test_three_term_residual_reciprocal_solution():
    table = coset_table(1)
    psi = constant_lift(reciprocal, 1)
    for zeta in [0.1 + 0.199 * k for k in range(50)]:
        (res,) = three_term_residual(psi, table, 1, zeta)
        assert abs(res) < 1e-13


def test_three_term_residual_constant_fails():
    table = coset_table(1)
    psi = constant_lift(lambda z: 1.0, 1)
    for zeta in (0.5, 1.0, 2.0):
        (res,) = three_term_residual(psi, table, 1, zeta)
        assert res == pytest.approx(-((zeta + 1) ** -2))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_three_term_residual_constant_lift(n):
    table = coset_table(n)
    psi = constant_lift(reciprocal, table.mu)
    for zeta in (0.3, 1.1, 4.5):
        res = three_term_residual(psi, table, 1, zeta)
        assert max(abs(x) for x in res) < 1e-13


def test_three_term_rejects_nonpositive_point():
    # zeta = 0 and zeta = -1 are the poles of (zeta+1)/zeta and
    # zeta/(zeta+1): each check has to come before either quotient.
    table = coset_table(1)
    psi = constant_lift(reciprocal, 1)
    op = vector_hecke(table, 2)
    for zeta in (0.0, -1.0):
        with pytest.raises(ValueError):
            three_term_residual(psi, table, 1, zeta)
        with pytest.raises(ValueError):
            transfer_residual(psi, table, 1, 1, zeta)
        with pytest.raises(ValueError):
            apply_hecke_numeric(op, psi, 1, zeta)


def test_transfer_residual_signs():
    table = coset_table(1)
    psi = constant_lift(reciprocal, 1)
    zero = constant_lift(lambda z: 0.0, 1)
    for zeta in (0.4, 1.0, 3.7):
        (plus,) = transfer_residual(psi, table, 1, 1, zeta)
        (minus,) = transfer_residual(psi, table, 1, -1, zeta)
        (null,) = transfer_residual(zero, table, 1, 1, zeta)
        assert abs(plus) < 1e-13
        assert minus == pytest.approx(2 / (zeta * (zeta + 1)))
        assert null == 0
    with pytest.raises(ValueError):
        transfer_residual(psi, table, 1, 2, 1.0)


def written_out_residual(psi, table, s, zeta, sign=None):
    """The three-term residual (sign None) or its transfer variant, written
    out component by component; component j of rho(g) v is v[image[j]]."""
    shift = rho(table, T.inverse()).image
    if sign is None:
        c, x, word = (zeta + 1) ** (-2 * s), zeta / (zeta + 1), T_PRIME.inverse()
    else:
        c, x, word = sign * zeta ** (-2 * s), (zeta + 1) / zeta, T_PRIME.inverse() * IntMatrix2(0, 1, 1, 0)
    moved = rho(table, word).image
    base, ahead, behind = psi(zeta), psi(zeta + 1), psi(x)
    return [base[j] - ahead[shift[j]] - c * behind[moved[j]] for j in range(table.mu)]


@pytest.mark.parametrize("s", [1, 2.5, -0.5, 0.5 + 3j], ids=["s=1", "s=2.5", "s=-0.5", "s=0.5+3i"])
@pytest.mark.parametrize("n", [1, 6, 13])
def test_residuals_equal_the_written_out_formula_bit_for_bit(n, s):
    # Compared with ==: the residuals must round exactly as the formula
    # does, for the reference solution (residual near 0) and for a handle
    # that solves nothing (residual of order 1, distinct per component).
    table = coset_table(n)
    for psi in (cusp_solution(table, s), lambda z: [(j + 1) / (z + j) for j in range(table.mu)]):
        for zeta in (0.3, 1.0, 4.7):
            assert three_term_residual(psi, table, s, zeta) == written_out_residual(psi, table, s, zeta)
            for sign in (1, -1):
                expected = written_out_residual(psi, table, s, zeta, sign)
                assert transfer_residual(psi, table, s, sign, zeta) == expected


def parity_part(psi, table, s, sign):
    """(psi + sign * psi|eps) / 2, the even part of psi for sign +1 and the
    odd part for -1, where (psi|eps)(z) = z^(-2s) eps psi(1/z) with
    component j of eps v equal to v[rho((0 1; 1 0))[j]]."""
    eps = rho(table, IntMatrix2(0, 1, 1, 0)).image

    def part(z):
        here, there = psi(z), psi(1 / z)
        return [(here[j] + sign * z ** (-2 * s) * there[eps[j]]) / 2 for j in range(table.mu)]

    return part


def transfer_relative_residual(psi, table, s, sign):
    """The largest transfer-variant residual of psi at verify's 25 sample
    points, relative to the largest of the three terms it sums there."""
    worst = largest = 0.0
    for zeta in sample_points(25):
        residual, (base, shifted, moved, c) = _residual_and_terms(psi, table, s, zeta, sign)
        worst = max(worst, *map(abs, residual))
        largest = max(largest, *map(abs, [*base, *shifted, *(c * v for v in moved)]))
    return worst / largest


PARITY_S = pytest.mark.parametrize("s", [1, 2.5, 0.5 + 3j], ids=["s=1", "s=2.5", "s=0.5+3i"])


@PARITY_S
@pytest.mark.parametrize("n", [2, 6, 13, 30])
def test_the_odd_reference_solution_solves_the_minus_transfer_variant(n, s):
    # At these levels cusp_solution is odd, psi|eps = -psi, so it solves
    # the transfer form of the three-term equation with sign -1; with the
    # word (0 1; 1 0) * T'^-1 in place of T'^-1 * (0 1; 1 0) it missed by
    # 0.49 to 0.98 of the largest term.
    table = coset_table(n)
    assert transfer_relative_residual(cusp_solution(table, s), table, s, -1) < 1e-14


@PARITY_S
@pytest.mark.parametrize("n", [36, 100])
def test_the_even_and_odd_parts_solve_the_plus_and_minus_transfer_variants(n, s):
    # Here cusp_solution has an even part, of relative size 7e-3 to 8e-3;
    # with the other word either part missed by about 1.
    table = coset_table(n)
    psi = cusp_solution(table, s)
    assert transfer_relative_residual(parity_part(psi, table, s, 1), table, s, 1) < 1e-12
    assert transfer_relative_residual(parity_part(psi, table, s, -1), table, s, -1) < 1e-14


def test_r_zeta_values():
    assert r_zeta(1j, 0.0) == pytest.approx(1.0)
    assert r_zeta(2j, 1.0) == pytest.approx(2 / 5)
    with pytest.raises(ValueError):
        r_zeta(1.0 - 1j, 0.0)


def test_r_zeta_transformation():
    rng = random.Random(31)
    worst = 0.0
    for _ in range(100):
        g = _random_word(rng, 5)
        z = rng.uniform(-2, 2) + 1j * rng.uniform(0.2, 3.0)
        zeta = rng.uniform(-3, 3)
        if abs(g.c * zeta + g.d) < 1e-6:
            continue
        gz = (g.a * z + g.b) / (g.c * z + g.d)
        gzeta = (g.a * zeta + g.b) / (g.c * zeta + g.d)
        lhs = abs(g.det) / (g.c * zeta + g.d) ** 2 * r_zeta(gz, gzeta)
        rhs = r_zeta(z, zeta)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    assert worst < 1e-12


def test_laplace_fd_constant_and_power():
    const = lambda z: 3.5
    assert abs(laplace_fd(const, 0.4 + 1.1j, 1e-3)) < 1e-9
    s = 0.7
    power = lambda z: z.imag ** s
    z0 = 0.2 + 0.9j
    expected = s * (1 - s) * z0.imag ** s
    assert laplace_fd(power, z0, 1e-4) == pytest.approx(expected, rel=1e-6)
    with pytest.raises(ValueError):
        laplace_fd(const, 0.4 + 0.5j, 0.5)


@pytest.mark.parametrize("s", [0.9, 0.5 + 1.0j])
def test_laplace_eigen_equation_order_two(s):
    zeta = 0.7
    f = lambda z: r_zeta(z, zeta) ** s
    z0 = 0.3 + 0.9j
    reference = s * (1 - s) * f(z0)
    err_coarse = abs(laplace_fd(f, z0, 1e-2) - reference) / abs(reference)
    err_fine = abs(laplace_fd(f, z0, 1e-3) - reference) / abs(reference)
    assert err_coarse < 5e-3
    assert err_fine < 5e-5
    order = math.log(err_coarse / err_fine) / math.log(10.0)
    assert 1.8 < order < 2.2


RECT = [0.2 + 0.5j, 1.2 + 0.5j, 1.2 + 1.5j, 0.2 + 1.5j, 0.2 + 0.5j]


def test_eta_antisymmetry_and_bilinearity():
    u = lambda z: r_zeta(z, -1.5) ** 0.8
    path = RECT[:2]
    assert eta_line_integral(u, u, path, steps=64) == 0
    v = lambda z: r_zeta(z, 3.0) ** 0.8
    one = eta_line_integral(u, v, path, steps=64)
    two = eta_line_integral(lambda z: 2 * u(z), v, path, steps=64)
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_eta_closed_loop_shrinks_at_quadrature_order():
    # Both kernels have the same Laplace eigenvalue, so the form is closed
    # and the loop integral is pure quadrature error: halving the panel
    # width must divide it by about four.
    u = lambda z: r_zeta(z, -1.5) ** 0.8
    v = lambda z: r_zeta(z, 3.0) ** 0.8
    magnitudes = [
        abs(eta_line_integral(u, v, RECT, steps=p))
        for p in (16, 32, 64, 128)
    ]
    assert magnitudes[0] < 1e-5
    for coarse, fine in zip(magnitudes, magnitudes[1:]):
        assert coarse / fine > 3.0
    assert magnitudes[-1] < 1e-7


def test_eta_rejects_paths_near_real_axis():
    u = lambda z: z
    with pytest.raises(ValueError):
        eta_line_integral(u, u, [0.5 + 1e-9j, 1 + 1j], steps=4)
    with pytest.raises(ValueError):
        eta_line_integral(u, u, [1 + 1j], steps=4)
    with pytest.raises(ValueError, match="steps must be positive"):
        eta_line_integral(u, u, [1 + 1j, 2 + 1j], steps=0)


def test_apply_hecke_identity_operator():
    op = HeckeOperatorMatrix(1, 1, [(I, (0,))])
    psi = constant_lift(reciprocal, 1)
    for zeta in (0.5, 2.0):
        (val,) = apply_hecke_numeric(op, psi, 1, zeta)
        assert val == pytest.approx(1 / zeta)


def test_apply_hecke_scalar_eigenfunction():
    # 1/z is a simultaneous eigenfunction at level 1: the image is sigma(m)/z.
    table = coset_table(1)
    psi = constant_lift(reciprocal, 1)
    for m, eig in [(1, 1), (2, 3), (3, 4), (5, 6), (4, 7), (6, 12), (12, 28)]:
        op = vector_hecke(table, m)
        for zeta in (0.3, 1.0, 2.7):
            (val,) = apply_hecke_numeric(op, psi, 1, zeta)
            assert val == pytest.approx(eig / zeta, rel=1e-12)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (2, 2), (3, 2), (4, 3)])
def test_hecke_image_stays_period_like(n, m):
    table = coset_table(n)
    op = vector_hecke(table, m)
    image = hecke_image(op, constant_lift(reciprocal, table.mu), 1)
    for zeta in (0.2, 0.9, 3.3):
        res = three_term_residual(image, table, 1, zeta)
        assert max(abs(x) for x in res) < 1e-10


def cusp_solutions(table, s):
    """psi(z) = v - z^(-2s) rho(S) v for the indicator v of each orbit of
    rho(T): solutions of the vector three-term equation for every s whose
    components differ, so a misplaced column changes the image."""
    image = rho(table, T).image
    seen, solutions = set(), []
    for start in range(table.mu):
        orbit, i = set(), start
        while i not in seen:
            seen.add(i)
            orbit.add(i)
            i = image[i]
        if orbit:
            v = [1.0 if k in orbit else 0.0 for k in range(table.mu)]
            w = rho(table, S).apply(v)
            solutions.append(lambda z, v=v, w=w: [a - z ** (-2 * s) * b for a, b in zip(v, w)])
    return solutions


def worst_relative_residual(op, table, s, points=(0.3, 1.0, 2.7)):
    """max over cusp solutions of |three-term residual of op psi| / max |op psi|."""
    worst = 0.0
    for psi in cusp_solutions(table, s):
        image = hecke_image(op, psi, s)
        largest = max(abs(x) for z in points for x in image(z))
        residual = max(abs(x) for z in points for x in three_term_residual(image, table, s, z))
        worst = max(worst, residual / largest)
    return worst


CUSP_PAIRS = [
    (2, 3), (2, 2), (3, 2), (4, 3), (6, 3), (6, 5), (9, 2), (5, 5),
    (2, 4), (4, 4), (9, 6), (12, 6), (8, 8), (30, 12),
]


@pytest.mark.parametrize("s", [0.5 + 3j, 1], ids=["s=0.5+3i", "s=1"])
@pytest.mark.parametrize("n,m", CUSP_PAIRS)
def test_hecke_image_of_cusp_solutions_solves_three_term(n, m, s):
    table = coset_table(n)
    assert worst_relative_residual(vector_hecke(table, m), table, s) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12])
def test_hecke_operators_satisfy_the_hecke_algebra_relations(n):
    """On the cusp solution, T_2 T_3 = T_3 T_2 = T_6, T_p T_p = T_{p^2} +
    [p does not divide n] p T_1 for p = 2, 3, and T_2 T_6 = T_12 +
    [2 does not divide n] 2 T_3, each within 1e-11 of max |psi|.  The
    slash action carries det^s, so the scalar matrix p*I acts trivially.

    The three-term residual of an image cannot tell the defining sets
    apart, but these relations can: all of X_m, or the rules "drop
    (m 0; 0 1) when m | n" and "drop a = m when gcd(m, n) > 1", miss them
    by O(1).  The adjoint rule gcd(d, n) = 1 satisfies them too; the golden
    files hecke-vector-2-2 and hecke-vector-13-13 are what rule it out.
    """
    table = coset_table(n)
    points = (0.3, 1.0, 2.7)
    ops = {m: vector_hecke(table, m) for m in (2, 3, 4, 6, 9, 12)}
    c2, c3 = (0 if n % p == 0 else p for p in (2, 3))

    def plus(f, c, g):
        return lambda z: [a + c * b for a, b in zip(f(z), g(z))]

    for s in (1, 2.5, 0.5 + 3j):
        psi = cusp_solution(table, s)
        t = lambda m, f: hecke_image(ops[m], f, s)
        relations = [
            (t(2, t(3, psi)), t(6, psi)),
            (t(3, t(2, psi)), t(6, psi)),
            (t(2, t(2, psi)), plus(t(4, psi), c2, psi)),
            (t(3, t(3, psi)), plus(t(9, psi), c3, psi)),
            (t(2, t(6, psi)), plus(t(12, psi), c2, t(3, psi))),
        ]
        largest = max(abs(x) for z in points for x in psi(z))
        for k, (lhs, rhs) in enumerate(relations):
            error = max(abs(a - b) for z in points for a, b in zip(lhs(z), rhs(z)))
            assert error <= 1e-11 * largest, (n, s, k, error / largest)


@pytest.mark.parametrize("n,m", [(4, 3), (6, 3), (5, 5)])
def test_rotating_one_column_map_breaks_the_cusp_solution_check(n, m):
    table = coset_table(n)
    for rotated_mat, _ in vector_hecke(table, m).columns:
        one_rotated = mutated(lambda mat, image: (mat, image[1:] + image[:1] if mat == rotated_mat else image))
        assert worst_relative_residual(one_rotated(table, m), table, 0.5 + 3j) > 1e-3


@pytest.mark.parametrize("s", [0.5 + 3j, 1, 2.5], ids=["s=0.5+3i", "s=1", "s=2.5"])
@pytest.mark.parametrize("n", [1, 2, 4, 6, 9, 25])
def test_cusp_solution_solves_three_term(n, s):
    table = coset_table(n)
    psi = cusp_solution(table, s)
    points = (0.1, 0.3, 1.0, 2.7, 10.0)
    largest = max(abs(x) for z in points for x in psi(z))
    residual = max(abs(x) for z in points for x in three_term_residual(psi, table, s, z))
    assert residual <= 1e-12 * largest


def test_cusp_solution_weights_each_cusp_differently():
    table = coset_table(6)
    w = cusp_solution(table, 1)(1e9)  # z^(-2s) is negligible here
    orbit_of_t = rho(table, T).image
    for j in range(table.mu):
        assert w[j] == pytest.approx(w[orbit_of_t[j]])
    assert len({round(x.real, 6) for x in w}) == 4  # Gamma0(6) has 4 cusps


def test_residuals_build_their_permutations_once_per_table(monkeypatch):
    from periodhecke.congruence import CosetTable
    from periodhecke.numeric import _T_INVERSE

    table = coset_table(14)
    psi = constant_lift(reciprocal, table.mu)
    three_term_residual(psi, table, 1, 0.5)
    transfer_residual(psi, table, 1, 1, 0.5)
    calls = []
    original = CosetTable.images
    monkeypatch.setattr(CosetTable, "images", lambda self, *key: calls.append(key) or original(self, *key))
    for zeta in (0.2, 0.7, 3.0):
        three_term_residual(psi, table, 1, zeta)
        transfer_residual(psi, table, 1, 1, zeta)
    assert calls == []
    # The watch is live: a table no permutation was built for yet (equal
    # reps, but another object) computes the action of the word once.
    rho(CosetTable(14, table.reps), _T_INVERSE)
    assert calls == [_T_INVERSE.key]
    # Both memos are bounded.
    assert rho.cache_info().maxsize is not None
    assert vector_hecke.cache_info().maxsize is not None
