"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import math
import random
import time

import pytest

from periodhecke.bookkeeping import gen_sm, gen_xm, phi, sigma
from periodhecke.congruence import coset_table, gamma0_contains
from periodhecke.exact_core import I, IntMatrix2, S, T, divisors
from periodhecke.farey import MINUS_INFINITY, ExtendedRational, farey_sequence, left_neighbor, level
from periodhecke.formal import FormalSum, h_tilde
from periodhecke.hecke import vector_hecke
from periodhecke.numeric import (
    constant_lift,
    cusp_solution,
    eta_line_integral,
    hecke_image,
    laplace_fd,
    r_zeta,
    three_term_residual,
    transfer_residual,
)
from periodhecke.permutation import rho
from periodhecke.verify import _random_word, residual_and_scale

from helpers import brute_force_farey, random_gamma0_element

PASS_LINE = "ACCEPTANCE %2d PASS - %s"


def _report(number, text):
    print(PASS_LINE % (number, text))


def test_criterion_01_scalar_operator_equals_enumeration():
    start = time.monotonic()
    for m in range(1, 31):
        assert h_tilde(m) == FormalSum.from_matrices(gen_sm(m))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, "h_tilde(m) equals the S_m enumeration for m <= 30 (%.2fs)" % elapsed)


def test_criterion_02_xm_sizes():
    start = time.monotonic()
    assert gen_xm(1) == [I]
    for m in range(1, 101):
        assert len(gen_xm(m)) == sum(divisors(m))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, "|X_m| equals the divisor sum for m <= 100 (%.2fs)" % elapsed)


def test_criterion_03_farey_oracle_agreement_and_level_descent():
    start = time.monotonic()
    oracle = {n: brute_force_farey(n) for n in range(51)}
    count = 0
    for q in oracle[50]:
        if q == MINUS_INFINITY:
            continue
        lev = level(q)
        candidates = [r for r in oracle[lev] if r < q]
        expected = max(candidates)
        got = left_neighbor(q)
        assert got == expected
        if lev > 0:
            assert level(got) < lev
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, "left_neighbor matches the scan oracle on %d rationals (%.2fs)" % (count, elapsed))


def test_criterion_04_neighbor_orientation_and_completeness():
    # Orientation: adjacent a/c < b/d in any level <= 30 has ad - bc = -1.
    for n in range(31):
        seq = farey_sequence(n)
        for x, y in zip(seq, seq[1:]):
            assert x.num * y.den - y.num * x.den == -1
    # Completeness: unimodular pairs of finite rationals with levels <= 30
    # are adjacent in the sequence of the larger level; pairs with an
    # infinite member are adjacent exactly at the signed extreme values.
    members = [r for r in brute_force_farey(30) if r.den > 0]
    positions = {n: {r: i for i, r in enumerate(farey_sequence(n))} for n in range(31)}
    pairs = 0
    for x in members:
        for y in members:
            if x.num * y.den - y.num * x.den in (1, -1):
                pos = positions[max(level(x), level(y))]
                assert abs(pos[x] - pos[y]) == 1
                pairs += 1
    for n in range(1, 31):
        seq = farey_sequence(n)
        assert seq[1] == ExtendedRational(-n) and seq[-2] == ExtendedRational(n)
    _report(4, "neighbor orientation and completeness hold through level 30 (%d pairs)" % pairs)


def test_criterion_05_entry_conditions():
    for m in range(1, 31):
        for coeff, mat in h_tilde(m):
            assert coeff == 1
            assert min(mat.key) >= 0
            assert mat.a > mat.c >= 0
            assert mat.d > mat.b >= 0
    checked = 0
    for n in range(1, 7):
        table = coset_table(n)
        for m in (2, 3, 5, 7):
            op = vector_hecke(table, m)
            for mat, _ in op.columns:
                assert mat.det == m
                assert mat.a > mat.c >= 0
                assert mat.d > mat.b >= 0
                checked += 1
    _report(5, "nonnegativity and dominance hold for all entries (%d matrices)" % checked)


def test_criterion_06_rho_homomorphism():
    for n in range(1, 13):
        table = coset_table(n)
        rng = random.Random(1000 + n)
        for _ in range(200):
            g, gp = _random_word(rng), _random_word(rng)
            assert rho(table, gp) @ rho(table, g) == rho(table, gp * g)
        for _ in range(50):
            gamma = random_gamma0_element(rng, n)
            assert rho(table, gamma).image[0] == 0
    _report(6, "rho is a homomorphism fixing the identity coset for n <= 12")


def _words_ts(max_len):
    out, layer = [I], [I]
    for _ in range(max_len):
        layer = [g * a for g in layer for a in (T, S)]
        out.extend(layer)
    return out


def test_criterion_07_sigma_bijectivity_and_records():
    for m in range(1, 13):
        xm = gen_xm(m)
        for g in _words_ts(5):
            image = sorted((sigma(g, a) for a in xm), key=lambda x: x.key)
            assert image == xm
            g_inv = g.inverse()
            for a in xm:
                assert sigma(g_inv, sigma(g, a)) == a
    records = 0
    for n in range(1, 7):
        table = coset_table(n)
        for m in (2, 3, 5, 7):
            for a_mat in gen_xm(m):
                for j in range(table.mu):
                    rec = phi(table, a_mat, j)
                    numerator = a_mat * table.reps[j] * rec.sigma.adjugate()
                    assert all(entry % m == 0 for entry in numerator.key)
                    unimodular = IntMatrix2(*(entry // m for entry in numerator.key))
                    assert gamma0_contains(n, unimodular * table.reps[rec.phi].inverse())
                    records += 1
    _report(7, "sigma bijectivity and %d coset records verified" % records)


def test_criterion_08_level_one_reduction():
    for m in (2, 3, 5, 7):
        op = vector_hecke(coset_table(1), m)
        assert op.mu == 1
        assert op.columns == tuple((mat, (0,)) for _, mat in h_tilde(m))
    _report(8, "level-one operator reduces to the scalar sum for m in {2,3,5,7}")


def test_criterion_09_numeric_preservation():
    start = time.monotonic()
    points = [0.1 + 9.9 * k / 99 for k in range(100)]
    worst_in = worst_out = 0.0
    # The cusp-orbit solution weights each cusp differently, so it sees the
    # column of every term, and solves the equation for every s.
    s = 0.5 + 3j
    worst_cusp = 0.0
    for n in (1, 2, 3, 4):
        table = coset_table(n)
        psi = constant_lift(lambda z: 1.0 / z, table.mu)
        cusp = cusp_solution(table, s)
        for zeta in points:
            worst_in = max(
                worst_in, max(abs(x) for x in three_term_residual(psi, table, 1, zeta))
            )
        for m in (2, 3, 5, 7):
            op = vector_hecke(table, m)
            image = hecke_image(op, psi, 1)
            for zeta in points:
                res = three_term_residual(image, table, 1, zeta)
                worst_out = max(worst_out, max(abs(x) for x in res))
            worst, largest = residual_and_scale(hecke_image(op, cusp, s), table, s, points)
            worst_cusp = max(worst_cusp, worst / largest)
    elapsed = time.monotonic() - start
    assert worst_in < 1e-12
    assert worst_out < 1e-9
    assert worst_cusp < 1e-9
    assert elapsed < 60.0
    _report(
        9,
        "three-term preservation: input %.1e, image %.1e, cusp image at s = %s %.1e relative (%.1fs)"
        % (worst_in, worst_out, s, worst_cusp, elapsed),
    )


def test_criterion_10_kernel_transformation_eigen_and_loop():
    rng = random.Random(42)
    worst = 0.0
    samples = 0
    while samples < 100:
        g = _random_word(rng, 5)
        z = rng.uniform(-2, 2) + 1j * rng.uniform(0.2, 3.0)
        zeta = rng.uniform(-3, 3)
        if abs(g.c * zeta + g.d) < 1e-6:
            continue
        gz = (g.a * z + g.b) / (g.c * z + g.d)
        gzeta = (g.a * zeta + g.b) / (g.c * zeta + g.d)
        lhs = abs(g.det) / (g.c * zeta + g.d) ** 2 * r_zeta(gz, gzeta)
        worst = max(worst, abs(lhs - r_zeta(z, zeta)) / abs(r_zeta(z, zeta)))
        samples += 1
    assert worst < 1e-12

    s = 0.5 + 1.0j
    f = lambda z: r_zeta(z, 0.7) ** s
    z0 = 0.3 + 0.9j
    reference = s * (1 - s) * f(z0)
    err_coarse = abs(laplace_fd(f, z0, 1e-2) - reference) / abs(reference)
    err_fine = abs(laplace_fd(f, z0, 1e-3) - reference) / abs(reference)
    order = math.log(err_coarse / err_fine) / math.log(10.0)
    assert 1.8 < order < 2.2
    # The h^-2 scaled constant is stable across the two steps.
    assert 0.5 < (err_coarse / 1e-4) / (err_fine / 1e-6) < 2.0

    u = lambda z: r_zeta(z, -1.5) ** 0.8
    v = lambda z: r_zeta(z, 3.0) ** 0.8
    loop = [0.2 + 0.5j, 1.2 + 0.5j, 1.2 + 1.5j, 0.2 + 1.5j, 0.2 + 0.5j]
    mags = [abs(eta_line_integral(u, v, loop, steps=p)) for p in (16, 32, 64, 128)]
    ratios = [a / b for a, b in zip(mags, mags[1:])]
    assert all(r > 3.0 for r in ratios)
    _report(
        10,
        "kernel transform %.1e, eigen order %.2f, loop ratios %s"
        % (worst, order, ["%.2f" % r for r in ratios]),
    )


def test_criterion_11_transfer_equation_signs():
    table = coset_table(1)
    psi = constant_lift(lambda z: 1.0 / z, 1)
    worst_plus = 0.0
    for zeta in [0.1 + 9.9 * k / 99 for k in range(100)]:
        (res,) = transfer_residual(psi, table, 1, 1, zeta)
        worst_plus = max(worst_plus, abs(res))
    (at_one,) = transfer_residual(psi, table, 1, -1, 1.0)
    assert worst_plus < 1e-12
    assert abs(at_one) > 1e-2
    _report(
        11,
        "transfer equation: plus sign %.1e, minus sign at 1 is %.3f"
        % (worst_plus, abs(at_one)),
    )
