import math

import pytest

from periodhecke import bookkeeping, exact_core, representatives, verify
from periodhecke.congruence import coset_table
from periodhecke.exact_core import IntMatrix2
from periodhecke.farey import ExtendedRational
from periodhecke.formal import FormalSum
from periodhecke.hecke import vector_hecke
from periodhecke.numeric import cusp_solution, hecke_image, three_term_residual
from periodhecke.permutation import PermutationMatrix, rho
from periodhecke.verify import residual_and_scale, run_all_checks, sample_points, three_term_tolerance

from mutants import first_dropped, rotated, row_zero_unreached, swapped_last_rows, transposed


def failed(checks):
    return {name for name, passed, _ in checks if not passed}


@pytest.mark.parametrize("s", [1.0, 2.5, 0.5 + 3j, 0.5 + 100j], ids=["s=1", "s=2.5", "s=0.5+3i", "s=0.5+100i"])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (4, 3), (6, 5), (9, 2)])
def test_correct_operator_passes_every_check_for_every_s(n, m, s):
    assert failed(run_all_checks(n, m, s=s)) == set()


@pytest.mark.parametrize("n,m", [(2, 3), (4, 3), (6, 5), (5, 5)])
def test_rotated_column_maps_fail_run_all_checks(monkeypatch, n, m):
    monkeypatch.setattr(verify, "vector_hecke", rotated)
    assert "three-term-preserved" in failed(run_all_checks(n, m, s=0.5 + 3j))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_a_swap_of_the_last_two_rows_at_a_prime_level_fails_the_coset_records(monkeypatch, p, m):
    # At a prime level p the three-term checks at s = 1, 2.5 and 0.5+3i all
    # passed this swap of rows p - 1 and p; the records of phi catch it.
    monkeypatch.setattr(verify, "vector_hecke", swapped_last_rows)
    assert "coset-record-membership" in failed(run_all_checks(p, m))


@pytest.mark.parametrize("n,m", [(2, 3), (4, 2), (6, 5), (9, 6), (12, 4)])
def test_rotated_column_maps_fail_the_coset_records(monkeypatch, n, m):
    # The records of phi fix the column of every (B, j), including rows
    # with gcd(m, n) > 1 that B does not reach.
    assert "coset-record-membership" not in failed(run_all_checks(n, m))
    monkeypatch.setattr(verify, "vector_hecke", rotated)
    assert "coset-record-membership" in failed(run_all_checks(n, m))


def test_a_record_that_names_the_wrong_coset_fails_the_coset_records(monkeypatch):
    # Each record names the coset after its own, so A * reps[j] * sigma^-1
    # is not in Gamma0(n) * reps[phi]; the oracle refuses before it places
    # a row, and the operator no longer equals it.
    right = bookkeeping.phi

    def next_coset(table, a_mat, j):
        rec = right(table, a_mat, j)
        return rec._replace(phi=(rec.phi + 1) % table.mu)

    monkeypatch.setattr(verify, "phi", next_coset)
    assert verify.reference_columns(coset_table(6), 5) is None
    assert "coset-record-membership" in failed(run_all_checks(6, 5))


@pytest.mark.parametrize("n,m", [(5, 2), (7, 2), (9, 2), (5, 3), (2, 5), (3, 5), (6, 5), (2, 7)])
def test_transposed_operator_fails_run_all_checks(monkeypatch, n, m):
    """The known misses are (2, 3) and (4, 3) (and (3, 2)): there every
    f_B is an involution, so the transpose is the operator itself and no
    check can tell them apart."""
    real = vector_hecke(coset_table(n), m)
    assert transposed(real) != real
    monkeypatch.setattr(verify, "vector_hecke", lambda table, m: transposed(real))
    assert "three-term-preserved" in failed(run_all_checks(n, m, s=0.5 + 3j))


@pytest.mark.parametrize("n,m", [(2, 3), (4, 3), (3, 2)])
def test_transpose_misses_are_operators_equal_to_their_transpose(n, m):
    real = vector_hecke(coset_table(n), m)
    assert transposed(real) == real


def test_residual_is_measured_against_the_size_of_the_image():
    # At s = 2.5 the weight z^(-5) reaches 1e5 at z = 0.1, so the image
    # is in the millions and rounding alone leaves an absolute residual of
    # order 1e-9; the check compares the residual with max |image|.
    table = coset_table(2)
    image = hecke_image(vector_hecke(table, 3), cusp_solution(table, 2.5), 2.5)
    worst, largest = residual_and_scale(image, table, 2.5, sample_points(5))
    assert largest > 1e6
    assert worst <= 1e-12 * largest
    checks = {name: passed for name, passed, _ in run_all_checks(2, 3, s=2.5)}
    assert checks["three-term-preserved"]


GRID_S = [-100, -60, -10, -1, -0.5, 0.5, 1, 2.5, 10, 30, 0.5 + 3j, 0.5 + 100j, 0.5 + 1e4j, 0.5 + 1e6j, -60 + 1e4j]


@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (6, 5), (13, 13), (30, 7)])
def test_the_scaled_tolerance_separates_the_operator_from_a_rotated_one(n, m):
    # Measured against the largest of the three terms, the correct image
    # stays 10x under RELATIVE_TOLERANCE * max(1, |s|) and the rotated
    # one 10x over it, from s = -100 to |s| = 1e6; s that overflow are
    # skipped.
    table = coset_table(n)
    op = vector_hecke(table, m)
    zetas = sample_points(25)
    compared = 0
    for s in GRID_S:
        psi = cusp_solution(table, s)
        try:
            worst, largest = residual_and_scale(hecke_image(op, psi, s), table, s, zetas)
        except OverflowError:
            continue
        tolerance = three_term_tolerance(s)
        assert worst <= tolerance * largest / 10, s
        if table.mu > 1:
            worst, largest = residual_and_scale(hecke_image(rotated(table, m), psi, s), table, s, zetas)
            assert worst > 10 * tolerance * largest, s
        compared += 1
    assert compared >= 12


def test_the_tolerance_scales_with_abs_s_and_refuses_where_it_cannot_separate():
    assert three_term_tolerance(1) == three_term_tolerance(0.6 + 0.8j) == verify.RELATIVE_TOLERANCE
    assert three_term_tolerance(0.5 + 1e7j) == pytest.approx(1e7 * verify.RELATIVE_TOLERANCE)
    assert three_term_tolerance(-100) == pytest.approx(100 * verify.RELATIVE_TOLERANCE)
    for s in (-110, 0.5 + 1e11j, -100 + 1e7j, 0, 5e-10j):
        with pytest.raises(ValueError, match="cannot tell a misplaced column from rounding"):
            three_term_tolerance(s)


def test_transfer_check_keeps_its_s_equal_one_reference():
    checks = {name: (passed, detail) for name, passed, detail in run_all_checks(1, 2, s=2.5)}
    passed, detail = checks["transfer-equation-signs"]
    assert passed and detail.startswith("s = 1 reference")


def test_a_vanishing_reference_solution_is_not_a_pass():
    # At level 1 and s = 0 the reference w - z^0 rho(S) w is identically 0,
    # so no check of it is run.
    with pytest.raises(ValueError, match="reference solution vanishes"):
        run_all_checks(1, 2, s=0)


@pytest.mark.parametrize("n,m", [(5, 3), (1, 7)])
def test_dropping_one_matrix_fails_the_entry_conditions(monkeypatch, n, m):
    monkeypatch.setattr(verify, "vector_hecke", first_dropped)
    assert "operator-entry-conditions" in failed(run_all_checks(n, m))


def test_an_unreached_row_fails_the_entry_conditions(monkeypatch):
    # gcd(m, n) > 1, so the operator's support is not all of S_m and only
    # the coverage of the rows is checked.
    assert "operator-entry-conditions" not in failed(run_all_checks(4, 2))
    monkeypatch.setattr(verify, "vector_hecke", row_zero_unreached)
    assert "operator-entry-conditions" in failed(run_all_checks(4, 2))


def flat_residual_and_scale(psi, table, s, zetas):
    """The definition: one max() over every residual value, and one over
    every term the residuals sum, psi evaluated again at each argument."""
    residual = max(abs(x) for z in zetas for x in three_term_residual(psi, table, s, z))
    arguments = [(z, 1) for z in zetas] + [(z + 1, 1) for z in zetas]
    arguments += [(z / (z + 1), (z + 1) ** (-2 * s)) for z in zetas]
    return residual, max(abs(weight * x) for z, weight in arguments for x in psi(z))


def test_residual_and_scale_evaluates_psi_three_times_per_point():
    table = coset_table(6)
    image = hecke_image(vector_hecke(table, 5), cusp_solution(table, 1), 1)
    calls = []

    def counted(z):
        calls.append(z)
        return image(z)

    zetas = sample_points(7)
    assert residual_and_scale(counted, table, 1, zetas) == flat_residual_and_scale(image, table, 1, zetas)
    assert len(calls) == 3 * len(zetas)


def test_residual_and_scale_propagates_a_nan():
    # max() skips a NaN unless it comes first.  Here each NaN trails a
    # finite point and a finite component, and must still surface.
    table = coset_table(2)
    zetas = [0.5, 2.0]
    psi = lambda z: [1.0, math.nan, 3.0] if z == 2.0 else [1.0, 2.0, 3.0]
    worst, largest = residual_and_scale(psi, table, 1, zetas)
    assert math.isnan(worst) and math.isnan(largest)
    # psi(3) = psi(2 + 1) is a term of the residual at 2 and no sample
    # point, and the scale folds it as well.
    psi = lambda z: [1.0, math.nan, 3.0] if z == 3.0 else [1.0, 2.0, 3.0]
    worst, largest = residual_and_scale(psi, table, 1, zetas)
    assert math.isnan(worst) and math.isnan(largest)


def nan_beyond(limit):
    """A stand-in for hecke_image whose image is NaN at every z > limit."""
    def image_of(op, psi, s):
        image = hecke_image(op, psi, s)
        return lambda z: [math.nan] * op.mu if z > limit else image(z)

    return image_of


def test_a_nan_at_a_later_point_fails_three_term_preserved(monkeypatch):
    # sample_points(25) reaches z > 5 at its 13th point.
    monkeypatch.setattr(verify, "hecke_image", nan_beyond(5))
    assert failed(run_all_checks(2, 3)) == {"three-term-preserved"}


def test_a_nan_at_a_later_point_exits_check_three_term_with_two(capsys, monkeypatch):
    from periodhecke import cli, numeric

    monkeypatch.setattr(numeric, "hecke_image", nan_beyond(5))
    assert cli.main(["check-three-term", "--n", "2", "--m", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of the floating-point range" in captured.err


def test_a_divisor_helper_that_drops_m_fails_xm_size(monkeypatch, fresh_caches):
    # The helper is wrong wherever it is bound, as a bug in it would be.
    real = exact_core.divisors
    for module in (exact_core, representatives, bookkeeping, verify):
        if hasattr(module, "divisors"):
            monkeypatch.setattr(module, "divisors", lambda m: real(m)[:-1])
    assert "xm-size" in failed(run_all_checks(1, 6))


@pytest.mark.parametrize(
    "mutant",
    [
        lambda xm: xm[:-1] + xm[:1],
        lambda xm: xm[:-1] + [IntMatrix2(1, 0, 0, 1)],
    ],
    ids=["repeated-member", "wrong-determinant"],
)
def test_a_wrong_x_m_of_the_right_size_fails_xm_size(monkeypatch, mutant):
    real = verify.gen_xm
    monkeypatch.setattr(verify, "gen_xm", lambda m: mutant(real(m)))
    assert "xm-size" in failed(run_all_checks(1, 6))


def test_run_all_checks_leaves_the_memo_of_an_earlier_residual_level_in_place(fresh_caches):
    # The checks' random words are built without rho's memo, so two checks
    # jobs in a row do not evict the permutations a residual level reuses.
    table = coset_table(7)

    def residual():
        three_term_residual(cusp_solution(table, 1.0), table, 1.0, 0.5)

    residual()
    for n in (4, 3):
        run_all_checks(n, 2)
    misses = rho.cache_info().misses
    residual()
    assert rho.cache_info().misses == misses


def last_term_dropped(h_tilde):
    return lambda m: FormalSum(list(h_tilde(m))[:-1])


def wrong_neighbor_of_two_thirds(left_neighbor):
    return lambda q: ExtendedRational(0, 1) if q == ExtendedRational(2, 3) else left_neighbor(q)


def of_inverse(rho_once):
    """An anti-homomorphism: g is sent where g^-1 goes.  The inverse of a
    subgroup element is one too, so the identity coset stays fixed."""
    return lambda table, g: rho_once(table, g.inverse())


def conjugated_by_a_shift(rho_once):
    """rho relabelled by the cyclic shift j -> j + 1 of the cosets: still a
    homomorphism, but the identity coset is no longer the one fixed."""

    def shifted(table, g):
        image, mu = rho_once(table, g).image, table.mu
        return PermutationMatrix((image[(j + 1) % mu] - 1) % mu for j in range(mu))

    return shifted


def applied_twice_to_a_equal_one(sigma):
    return lambda g, a_mat: sigma(g, sigma(g, a_mat)) if a_mat.a == 1 else sigma(g, a_mat)


def component_zero_raised(cusp_solution):
    """psi plus 1 on component 0, which no longer solves the three-term
    equation at level 6."""

    def lifted(table, s):
        psi = cusp_solution(table, s)
        return lambda z: [x + (k == 0) for k, x in enumerate(psi(z))]

    return lifted


# One mutant per check that no other test makes fail, with the checks it
# fails at the (n, m) where it was found to fail nothing else.
CHECK_MUTANTS = [
    ("h_tilde", last_term_dropped, 3, 5, {"scalar-sum-equals-enumeration"}),
    ("left_neighbor", wrong_neighbor_of_two_thirds, 3, 5, {"farey-left-neighbor"}),
    ("_rho_once", of_inverse, 6, 2, {"rho-homomorphism"}),
    ("_rho_once", conjugated_by_a_shift, 6, 2, {"rho-fixes-identity-coset"}),
    ("sigma", applied_twice_to_a_equal_one, 3, 5, {"sigma-bijection-and-inverse"}),
    ("cusp_solution", component_zero_raised, 6, 5, {"three-term-input", "three-term-preserved"}),
]


@pytest.mark.parametrize(
    "target,mutant,n,m,expected", CHECK_MUTANTS, ids=[mutant.__name__ for _, mutant, *_ in CHECK_MUTANTS]
)
def test_each_check_fails_on_its_own_mutant(monkeypatch, target, mutant, n, m, expected):
    assert failed(run_all_checks(n, m)) == set()
    monkeypatch.setattr(verify, target, mutant(getattr(verify, target)))
    assert failed(run_all_checks(n, m)) == expected
