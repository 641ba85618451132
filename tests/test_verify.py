import math

import pytest

from periodhecke import exact_core, hecke, verify
from periodhecke.congruence import coset_table
from periodhecke.exact_core import IntMatrix2
from periodhecke.hecke import HeckeOperatorMatrix, vector_hecke
from periodhecke.numeric import cusp_solution, hecke_image, three_term_residual
from periodhecke.verify import residual_and_scale, run_all_checks, sample_points


def failed(checks):
    return {name for name, passed, _ in checks if not passed}


@pytest.mark.parametrize("s", [1.0, 2.5, 0.5 + 3j, 0.5 + 100j], ids=["s=1", "s=2.5", "s=0.5+3i", "s=0.5+100i"])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (4, 3), (6, 5), (9, 2)])
def test_correct_operator_passes_every_check_for_every_s(n, m, s):
    assert failed(run_all_checks(n, m, s=s)) == set()


def rotated(table, m):
    """The operator with every column map f_B rotated by one row."""
    op = vector_hecke(table, m)
    return HeckeOperatorMatrix(op.n, op.m, [(mat, image[1:] + image[:1]) for mat, image in op.columns])


@pytest.mark.parametrize("n,m", [(2, 3), (4, 3), (6, 5), (5, 5)])
def test_rotated_column_maps_fail_run_all_checks(monkeypatch, n, m):
    monkeypatch.setattr(verify, "vector_hecke", rotated)
    assert "three-term-preserved" in failed(run_all_checks(n, m, s=0.5 + 3j))


@pytest.mark.parametrize("n,m", [(2, 3), (4, 2), (6, 5), (9, 6), (12, 4)])
def test_rotated_column_maps_fail_the_coset_records(monkeypatch, n, m):
    # The records of phi fix the column of every (B, j), including rows
    # with gcd(m, n) > 1 that B does not reach.
    assert "coset-record-membership" not in failed(run_all_checks(n, m))
    monkeypatch.setattr(verify, "vector_hecke", rotated)
    assert "coset-record-membership" in failed(run_all_checks(n, m))


def transposed(op):
    """The row/column transpose of an operator with gcd(m, n) = 1: B moves
    from cell (j, f_B[j]) to cell (f_B[j], j), so each f_B is inverted."""
    columns = []
    for mat, image in op.columns:
        inverse = [None] * op.mu
        for j, i in enumerate(image):
            inverse[i] = j
        columns.append((mat, tuple(inverse)))
    return HeckeOperatorMatrix(op.n, op.m, columns)


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
    def dropped(table, m):
        op = vector_hecke(table, m)
        return HeckeOperatorMatrix(op.n, op.m, op.columns[1:])

    monkeypatch.setattr(verify, "vector_hecke", dropped)
    assert "operator-entry-conditions" in failed(run_all_checks(n, m))


def test_an_unreached_row_fails_the_entry_conditions(monkeypatch):
    # gcd(m, n) > 1, so the operator's support is not all of S_m and only
    # the coverage of the rows is checked.
    def row_zero_dropped(table, m):
        op = vector_hecke(table, m)
        return HeckeOperatorMatrix(op.n, op.m, [(mat, (None,) + image[1:]) for mat, image in op.columns])

    assert "operator-entry-conditions" not in failed(run_all_checks(4, 2))
    monkeypatch.setattr(verify, "vector_hecke", row_zero_dropped)
    assert "operator-entry-conditions" in failed(run_all_checks(4, 2))


def flat_residual_and_scale(psi, table, s, zetas):
    """The definition: one max() over every residual value, and one over
    psi evaluated again at every point."""
    residual = max(abs(x) for z in zetas for x in three_term_residual(psi, table, s, z))
    return residual, max(abs(x) for z in zetas for x in psi(z))


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
    # psi(3) is read by the residual at 2 only, so the scale stays finite.
    psi = lambda z: [1.0, math.nan, 3.0] if z == 3.0 else [1.0, 2.0, 3.0]
    worst, largest = residual_and_scale(psi, table, 1, zetas)
    assert math.isnan(worst) and largest == 3.0


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
    from periodhecke import cli

    monkeypatch.setattr(cli, "hecke_image", nan_beyond(5))
    assert cli.main(["check-three-term", "--n", "2", "--m", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out of the floating-point range" in captured.err


def test_a_divisor_helper_that_drops_m_fails_xm_size(monkeypatch):
    # The helper is wrong wherever it is bound, as a bug in it would be.
    real = hecke.divisors
    for module in (exact_core, hecke, verify):
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
