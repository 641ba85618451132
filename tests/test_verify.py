import pytest

from periodhecke import verify
from periodhecke.congruence import coset_table
from periodhecke.hecke import HeckeOperatorMatrix, vector_hecke
from periodhecke.numeric import cusp_solution, hecke_image
from periodhecke.verify import residual_and_scale, run_all_checks, sample_points


def failed(checks):
    return {name for name, passed, _ in checks if not passed}


@pytest.mark.parametrize("s", [1.0, 2.5, 0.5 + 3j, 0.5 + 100j], ids=["s=1", "s=2.5", "s=0.5+3i", "s=0.5+100i"])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (4, 3), (6, 5), (9, 2)])
def test_correct_operator_passes_every_check_for_every_s(n, m, s):
    assert failed(run_all_checks(n, m, s=s, points=5)) == set()


@pytest.mark.parametrize("n,m", [(2, 3), (4, 3), (6, 5), (5, 5)])
def test_rotated_column_maps_fail_run_all_checks(monkeypatch, n, m):
    def rotated(table, m):
        op = vector_hecke(table, m)
        return HeckeOperatorMatrix(
            op.n, op.m, [(mat, image[1:] + image[:1]) for mat, image in op.columns]
        )

    monkeypatch.setattr(verify, "vector_hecke", rotated)
    assert "three-term-preserved" in failed(run_all_checks(n, m, s=0.5 + 3j, points=5))


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
    assert "three-term-preserved" in failed(run_all_checks(n, m, s=0.5 + 3j, points=5))


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
    checks = {name: passed for name, passed, _ in run_all_checks(2, 3, s=2.5, points=5)}
    assert checks["three-term-preserved"]


def test_transfer_check_keeps_its_s_equal_one_reference():
    checks = {name: (passed, detail) for name, passed, detail in run_all_checks(1, 2, s=2.5, points=5)}
    passed, detail = checks["transfer-equation-signs"]
    assert passed and detail.startswith("s = 1 reference")


def test_a_vanishing_reference_solution_is_not_a_pass():
    # At level 1 and s = 0 the reference w - z^0 rho(S) w is identically 0.
    assert {"three-term-input", "three-term-preserved"} <= failed(run_all_checks(1, 2, s=0, points=5))
