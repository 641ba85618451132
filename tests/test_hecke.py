import math
import random

import pytest

from periodhecke.bookkeeping import gen_sm, gen_xm, in_xm, phi, sigma, xm_representative
from periodhecke.congruence import CosetTable, coset_projection, coset_table, gamma0_contains
from periodhecke.exact_core import I, IntMatrix2, S, T, T_PRIME, divisors
from periodhecke.farey import ExtendedRational
from periodhecke.formal import FormalSum, h_tilde
from periodhecke.hecke import HeckeOperatorMatrix, in_sm, vector_hecke
from periodhecke.permutation import PermutationMatrix, rho
from periodhecke.verify import reference_columns

import mutants


def sigma_divisor_sum(m):
    return sum(divisors(m))


def words_in(alphabet, max_len):
    """All products of words of length <= max_len over the alphabet."""
    out = [I]
    layer = [I]
    for _ in range(max_len):
        layer = [g * a for g in layer for a in alphabet]
        out.extend(layer)
    seen = []
    for g in out:
        if g not in seen:
            seen.append(g)
    return seen


def brute_force_sigma(g, a_mat):
    """Defining-property oracle: the unique member A' of X_m with
    A * g * A'^-1 in SL(2,Z)."""
    m = a_mat.det
    hits = []
    target = a_mat * g
    for cand in gen_xm(m):
        numerator = target * cand.adjugate()
        if all(entry % m == 0 for entry in numerator.key):
            quotient = IntMatrix2(*(entry // m for entry in numerator.key))
            if quotient.det == 1:
                hits.append(cand)
    assert len(hits) == 1
    return hits[0]


def test_divisors_and_primality():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    for m in (0, -3):
        with pytest.raises(ValueError):
            divisors(m)


def test_xm_examples():
    assert gen_xm(1) == [I]
    assert gen_xm(2) == [
        IntMatrix2(1, 0, 0, 2),
        IntMatrix2(1, 1, 0, 2),
        IntMatrix2(2, 0, 0, 1),
    ]
    assert len(gen_xm(6)) == 12
    with pytest.raises(ValueError, match="determinant must be positive"):
        gen_xm(0)


def test_xm_size_is_divisor_sum():
    for m in range(1, 101):
        mats = gen_xm(m)
        assert len(mats) == sigma_divisor_sum(m)
        for g in mats:
            assert in_xm(g, m)


def test_scalar_hecke_sum():
    # The scalar T_m is the formal sum over X_m: the identity for m = 1, the
    # three matrices of determinant 2 for m = 2, and sigma(4) = 7 terms for m = 4.
    assert FormalSum.from_matrices(gen_xm(1)) == FormalSum.from_matrices([I])
    assert FormalSum.from_matrices(gen_xm(2)) == FormalSum.from_matrices(
        [IntMatrix2(1, 0, 0, 2), IntMatrix2(1, 1, 0, 2), IntMatrix2(2, 0, 0, 1)]
    )
    assert len(FormalSum.from_matrices(gen_xm(4))) == 7


def test_xm_representative_normalizes_left_cosets():
    rng = random.Random(20)
    for _ in range(200):
        base = rng.choice(gen_xm(rng.choice([1, 2, 3, 4, 6, 12])))
        gamma = I
        for _ in range(rng.randint(0, 4)):
            gamma = gamma * rng.choice([T, T.inverse(), S])
        assert xm_representative(gamma * base) == base
    with pytest.raises(ValueError):
        xm_representative(IntMatrix2(1, 0, 0, -1))


def test_sigma_examples():
    for a_mat in gen_xm(6):
        assert sigma(I, a_mat) == a_mat
    assert sigma(S, IntMatrix2(1, 0, 0, 2)) == IntMatrix2(2, 0, 0, 1)
    with pytest.raises(ValueError):
        sigma(IntMatrix2(1, 0, 0, 2), I)
    with pytest.raises(ValueError):
        sigma(S, IntMatrix2(1, 2, 0, 2))


def test_sigma_matches_brute_force_oracle():
    rng = random.Random(21)
    for _ in range(100):
        m = rng.choice([2, 3, 4, 6])
        a_mat = rng.choice(gen_xm(m))
        g = I
        for _ in range(rng.randint(0, 5)):
            g = g * rng.choice([T, T.inverse(), S])
        assert sigma(g, a_mat) == brute_force_sigma(g, a_mat)


@pytest.mark.parametrize("m", list(range(1, 13)))
def test_sigma_bijective_and_inverse(m):
    xm = gen_xm(m)
    for g in words_in([T, S], 5):
        image = [sigma(g, a) for a in xm]
        assert sorted(image, key=lambda x: x.key) == xm
        g_inv = g.inverse()
        for a in xm:
            assert sigma(g_inv, sigma(g, a)) == a


def test_sigma_inverse_equals_sigma_of_inverse_on_x3():
    g = T * S
    for a in gen_xm(3):
        assert sigma(g.inverse(), sigma(g, a)) == a
        assert sigma(g, sigma(g.inverse(), a)) == a


def test_phi_trivial_cases():
    table1 = coset_table(1)
    for a_mat in gen_xm(5):
        rec = phi(table1, a_mat, 0)
        assert rec.phi == 0
        assert rec.sigma == sigma(I, a_mat)
    table6 = coset_table(6)
    for j in range(table6.mu):
        rec = phi(table6, I, j)
        assert rec.phi == j
        assert rec.sigma == I


def test_phi_membership_invariant():
    # A * reps[j] * sigma^-1 * reps[phi]^-1 lands in Gamma0(n), verbatim.
    for n in (2, 3, 6):
        table = coset_table(n)
        for m in (2, 3, 5):
            for a_mat in gen_xm(m):
                for j in range(table.mu):
                    rec = phi(table, a_mat, j)
                    numerator = a_mat * table.reps[j] * rec.sigma.adjugate()
                    assert all(entry % m == 0 for entry in numerator.key)
                    unimodular = IntMatrix2(*(entry // m for entry in numerator.key))
                    assert gamma0_contains(
                        n, unimodular * table.reps[rec.phi].inverse()
                    )


def test_phi_exhaustive_oracle_level_two():
    # For each j, exactly one (k, X) pair in {cosets} x X_2 satisfies the
    # coset relation, and phi finds it.
    n, m = 2, 2
    table = coset_table(n)
    a_mat = IntMatrix2(1, 0, 0, 2)
    for j in range(table.mu):
        rec = phi(table, a_mat, j)
        hits = []
        for k in range(table.mu):
            for x in gen_xm(m):
                numerator = a_mat * table.reps[j] * x.adjugate()
                if any(entry % m for entry in numerator.key):
                    continue
                unimodular = IntMatrix2(*(entry // m for entry in numerator.key))
                if unimodular.det == 1 and gamma0_contains(
                    n, unimodular * table.reps[k].inverse()
                ):
                    hits.append((k, x))
        assert hits == [(rec.phi, rec.sigma)]


def test_h_tilde_examples():
    assert h_tilde(1) == FormalSum.from_matrices([I])
    assert h_tilde(2) == FormalSum.from_matrices(
        [
            IntMatrix2(1, 0, 0, 2),
            IntMatrix2(1, 1, 0, 2),
            IntMatrix2(2, 0, 1, 1),
            IntMatrix2(2, 0, 0, 1),
        ]
    )


def test_sm_examples():
    assert gen_sm(1) == [I]
    assert list(h_tilde(2).support()) == gen_sm(2)


@pytest.mark.parametrize("m", list(range(1, 31)))
def test_h_tilde_equals_sm_enumeration(m):
    ht = h_tilde(m)
    assert all(coeff == 1 for coeff, _ in ht)
    assert ht == FormalSum.from_matrices(gen_sm(m))
    assert len(ht) == len(gen_sm(m))
    assert ht.stratum() == m


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13])
def test_vector_hecke_level_one_reduction(m):
    op = vector_hecke(coset_table(1), m)
    assert op.mu == 1
    assert op.columns == tuple((mat, (0,)) for _, mat in h_tilde(m))
    assert op.row_sum(0) == h_tilde(m)


def test_vector_hecke_entry_conditions():
    op = vector_hecke(coset_table(2), 3)
    assert op.mu == 3
    for mat, image in op.columns:
        assert len(image) == 3
        assert mat.det == 3
        assert in_sm(mat, 3)


def test_vector_hecke_a_set_drops_one_matrix_when_m_divides_n():
    # The defining set keeps the A = (a b; 0 d) of X_m with gcd(a, n) = 1;
    # for m = n = 2 that is X_2 minus (2 0; 0 1), so sigma(2)-1 = 2 seeds
    # remain.  Row 0 (identity coset) sees sigma_I(A) = A, whose chain
    # lengths are 1 for (1 0; 0 2) and 2 for (1 1; 0 2): 3 matrices total.
    op = vector_hecke(coset_table(2), 2)
    row0_count = sum(image[0] is not None for _, image in op.columns)
    assert row0_count == 3
    # With the full X_2 the count would be 4; at n = 3 (coprime case) it is.
    op_coprime = vector_hecke(coset_table(3), 2)
    row0_coprime = sum(image[0] is not None for _, image in op_coprime.columns)
    assert row0_coprime == 4


def test_vector_hecke_rejects_bad_input():
    for m in (0, -1):
        with pytest.raises(ValueError, match="Hecke index must be positive"):
            vector_hecke(coset_table(2), m)
    # T_1 is the identity: one matrix, I, sending every row to itself.
    table = coset_table(6)
    op = vector_hecke(table, 1)
    assert op.columns == ((I, tuple(range(table.mu))),)


def test_vector_hecke_row_support_sets():
    # Every stored matrix lies in S_m, and for gcd(m, n) = 1 each row's
    # matrices biject with the scalar operator's (multiset equality of the
    # row sum with h_tilde holds at level one only).
    table = coset_table(3)
    op = vector_hecke(table, 2)
    for j in range(table.mu):
        total = op.row_sum(j)
        for coeff, mat in total:
            assert in_sm(mat, 2)


def test_hecke_operator_matrix_json_shape():
    op = vector_hecke(coset_table(2), 3)
    obj = op.to_json_obj()
    assert obj["n"] == 2 and obj["m"] == 3 and obj["mu"] == 3
    assert len(obj["entries"]) == 3
    assert all(len(row) == 3 for row in obj["entries"])


@pytest.mark.parametrize(
    "n,m",
    [
        (1, 5), (2, 2), (2, 3), (4, 3), (5, 5), (6, 3), (6, 5), (9, 2), (9, 3), (10, 7),
        (1, 4), (11, 4), (7, 10), (5, 12),
    ],
)
def test_vector_hecke_column_maps_cover_sm(n, m):
    # The support is exactly S_m; each map is a permutation of the rows when
    # gcd(m, n) = 1, and leaves some rows unreached when m | n.
    table = coset_table(n)
    op = vector_hecke(table, m)
    assert [mat for mat, _ in op.columns] == gen_sm(m)
    for _, image in op.columns:
        if math.gcd(m, n) == 1:
            assert sorted(image) == list(range(table.mu))
    if n > 1 and n % m == 0:
        assert any(None in image for _, image in op.columns)


def test_hecke_operator_matrix_rejects_bad_column_maps():
    with pytest.raises(ValueError):
        HeckeOperatorMatrix(1, 2, [(IntMatrix2(1, 0, 0, 3), (0,))])  # wrong determinant
    with pytest.raises(ValueError):
        HeckeOperatorMatrix(2, 2, [(IntMatrix2(1, 0, 0, 2), (0, 3, None))])  # column out of range
    with pytest.raises(ValueError):  # maps of different lengths
        HeckeOperatorMatrix(
            2, 2, [(IntMatrix2(1, 0, 0, 2), (0, 1, 2)), (IntMatrix2(2, 0, 0, 1), (0,))]
        )
    with pytest.raises(ArithmeticError):
        # The dense form with one matrix twice in row 0.
        HeckeOperatorMatrix(1, 2, [[[IntMatrix2(1, 0, 0, 2), IntMatrix2(1, 0, 0, 2)]]])
    with pytest.raises(ValueError, match="entry conditions"):
        HeckeOperatorMatrix(1, 2, [(IntMatrix2(1, 0, 1, 2), (0,))])  # a > c fails
    with pytest.raises(ValueError, match="at least one matrix"):
        HeckeOperatorMatrix(1, 2, [])
    # A matrix given as a tuple, in a later column or in the first one,
    # which would otherwise be read as dense cells.
    with pytest.raises(TypeError, match=r"IntMatrix2, got \(2, 0, 0, 1\)"):
        HeckeOperatorMatrix(1, 2, [(IntMatrix2(1, 0, 0, 2), (0,)), ((2, 0, 0, 1), (0,))])
    with pytest.raises(TypeError, match=r"IntMatrix2, got cell \(0, 0\) = \(1, 0, 0, 2\)"):
        HeckeOperatorMatrix(1, 2, [((1, 0, 0, 2), (0,)), (IntMatrix2(2, 0, 0, 1), (0,))])
    # Dense cells that are not mu x mu: a short row, and a short row
    # followed by a long one.
    B = IntMatrix2(2, 0, 0, 1)
    with pytest.raises(ValueError, match="row 1 has 1 cells, not 2"):
        HeckeOperatorMatrix(2, 2, [[[B], ()], [()]])
    with pytest.raises(ValueError, match="row 0 has 1 cells, not 2"):
        HeckeOperatorMatrix(2, 2, [[[B]], [(), [B], ()]])


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExtendedRational(2, 3),
        lambda: IntMatrix2(1, 2, 3, 4),
        lambda: FormalSum.from_matrices([S, T]),
        lambda: coset_table(6),
        lambda: PermutationMatrix([1, 0]),
        lambda: vector_hecke(coset_table(2), 3),
    ],
    ids=["ExtendedRational", "IntMatrix2", "FormalSum", "CosetTable", "PermutationMatrix", "HeckeOperatorMatrix"],
)
def test_a_value_can_be_shared_since_no_attribute_can_be_assigned(make):
    value = make()
    for name in list(type(value).__slots__) + ["extra"]:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, None)


def test_vector_hecke_rejects_a_chain_that_repeats_a_matrix(monkeypatch, fresh_caches):
    from periodhecke import exact_core

    real = exact_core._farey_chain
    monkeypatch.setattr(exact_core, "_farey_chain", lambda a, b: real(a, b) * 2)
    with pytest.raises(ArithmeticError, match="twice"):
        vector_hecke(coset_table(2), 3)


def test_a_matrix_twice_in_the_column_form_is_rejected():
    op = vector_hecke(coset_table(6), 5)
    with pytest.raises(ArithmeticError, match="occurs twice"):
        HeckeOperatorMatrix(op.n, op.m, op.columns + op.columns[-1:])


def test_dense_view_round_trips_through_the_constructor():
    op = vector_hecke(coset_table(6), 5)
    assert HeckeOperatorMatrix(op.n, op.m, op.entries) == op
    assert op.entries is not op.entries


@pytest.mark.parametrize("ms", [range(1, 101), range(101, 201)], ids=["m<=100", "100<m<=200"])
def test_h_tilde_equals_the_s_m_enumeration(ms):
    for m in ms:
        assert h_tilde(m) == FormalSum.from_matrices(gen_sm(m))


def test_h_tilde_builds_one_formal_sum(monkeypatch):
    from periodhecke import formal

    built = []

    class Counting(FormalSum):
        __slots__ = ()

        def __init__(self, terms=()):
            built.append(1)
            super().__init__(terms)

    monkeypatch.setattr(formal, "FormalSum", Counting)
    assert h_tilde(30) == FormalSum.from_matrices(gen_sm(30))
    assert len(built) == 1


def test_h_tilde_has_one_home_that_verify_and_cli_call(capsys, monkeypatch):
    # A span on the scalar operator rebinds every module global that is
    # that object, so verify binds formal's function, hecke binds none,
    # and hecke-scalar reads it from formal when it runs.
    from periodhecke import cli, formal, hecke, verify

    assert verify.h_tilde is formal.h_tilde
    assert not hasattr(hecke, "h_tilde")
    real, calls = formal.h_tilde, []
    monkeypatch.setattr(formal, "h_tilde", lambda m: calls.append(m) or real(m))
    assert cli.main(["hecke-scalar", "--m", "3"]) == 0
    capsys.readouterr()
    assert calls == [3]


@pytest.mark.parametrize("m", [2, 3, 5, 7, 11, 13, 4, 6, 9, 12])
def test_vector_hecke_equals_the_reference_assembly(m):
    # Every n <= 60 for the primes m <= 5; otherwise, to keep the oracle's
    # run short, every n <= 24 and every multiple of m up to 60.
    for n in [n for n in range(1, 61) if m in (2, 3, 5) or n <= 24 or n % m == 0]:
        table = coset_table(n)
        if m in (2, 3, 5, 7, 11, 13):
            # For prime m the defining set, the A = (a b; 0 d) of X_m with
            # gcd(a, n) = 1, is the earlier two-case rule: all of X_m, less
            # (m 0; 0 1) when m divides n.
            old_rule = gen_xm(m)
            if n % m == 0:
                old_rule.remove(IntMatrix2(m, 0, 0, 1))
            assert [a for a in gen_xm(m) if math.gcd(a.a, n) == 1] == old_rule
        assert dict(vector_hecke(table, m).columns) == reference_columns(table, m), (n, m)


@pytest.mark.parametrize("n,m", [(1, 5), (30, 7), (114, 5)])
def test_vector_hecke_builds_one_chain_per_member_of_x_m(monkeypatch, fresh_caches, n, m):
    from periodhecke import exact_core

    calls = []
    real = exact_core._farey_chain
    monkeypatch.setattr(exact_core, "_farey_chain", lambda a, b: calls.append((a, b)) or real(a, b))
    vector_hecke(coset_table(n), m)
    assert len(calls) == len(gen_xm(m))


def test_vector_hecke_returns_one_shared_operator_per_table_and_index():
    table = coset_table(12)
    assert vector_hecke(table, 5) is vector_hecke(table, 5)
    assert vector_hecke(table, 7) is not vector_hecke(table, 5)


def test_a_table_with_reordered_reps_gets_its_own_operator():
    # Row j of the reordered table is row order[j] of the canonical one,
    # and its column inverse[i] is canonical column i.
    n, m = 6, 5
    canonical = coset_table(n)
    order = list(range(canonical.mu))
    random.Random(15).shuffle(order)
    permuted = CosetTable(n, [canonical.reps[k] for k in order])
    inverse = PermutationMatrix(order).inverse().image
    op = vector_hecke(canonical, m)
    relabelled = HeckeOperatorMatrix(
        n, m, [(mat, [None if image[k] is None else inverse[image[k]] for k in order]) for mat, image in op.columns]
    )
    assert relabelled != op
    assert vector_hecke(permuted, m) == relabelled


def test_vector_hecke_rejects_index_zero_on_every_call():
    table = coset_table(4)
    for _ in range(2):  # a failed call leaves nothing in the memo
        with pytest.raises(ValueError, match="positive"):
            vector_hecke(table, 0)


def test_a_wrong_sigma_fails_the_exact_division(monkeypatch):
    from periodhecke import bookkeeping

    real = bookkeeping.xgcd

    def off_by_one(a, b):
        g, x, y = real(a, b)
        return g, x + 1, y

    monkeypatch.setattr(bookkeeping, "xgcd", off_by_one)
    with pytest.raises(ArithmeticError, match="not divisible by 3"):
        phi(coset_table(1), IntMatrix2(1, 1, 0, 3), 0)


# Operators as mu x mu matrices over Z[Mat] acting on the right, written as
# lists of terms (j, i, key, coefficient): the matrix with that key, with that
# coefficient, in cell (j, i).  (psi | X)_j is the sum over the terms of X in
# row j of psi_i | matrix.


def three_term_terms(table):
    """L, the operator three_term_residual evaluates: +I at (j, j), -T at
    (j, rho(T^-1)[j]) and -T' at (j, rho(T'^-1)[j])."""
    shift, move = rho(table, T.inverse()).image, rho(table, T_PRIME.inverse()).image
    return [
        term
        for j in range(table.mu)
        for term in ((j, j, I.key, 1), (j, shift[j], T.key, -1), (j, move[j], T_PRIME.key, -1))
    ]


def operator_terms(op):
    """T_m: +B at (j, f_B[j]) for each column (B, f_B) of op."""
    return [(j, i, mat.key, 1) for mat, image in op.columns for j, i in enumerate(image) if i is not None]


def transposed_terms(table, m):
    """T^t_m: +B^t at (j, g[j]) for each B in S_m, g the action of adj(B^t)
    on the cosets, as vector_hecke reads f_B from adj(B)."""
    terms = []
    for mat in gen_sm(m):
        transpose = IntMatrix2(mat.a, mat.c, mat.b, mat.d)
        image = table.images(*transpose.adjugate().key)
        terms.extend((j, i, transpose.key, 1) for j, i in enumerate(image) if i is not None)
    return terms


def then(x, y):
    """X then Y, (X then Y)[j][i] = sum over k of X[k][i] * Y[j][k], as
    {(j, i, key): coefficient} without zero coefficients: a term g of
    X[k][i] and a term h of Y[j][k] give g * h, since psi | g | h is
    psi | gh."""
    by_row = {}
    for k, i, g, x_coeff in x:
        by_row.setdefault(k, []).append((i, g, x_coeff))
    total = {}
    for j, k, (e, f, p, q), y_coeff in y:
        for i, (a, b, c, d), x_coeff in by_row.get(k, ()):
            key = (j, i, (a * e + b * p, a * f + b * q, c * e + d * p, c * f + d * q))
            total[key] = total.get(key, 0) + x_coeff * y_coeff
    return {key: coeff for key, coeff in total.items() if coeff}


def intertwines(op, table):
    """True iff (op then L) equals (L then T^t_m) exactly, so that op maps
    every psi with psi | L = 0 to one."""
    three_term = three_term_terms(table)
    return then(operator_terms(op), three_term) == then(three_term, transposed_terms(table, op.m))


# m | n, gcd(m, n) > 1, mu = 1 and T_1 all occur.
INTERTWINING_GRID = [(n, m) for n in range(1, 13) for m in range(1, 8)]


def test_the_operator_intertwines_the_three_term_operator_with_its_transpose():
    for n, m in INTERTWINING_GRID + [(27, 9)]:
        table = coset_table(n)
        assert intertwines(vector_hecke(table, m), table), (n, m)


# Each mutant with the pairs it is tried at and the number of them where it
# differs from the operator.  T_1 has one B, so dropping it leaves no
# operator, and the transpose needs permutations, gcd(m, n) = 1.  Every
# three-term check of the command line passes the swap of the last two rows
# at the prime levels.
INTERTWINING_MUTANTS = [
    pytest.param(mutants.rotated, INTERTWINING_GRID, 77, id="rotated"),
    pytest.param(mutants.swapped_last_rows, INTERTWINING_GRID, 74, id="swapped_last_rows"),
    pytest.param(mutants.row_zero_unreached, INTERTWINING_GRID, 84, id="row_zero_unreached"),
    pytest.param(mutants.unmapped, INTERTWINING_GRID, 84, id="unmapped"),
    pytest.param(mutants.first_dropped, [(n, m) for n, m in INTERTWINING_GRID if m > 1], 72, id="first_dropped"),
    pytest.param(
        lambda table, m: mutants.transposed(vector_hecke(table, m)),
        [(n, m) for n, m in INTERTWINING_GRID if math.gcd(m, n) == 1],
        36,
        id="transposed",
    ),
    pytest.param(
        mutants.swapped_last_rows,
        [(p, m) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29) for m in (2, 3, 5, 7)],
        36,
        id="swapped_last_rows-at-primes",
    ),
]


@pytest.mark.parametrize("mutant,pairs,differing", INTERTWINING_MUTANTS)
def test_every_mutant_breaks_the_intertwining_wherever_it_differs(mutant, pairs, differing):
    compared = 0
    for n, m in pairs:
        table = coset_table(n)
        op = mutant(table, m)
        if op != vector_hecke(table, m):
            assert not intertwines(op, table), (n, m)
            compared += 1
    assert compared == differing


def level_compatible(fine, coarse, chi):
    """True iff, wherever f_B of the level-kn operator fine reaches row i,
    chi(f_B[i]) is the level-n f_B at chi(i), chi the projection from level
    kn to level n; a B absent from coarse counts as reaching no row."""
    maps = dict(coarse.columns)
    unreached = (None,) * coarse.mu
    return all(
        chi[i] == maps.get(mat, unreached)[chi[j]]
        for mat, image in fine.columns
        for j, i in enumerate(image)
        if i is not None
    )


# m | n, mu = 1, and a k sharing a factor with m all occur.
LEVEL_GRID = [(n, k, m) for n in range(1, 9) for k in (2, 3, 4) for m in range(1, 7)]


def test_the_operator_is_compatible_across_levels():
    for n, k, m in LEVEL_GRID:
        fine, coarse = vector_hecke(coset_table(k * n), m), vector_hecke(coset_table(n), m)
        assert level_compatible(fine, coarse, coset_projection(k, n)), (n, k, m)


def test_a_rotated_map_at_the_finer_level_breaks_the_compatibility_where_counted():
    differing = broken = 0
    for n, k, m in LEVEL_GRID:
        fine = mutants.rotated(coset_table(k * n), m)
        if fine != vector_hecke(coset_table(k * n), m):
            differing += 1
            broken += not level_compatible(fine, vector_hecke(coset_table(n), m), coset_projection(k, n))
    assert (differing, broken) == (144, 126)


def reflection_symmetric(op, table):
    """True iff f_{JBJ}[j] = eps[f_B[eps[j]]] for every column (B, f_B) of
    op, with J = (0 1; 1 0), JBJ = (d c; b a), eps = rho(J) and None kept
    as None; a JBJ absent from op counts as reaching no row."""
    eps = rho(table, IntMatrix2(0, 1, 1, 0)).image
    maps = dict(op.columns)
    unreached = (None,) * op.mu
    return all(
        maps.get(IntMatrix2(mat.d, mat.c, mat.b, mat.a), unreached)
        == tuple(None if image[e] is None else eps[image[e]] for e in eps)
        for mat, image in op.columns
    )


def test_the_operator_commutes_with_the_reflection():
    for n, m in INTERTWINING_GRID:
        table = coset_table(n)
        assert reflection_symmetric(vector_hecke(table, m), table), (n, m)


# Each mutant with the pairs it is tried at, the number of them where it
# differs from the operator, and the number of those where it breaks the
# reflection identity, which is weaker than the intertwining.
REFLECTION_MUTANTS = [
    pytest.param(mutants.rotated, INTERTWINING_GRID, 77, 77, id="rotated"),
    pytest.param(mutants.swapped_last_rows, INTERTWINING_GRID, 74, 67, id="swapped_last_rows"),
    pytest.param(mutants.row_zero_unreached, INTERTWINING_GRID, 84, 77, id="row_zero_unreached"),
    pytest.param(mutants.unmapped, INTERTWINING_GRID, 84, 0, id="unmapped"),
    pytest.param(
        mutants.first_dropped, [(n, m) for n, m in INTERTWINING_GRID if m > 1], 72, 72, id="first_dropped"
    ),
]


@pytest.mark.parametrize("mutant,pairs,differing,broken", REFLECTION_MUTANTS)
def test_mutants_break_the_reflection_identity_where_counted(mutant, pairs, differing, broken):
    counts = [0, 0]
    for n, m in pairs:
        table = coset_table(n)
        op = mutant(table, m)
        if op != vector_hecke(table, m):
            counts[0] += 1
            counts[1] += not reflection_symmetric(op, table)
    assert counts == [differing, broken]
