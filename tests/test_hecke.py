import math
import random

import pytest

from periodhecke.congruence import coset_table, gamma0_contains
from periodhecke.exact_core import ExtendedRational, FormalSum, I, IntMatrix2, S, T
from periodhecke.farey import chain_matrices
from periodhecke.hecke import (
    HeckeOperatorMatrix,
    divisors,
    gen_sm,
    gen_xm,
    h_tilde,
    in_sm,
    in_xm,
    phi,
    sigma,
    vector_hecke,
    xm_representative,
)


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


def test_vector_hecke_rejects_a_chain_that_repeats_a_matrix(monkeypatch):
    from periodhecke import hecke

    real = hecke.chain_matrices
    monkeypatch.setattr(hecke, "chain_matrices", lambda q: real(q) * 2)
    with pytest.raises(ArithmeticError, match="twice"):
        vector_hecke(coset_table(2), 3)


def test_dense_view_round_trips_through_the_constructor():
    op = vector_hecke(coset_table(6), 5)
    assert HeckeOperatorMatrix(op.n, op.m, op.entries) == op
    assert op.entries is not op.entries


@pytest.mark.parametrize("ms", [range(1, 101), range(101, 201)], ids=["m<=100", "100<m<=200"])
def test_h_tilde_equals_the_s_m_enumeration(ms):
    for m in ms:
        assert h_tilde(m) == FormalSum.from_matrices(gen_sm(m))


def test_h_tilde_builds_one_formal_sum(monkeypatch):
    from periodhecke import hecke

    built = []

    class Counting(FormalSum):
        __slots__ = ()

        def __init__(self, terms=()):
            built.append(1)
            super().__init__(terms)

    monkeypatch.setattr(hecke, "FormalSum", Counting)
    assert h_tilde(30) == FormalSum.from_matrices(gen_sm(30))
    assert len(built) == 1


def reference_vector_hecke(table, m):
    """The per-(j, A) assembly that vector_hecke replaced, kept as its
    oracle: sigma from xm_representative, the coset of A * reps[j] * sigma^-1
    by matrix products, a chain for every (j, A), and each column from
    table.index of the matrix reps[phi] * L^-1.  The defining set is the
    A = (a b; 0 d) of X_m with gcd(a, n) = 1."""
    a_set = [a for a in gen_xm(m) if math.gcd(a.a, table.n) == 1]
    if m in (2, 3, 5, 7, 11, 13):
        # For prime m this is the earlier two-case rule: all of X_m, less
        # (m 0; 0 1) when m divides n.
        old_rule = gen_xm(m)
        if table.n % m == 0:
            old_rule.remove(IntMatrix2(m, 0, 0, 1))
        assert a_set == old_rule
    maps = {}
    for j, rep in enumerate(table.reps):
        for a_mat in a_set:
            s = sigma(rep, a_mat)
            numerator = a_mat * rep * s.adjugate()
            assert all(entry % m == 0 for entry in numerator.key)
            target = table.reps[table.index(IntMatrix2(*(entry // m for entry in numerator.key)))]
            for link in chain_matrices(ExtendedRational(s.b, s.d)):
                image = maps.setdefault(link * s, [None] * table.mu)
                assert image[j] is None
                image[j] = table.index(target * link.inverse())
    return HeckeOperatorMatrix(table.n, m, list(maps.items()))


@pytest.mark.parametrize("m", [2, 3, 5, 7, 11, 13, 4, 6, 9, 12])
def test_vector_hecke_equals_the_reference_assembly(m):
    # Every n <= 60 for the primes m <= 5; otherwise, to keep the oracle's
    # run short, every n <= 24 and every multiple of m up to 60.
    for n in [n for n in range(1, 61) if m in (2, 3, 5) or n <= 24 or n % m == 0]:
        table = coset_table(n)
        assert vector_hecke(table, m) == reference_vector_hecke(table, m), (n, m)


@pytest.mark.parametrize("n,m", [(1, 5), (30, 7), (114, 5)])
def test_vector_hecke_builds_one_chain_per_member_of_x_m(monkeypatch, n, m):
    from periodhecke import hecke

    calls = []
    real = hecke.chain_matrices
    monkeypatch.setattr(hecke, "chain_matrices", lambda q: calls.append(q) or real(q))
    vector_hecke(coset_table(n), m)
    assert len(calls) == len(gen_xm(m))


def test_a_wrong_sigma_fails_the_exact_division(monkeypatch):
    from periodhecke import hecke

    real = hecke.xgcd

    def off_by_one(a, b):
        g, x, y = real(a, b)
        return g, x + 1, y

    monkeypatch.setattr(hecke, "xgcd", off_by_one)
    with pytest.raises(ArithmeticError, match="not divisible by 3"):
        phi(coset_table(1), IntMatrix2(1, 1, 0, 3), 0)
