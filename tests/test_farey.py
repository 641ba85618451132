import random

import pytest

from periodhecke.exact_core import (
    ExtendedRational,
    FormalSum,
    I,
    INFINITY,
    IntMatrix2,
    MINUS_INFINITY,
    ZERO,
)
from periodhecke.farey import (
    farey_sequence,
    is_minimal_partition,
    left_neighbor,
    level,
    lns,
    m_of_q,
)

from helpers import brute_force_farey, rat


def test_farey_base_cases():
    assert farey_sequence(0) == [MINUS_INFINITY, ZERO, INFINITY]
    assert farey_sequence(1) == [MINUS_INFINITY, rat(-1), ZERO, rat(1), INFINITY]
    f2 = farey_sequence(2)
    half = rat(1, 2)
    assert half in f2
    assert f2[f2.index(half) - 1] == ZERO
    assert f2[f2.index(half) + 1] == rat(1)
    with pytest.raises(ValueError):
        farey_sequence(-1)


def test_farey_matches_enumeration_oracle():
    for n in range(41):
        assert farey_sequence(n) == brute_force_farey(n)


def test_level_examples():
    assert level(INFINITY) == 0
    assert level(MINUS_INFINITY) == 0
    assert level(ZERO) == 0
    assert level(rat(2, 3)) == 3
    assert level(rat(-5, 3)) == 5
    assert level(rat(1)) == 1


def test_left_neighbor_examples():
    assert left_neighbor(rat(1)) == ZERO
    assert left_neighbor(rat(-1)) == MINUS_INFINITY
    assert left_neighbor(rat(2, 3)) == rat(1, 2)
    assert left_neighbor(INFINITY) == ZERO
    assert left_neighbor(ZERO) == MINUS_INFINITY
    with pytest.raises(ValueError):
        left_neighbor(MINUS_INFINITY)


def test_left_neighbor_against_scan_oracle():
    # Every member of every level <= 60.  The level-n sequence is the part
    # of the level-60 oracle with level <= n, and the scan oracle is the
    # predecessor of q in that part.
    top = brute_force_farey(60)
    checked = 0
    for n in range(61):
        seq = [r for r in top if level(r) <= n]
        for i, q in enumerate(seq):
            if q != MINUS_INFINITY and level(q) == n:
                assert left_neighbor(q) == seq[i - 1]
                checked += 1
    assert checked == len(top) - 1


def test_level_descent():
    for q in brute_force_farey(25):
        if level(q) > 0:
            assert level(left_neighbor(q)) < level(q)


def test_lns_examples():
    assert lns(ZERO) == (MINUS_INFINITY, ZERO)
    assert len(lns(ZERO)) - 1 == 1
    assert lns(rat(1, 2)) == (MINUS_INFINITY, ZERO, rat(1, 2))
    assert lns(rat(2, 3)) == (MINUS_INFINITY, ZERO, rat(1, 2), rat(2, 3))
    assert len(lns(rat(2, 3))) - 1 == 3


def test_lns_structure():
    for q in brute_force_farey(15):
        if q == MINUS_INFINITY:
            continue
        chain = lns(q)
        assert chain[0] == MINUS_INFINITY
        assert chain[-1] == q
        for prev, cur in zip(chain, chain[1:]):
            assert prev < cur
            # Orientation: consecutive pairs are Farey neighbors with det -1.
            det = prev.num * cur.den - cur.num * prev.den
            assert det == -1
            if level(cur) > 0:
                assert level(prev) < level(cur)


def test_neighbor_determinant_orientation():
    # Adjacent a/c < b/d in any sequence of level <= 50 has ad - bc = -1.
    for n in range(51):
        seq = farey_sequence(n)
        for left, right in zip(seq, seq[1:]):
            assert left.num * right.den - right.num * left.den == -1


def test_neighbor_completeness():
    # Any unimodular pair of finite rationals of level <= 30 is adjacent in
    # the sequence of the larger level.  (Pairs with an infinite member need
    # the extreme finite value of matching sign; see the endpoint test.)
    bound = 30
    members = [r for r in brute_force_farey(bound) if r.den > 0]
    positions = {}
    for n in range(bound + 1):
        positions[n] = {r: i for i, r in enumerate(farey_sequence(n))}
    checked = 0
    for x in members:
        for y in members:
            det = x.num * y.den - y.num * x.den
            if det not in (1, -1):
                continue
            n = max(level(x), level(y))
            pos = positions[n]
            assert abs(pos[x] - pos[y]) == 1
            checked += 1
    assert checked > 0


def test_neighbor_completeness_at_infinite_endpoints():
    # -1/0 pairs with -n/1 and 1/0 pairs with n/1, and with nothing else.
    for n in range(1, 31):
        seq = farey_sequence(n)
        assert seq[0] == MINUS_INFINITY and seq[1] == rat(-n)
        assert seq[-1] == INFINITY and seq[-2] == rat(n)


def test_m_of_q_examples():
    assert m_of_q(ZERO) == FormalSum.from_matrices([I])
    assert m_of_q(rat(1, 2)) == FormalSum.from_matrices([I, IntMatrix2(2, -1, 1, 0)])
    assert m_of_q(rat(2, 3)) == FormalSum.from_matrices(
        [I, IntMatrix2(2, -1, 1, 0), IntMatrix2(3, -2, 2, -1)]
    )


def test_m_of_q_domain():
    for bad in [rat(1), rat(-1, 3), rat(3, 2), INFINITY, MINUS_INFINITY]:
        with pytest.raises(ValueError):
            m_of_q(bad)


def test_m_of_q_matches_inverted_pair_matrices():
    # Pin the explicit summand form against inverting (-a_{l-1} a_l; -b_{l-1} b_l).
    for q in brute_force_farey(12):
        if q.den == 0 or not (ZERO <= q < rat(1)):
            continue
        chain = lns(q)
        via_inverse = [
            IntMatrix2(-prev.num, cur.num, -prev.den, cur.den).inverse()
            for prev, cur in zip(chain, chain[1:])
        ]
        assert m_of_q(q) == FormalSum.from_matrices(via_inverse)


def test_m_of_q_summands_are_unimodular_and_start_at_identity():
    for q in brute_force_farey(12):
        if q.den == 0 or not (ZERO <= q < rat(1)):
            continue
        mats = m_of_q(q).support()
        assert mats[0] == I or I in mats
        for g in mats:
            assert g.det == 1
        assert all(coeff == 1 for coeff, _ in m_of_q(q))


def test_chain_endpoints():
    for q in brute_force_farey(12):
        if q.den == 0 or not (ZERO <= q < rat(1)):
            continue
        chain = lns(q)
        links = [
            IntMatrix2(cur.den, -cur.num, prev.den, -prev.num)
            for prev, cur in zip(chain, chain[1:])
        ]
        assert links[0].inverse() == I
        assert links[-1].inverse().moebius(ZERO) == q
        assert links[0].inverse().moebius(INFINITY) == INFINITY
        for earlier, later in zip(links, links[1:]):
            assert later.inverse().moebius(INFINITY) == earlier.inverse().moebius(ZERO)


def test_positivity_of_chain_rows():
    # Rows (c_l d_l) of M(q) satisfy c_l*zeta + d_l > 0 for zeta >= q.
    rng = random.Random(8)
    for q in brute_force_farey(10):
        if q.den == 0 or not (ZERO <= q < rat(1)):
            continue
        q_float = q.num / q.den
        zetas = [q_float] + [q_float + rng.uniform(0, 5) for _ in range(5)]
        for _, g in m_of_q(q):
            for zeta in zetas:
                assert g.c * zeta + g.d > 0


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_nonnegativity_and_dominance_of_chain_times_triangular(m):
    from periodhecke.hecke import gen_xm

    for a_mat in gen_xm(m):
        q = ExtendedRational(a_mat.b, a_mat.d)
        for _, link in m_of_q(q):
            prod = link * a_mat
            assert min(prod.key) >= 0
            assert prod.a > prod.c >= 0
            assert prod.d > prod.b >= 0


def test_nonnegativity_and_dominance_for_arbitrary_positive_diagonal():
    # The entry conditions do not depend on the determinant: any (a b; 0 d)
    # with a >= 1 and 0 <= b < d works.
    for d in range(1, 9):
        for b in range(d):
            chain = m_of_q(ExtendedRational(b, d))
            for a in (1, 2, 5, 9):
                a_mat = IntMatrix2(a, b, 0, d)
                for _, link in chain:
                    prod = link * a_mat
                    assert min(prod.key) >= 0
                    assert prod.a > prod.c >= 0
                    assert prod.d > prod.b >= 0


def test_is_minimal_partition():
    assert is_minimal_partition(lns(rat(2, 3)))
    assert is_minimal_partition(lns(ZERO))
    bogus = (MINUS_INFINITY, rat(1, 2), ZERO)
    assert not is_minimal_partition(bogus)


def test_lns_minimal_on_unit_interval():
    for q in brute_force_farey(20):
        if q.den == 0 or not (ZERO <= q < rat(1)):
            continue
        assert is_minimal_partition(lns(q))


def test_lns_json(capsys):
    from periodhecke import cli

    assert cli.main(["lns", "--q", "1/2"]) == 0
    assert capsys.readouterr().out == '["-1/0","0/1","1/2"]\n'


def test_chains_build_no_farey_table(monkeypatch):
    # A chain creates at most one rational per step; the Farey table of
    # level L alone holds about 1.2 L^2 of them.
    from periodhecke import farey
    from periodhecke.hecke import h_tilde

    made = []

    class Counting(ExtendedRational):
        __slots__ = ()

        def __init__(self, num, den=1):
            made.append((num, den))
            super().__init__(num, den)

    monkeypatch.setattr(farey, "ExtendedRational", Counting)
    assert len(lns(rat(262, 263))) - 1 == 263
    assert len(made) <= 263
    made.clear()
    assert len(h_tilde(62)) == 732
    assert len(made) <= 732
