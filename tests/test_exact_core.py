import random

import pytest

from periodhecke.exact_core import (
    ExtendedRational,
    FormalSum,
    IntMatrix2,
    I,
    INFINITY,
    MINUS_INFINITY,
    S,
    T,
    T_PRIME,
    ZERO,
    _farey_chain,
    _farey_step,
    xgcd,
)
from periodhecke.cli import _parse_matrix

from helpers import rat


def test_named_constants():
    assert I == IntMatrix2(1, 0, 0, 1)
    assert T == IntMatrix2(1, 1, 0, 1)
    assert S == IntMatrix2(0, -1, 1, 0)
    assert T_PRIME == IntMatrix2(1, 0, 1, 1)


def test_rational_normalization_examples():
    assert rat(2, 4) == rat(1, 2)
    assert rat(-1, 0) == MINUS_INFINITY
    assert rat(3, -6) == rat(-1, 2)
    assert rat(5, 0) == INFINITY
    assert rat(-7, 0) == MINUS_INFINITY


def test_rational_normalization_is_idempotent():
    rng = random.Random(1)
    for _ in range(300):
        p = rng.randint(-40, 40)
        q = rng.randint(-40, 40)
        if (p, q) == (0, 0):
            continue
        r = rat(p, q)
        again = rat(r.num, r.den)
        assert (again.num, again.den) == (r.num, r.den)


def test_zero_over_zero_rejected():
    with pytest.raises(ValueError):
        rat(0, 0)


def test_rational_invariants():
    import math

    rng = random.Random(2)
    for _ in range(300):
        p = rng.randint(-40, 40)
        q = rng.randint(-40, 40)
        if (p, q) == (0, 0):
            continue
        r = rat(p, q)
        assert r.den >= 0
        if r.den == 0:
            assert r.num in (-1, 1)
        else:
            assert math.gcd(abs(r.num), r.den) == 1


def test_order_total_and_transitive_on_sample():
    rng = random.Random(3)
    sample = [MINUS_INFINITY, INFINITY, ZERO]
    for _ in range(40):
        sample.append(rat(rng.randint(-9, 9), rng.randint(1, 9)))
    for x in sample:
        for y in sample:
            assert (x < y) + (y < x) + (x == y) == 1
    ordered = sorted(sample)
    for x, y, z in zip(ordered, ordered[1:], ordered[2:]):
        assert not y < x and not z < y and not z < x
    assert ordered[0] == MINUS_INFINITY
    assert ordered[-1] == INFINITY


def test_rational_string_round_trip():
    for text in ["-1/0", "0/1", "1/0", "2/3", "-5/3"]:
        assert str(ExtendedRational.from_string(text)) == text
    assert ExtendedRational.from_string("4") == rat(4)
    with pytest.raises(ValueError):
        ExtendedRational.from_string("1/2/3")


def test_matrix_string_reads_the_entries_row_by_row():
    # The command line's reader of sigma's --g and --A.
    assert _parse_matrix("1,-2, +3 ,04") == [1, -2, 3, 4]
    for text, message in [("1,2,3", "a,b,c,d"), ("1,2,3,4,5", "a,b,c,d"), ("1,2,3,4_0", "integers"), ("1,2,3,٤", "integers")]:
        with pytest.raises(ValueError, match=message):
            _parse_matrix(text)


def test_moebius_examples():
    assert S.moebius(INFINITY) == ZERO
    assert I.moebius(ZERO) == ZERO
    assert IntMatrix2(-1, 2, -2, 3).moebius(ZERO) == rat(2, 3)


def test_moebius_pole_sign_convention():
    # c*r + d = 0 maps to sign(numerator)/0.
    assert T.moebius(INFINITY) == INFINITY
    assert S.moebius(ZERO) == MINUS_INFINITY
    assert IntMatrix2(0, 1, 1, -1).moebius(rat(1)) == INFINITY


def test_moebius_rejects_singular():
    with pytest.raises(ValueError):
        IntMatrix2(1, 2, 2, 4).moebius(ZERO)


def _random_nonsingular(rng):
    while True:
        g = IntMatrix2(*(rng.randint(-5, 5) for _ in range(4)))
        if g.det != 0:
            return g


def test_moebius_is_an_action():
    # The pole sign convention (k/0 -> sign(k)/0) is not projectively
    # invariant, so composition is checked up to identifying the two
    # infinities; finite values must agree exactly.
    rng = random.Random(4)
    points = [MINUS_INFINITY, INFINITY, ZERO, rat(1), rat(-2, 3), rat(5, 2)]
    for _ in range(200):
        m1 = _random_nonsingular(rng)
        m2 = _random_nonsingular(rng)
        for r in points:
            composed = (m1 * m2).moebius(r)
            stepwise = m1.moebius(m2.moebius(r))
            if composed.den == 0 and stepwise.den == 0:
                continue
            assert composed == stepwise


def test_moebius_action_exact_on_nonnegative_chain_matrices():
    # On the matrices the Farey machinery produces (nonnegative columns up
    # to the chain sign pattern), composition holds on the nose.
    from periodhecke.farey import m_of_q

    points = [MINUS_INFINITY, INFINITY, ZERO, rat(1, 2), rat(2, 3)]
    for q in [rat(0), rat(1, 2), rat(2, 3), rat(3, 5)]:
        links = [m for _, m in m_of_q(q)]
        for m1 in links:
            for m2 in links:
                for r in points:
                    assert (m1 * m2).moebius(r) == m1.moebius(m2.moebius(r))


def test_matrix_product_and_inverse():
    assert T * T.inverse() == I
    assert IntMatrix2(2, -1, 1, 0) * IntMatrix2(1, 1, 0, 2) == IntMatrix2(2, 0, 1, 1)
    assert IntMatrix2(1, 1, 0, 2).det == 2
    assert S.inverse() == IntMatrix2(0, 1, -1, 0)
    # Determinant -1 is still unimodular.
    j = IntMatrix2(1, 0, 0, -1)
    assert j.inverse() == j
    with pytest.raises(ValueError):
        IntMatrix2(1, 1, 0, 2).inverse()


def test_xgcd():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        g, x, y = xgcd(a, b)
        import math

        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def reference_left_neighbor(q):
    """The left neighbor as farey.left_neighbor computed it on extended
    rationals before its step moved to exact_core, kept as the oracle."""
    a, b = q.num, q.den
    if b == 0:
        if a < 0:
            raise ValueError("-1/0 has no left neighbor")
        return ZERO
    if a == 0:
        return MINUS_INFINITY
    bound = max(abs(a), b)
    r0 = pow(a, -1, b)
    if a > 0:
        cap = min(bound, (bound * b + 1) // a)
    else:
        cap = min(bound, (bound * b - 1) // -a)
    r = cap - (cap - r0) % b
    return ExtendedRational((a * r - 1) // b, r)


def test_farey_chain_is_the_reference_left_neighbor_iteration():
    # Every reduced a/b of level <= 150 above -1/0, negatives, 0/1 and 1/0
    # included; chains[q] is the iteration from q down to -1/0, ascending.
    chains = {MINUS_INFINITY: [(-1, 0)]}

    def reference_chain(q):
        if q not in chains:
            chains[q] = reference_chain(reference_left_neighbor(q)) + [(q.num, q.den)]
        return chains[q]

    bound = 150
    starts = {rat(a, b) for a in range(-bound, bound + 1) for b in range(bound + 1) if (a, b) != (0, 0)}
    starts.remove(MINUS_INFINITY)
    assert {ZERO, INFINITY, rat(-150, 149), rat(149, 150)} <= starts
    for q in sorted(starts):
        chain = _farey_chain(q.num, q.den)
        assert chain == reference_chain(q), q
        assert _farey_step(q.num, q.den) == chain[-2]


def test_the_chain_and_the_step_reject_minus_infinity():
    with pytest.raises(ValueError, match="starts from q > -1/0"):
        _farey_chain(-1, 0)
    with pytest.raises(ValueError, match="-1/0 has no left neighbor"):
        _farey_step(-1, 0)


def test_formal_sum_merging_and_canonical_order():
    two_i = FormalSum.from_matrices([I]) + FormalSum.from_matrices([I])
    assert two_i == FormalSum([(2, I)])
    assert len(two_i) == 1
    # Zero coefficients vanish.
    assert not (two_i + FormalSum([(-2, I)]))
    # Canonical order is independent of construction order.
    mats = [IntMatrix2(2, 0, 0, 1), IntMatrix2(1, 0, 0, 2), IntMatrix2(1, 1, 0, 2)]
    rng = random.Random(6)
    reference = FormalSum.from_matrices(mats)
    for _ in range(10):
        shuffled = mats[:]
        rng.shuffle(shuffled)
        total = FormalSum()
        for m in shuffled:
            total = total + FormalSum.from_matrices([m])
        assert total.terms == reference.terms
    with pytest.raises(TypeError, match="must be IntMatrix2"):
        FormalSum([(1, "x")])


def test_formal_sum_adds_and_subtracts_single_matrices():
    x = FormalSum([(2, T), (-1, S)])
    assert x + I == I + x == FormalSum([(2, T), (-1, S), (1, I)])
    assert -x == FormalSum([(-2, T), (1, S)])
    assert x - T == FormalSum([(1, T), (-1, S)])
    assert x - x == FormalSum()


def _random_sum(rng, det_choices):
    terms = []
    for _ in range(rng.randint(1, 3)):
        d = rng.choice(det_choices)
        # Triangular matrices give easy determinant control.
        terms.append((rng.randint(-2, 2), IntMatrix2(1, rng.randint(0, 3), 0, d)))
    return FormalSum(terms)


def test_formal_sum_ring_laws():
    rng = random.Random(7)
    for _ in range(100):
        x = _random_sum(rng, [1, 2])
        y = _random_sum(rng, [1, 3])
        z = _random_sum(rng, [2, 3])
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x
        assert x + y == y + x


def test_stratum_multiplies():
    x = FormalSum.from_matrices([I, T])  # stratum 1
    y = FormalSum.from_matrices([IntMatrix2(1, 0, 0, 2), IntMatrix2(2, 0, 0, 1)])  # stratum 2
    assert x.stratum() == 1
    assert y.stratum() == 2
    assert (x * y).stratum() == 2
    mixed = x + y
    assert mixed.stratum() is None


def test_formal_sum_matrix_product_example():
    from periodhecke.farey import m_of_q

    q = ExtendedRational(1, 2)
    product = m_of_q(q) * IntMatrix2(1, 1, 0, 2)
    assert product == FormalSum.from_matrices(
        [IntMatrix2(1, 1, 0, 2), IntMatrix2(2, 0, 1, 1)]
    )


def test_left_and_right_matrix_multiplication_order():
    a = IntMatrix2(1, 2, 0, 1)
    b = IntMatrix2(1, 0, 3, 1)
    assert FormalSum.from_matrices([a]) * b == FormalSum.from_matrices([a * b])
    assert b * FormalSum.from_matrices([a]) == FormalSum.from_matrices([b * a])
    assert 3 * FormalSum.from_matrices([a]) == FormalSum([(3, a)])


def test_json_round_trip():
    total = FormalSum([(2, T), (-1, S), (1, I)])
    encoded = total.to_json_obj()
    assert encoded == [
        {"coeff": -1, "matrix": [[0, -1], [1, 0]]},
        {"coeff": 1, "matrix": [[1, 0], [0, 1]]},
        {"coeff": 2, "matrix": [[1, 1], [0, 1]]},
    ]
    assert FormalSum.from_json_obj(encoded) == total
