import math
import random

import pytest

from periodhecke import congruence
from periodhecke.congruence import (
    CosetTable,
    PermutationMatrix,
    _minimal_reps,
    _p1_keys,
    coset_projection,
    coset_table,
    gamma0_contains,
    gamma0_index,
    rho,
)
from periodhecke.exact_core import I, IntMatrix2, S, T, T_PRIME, xgcd
from periodhecke.hecke import vector_hecke
from periodhecke.verify import _random_word

from helpers import random_gamma0_element


def brute_force_coset_count(n, max_words=20000):
    """Closure oracle: grow coset representatives by right multiplication,
    deciding coset equality straight from the definition g*h^-1 in Gamma0(n)."""
    reps = [I]
    frontier = [I]
    while frontier:
        current = frontier.pop()
        for gen in (T, T.inverse(), S, S.inverse()):
            candidate = current * gen
            if any(gamma0_contains(n, candidate * r.inverse()) for r in reps):
                continue
            reps.append(candidate)
            frontier.append(candidate)
            if len(reps) > max_words:
                raise RuntimeError("runaway closure")
    return len(reps)


def orbit_keys(n):
    """Oracle: map every primitive pair (c, d) mod n to the lex-least
    member of its orbit under the units of Z/nZ, by listing the orbit."""
    if n == 1:
        return {(0, 0): (0, 0)}
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    key_of = {}
    for c in range(n):
        for d in range(n):
            if math.gcd(math.gcd(c, d), n) != 1 or (c, d) in key_of:
                continue
            orbit = {(u * c % n, u * d % n) for u in units}
            key = min(orbit)
            for pair in orbit:
                key_of[pair] = key
    return key_of


def shell(bound):
    """All integer pairs (c, d) with max(|c|, |d|) == bound."""
    for c in range(-bound, bound + 1):
        yield c, bound
        yield c, -bound
    for d in range(-bound + 1, bound):
        yield bound, d
        yield -bound, d


def minimal_rep(n, key, key_of):
    """Oracle: a shell search of its own for one coset, for the
    determinant-1 matrix with the given orbit key minimizing
    max(|a|,|b|,|c|,|d|), ties broken lexicographically by (a,b,c,d)."""
    best = None
    bound = 1
    while best is None or bound <= best[0]:
        for c, d in shell(bound):
            if math.gcd(c, d) != 1 or key_of[(c % n, d % n)] != key:
                continue
            # a*d - b*c = 1 with (a, b) = (x + t*c, y + t*d).
            _, x, y = xgcd(d, -c)
            pivots = []
            if c:
                pivots.append(-x / c)
            if d:
                pivots.append(-y / d)
            lo = math.floor(min(pivots)) - 2
            hi = math.ceil(max(pivots)) + 2
            for t in range(lo, hi + 1):
                a, b = x + t * c, y + t * d
                cand = (max(abs(a), abs(b), abs(c), abs(d)), (a, b, c, d))
                if best is None or cand < best:
                    best = cand
        bound += 1
    return IntMatrix2(*best[1])


def oracle_reps(n):
    """The identity, then the minimal representative of every other orbit
    key in ascending key order."""
    key_of = orbit_keys(n)
    identity_key = key_of[(0, 1 % n)]
    keys = sorted(set(key_of.values()) - {identity_key})
    return (I,) + tuple(minimal_rep(n, key, key_of) for key in keys)


BENCHMARK_LEVELS = [93, 110, 166, 201, 232, 244, 247, 250, 268]


def test_canonical_reps_match_the_per_coset_search_oracle():
    for k in list(range(1, 101)) + BENCHMARK_LEVELS:
        assert coset_table(k).reps == oracle_reps(k), k


def test_canonical_reps_keep_a_and_b_within_the_bottom_row_bound():
    # The lemma of _minimal_reps: some lift has |a|, |b| <= max(|c|, |d|).
    for k in range(1, 201):
        for rep in coset_table(k).reps:
            assert max(abs(rep.a), abs(rep.b)) <= max(abs(rep.c), abs(rep.d)), (k, rep)


def test_canonical_reps_lie_in_the_first_shell_that_reaches_their_coset():
    # With the lemma, a rep's max entry is its shell, so the rep is minimal
    # only if no primitive pair of its coset lies in an earlier shell.
    for k in range(1, 61):
        key_of = orbit_keys(k)
        first_shell = {}
        bound = 0
        while len(first_shell) < len(set(key_of.values())):
            bound += 1
            for c, d in shell(bound):
                if math.gcd(c, d) == 1:
                    first_shell.setdefault(key_of[(c % k, d % k)], bound)
        for rep in coset_table(k).reps:
            assert first_shell[key_of[(rep.c % k, rep.d % k)]] == max(abs(rep.c), abs(rep.d)), (k, rep)


def test_the_sweep_seeds_the_index_that_validating_its_reps_builds():
    # The canonical lookup tables, filled from the keys, against the
    # explicit-reps path, which places and checks every representative
    # itself; each representative looks up as its own coset.
    for k in list(range(1, 121)) + [166, 232, 244, 247, 250, 268]:
        canonical = CosetTable(k)
        assert canonical._rows == CosetTable(k, canonical.reps)._rows, k
        assert [canonical.index(rep) for rep in canonical.reps] == list(range(canonical.mu)), k


def test_the_enumerated_keys_are_the_keys_the_sweep_reaches():
    for k in list(range(1, 201)) + [232, 244, 247, 250, 268, 360, 400]:
        keys = _p1_keys(k)
        assert keys == sorted(set(keys)), k
        table = CosetTable(k)
        assert {table.points[j] for j in _minimal_reps(table)} == set(keys), k
        assert len(keys) == gamma0_index(k), k
        # Independently of the lookup: the key of coset j is the lex-least
        # unit multiple of its representative's bottom row.
        units = [u for u in range(k) if math.gcd(u, k) == 1]
        for point, rep in zip(table.points, table.reps):
            assert point == min((u * rep.c % k, u * rep.d % k) for u in units), (k, rep)


def test_a_canonical_table_numbers_its_cosets_by_the_enumerated_keys():
    for k in [1, 2, 12, 166]:
        table = CosetTable(k)
        assert table.points == tuple(_p1_keys(k))
        assert table.index_of_row(0, 1) == 0
        assert [table.index_of_row(*point) for point in table.points] == list(range(table.mu))


def test_rho_and_vector_hecke_never_build_the_representatives(monkeypatch):
    # (level, Hecke index) pairs with m coprime to n, m | n, and n = 1.
    cases = [(1, 3), (12, 5), (12, 3), (13, 13), (166, 2), (268, 3)]
    words = [S, T * S * T_PRIME, T_PRIME * T_PRIME * S * T, IntMatrix2(1, 0, 0, -1)]
    expected = {
        (n, m): ([rho.__wrapped__(CosetTable(n), g) for g in words], vector_hecke.__wrapped__(CosetTable(n), m))
        for n, m in cases
    }

    def no_search(table):
        raise AssertionError("the representatives of level %d were searched" % table.n)

    monkeypatch.setattr(congruence, "_minimal_reps", no_search)
    for n, m in cases:
        table = CosetTable(n)
        assert [rho(table, g) for g in words] == expected[n, m][0], n
        assert vector_hecke.__wrapped__(table, m) == expected[n, m][1], (n, m)
        with pytest.raises(AssertionError, match="level %d" % n):
            table.reps


def test_canonical_reps_are_searched_once_and_explicit_points_are_their_bottom_rows():
    table = CosetTable(30)
    assert table.reps is table.reps
    explicit = CosetTable(30, table.reps[::-1])
    assert explicit.points == tuple((g.c, g.d) for g in table.reps[::-1])


def check_lookups_against_the_orbit_oracle(k):
    """Every pair (c, d) mod k: index_of_row gives the coset of its orbit
    key, or raises exactly when gcd(c, d, k) > 1, and images gives None
    exactly at those rows.  The points (1 : r) times (0 b; 1 0) are the rows
    (r, b), so images of those k matrices reach every pair."""
    key_of = orbit_keys(k)
    table = CosetTable(k)
    assert table.points == tuple(sorted(set(key_of.values()))), k
    index_of_key = {key: j for j, key in enumerate(table.points)}
    coset_of = {pair: index_of_key[key] for pair, key in key_of.items()}
    for c in range(k):
        for d in range(k):
            if (c, d) in coset_of:
                assert table.index_of_row(c, d) == coset_of[c, d], (k, c, d)
            else:
                with pytest.raises(ValueError, match="not a point"):
                    table.index_of_row(c, d)
    for b in range(k):
        expected = tuple(coset_of.get((y % k, x * b % k)) for x, y in table.points)
        assert table.images(0, b, 1, 0) == expected, (k, b)


def test_p1_key_equals_the_orbit_oracle_on_every_primitive_pair():
    for k in range(1, 121):
        check_lookups_against_the_orbit_oracle(k)


@pytest.mark.parametrize("k", [166, 232, 244, 247, 250, 268, 400])
def test_lookups_equal_the_orbit_oracle_on_every_pair_at_large_levels(k):
    check_lookups_against_the_orbit_oracle(k)


@pytest.mark.parametrize("k", [1, 2, 12, 30, 97, 166])
def test_an_explicit_table_looks_up_the_canonical_cosets_renumbered(k):
    # Explicit coset i is canonical coset order[i], reached by a rep twisted
    # by a random element of Gamma0(k), so its point is no key.
    canonical = CosetTable(k)
    rng = random.Random(900 + k)
    order = list(range(canonical.mu))
    rng.shuffle(order)
    explicit = CosetTable(k, [random_gamma0_element(rng, k) * canonical.reps[j] for j in order])
    for c in range(k):
        for d in range(k):
            if math.gcd(c, d, k) == 1:
                assert order[explicit.index_of_row(c, d)] == canonical.index_of_row(c, d), (k, c, d)
            else:
                with pytest.raises(ValueError, match="not a point"):
                    explicit.index_of_row(c, d)
    for det in range(-3, 4):
        for g in matrices_of_determinant(rng, det, 4):
            ours, theirs = explicit.images(*g.key), canonical.images(*g.key)
            assert [None if j is None else order[j] for j in ours] == [theirs[j] for j in order], (k, g)


def test_lookups_leave_every_attribute_of_the_table_unchanged():
    rng = random.Random(15)
    for table in (CosetTable(250), CosetTable(12, coset_table(12).reps[::-1])):
        table.reps  # the one attribute filled after construction, on first read
        before = {name: repr(getattr(table, name)) for name in CosetTable.__slots__}
        for g in matrices_of_determinant(rng, 1, 5) + matrices_of_determinant(rng, 6, 5):
            table.images(*g.key)
        for rep in table.reps:
            table.index(rep * S)
        for c in range(table.n):
            for d in range(table.n):
                if math.gcd(c, d, table.n) == 1:
                    table.index_of_row(c + table.n * 10 ** 20, d - table.n * 10 ** 20)
        with pytest.raises(ValueError):
            table.index_of_row(2, 4)
        assert {name: repr(getattr(table, name)) for name in CosetTable.__slots__} == before


def random_unimodular(rng, det, size):
    """A determinant-det (+-1) matrix with entries of about `size`."""
    while True:
        c, d = rng.randint(-size, size), rng.randint(-size, size)
        g, x, y = xgcd(d, -c)
        if g == 1:
            t = rng.randint(-size, size)
            return IntMatrix2(det * (x + t * c), det * (y + t * d), c, d)


@pytest.mark.parametrize("n", [1, 2, 12, 45, 97, 128, 166, 210, 250, 268, 400])
def test_index_agrees_with_the_orbit_oracle_on_large_matrices(n):
    table = coset_table(n)
    key_of = orbit_keys(n)
    index_of_key = {key_of[(g.c % n, g.d % n)]: j for j, g in enumerate(table.reps)}
    rng = random.Random(400 + n)
    for det in (1, -1) * 100:
        g = random_unimodular(rng, det, 10 ** rng.choice([2, 6, 12, 30]))
        assert g.det == det
        j = table.index(g)
        assert j == index_of_key[key_of[(g.c % n, g.d % n)]]
        if det == 1:
            assert gamma0_contains(n, g * table.reps[j].inverse())


@pytest.mark.parametrize("n", [1, 2, 12, 45, 97, 128, 166, 210, 250, 268, 400])
def test_index_of_row_equals_index_on_large_matrices(n):
    # Two fresh tables, one asked by row and one by matrix.
    by_row, by_matrix = CosetTable(n), CosetTable(n)
    rng = random.Random(800 + n)
    for det in (1, -1) * 100:
        g = random_unimodular(rng, det, 10 ** rng.choice([2, 6, 12, 30]))
        assert by_row.index_of_row(g.c, g.d) == by_matrix.index(g)


@pytest.mark.parametrize("row", [(0, 2), (2, 4), (3, 3), (2, 0)])
def test_index_of_row_rejects_a_row_off_the_projective_line(row):
    # gcd(c, d, 12) > 1: no coset has this bottom row, on the first ask or the second.
    table = CosetTable(12)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"row \(%d, %d\) is not a point of P\^1\(Z/12Z\)" % row):
            table.index_of_row(*row)


def test_gamma0_contains_examples():
    assert gamma0_contains(2, T)
    assert not gamma0_contains(2, S)
    assert gamma0_contains(2, IntMatrix2(1, 0, 2, 1))
    with pytest.raises(ValueError):
        gamma0_contains(2, IntMatrix2(1, 0, 0, -1))
    for n in (0, -3):
        with pytest.raises(ValueError, match="level must be positive"):
            gamma0_contains(n, T)


def test_index_formula_small_values():
    assert gamma0_index(1) == 1
    assert gamma0_index(2) == 3
    assert gamma0_index(6) == 12


@pytest.mark.parametrize("n", list(range(1, 21)))
def test_mu_matches_closure_oracle_and_formula(n):
    table = coset_table(n)
    assert table.mu == gamma0_index(n)
    assert table.mu == brute_force_coset_count(n)


def test_table_basic_shape():
    assert coset_table(1).mu == 1
    assert coset_table(1).reps == (I,)
    assert coset_table(2).mu == 3
    assert coset_table(6).mu == 12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10, 12])
def test_reps_are_valid(n):
    table = coset_table(n)
    assert table.reps[0] == I
    for g in table.reps:
        assert g.det == 1
    # Pairwise inequivalent.
    for i, g in enumerate(table.reps):
        for j, h in enumerate(table.reps):
            same = gamma0_contains(n, g * h.inverse())
            assert same == (i == j)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
def test_index_locates_cosets(n):
    table = coset_table(n)
    rng = random.Random(n)
    assert table.index(I) == 0
    for _ in range(50):
        gamma = random_gamma0_element(rng, n)
        assert table.index(gamma) == 0
        g = _random_word(rng)
        j = table.index(g)
        # Defining property: g * reps[j]^-1 in Gamma0(n), and only for j.
        assert gamma0_contains(n, g * table.reps[j].inverse())
        assert table.index(gamma * g) == j


def test_index_example_level_two():
    table = coset_table(2)
    j = table.index(S)
    rep = table.reps[j]
    assert (rep.c % 2, rep.d % 2) == (1, 0)


def test_table_rejects_a_level_below_one():
    for n in (0, -4):
        with pytest.raises(ValueError, match="level must be positive"):
            CosetTable(n)
        with pytest.raises(ValueError, match="level must be positive"):
            gamma0_index(n)
        for m, k in ((n, 3), (3, n)):
            with pytest.raises(ValueError, match="levels must be positive"):
                coset_projection(m, k)


def test_index_rejects_a_matrix_of_determinant_other_than_plus_minus_one():
    with pytest.raises(ValueError, match=r"determinant \+-1, got 2"):
        coset_table(3).index(IntMatrix2(2, 0, 0, 1))


def test_table_rejects_bad_reps():
    with pytest.raises(ValueError):
        CosetTable(2, [I, T])  # same coset twice
    with pytest.raises(ValueError):
        CosetTable(2, [I, S])  # incomplete
    with pytest.raises(ValueError):
        CosetTable(2, [I, S, IntMatrix2(1, 0, 0, -1)])  # wrong determinant


def test_rho_identity_and_membership():
    for n in (1, 2, 3, 6):
        table = coset_table(n)
        assert rho(table, I) == PermutationMatrix.identity(table.mu)
        rng = random.Random(10 + n)
        for _ in range(50):
            gamma = random_gamma0_element(rng, n)
            assert rho(table, gamma).image[0] == 0


def test_rho_level_two_transposition():
    table = coset_table(2)
    perm = rho(table, S)
    fixed = [i for i in range(3) if perm.image[i] == i]
    moved = [i for i in range(3) if perm.image[i] != i]
    assert len(fixed) == 1 and len(moved) == 2
    assert perm @ perm == PermutationMatrix.identity(3)


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_rho_is_a_homomorphism(n):
    table = coset_table(n)
    rng = random.Random(100 + n)
    for _ in range(200):
        g = _random_word(rng)
        gp = _random_word(rng)
        assert rho(table, gp) @ rho(table, g) == rho(table, gp * g)


def test_rho_entry_definition():
    # Entry (i, j) = 1 iff reps[i] * g * reps[j]^-1 is in Gamma0(n).
    n = 4
    table = coset_table(n)
    rng = random.Random(11)
    for _ in range(20):
        g = _random_word(rng)
        perm = rho(table, g)
        matrix = perm.rows()
        for i, gi in enumerate(table.reps):
            for j, gj in enumerate(table.reps):
                member = gamma0_contains(n, gi * g * gj.inverse())
                assert matrix[i][j] == (1 if member else 0)


def test_rho_conjugation_covariance_under_rep_permutation():
    n = 6
    canonical = coset_table(n)
    rng = random.Random(12)
    order = list(range(canonical.mu))
    rng.shuffle(order)
    permuted = CosetTable(n, [canonical.reps[k] for k in order])
    relabel = PermutationMatrix(order)
    for _ in range(30):
        g = _random_word(rng)
        lhs = rho(permuted, g)
        rhs = relabel @ rho(canonical, g) @ relabel.inverse()
        assert lhs == rhs


def test_rho_independent_of_representative_choice_within_cosets():
    n = 5
    canonical = coset_table(n)
    rng = random.Random(13)
    twisted = CosetTable(
        n, [random_gamma0_element(rng, n) * g for g in canonical.reps]
    )
    for _ in range(30):
        g = _random_word(rng)
        assert rho(twisted, g) == rho(canonical, g)


def test_permutation_matrix_api():
    p = PermutationMatrix([1, 2, 0])
    assert p.apply(["a", "b", "c"]) == ["b", "c", "a"]
    assert p.inverse() @ p == PermutationMatrix.identity(3)
    assert p.rows() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    with pytest.raises(ValueError):
        PermutationMatrix([0, 0, 1])
    for vector in (["a", "b"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError, match="vector length %d != 3" % len(vector)):
            p.apply(vector)


def test_rho_accepts_determinant_minus_one():
    # A det -1 word, here (0 1; 1 0) * T'^-1, permutes cosets through the
    # same bottom-row key.
    word = IntMatrix2(-1, 1, 1, 0)
    assert word.det == -1
    for n in (1, 2, 4):
        table = coset_table(n)
        perm = rho(table, word)
        assert sorted(perm.image) == list(range(table.mu))


@pytest.mark.parametrize("n", [1, 6, 45, 114, 268])
def test_rho_rows_are_the_cosets_of_the_products(n):
    # Row i is the coset of reps[i] * g, for words of either determinant.
    table = coset_table(n)
    rng = random.Random(500 + n)
    for det in (1, -1) * 10:
        g = random_unimodular(rng, det, 50)
        assert rho(table, g).image == tuple(table.index(rep * g) for rep in table.reps)


def matrices_of_determinant(rng, det, count):
    """count matrices of determinant det with entries in [-6, 6], each with
    a negative entry."""
    found = []
    while len(found) < count:
        g = IntMatrix2(*(rng.randint(-6, 6) for _ in range(4)))
        if g.det == det and min(g.key) < 0:
            found.append(g)
    return found


def test_images_are_the_cosets_of_the_products_or_none():
    # The oracle takes the bottom row of reps[i] * g and finds the rep whose
    # bottom row it is a unit multiple of; no point or key is read.
    rng = random.Random(12)
    matrices = [g for det in range(1, 13) for g in matrices_of_determinant(rng, det, 3)]
    off_the_line = 0
    for n in range(1, 41):
        table = coset_table(n)
        units = [u for u in range(n) if math.gcd(u, n) == 1]
        coset_of_row = {(u * r.c % n, u * r.d % n): j for j, r in enumerate(table.reps) for u in units}
        for g in matrices:
            expected = tuple(coset_of_row.get(((r * g).c % n, (r * g).d % n)) for r in table.reps)
            assert table.images(*g.key) == expected, (n, g)
            off_the_line += expected.count(None)
    assert off_the_line > 0


def test_rho_returns_one_shared_matrix_per_table_and_word():
    table = coset_table(10)
    word = S * T * T_PRIME
    assert rho(table, word) is rho(table, word)
    # Equal words are one key.
    assert rho(table, IntMatrix2(*word.key)) is rho(table, word)


def test_a_table_with_reordered_reps_gets_its_own_permutation():
    n = 6
    canonical = coset_table(n)
    order = list(range(canonical.mu))
    random.Random(14).shuffle(order)
    permuted = CosetTable(n, [canonical.reps[k] for k in order])
    relabel = PermutationMatrix(order)
    words = [T, S, T_PRIME, S * T * T_PRIME]
    for g in words:
        own = rho(canonical, g)
        assert rho(permuted, g) == relabel @ own @ relabel.inverse()
    assert any(rho(permuted, g) != rho(canonical, g) for g in words)


@pytest.mark.parametrize("n", [1, 7, 12])
def test_rho_rejects_a_word_of_determinant_other_than_plus_minus_one(n):
    table = coset_table(n)
    for _ in range(2):  # a failed call leaves nothing in the memo
        with pytest.raises(ValueError, match=r"determinant \+-1, got 2"):
            rho(table, IntMatrix2(2, 0, 0, 1))


def test_coset_projection_identity_and_fibers():
    assert coset_projection(1, 3) == list(range(coset_table(3).mu))
    chi = coset_projection(2, 2)
    mu4, mu2 = coset_table(4).mu, coset_table(2).mu
    assert len(chi) == mu4
    fiber_sizes = [chi.count(j) for j in range(mu2)]
    assert all(size == mu4 // mu2 for size in fiber_sizes)


def test_coset_projection_defining_inclusion():
    for m, n in [(2, 2), (2, 3), (3, 2), (4, 3)]:
        fine = coset_table(m * n)
        coarse = coset_table(n)
        chi = coset_projection(m, n)
        for i, beta in enumerate(fine.reps):
            assert gamma0_contains(n, beta * coarse.reps[chi[i]].inverse())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coset_projection_surjective(m, n):
    chi = coset_projection(m, n)
    assert set(chi) == set(range(coset_table(n).mu))


@pytest.mark.parametrize("n", [30, 60, 97])
def test_larger_levels_build_consistent_tables(n):
    table = coset_table(n)
    assert table.mu == gamma0_index(n)
    assert table.reps[0] == I
    for i, g in enumerate(table.reps):
        assert g.det == 1
        assert table.index(g) == i
