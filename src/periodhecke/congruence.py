"""Gamma0(n) membership, canonical coset representatives of its right
cosets in SL(2,Z), the induced permutation representation, and the
level-projection map between coset index sets.

The right cosets are the points (c : d) of P^1(Z/nZ).  A point's key is its
lexicographically least unit multiple mod n, computed directly (Cremona,
Algorithms for Modular Elliptic Curves, 2.2): (0, 1) if n | c, else (g, r)
with g = gcd(c, n) and r the least u*d mod n over the units u with
u*c = g mod n.  A canonical table numbers the cosets by their keys; the
minimal-entry representatives are searched only when reps is read.  The
key works verbatim for determinant -1 matrices as well
(Gamma0(n) and diag(1,-1) generate a group with the same coset structure),
which the numeric layer needs for one transfer-equation word.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import _EXPORTS
from .exact_core import Frozen, I, IntMatrix2, divisors, xgcd

__all__ = list(_EXPORTS["congruence"])


def gamma0_contains(n, g):
    """True iff g is in SL(2,Z) with lower-left entry divisible by n."""
    if g.det != 1:
        raise ValueError("Gamma0(n) only contains determinant-1 matrices")
    return g.c % n == 0


def gamma0_index(n):
    """The index of Gamma0(n) in SL(2,Z): n * prod over primes p | n of (1 + 1/p)."""
    if n < 1:
        raise ValueError("level must be positive")
    mu = n
    rest, p = n, 2
    while p * p <= rest:
        if rest % p == 0:
            mu = mu // p * (p + 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        mu = mu // rest * (rest + 1)
    return mu


def _p1_key(n, c, d):
    """The key of (c : d) for gcd(c, d, n) = 1.  The units u with u*c = g
    mod n lift x = (c/g)^-1 mod n/g, so u*d runs through (x*d mod n/g) +
    j*(n/g); r is the first of these whose lift u is a unit."""
    if n == 1:
        return (0, 0)
    g = math.gcd(c, n)
    if g == 1:
        return (1, pow(c, -1, n) * d % n)
    if g == n:
        return (0, 1)
    step = n // g
    x = pow(c // g, -1, step)
    high, low = divmod(x * d % n, step)
    d_inverse = pow(d, -1, g)
    for j in range(g):
        t = (j - high) * d_inverse % g
        if math.gcd(x + t * step, n) == 1:
            return (g, low + step * j)


def _p1_keys(n):
    """Every key of P^1(Z/nZ), ascending, so the identity's (0, 1) comes
    first.  The points (g : d) of a proper divisor g are fixed in their
    first entry by the units u = 1 + k*n/g, which move d = low + j*n/g
    (low < n/g) to every other j with d prime to g: u is a unit exactly
    when u avoids 0 mod each prime of g not dividing n/g.  So each low
    prime to gcd(g, n/g) gives one key (g, r), r the least such d."""
    if n == 1:
        return [(0, 0)]
    keys = [(0, 1)]
    for g in divisors(n)[:-1]:
        step = n // g
        shared = math.gcd(g, step)
        for r in range(step):
            if math.gcd(r, shared) == 1:
                while math.gcd(r, g) != 1:
                    r += step
                keys.append((g, r))
    keys.sort()
    return keys


def _minimal_reps(n):
    """For every coset key, the (a, b, c, d) of the determinant-1 matrix
    with that key minimizing max(|a|,|b|,|c|,|d|), ties broken
    lexicographically.

    Lemma: every primitive (c, d) has a lift (a b; c d) with |a|, |b| <= B
    = max(|c|, |d|).  B = 1 and c = 0 (then d = +-1) check by hand;
    otherwise a = d^-1 mod c taken in [-|c|/2, |c|/2] gives
    |b| = |a*d - 1| / |c| <= B/2 + 1 <= B.  So a coset's representative
    is the least (a, b, c, d) offered by the first shell max(|c|, |d|) = B
    that reaches it.  Of the lifts (x + t*c, y + t*d), only t within 1 of
    the pivot -x/c (or -y/d) of the entry with |.| = B can qualify, so t
    runs from floor(pivot) - 1 to floor(pivot) + 1.  Only pairs of the
    classes (gcd(c, n), gcd(d, n)) = (g, e) with cosets unreached,
    phi(n / (g*e)) at first, are visited, and the sweep stops when none is
    left.  (c, d) and (-c, -d) share their key and their lifts are
    negations of each other, so each shell visits the pairs (c, B) and
    (B, d) and offers both signs; a unit c keys as (1, c^-1 * d mod n)."""
    parts = divisors(n)
    pending = {(g, e): sum(math.gcd(u, n // g // e) == 1 for u in range(n // g // e))
               for g in parts for e in parts if math.gcd(g, e) == 1}
    inverse = {u: pow(u, -1, n) for u in range(1, n) if math.gcd(u, n) == 1}
    signed = {g: [0] if g == n else [] for g in parts}  # the x with gcd(x, n) == g, |x| < bound
    best = {}
    bound = 0
    while pending:
        bound += 1
        edge = math.gcd(bound, n)
        rows = {g for g, e in pending if e == edge}
        columns = {e for g, e in pending if g == edge}
        pairs = [(c, bound) for g in rows for c in signed[g]]
        signed[edge] += (-bound, bound)
        pairs += [(bound, d) for e in columns for d in signed[e]]
        offered = {}
        for c, d in pairs:
            if math.gcd(c, d) != 1:
                continue
            unit = inverse.get(c % n)
            key = _p1_key(n, c, d) if unit is None else (1, unit * d % n)
            if key in best:
                continue
            # a*d - b*c = 1 with (a, b) = (x + t*c, y + t*d).
            _, x, y = xgcd(d, -c)
            pivot = -x // c if abs(c) == bound else -y // d
            for t in range(pivot - 1, pivot + 2):
                a, b = x + t * c, y + t * d
                if abs(a) <= bound and abs(b) <= bound:
                    least = min((a, b, c, d), (-a, -b, -c, -d))
                    if key not in offered or least < offered[key]:
                        offered[key] = least
        for g, r in offered:
            pending[math.gcd(g, n), math.gcd(r, n)] -= 1
        best.update(offered)
        pending = {ge: left for ge, left in pending.items() if left}
    return best


class CosetTable(Frozen):
    """The right cosets of Gamma0(n) in SL(2,Z), numbered, with one bottom
    row (c, d) per coset in points and a representative per coset in reps.

    The canonical table numbers the cosets by their P^1 keys (identity
    first, then ascending), and its points are the keys themselves; its
    reps, the minimal-entry lifts of the keys, are searched the first time
    reps is read.  An explicit complete list of reps fixes the numbering
    instead, and its points are the bottom rows of the reps.
    index_of_row() looks (c, d) mod n up in a dict seeded with each coset's
    key, itself such a pair, and adds each pair it had to compute a key for.
    """

    __slots__ = ("n", "mu", "points", "_reps", "_index_of_pair")

    def __init__(self, n, reps=None):
        if n < 1:
            raise ValueError("level must be positive")
        if reps is None:
            points = tuple(_p1_keys(n))
            index_of_pair = {key: idx for idx, key in enumerate(points)}
        else:
            reps = tuple(reps)
            index_of_pair = {}
            for idx, g in enumerate(reps):
                if g.det != 1:
                    raise ValueError("coset representatives must have determinant 1")
                key = _p1_key(n, g.c, g.d)
                if key in index_of_pair:
                    raise ValueError("representatives %d and %d share a coset" % (index_of_pair[key], idx))
                index_of_pair[key] = idx
            if len(reps) != gamma0_index(n):
                raise ValueError("expected %d representatives, got %d" % (gamma0_index(n), len(reps)))
            points = tuple((g.c, g.d) for g in reps)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", len(points))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_reps", reps)
        object.__setattr__(self, "_index_of_pair", index_of_pair)

    @property
    def reps(self):
        """One determinant-1 matrix per coset, in index order: the explicit
        list, or for a canonical table the identity and then the minimal
        lift of each later key, searched once on the first read."""
        if self._reps is None:
            best = _minimal_reps(self.n)
            object.__setattr__(self, "_reps", (I,) + tuple(IntMatrix2(*best[key]) for key in self.points[1:]))
        return self._reps

    def index(self, g):
        """The unique j with g in Gamma0(n) * reps[j]; accepts det = +-1."""
        if g.det not in (1, -1):
            raise ValueError("coset lookup needs determinant +-1, got %d" % g.det)
        return self.index_of_row(g.c, g.d)

    def index_of_row(self, c, d):
        """The coset of every det +-1 matrix with bottom row (c, d).  (c, d)
        must be a point of P^1(Z/nZ), gcd(c, d, n) = 1; every pair in the
        dict is one, so only a miss checks."""
        pair = (c % self.n, d % self.n)
        index = self._index_of_pair.get(pair)
        if index is None:
            if math.gcd(*pair, self.n) != 1:
                raise ValueError("row (%d, %d) is not a point of P^1(Z/%dZ)" % (c, d, self.n))
            index = self._index_of_pair[pair] = self._index_of_pair[_p1_key(self.n, *pair)]
        return index

    def images(self, a, b, c, d):
        """The action of g = (a b; c d) on the cosets: entry i is the coset
        of the point of (x, y) * g for the point (x, y) of coset i, or None
        where that row (u, v) has gcd(u, v, n) > 1.  (x, y) is a unit
        multiple of the bottom row of reps[i], which changes neither, so
        for det g = +-1 entry i is the coset of reps[i] * g."""
        n, known, index_of_row = self.n, self._index_of_pair.get, self.index_of_row
        images = []
        for x, y in self.points:
            u, v = (x * a + y * c) % n, (x * b + y * d) % n
            index = known((u, v))
            images.append(index if index is not None or math.gcd(u, v, n) > 1 else index_of_row(u, v))
        return tuple(images)

    def __repr__(self):
        return "CosetTable(n=%d, mu=%d)" % (self.n, self.mu)


@lru_cache(maxsize=None)
def coset_table(n):
    """The canonical (cached) coset table for level n."""
    return CosetTable(n)


class PermutationMatrix(Frozen):
    """A mu x mu permutation matrix stored by its image array: row i has
    its single 1 in column image[i]."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise ValueError("not a permutation of 0..%d" % (len(image) - 1))
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, size):
        return cls(range(size))

    @property
    def size(self):
        return len(self.image)

    def __matmul__(self, other):
        """Matrix product self * other."""
        if not isinstance(other, PermutationMatrix):
            return NotImplemented
        return PermutationMatrix(other.image[j] for j in self.image)

    def apply(self, vector):
        """Matrix-vector product: component i of the result is vector[image[i]]."""
        if len(vector) != self.size:
            raise ValueError("vector length %d != %d" % (len(vector), self.size))
        return [vector[j] for j in self.image]

    def inverse(self):
        inv = [0] * self.size
        for i, j in enumerate(self.image):
            inv[j] = i
        return PermutationMatrix(inv)

    def rows(self):
        return [[1 if k == j else 0 for k in range(self.size)] for j in self.image]

    def __eq__(self, other):
        if not isinstance(other, PermutationMatrix):
            return NotImplemented
        return self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return "PermutationMatrix(%r)" % (list(self.image),)


@lru_cache(maxsize=128)
def rho(table, g):
    """The induced permutation matrix with entry (i, j) = 1 iff
    reps[i] * g * reps[j]^-1 lies in Gamma0(n), memoised per (table, g):
    repeated calls return the same immutable matrix.

    Satisfies rho(g') @ rho(g) == rho(g' * g).  Determinant -1 arguments are
    accepted through the same coset key (see module docstring); row i is
    read from CosetTable.images.
    """
    if g.det not in (1, -1):
        raise ValueError("coset lookup needs determinant +-1, got %d" % g.det)
    return PermutationMatrix(table.images(*g.key))


def coset_projection(m, n):
    """The index map chi sending coset i of level m*n to the level-n coset
    containing it, using the canonical tables of both levels: the level-n
    coset of the point of coset i, read mod n."""
    if m < 1 or n < 1:
        raise ValueError("levels must be positive")
    coarse = coset_table(n)
    return [coarse.index_of_row(c, d) for c, d in coset_table(m * n).points]
