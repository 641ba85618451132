"""Gamma0(n) membership, canonical coset representatives of its right
cosets in SL(2,Z), the induced permutation representation, and the
level-projection map between coset index sets.

The right cosets are the points (c : d) of P^1(Z/nZ).  A point's key is its
lexicographically least unit multiple mod n: (0, 1) if n | c, else (g, r)
with g = gcd(c, n) and r the least u*d mod n over the units u with
u*c = g mod n.  Those u lift x = (c/g)^-1 mod n/g, so g and the class
x*d mod n/g fix the point, and a table finds its coset from per-residue
and per-divisor lists built once (Cremona, Algorithms for Modular
Elliptic Curves, 2.2).  A canonical table numbers the cosets by their
keys; the minimal-entry representatives are searched only when reps is
read, by bookkeeping's sweep, which that read imports, so rho and the
operator assembly never compile it.  The lookup works verbatim for
determinant -1 matrices as well (Gamma0(n) and diag(1,-1) generate a
group with the same coset structure), which the numeric layer needs for
one transfer-equation word.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import _EXPORTS
from .exact_core import Frozen, I, IntMatrix2, divisors

__all__ = list(_EXPORTS["congruence"])


def gamma0_contains(n, g):
    """True iff g is in SL(2,Z) with lower-left entry divisible by n."""
    if n < 1:
        raise ValueError("level must be positive")
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


class CosetTable(Frozen):
    """The right cosets of Gamma0(n) in SL(2,Z), numbered, with one bottom
    row (c, d) per coset in points and a representative per coset in reps.

    The canonical table numbers the cosets by their P^1 keys (identity
    first, then ascending), and its points are the keys themselves; its
    reps, the minimal-entry lifts of the keys, are searched the first time
    reps is read.  An explicit complete list of reps fixes the numbering
    instead, and its points are the bottom rows of the reps.
    The constructor builds the lookup once, in O(n): row c of _rows is
    (x, n/g, slots of g, g) for g = gcd(c, n) and x = (c/g)^-1 mod n/g, and
    the slots of a divisor g hold the coset of each class x*d mod n/g.
    Lookups only read it.
    """

    __slots__ = ("n", "mu", "points", "_reps", "_rows")

    def __init__(self, n, reps=None):
        if n < 1:
            raise ValueError("level must be positive")
        if reps is not None:
            reps = tuple(reps)
        points = tuple(_p1_keys(n)) if reps is None else tuple((g.c, g.d) for g in reps)
        slots_of = {g: [None] * (n // g) for g in divisors(n)}
        rows = []
        for c in range(n):
            g = math.gcd(c, n)
            rows.append((pow(c // g, -1, n // g), n // g, slots_of[g], g))
        for idx, (c, d) in enumerate(points):
            if reps is not None and reps[idx].det != 1:
                raise ValueError("coset representatives must have determinant 1")
            inverse, step, slots, _ = rows[c % n]
            low = inverse * d % step
            if slots[low] is not None:
                raise ValueError("representatives %d and %d share a coset" % (slots[low], idx))
            slots[low] = idx
        if len(points) != gamma0_index(n):
            raise ValueError("expected %d representatives, got %d" % (gamma0_index(n), len(points)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", len(points))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_reps", reps)
        object.__setattr__(self, "_rows", rows)

    @property
    def reps(self):
        """One determinant-1 matrix per coset, in index order: the explicit
        list, or for a canonical table the identity and then the minimal
        lift of each later coset, searched once on the first read by
        bookkeeping._minimal_reps, which that read imports."""
        if self._reps is None:
            from .bookkeeping import _minimal_reps

            best = _minimal_reps(self)
            object.__setattr__(self, "_reps", (I,) + tuple(IntMatrix2(*best[j]) for j in range(1, self.mu)))
        return self._reps

    def index(self, g):
        """The unique j with g in Gamma0(n) * reps[j]; accepts det = +-1."""
        if g.det not in (1, -1):
            raise ValueError("coset lookup needs determinant +-1, got %d" % g.det)
        return self.index_of_row(g.c, g.d)

    def index_of_row(self, c, d):
        """The coset of every det +-1 matrix with bottom row (c, d).  (c, d)
        must be a point of P^1(Z/nZ): gcd(c, d, n) = gcd(d, g) = 1."""
        inverse, step, slots, g = self._rows[c % self.n]
        if g != 1 and math.gcd(d, g) != 1:
            raise ValueError("row (%d, %d) is not a point of P^1(Z/%dZ)" % (c, d, self.n))
        return slots[inverse * d % step]

    def images(self, a, b, c, d):
        """The action of g = (a b; c d) on the cosets: entry i is the coset
        of the point of (x, y) * g for the point (x, y) of coset i, or None
        where that row (u, v) has gcd(u, v, n) > 1.  (x, y) is a unit
        multiple of the bottom row of reps[i], which changes neither, so
        for det g = +-1 entry i is the coset of reps[i] * g."""
        n, rows, images = self.n, self._rows, []
        for x, y in self.points:
            inverse, step, slots, g = rows[(x * a + y * c) % n]
            v = x * b + y * d
            images.append(slots[inverse * v % step] if g == 1 or math.gcd(v, g) == 1 else None)
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
    accepted through the same lookup (see module docstring); row i is
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
