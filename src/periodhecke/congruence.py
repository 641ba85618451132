"""Gamma0(n) membership, canonical coset representatives of its right
cosets in SL(2,Z), the action of a matrix on them, and the
level-projection map between coset index sets.

The right cosets are the points (c : d) of P^1(Z/nZ).  A point's key is its
lexicographically least unit multiple mod n: (0, 1) if n | c, else (g, r)
with g = gcd(c, n) and r the least u*d mod n over the units u with
u*c = g mod n.  Those u lift x = (c/g)^-1 mod n/g, so g and the class
x*d mod n/g fix the point, and a table finds its coset from per-residue
and per-divisor lists built once (Cremona, Algorithms for Modular
Elliptic Curves, 2.2).  A canonical table numbers the cosets by their
keys; the minimal-entry representatives are searched only when reps is
read, by the sweep of representatives, which that read imports, so rho
and the operator assembly never compile it.  The permutation
representation rho, read from CosetTable.images, lives in permutation.
The lookup works verbatim for determinant -1 matrices as well (Gamma0(n)
and diag(1,-1) generate a group with the same coset structure), which the
numeric layer needs for one transfer-equation word.
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
        representatives._minimal_reps, which that read imports."""
        if self._reps is None:
            from .representatives import _minimal_reps

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


def coset_projection(m, n):
    """The index map chi sending coset i of level m*n to the level-n coset
    containing it, using the canonical tables of both levels: the level-n
    coset of the point of coset i, read mod n."""
    if m < 1 or n < 1:
        raise ValueError("levels must be positive")
    coarse = coset_table(n)
    return [coarse.index_of_row(c, d) for c, d in coset_table(m * n).points]
