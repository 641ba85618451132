"""Gamma0(n) membership, canonical coset representatives of its right
cosets in SL(2,Z), the induced permutation representation, and the
level-projection map between coset index sets.

Right cosets are keyed by the bottom row (c : d) mod n up to multiplication
by units of Z/nZ; the lexicographically least member of the unit orbit is
the canonical key.  The key works verbatim for determinant -1 matrices as
well (the group generated by Gamma0(n) and diag(1,-1) has the same coset
structure), which the numeric layer needs for one transfer-equation word.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact_core import Frozen, I, IntMatrix2, xgcd

__all__ = [
    "gamma0_contains",
    "gamma0_index",
    "CosetTable",
    "coset_table",
    "PermutationMatrix",
    "rho",
    "coset_projection",
]


def gamma0_contains(n, g):
    """True iff g is in SL(2,Z) with lower-left entry divisible by n."""
    if g.det != 1:
        raise ValueError("Gamma0(n) only contains determinant-1 matrices")
    return g.c % n == 0


def gamma0_index(n):
    """The index of Gamma0(n) in SL(2,Z): n * prod over primes p | n of (1 + 1/p)."""
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


def _orbit_keys(n):
    """Map every primitive pair (c, d) mod n to the lex-least member of its
    unit-multiple orbit.  The orbits are exactly the right cosets."""
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


def _shell(bound):
    """All integer pairs (c, d) with max(|c|, |d|) == bound."""
    for c in range(-bound, bound + 1):
        yield c, bound
        yield c, -bound
    for d in range(-bound + 1, bound):
        yield bound, d
        yield -bound, d


def _minimal_rep(n, key, key_of):
    """The determinant-1 matrix with the given coset key minimizing
    max(|a|,|b|,|c|,|d|), ties broken lexicographically by (a,b,c,d)."""
    best = None
    bound = 1
    while best is None or bound <= best[0]:
        for c, d in _shell(bound):
            if math.gcd(c, d) != 1:
                continue
            if key_of.get((c % n, d % n)) != key:
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
        if best is None and bound > 6 * n + 6:
            raise RuntimeError("no representative found for key %r" % (key,))
    return IntMatrix2(*best[1])


class CosetTable(Frozen):
    """Representatives and membership index for the right cosets of
    Gamma0(n) in SL(2,Z).

    Built canonically (identity coset first, minimal-entry lifts) unless an
    explicit complete list of representatives is supplied.
    """

    __slots__ = ("n", "mu", "reps", "_key_of", "_index_of_key")

    def __init__(self, n, reps=None):
        if n < 1:
            raise ValueError("level must be positive")
        key_of = _orbit_keys(n)
        keys = sorted(set(key_of.values()))
        if reps is None:
            identity_key = key_of[(0, 1 % n)]
            ordered = [identity_key] + [k for k in keys if k != identity_key]
            reps = [I] + [_minimal_rep(n, k, key_of) for k in ordered[1:]]
        else:
            reps = list(reps)
            seen = {}
            for idx, g in enumerate(reps):
                if g.det != 1:
                    raise ValueError("coset representatives must have determinant 1")
                key = key_of[(g.c % n, g.d % n)]
                if key in seen:
                    raise ValueError("representatives %d and %d share a coset" % (seen[key], idx))
                seen[key] = idx
            if len(reps) != len(keys):
                raise ValueError("expected %d representatives, got %d" % (len(keys), len(reps)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mu", len(reps))
        object.__setattr__(self, "reps", tuple(reps))
        object.__setattr__(self, "_key_of", key_of)
        object.__setattr__(
            self,
            "_index_of_key",
            {key_of[(g.c % n, g.d % n)]: i for i, g in enumerate(reps)},
        )

    def index(self, g):
        """The unique j with g in Gamma0(n) * reps[j]; accepts det = +-1."""
        if g.det not in (1, -1):
            raise ValueError("coset lookup needs determinant +-1, got %d" % g.det)
        return self._index_of_key[self._key_of[(g.c % self.n, g.d % self.n)]]

    def to_json_obj(self):
        return {"n": self.n, "mu": self.mu, "reps": [g.rows() for g in self.reps]}

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


def rho(table, g):
    """The induced permutation matrix with entry (i, j) = 1 iff
    reps[i] * g * reps[j]^-1 lies in Gamma0(n).

    Satisfies rho(g') @ rho(g) == rho(g' * g).  Determinant -1 arguments are
    accepted through the same coset key (see module docstring).
    """
    return PermutationMatrix(table.index(rep * g) for rep in table.reps)


def coset_projection(m, n):
    """The index map chi sending coset i of level m*n to the level-n coset
    containing it, using the canonical tables of both levels."""
    if m < 1 or n < 1:
        raise ValueError("levels must be positive")
    fine = coset_table(m * n)
    coarse = coset_table(n)
    return [coarse.index(rep) for rep in fine.reps]
