"""Exact integer kernel that every exact command runs: the extended gcd,
divisors, the immutable-value base Frozen, 2x2 integer matrices with the
generators I, T, S and T', and the integer Farey chains with Merel's S_m
walked on them.  Rationals and the Moebius action's values live in farey,
formal sums of matrices and the scalar operator h_tilde in formal; this
module imports neither at its top, so the coset layer never compiles them.

All values are immutable after construction and every operation is a pure
function, so values can be shared freely between threads.  Python integers
are unbounded, so no identity here can be corrupted by overflow.
"""

from __future__ import annotations

import math

from . import _EXPORTS

__all__ = list(_EXPORTS["exact_core"])


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y == g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def divisors(m):
    """Positive divisors of m >= 1, ascending."""
    if m < 1:
        raise ValueError("divisors are taken of a positive integer, got %d" % m)
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return small + [m // d for d in reversed(small) if d * d != m]


def _farey_step(a, b):
    """The left neighbor (p, r) of the reduced a/b, b >= 0, in the Farey
    sequence of level L = max(|a|, b).  For a != 0 it is the p/r with
    a*r - b*p = 1 whose r is largest subject to r <= L and |p| <= L: those
    r form the residue class of 1/a mod b, and |p| <= L caps r at
    (L*b + 1) // a for a > 0 and at (L*b - 1) // |a| for a < 0."""
    if b == 0:
        if a < 0:
            raise ValueError("-1/0 has no left neighbor")
        return 0, 1
    if a == 0:
        return -1, 0
    bound = max(abs(a), b)
    cap = min(bound, (bound * b + 1) // a if a > 0 else (bound * b - 1) // -a)
    r = cap - (cap - pow(a, -1, b)) % b
    return (a * r - 1) // b, r


def _farey_chain(a, b):
    """The (num, den) pairs of _farey_step iterated from the reduced a/b >
    -1/0, ascending from (-1, 0) to (a, b); the level strictly drops at
    every step until the chain reaches -1/0."""
    if b == 0 and a < 0:
        raise ValueError("left neighbor sequence starts from q > -1/0")
    chain = [(a, b)]
    while b or a > 0:
        a, b = _farey_step(a, b)
        chain.append((a, b))
    chain.reverse()
    return chain


def _merel_keys(m):
    """Merel's S_m as (a, b, c, d) keys: L * sigma for sigma = (m/d b; 0 d)
    in X_m and each link L = (r -p; r' -p') of the chain of b/d, reduced.
    Row (r, -p) of L gives the row (r*m/d, r*b - p*d) of L * sigma, and a
    key is the row of a chain member followed by that of its left neighbor."""
    for d in divisors(m):
        for b in range(d):
            g = math.gcd(b, d)
            rows = [(r * m // d, r * b - p * d) for p, r in _farey_chain(b // g, d // g)]
            yield from map(tuple.__add__, rows[1:], rows)


class Frozen:
    """Base of the package's immutable values: __init__ sets each slot once
    with object.__setattr__, and every later assignment raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)


class IntMatrix2(Frozen):
    """An immutable 2x2 integer matrix (a b; c d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def key(self):
        """Canonical sort key (a, b, c, d)."""
        return (self.a, self.b, self.c, self.d)

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]

    @classmethod
    def from_rows(cls, rows):
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def __mul__(self, other):
        if isinstance(other, IntMatrix2):
            return IntMatrix2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        return NotImplemented

    def __neg__(self):
        return IntMatrix2(-self.a, -self.b, -self.c, -self.d)

    def adjugate(self):
        """The adjugate (d -b; -c a); equals det * inverse."""
        return IntMatrix2(self.d, -self.b, -self.c, self.a)

    def inverse(self):
        """Exact inverse, defined for unimodular matrices only."""
        det = self.det
        if det == 1:
            return self.adjugate()
        if det == -1:
            return -self.adjugate()
        raise ValueError("matrix with determinant %d has no integer inverse" % det)

    def moebius(self, r):
        """Apply (a b; c d) to an extended rational: p/q -> (ap+bq)/(cp+dq).

        Poles land on sign(ap+bq)/0; requires a nonsingular matrix.
        """
        if self.det == 0:
            raise ValueError("Moebius action of a singular matrix is undefined")
        from .farey import ExtendedRational

        return ExtendedRational(
            self.a * r.num + self.b * r.den,
            self.c * r.num + self.d * r.den,
        )

    def __eq__(self, other):
        if not isinstance(other, IntMatrix2):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __str__(self):
        return "[[%d, %d], [%d, %d]]" % self.key

    def __repr__(self):
        return "IntMatrix2(%d, %d, %d, %d)" % self.key


I = IntMatrix2(1, 0, 0, 1)
T = IntMatrix2(1, 1, 0, 1)
S = IntMatrix2(0, -1, 1, 0)
T_PRIME = IntMatrix2(1, 0, 1, 1)
