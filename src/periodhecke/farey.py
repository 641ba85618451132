"""Farey sequences, the level function, left-neighbor chains, and the
unimodular matrix sums M(q) attached to rationals in [0, 1).

No Farey table is built to find a neighbor.  The left neighbor p/r of a/b
in the sequence of its level is the determinant-1 partner with
a*r - b*p = 1 that has the largest denominator inside that level, so it
comes from one modular inverse (an extended gcd) in O(log) steps.  The whole sequence of level
n is produced by the next-term recurrence on [0, 1] and reflected through
1/x and -x; it is only needed to list the sequence itself.
"""

from __future__ import annotations

from . import _EXPORTS
from .exact_core import (
    ExtendedRational,
    FormalSum,
    IntMatrix2,
    MINUS_INFINITY,
    INFINITY,
    ZERO,
    ONE,
)

__all__ = list(_EXPORTS["farey"])


def level(r):
    """Level of a reduced rational: 0 on {-1/0, 0/1, 1/0}, else max(|num|, den)."""
    if r.den == 0 or r.num == 0:
        return 0
    return max(abs(r.num), r.den)


def farey_sequence(n):
    """The Farey sequence of level n, ascending, bracketed by -1/0 and 1/0."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n == 0:
        return [MINUS_INFINITY, ZERO, INFINITY]
    # Next-term recurrence for the fractions of [0, 1] with denominator <= n.
    unit = [ZERO]
    a, b, c, d = 0, 1, 1, n
    while c <= n:
        unit.append(ExtendedRational(c, d))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    # 1/x maps [0, 1] onto [1, 1/0]; -x maps [0, 1/0] onto [-1/0, 0].
    positive = unit + [ExtendedRational(r.den, r.num) for r in reversed(unit[:-1])]
    return [ExtendedRational(-r.num, r.den) for r in reversed(positive[1:])] + positive


def left_neighbor(q):
    """The largest member of the level-lev(q) Farey sequence strictly below q.

    For q = a/b with a != 0 this is the p/r with a*r - b*p = 1 whose
    denominator r is largest subject to r <= L and |p| <= L, where
    L = max(|a|, b): the solutions r form the residue class of 1/a mod b,
    and the bound on |p| caps r at (L*b + 1) // a for a > 0 and at
    (L*b - 1) // |a| for a < 0.
    """
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


def lns(q):
    """Left-neighbor sequence of q in Q union {+1/0}: the ascending tuple
    -1/0 = y_0 < y_1 < ... < y_L = q obtained by iterating left_neighbor
    from q down to -1/0, so the chain takes len(lns(q)) - 1 steps.

    Terminates because the level strictly drops at every step until the
    chain reaches -1/0.
    """
    if q == MINUS_INFINITY:
        raise ValueError("left neighbor sequence starts from q > -1/0")
    chain = [q]
    while chain[-1] != MINUS_INFINITY:
        chain.append(left_neighbor(chain[-1]))
    return tuple(reversed(chain))


def chain_matrices(q):
    """The summands of M(q), q rational in [0, 1), in chain order.

    Writing lns(q) = (a_0/b_0, ..., a_L/b_L), the l-th summand is the
    unimodular matrix (b_l -a_l; b_{l-1} -a_{l-1}); the first summand is
    always the identity, every summand has determinant 1, and no two are
    equal.
    """
    if q.den == 0 or not (ZERO <= q < ONE):
        raise ValueError("m_of_q is defined for rationals in [0, 1)")
    chain = lns(q)
    return [
        IntMatrix2(cur.den, -cur.num, prev.den, -prev.num)
        for prev, cur in zip(chain, chain[1:])
    ]


def m_of_q(q):
    """The formal sum M(q) of chain_matrices(q), q rational in [0, 1)."""
    return FormalSum.from_matrices(chain_matrices(q))


def is_minimal_partition(seq):
    """True iff the chain's denominators satisfy 0 = b_0 < b_1 < ... < b_L."""
    dens = [r.den for r in seq]
    if not dens or dens[0] != 0:
        return False
    return all(x < y for x, y in zip(dens, dens[1:]))
