"""Farey sequences, the level function, left-neighbor chains, and the
unimodular matrix sums M(q) attached to rationals in [0, 1).

No Farey table is built to find a neighbor.  The left neighbor p/r of a/b
in the sequence of its level is the determinant-1 partner with
a*r - b*p = 1 that has the largest denominator inside that level, so it
comes from one modular inverse (an extended gcd) in O(log) steps; the step
and the chain work on integers in exact_core.  The whole sequence of level
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
    _farey_chain,
    _farey_step,
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
    """The largest member of the level-lev(q) Farey sequence strictly below q
    (exact_core._farey_step)."""
    return ExtendedRational(*_farey_step(q.num, q.den))


def lns(q):
    """Left-neighbor sequence of q in Q union {+1/0}: the ascending tuple
    -1/0 = y_0 < y_1 < ... < y_L = q of exact_core._farey_chain, so the
    chain takes len(lns(q)) - 1 steps."""
    return tuple(ExtendedRational(p, r) for p, r in _farey_chain(q.num, q.den)[:-1]) + (q,)


def m_of_q(q):
    """The formal sum M(q), q rational in [0, 1), of one matrix per link
    of its chain.

    Writing lns(q) = (a_0/b_0, ..., a_L/b_L), the l-th summand is the
    unimodular matrix (b_l -a_l; b_{l-1} -a_{l-1}); the first summand is
    always the identity, every summand has determinant 1, and no two are
    equal, so each has coefficient 1.
    """
    if not 0 <= q.num < q.den:
        raise ValueError("m_of_q is defined for rationals in [0, 1)")
    chain = _farey_chain(q.num, q.den)
    return FormalSum.from_matrices(IntMatrix2(r, -p, r0, -p0) for (p0, r0), (p, r) in zip(chain, chain[1:]))


def is_minimal_partition(seq):
    """True iff the chain's denominators satisfy 0 = b_0 < b_1 < ... < b_L."""
    dens = [r.den for r in seq]
    if not dens or dens[0] != 0:
        return False
    return all(x < y for x, y in zip(dens, dens[1:]))
