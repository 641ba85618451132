"""Extended rationals, Farey sequences, the level function, left-neighbor
chains, and the unimodular matrix sums M(q) attached to rationals in
[0, 1).

No Farey table is built to find a neighbor.  The left neighbor p/r of a/b
in the sequence of its level is the determinant-1 partner with
a*r - b*p = 1 that has the largest denominator inside that level, so it
comes from one modular inverse (an extended gcd) in O(log) steps; the step
and the chain work on integers in exact_core.  The whole sequence of level
n is produced by the next-term recurrence on [0, 1] and reflected through
1/x and -x; it is only needed to list the sequence itself.  m_of_q imports
formal sums from formal when it is called, so lns, farey_sequence and the
reading of --q never compile them.
"""

from __future__ import annotations

import math
from functools import total_ordering

from . import _EXPORTS, _plain_number
from .exact_core import Frozen, IntMatrix2, _farey_chain, _farey_step

__all__ = list(_EXPORTS["farey"])


@total_ordering
class ExtendedRational(Frozen):
    """A rational num/den in lowest terms with den >= 0, including the two
    signed infinities 1/0 and -1/0.

    The constructor normalizes: a negative denominator flips both signs,
    the gcd is divided out, and k/0 becomes sign(k)/0.  The order is total,
    with -1/0 below and 1/0 above every finite rational.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if num == 0 and den == 0:
            raise ValueError("0/0 is not an extended rational")
        if den < 0:
            num, den = -num, -den
        # gcd(k, 0) = |k|, so k/0 becomes sign(k)/0 too.
        g = math.gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    @classmethod
    def from_string(cls, text):
        """Parse 'p/q' or a bare integer 'p'."""
        parts = text.split("/")
        try:
            num, den = map(_plain_number, parts) if len(parts) == 2 else (_plain_number(text), 1)
        except ValueError:
            raise ValueError("malformed rational %r" % (text,)) from None
        return cls(num, den)

    def __eq__(self, other):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        if self.den == 0 and other.den == 0:
            return self.num < other.num
        # Cross multiplication is order preserving because den >= 0.
        return self.num * other.den < other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return "%d/%d" % (self.num, self.den)

    def __repr__(self):
        return "ExtendedRational(%d, %d)" % (self.num, self.den)


MINUS_INFINITY = ExtendedRational(-1, 0)
INFINITY = ExtendedRational(1, 0)
ZERO = ExtendedRational(0, 1)


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
    from .formal import FormalSum

    chain = _farey_chain(q.num, q.den)
    return FormalSum.from_matrices(IntMatrix2(r, -p, r0, -p0) for (p0, r0), (p, r) in zip(chain, chain[1:]))


def is_minimal_partition(seq):
    """True iff the chain's denominators satisfy 0 = b_0 < b_1 < ... < b_L."""
    dens = [r.den for r in seq]
    if not dens or dens[0] != 0:
        return False
    return all(x < y for x, y in zip(dens, dens[1:]))
