"""Farey sequences, the level function, left-neighbor chains, and the
unimodular matrix sums M(q) attached to rationals in [0, 1).

The sequence of level n is generated directly from its definition (all
reduced u/v with |u| <= n, 0 <= v <= n, sorted), which doubles as the test
oracle; neighbors are then found by binary search.  Results are cached per
level, but no correctness depends on the cache.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

from .exact_core import (
    ExtendedRational,
    FormalSum,
    Frozen,
    IntMatrix2,
    MINUS_INFINITY,
    INFINITY,
    ZERO,
    ONE,
)

__all__ = [
    "level",
    "farey_sequence",
    "left_neighbor",
    "LeftNeighborSequence",
    "lns",
    "m_of_q",
    "is_minimal_partition",
]


def level(r):
    """Level of a reduced rational: 0 on {-1/0, 0/1, 1/0}, else max(|num|, den)."""
    if r.den == 0 or r.num == 0:
        return 0
    return max(abs(r.num), r.den)


@lru_cache(maxsize=None)
def _farey_tuple(n):
    if n == 0:
        return (MINUS_INFINITY, ZERO, INFINITY)
    members = set()
    for u in range(-n, n + 1):
        for v in range(n + 1):
            if u == 0 and v == 0:
                continue
            members.add(ExtendedRational(u, v))
    return tuple(sorted(members))


def farey_sequence(n):
    """The Farey sequence of level n, ascending, bracketed by -1/0 and 1/0."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return list(_farey_tuple(n))


def left_neighbor(q):
    """The largest member of the level-lev(q) Farey sequence strictly below q."""
    if q == MINUS_INFINITY:
        raise ValueError("-1/0 has no left neighbor")
    seq = _farey_tuple(level(q))
    return seq[bisect_left(seq, q) - 1]


class LeftNeighborSequence(Frozen):
    """The ascending chain -1/0 = y_0 < y_1 < ... < y_L = q obtained by
    iterating the left-neighbor map from q down to -1/0."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def steps(self):
        """The number L of left-neighbor steps."""
        return len(self.entries) - 1

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, LeftNeighborSequence):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def to_json_obj(self):
        return [str(r) for r in self.entries]

    def __repr__(self):
        return "LeftNeighborSequence(%r)" % (list(self.entries),)


def lns(q):
    """Left-neighbor sequence of q in Q union {+1/0}.

    Terminates because the level strictly drops at every step until the
    chain reaches -1/0.
    """
    if q == MINUS_INFINITY:
        raise ValueError("left neighbor sequence starts from q > -1/0")
    chain = [q]
    while chain[-1] != MINUS_INFINITY:
        chain.append(left_neighbor(chain[-1]))
    chain.reverse()
    return LeftNeighborSequence(chain)


def m_of_q(q):
    """The formal sum M(q), q rational in [0, 1).

    Writing lns(q) = (a_0/b_0, ..., a_L/b_L), the l-th summand is the
    unimodular matrix (b_l -a_l; b_{l-1} -a_{l-1}); the first summand is
    always the identity and every summand has determinant 1.
    """
    if q.den == 0 or not (ZERO <= q < ONE):
        raise ValueError("m_of_q is defined for rationals in [0, 1)")
    entries = lns(q).entries
    mats = []
    for prev, cur in zip(entries, entries[1:]):
        mats.append(IntMatrix2(cur.den, -cur.num, prev.den, -prev.num))
    return FormalSum.from_matrices(mats)


def is_minimal_partition(seq):
    """True iff the chain's denominators satisfy 0 = b_0 < b_1 < ... < b_L."""
    dens = [r.den for r in seq.entries]
    if not dens or dens[0] != 0:
        return False
    return all(x < y for x, y in zip(dens, dens[1:]))
