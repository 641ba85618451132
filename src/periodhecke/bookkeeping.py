"""The paper's matrix bookkeeping: the upper-triangular sets X_m and their
normal form, the coset maps sigma_g and phi_A, the set S_m by enumeration,
and the search for the minimal-entry coset representatives.

The operator itself is assembled from Merel's walk of S_m on the points of
P^1(Z/nZ) (hecke.vector_hecke), which needs none of this.  It serves the
reference assembly that verify checks the operator against, the sigma and
sm subcommands, and CosetTable.reps, which imports the search the first
time it is read.  So a run that only applies operators or permutations
never compiles it.  It imports only exact_core.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _EXPORTS
from .exact_core import IntMatrix2, divisors, xgcd

__all__ = list(_EXPORTS["bookkeeping"])


def gen_xm(m):
    """All (a b; 0 d) with a*d = m, a,d > 0, 0 <= b < d, in canonical order.

    These are the upper-triangular representatives of the left cosets
    SL(2,Z) \\ Mat_m; there are sigma(m) = sum of divisors of them.
    """
    if m < 1:
        raise ValueError("determinant must be positive")
    return [IntMatrix2(m // d, b, 0, d) for d in reversed(divisors(m)) for b in range(d)]


def in_xm(g, m=None):
    """True iff g = (a b; 0 d) with d > b >= 0 and (optionally) det == m."""
    if g.c != 0 or g.d <= g.b or g.b < 0 or g.a <= 0:
        return False
    return m is None or g.det == m


def xm_representative(g):
    """The unique member of X_det(g) in the left coset SL(2,Z) * g.

    Column-style Hermite-type reduction: clear the lower-left entry with a
    determinant-1 row operation, then reduce the upper-right entry modulo
    the lower-right one.
    """
    m = g.det
    if m <= 0:
        raise ValueError("reduction to X_m needs positive determinant, got %d" % m)
    gg, x, y = xgcd(g.a, g.c)
    # (x y; -c/g a/g) has determinant 1 and sends the first column to (g, 0).
    a, b = gg, x * g.b + y * g.d
    d = m // gg
    return IntMatrix2(a, b % d, 0, d)


def sigma(g, a_mat):
    """The unique A' in X_m with A * g * A'^-1 in SL(2,Z), for unimodular g.

    Computed as the X_m normal form of A*g; the inverse map is sigma with
    g^-1 in place of g.
    """
    if g.det != 1:
        raise ValueError("sigma is defined for determinant-1 matrices")
    if not in_xm(a_mat):
        raise ValueError("%r is not an X_m representative" % (a_mat,))
    return xm_representative(a_mat * g)


HeckeCosetRecord = namedtuple("HeckeCosetRecord", "a_mat j phi sigma")
HeckeCosetRecord.__doc__ = """One step of coset bookkeeping: A * reps[j] lies in
Gamma0(n) * reps[phi] * sigma with sigma in X_m."""


def phi(table, a_mat, j):
    """Locate the coset hit by A * reps[j]: returns the record with
    sigma = sigma_{reps[j]}(A) and phi the index of the coset of
    A * reps[j] * sigma^-1, in integer arithmetic.

    A * reps[j] * sigma^-1 = A * reps[j] * adj(sigma) / m; every entry must
    divide exactly, and the bottom row of the quotient names the coset.
    """
    s = sigma(table.reps[j], a_mat)
    m = a_mat.det
    product = a_mat * table.reps[j] * s.adjugate()
    if any(entry % m for entry in product.key):
        raise ArithmeticError("A * reps[%d] * adj(%r) is not divisible by %d" % (j, s, m))
    return HeckeCosetRecord(a_mat, j, table.index_of_row(product.c // m, product.d // m), s)


def gen_sm(m):
    """All matrices (a b; c d) of determinant m with a > c >= 0 and
    d > b >= 0, in canonical order, by bounded enumeration.

    The constraints force a + d <= m + 1 and bc = ad - m >= 0, which bound
    a and d; c = 0 needs bc = 0, and c > 0 needs b = bc/c < d, so c > bc/d.
    """
    if m < 1:
        raise ValueError("determinant must be positive")
    mats = []
    for a in range(1, m + 1):
        for d in range(-(-m // a), m + 2 - a):
            bc = a * d - m
            if bc == 0:
                mats.extend(IntMatrix2(a, b, 0, d) for b in range(d))
            for c in range(bc // d + 1, a):
                if bc % c == 0:
                    mats.append(IntMatrix2(a, bc // c, c, d))
    mats.sort(key=lambda g: g.key)
    return mats


def _minimal_reps(table):
    """For every coset index of a canonical table, the (a, b, c, d) of the
    determinant-1 matrix in that coset minimizing max(|a|,|b|,|c|,|d|),
    ties broken lexicographically.

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
    left.  (c, d) and (-c, -d) share their coset and their lifts are
    negations of each other, so each shell visits the pairs (c, B) and
    (B, d) and offers both signs.  Each pair is located by reading the
    table's per-residue rows, CosetTable._rows, inline."""
    n, lookup = table.n, table._rows
    parts = divisors(n)
    pending = {(g, e): sum(math.gcd(u, n // g // e) == 1 for u in range(n // g // e))
               for g in parts for e in parts if math.gcd(g, e) == 1}
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
            inverse, step, slots, _ = lookup[c % n]
            coset = slots[inverse * d % step]
            if coset in best:
                continue
            # a*d - b*c = 1 with (a, b) = (x + t*c, y + t*d).
            _, x, y = xgcd(d, -c)
            pivot = -x // c if abs(c) == bound else -y // d
            for t in range(pivot - 1, pivot + 2):
                a, b = x + t * c, y + t * d
                if abs(a) <= bound and abs(b) <= bound:
                    least = min((a, b, c, d), (-a, -b, -c, -d))
                    if coset not in offered or least < offered[coset]:
                        offered[coset] = least
        for _, _, c, d in offered.values():
            pending[math.gcd(c, n), math.gcd(d, n)] -= 1
        best.update(offered)
        pending = {ge: left for ge, left in pending.items() if left}
    return best
