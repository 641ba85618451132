"""The paper's matrix bookkeeping: the upper-triangular sets X_m and their
normal form, the coset maps sigma_g and phi_A, and the set S_m by
enumeration.

The operator itself is assembled from Merel's walk of S_m on the points of
P^1(Z/nZ) (hecke.vector_hecke), which needs none of this.  It serves the
reference assembly that verify checks the operator against and the sigma
and sm subcommands, so a run that only applies operators or permutations,
or lists cosets, never compiles it.  It imports only exact_core.
"""

from __future__ import annotations

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
