"""The upper-triangular sets X_m and their normal form, the coset
bookkeeping maps sigma_g and phi_A, the scalar operator sum on period
functions, and the assembly of the vector-valued Hecke operator matrix for
Gamma0(n).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exact_core import ExtendedRational, FormalSum, Frozen, IntMatrix2, divisors, xgcd
from .farey import chain_matrices

__all__ = [
    "gen_xm",
    "in_xm",
    "xm_representative",
    "sigma",
    "HeckeCosetRecord",
    "phi",
    "h_tilde",
    "gen_sm",
    "in_sm",
    "HeckeOperatorMatrix",
    "vector_hecke",
]


def gen_xm(m):
    """All (a b; 0 d) with a*d = m, a,d > 0, 0 <= b < d, in canonical order.

    These are the upper-triangular representatives of the left cosets
    SL(2,Z) \\ Mat_m; there are sigma(m) = sum of divisors of them.
    """
    if m < 1:
        raise ValueError("determinant must be positive")
    mats = [IntMatrix2(m // d, b, 0, d) for d in divisors(m) for b in range(d)]
    mats.sort(key=lambda g: g.key)
    return mats


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

    A * reps[j] = (ga gb; gc gd) gives sigma = (a b; 0 d) with a = gcd(ga, gc)
    from one extended gcd, d = m / a and b reduced mod d, as in
    xm_representative.  A * reps[j] * sigma^-1 = A * reps[j] * adj(sigma) / m;
    every entry must divide exactly, and the bottom row names the coset.
    """
    if not in_xm(a_mat):
        raise ValueError("%r is not an X_m representative" % (a_mat,))
    m = a_mat.a * a_mat.d
    rep = table.reps[j]
    ga, gb = a_mat.a * rep.a + a_mat.b * rep.c, a_mat.a * rep.b + a_mat.b * rep.d
    gc, gd = a_mat.d * rep.c, a_mat.d * rep.d
    a, x, y = xgcd(ga, gc)
    d = m // a
    s = IntMatrix2(a, (x * gb + y * gd) % d, 0, d)
    top_right, bottom_right = gb * a - ga * s.b, gd * a - gc * s.b
    if ga * d % m or gc * d % m or top_right % m or bottom_right % m:
        raise ArithmeticError("A * reps[%d] * adj(%r) is not divisible by %d" % (j, s, m))
    return HeckeCosetRecord(a_mat, j, table.index_of_row(gc * d // m, bottom_right // m), s)


def h_tilde(m):
    """The scalar Hecke operator on period functions as a formal sum:
    sum over d | m, 0 <= b < d of M(b/d) * (m/d b; 0 d)."""
    if m < 1:
        raise ValueError("Hecke index must be positive")
    return FormalSum.from_matrices(
        link * IntMatrix2(m // d, b, 0, d)
        for d in divisors(m)
        for b in range(d)
        for link in chain_matrices(ExtendedRational(b, d))
    )


def in_sm(g, m=None):
    """True iff g = (a b; c d) with a > c >= 0, d > b >= 0 and
    (optionally) det == m."""
    if not (g.a > g.c >= 0 and g.d > g.b >= 0):
        return False
    return m is None or g.det == m


def gen_sm(m):
    """All matrices (a b; c d) of determinant m with a > c >= 0 and
    d > b >= 0, in canonical order, by bounded enumeration.

    The constraints force a + d <= m + 1, which bounds the search.
    """
    if m < 1:
        raise ValueError("determinant must be positive")
    mats = []
    for a in range(1, m + 1):
        for d in range(1, m + 2 - a):
            bc = a * d - m
            if bc < 0:
                continue
            for c in range(a):
                if c == 0:
                    if bc == 0:
                        mats.extend(IntMatrix2(a, b, 0, d) for b in range(d))
                elif bc % c == 0 and bc // c < d:
                    mats.append(IntMatrix2(a, bc // c, c, d))
    mats.sort(key=lambda g: g.key)
    return mats


def _column_maps(mu, placements):
    """Collect (B, j, i) placements into one length-mu column map per B;
    a B that reaches row j twice raises ArithmeticError."""
    maps = {}
    for mat, j, i in placements:
        image = maps.get(mat)
        if image is None:
            image = maps[mat] = [None] * mu
        if image[j] is not None:
            raise ArithmeticError("%r reaches row %d twice" % (mat, j))
        image[j] = i
    return list(maps.items())


class HeckeOperatorMatrix(Frozen):
    """One Hecke operator on vector-valued period functions for Gamma0(n),
    stored as one column map per matrix B:

        (T psi)_j = sum over (B, f_B) in columns of psi_{f_B[j]} | B.

    Every B has determinant m and positive-dominant entries (a > c >= 0,
    d > b >= 0), columns is sorted by the key of B, and f_B is a tuple of
    mu column indices with None for the rows B does not reach.  The dense
    form (see entries) is accepted in place of columns.
    """

    __slots__ = ("n", "m", "mu", "columns")

    def __init__(self, n, m, columns):
        columns = list(columns)
        if columns and not isinstance(columns[0][0], IntMatrix2):
            cells = columns
            columns = _column_maps(
                len(cells),
                (
                    (mat, j, i)
                    for j, row in enumerate(cells)
                    for i, cell in enumerate(row)
                    for mat in cell
                ),
            )
        if not columns:
            raise ValueError("an operator needs at least one matrix")
        mu = len(columns[0][1])
        valid = set(range(mu)) | {None}
        maps = {}
        for mat, image in columns:
            if not in_sm(mat, m):
                raise ValueError("matrix %r breaks the determinant-%d entry conditions" % (mat, m))
            if mat in maps or len(image) != mu or any(i not in valid for i in image):
                raise ValueError("matrix %r needs one map from %d rows to columns" % (mat, mu))
            maps[mat] = tuple(image)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "columns", tuple(sorted(maps.items(), key=lambda kv: kv[0].key)))

    def _dense(self, term):
        """mu x mu lists whose cell (j, i) holds term(B) for each B with
        f_B[j] == i, in canonical order; term is called once per B."""
        cells = [[[] for _ in range(self.mu)] for _ in range(self.mu)]
        for mat, image in self.columns:
            value = term(mat)
            for j, i in enumerate(image):
                if i is not None:
                    cells[j][i].append(value)
        return cells

    @property
    def entries(self):
        """The dense mu x mu view, rebuilt on every access: entries[j][i]
        lists, in canonical order, the matrices B with f_B[j] == i."""
        return self._dense(lambda mat: mat)

    def row_sum(self, j):
        """The formal sum obtained by forgetting the column bookkeeping."""
        return FormalSum.from_matrices(mat for mat, image in self.columns if image[j] is not None)

    def to_json_obj(self):
        return {
            "n": self.n,
            "m": self.m,
            "mu": self.mu,
            "entries": self._dense(lambda mat: {"coeff": 1, "matrix": mat.rows()}),
        }

    def __eq__(self, other):
        if not isinstance(other, HeckeOperatorMatrix):
            return NotImplemented
        return (self.n, self.m, self.columns) == (other.n, other.m, other.columns)

    def __repr__(self):
        return "HeckeOperatorMatrix(n=%d, m=%d, mu=%d)" % (self.n, self.m, self.mu)


def vector_hecke(table, m):
    """Assemble the m-th Hecke operator for the given coset table, m >= 1,
    as Merel's action of S_m on the cosets, the points of P^1(Z/nZ).

    The defining set is {A = (a b; 0 d) in X_m : gcd(a, n) = 1}, the usual
    one for T_m on Gamma0(n): all of X_m when gcd(m, n) = 1, and T_1 is the
    identity.  The chain of each sigma in X_m is built once; every B =
    L * sigma it yields is new, since sigma is the X_m normal form of B.  In
    the paper's bookkeeping row j of B is reached by the one A with
    sigma_{reps[j]}(A) = sigma, and lands in the coset of reps[phi] * L^-1,
    which holds U = A * reps[j] * B^-1.  For the row (c, d) of reps[j] let

        (u, v) = (c, d) * adj(B) = (c*d_B - d*c_B, d*a_B - c*b_B).

    U is unimodular with bottom row d_A * (c, d) * B^-1 = (u, v) / a_A, so
    a_A = gcd(u, v): A lies in the defining set exactly when gcd(u, v, n)
    = 1, and then the coset of U is the P^1 point of (u, v), a_A being a
    unit mod n.
    """
    if m < 1:
        raise ValueError("Hecke index must be positive")
    n, rows = table.n, [(rep.c, rep.d) for rep in table.reps]
    index_of_row = table.index_of_row
    columns = {}
    for s in gen_xm(m):
        for link in chain_matrices(ExtendedRational(s.b, s.d)):
            mat = link * s
            if mat in columns:
                raise ArithmeticError("%r occurs twice among the chain matrices" % (mat,))
            a, b, c_b, d_b = mat.key
            image = columns[mat] = []
            for c, d in rows:
                u, v = c * d_b - d * c_b, d * a - c * b
                image.append(index_of_row(u, v) if math.gcd(u, v, n) == 1 else None)
    return HeckeOperatorMatrix(
        n, m, [(mat, image) for mat, image in columns.items() if image.count(None) < len(rows)]
    )
