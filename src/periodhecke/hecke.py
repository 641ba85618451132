"""The upper-triangular sets X_m and their normal form, the coset
bookkeeping maps sigma_g and phi_A, the set S_m by enumeration, and the
assembly of the vector-valued Hecke operator matrix for Gamma0(n) from
Merel's walk of S_m.  That walk and the scalar operator h_tilde live in
exact_core, beside the integer Farey chains they are built on; h_tilde is
bound here as well, so hecke.h_tilde names the same function.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import _EXPORTS
from .exact_core import FormalSum, Frozen, IntMatrix2, _merel_keys, divisors, h_tilde, xgcd

__all__ = list(_EXPORTS["hecke"])


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


def in_sm(g, m=None):
    """True iff g = (a b; c d) with a > c >= 0, d > b >= 0 and
    (optionally) det == m."""
    if not (g.a > g.c >= 0 and g.d > g.b >= 0):
        return False
    return m is None or g.det == m


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


class HeckeOperatorMatrix(Frozen):
    """One Hecke operator on vector-valued period functions for Gamma0(n),
    stored as one column map per matrix B:

        (T psi)_j = sum over (B, f_B) in columns of psi_{f_B[j]} | B.

    Every B occurs once and has determinant m and positive-dominant
    entries (a > c >= 0, d > b >= 0), columns is sorted by the key of B,
    and f_B is a tuple of mu column indices with None for the rows B does
    not reach; the constructor checks all of it.  The dense form (see
    entries) is accepted in place of columns.
    """

    __slots__ = ("n", "m", "mu", "columns")

    def __init__(self, n, m, columns):
        columns = list(columns)
        if columns and not isinstance(columns[0][0], IntMatrix2):
            # Dense cells: collect one column map per B; a B that reaches
            # row j twice raises ArithmeticError.
            maps = {}
            for j, row in enumerate(columns):
                for i, cell in enumerate(row):
                    for mat in cell:
                        image = maps.get(mat)
                        if image is None:
                            image = maps[mat] = [None] * len(columns)
                        if image[j] is not None:
                            raise ArithmeticError("%r reaches row %d twice" % (mat, j))
                        image[j] = i
            columns = list(maps.items())
        if not columns:
            raise ValueError("an operator needs at least one matrix")
        maps = {mat: tuple(image) for mat, image in columns}
        if len(maps) < len(columns):
            raise ArithmeticError("a matrix occurs twice among the columns")
        mu = len(columns[0][1])
        valid = set(range(mu)) | {None}
        for mat, image in maps.items():
            if not in_sm(mat, m):
                raise ValueError("matrix %r breaks the determinant-%d entry conditions" % (mat, m))
            if len(image) != mu or not valid.issuperset(image):
                raise ValueError("matrix %r needs one map from %d rows to columns" % (mat, mu))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "columns", tuple(sorted(maps.items(), key=lambda kv: kv[0].key)))

    def _dense(self, term):
        """The mu x mu cells: cell (j, i) holds term(B) for each B with
        f_B[j] == i, in canonical order; term is called once per B.  A cell
        is a list once a term lands in it, and until then the one shared
        empty tuple."""
        cells = [[()] * self.mu for _ in range(self.mu)]
        for mat, image in self.columns:
            value = term(mat)
            for j, i in enumerate(image):
                if i is not None:
                    row = cells[j]
                    if row[i]:
                        row[i].append(value)
                    else:
                        row[i] = [value]
        return cells

    @property
    def entries(self):
        """The dense mu x mu view, rebuilt on every access: entries[j][i]
        lists, in canonical order, the matrices B with f_B[j] == i (an
        empty cell is the empty tuple)."""
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


@lru_cache(maxsize=32)
def vector_hecke(table, m):
    """Assemble the m-th Hecke operator for the given coset table, m >= 1,
    as Merel's action of S_m on the cosets, the points of P^1(Z/nZ).
    Memoised per (table, m): repeated calls return the same immutable
    operator.

    The defining set is {A = (a b; 0 d) in X_m : gcd(a, n) = 1}, the usual
    one for T_m on Gamma0(n): all of X_m when gcd(m, n) = 1, and T_1 is the
    identity.  The chain of each sigma in X_m is built once; every B =
    L * sigma it yields is new, since sigma is the X_m normal form of B,
    and the constructor rejects a repeat.  In the paper's bookkeeping row j
    of B is reached by the one A with sigma_{reps[j]}(A) = sigma, and lands
    in the coset of U = A * reps[j] * B^-1, that of reps[phi] * L^-1.  For
    the bottom row (c, d) of reps[j], U is unimodular with bottom row
    d_A * (c, d) * B^-1 = (c, d) * adj(B) / a_A, so a_A is the gcd of
    (c, d) * adj(B): A lies in the defining set exactly when that row is a
    point of P^1(Z/nZ), and then it names the coset of U, a_A being a unit
    mod n.  So f_B is CosetTable.images of adj(B).
    """
    if m < 1:
        raise ValueError("Hecke index must be positive")
    columns = []
    for a, b, c, d in _merel_keys(m):
        image = table.images(d, -b, -c, a)
        if image.count(None) < table.mu:
            columns.append((IntMatrix2(a, b, c, d), image))
    return HeckeOperatorMatrix(table.n, m, columns)
