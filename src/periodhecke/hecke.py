"""The entry conditions of S_m and the assembly of the vector-valued
Hecke operator matrix for Gamma0(n) from Merel's walk of S_m on the points
of P^1(Z/nZ).  That walk lives in exact_core, beside the integer Farey
chains it is built on, and the scalar operator h_tilde in formal, which
row_sum imports when it is called.  The paper's bookkeeping over X_m
(sigma_g, phi_A) and S_m by enumeration live in bookkeeping, which the
assembly never reads.
"""

from __future__ import annotations

from functools import lru_cache

from . import _EXPORTS
from .exact_core import Frozen, IntMatrix2, _merel_keys

__all__ = list(_EXPORTS["hecke"])


def in_sm(g, m=None):
    """True iff g = (a b; c d) with a > c >= 0, d > b >= 0 and
    (optionally) det == m."""
    if not (g.a > g.c >= 0 and g.d > g.b >= 0):
        return False
    return m is None or g.det == m


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
                        if not isinstance(mat, IntMatrix2):
                            message = "operator matrices must be IntMatrix2, got cell (%d, %d) = %r"
                            raise TypeError(message % (j, i, cell))
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
            if not isinstance(mat, IntMatrix2):
                raise TypeError("operator matrices must be IntMatrix2, got %r" % (mat,))
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
        from .formal import FormalSum

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
