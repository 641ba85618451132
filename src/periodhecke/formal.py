"""Integer-coefficient formal sums of 2x2 integer matrices, the ring
Z[Mat] that the scalar Hecke operator lives in, and that operator h_tilde,
built from Merel's walk of S_m on the integer Farey chains.  It imports
only exact_core.  farey.m_of_q and HeckeOperatorMatrix.row_sum import it
when they are called, so the coset layer and the vector-valued operator
never compile it.
"""

from __future__ import annotations

from . import _EXPORTS
from .exact_core import Frozen, IntMatrix2, _merel_keys

__all__ = list(_EXPORTS["formal"])


def h_tilde(m):
    """The scalar Hecke operator on period functions as a formal sum:
    sum over d | m, 0 <= b < d of M(b/d) * (m/d b; 0 d)."""
    if m < 1:
        raise ValueError("Hecke index must be positive")
    return FormalSum.from_matrices(IntMatrix2(*key) for key in _merel_keys(m))


class FormalSum(Frozen):
    """A finite integer-coefficient combination of IntMatrix2 values.

    Terms with equal matrices are merged, zero coefficients are dropped,
    and terms are kept sorted by the matrix key, so equal sums compare
    equal and serialize identically.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for term in terms:
            coeff, mat = term
            if not (isinstance(mat, IntMatrix2) and isinstance(coeff, int)):
                raise TypeError("formal sum terms must be IntMatrix2 with int coefficients, got %r" % (term,))
            merged[mat] = merged.get(mat, 0) + coeff
        canonical = tuple(
            (coeff, mat)
            for mat, coeff in sorted(merged.items(), key=lambda kv: kv[0].key)
            if coeff != 0
        )
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def from_matrices(cls, mats):
        """Sum of the given matrices, each with coefficient 1."""
        return cls((1, m) for m in mats)

    def support(self):
        """The distinct matrices with nonzero coefficient, in canonical order."""
        return tuple(m for _, m in self.terms)

    def stratum(self):
        """The common determinant of all matrices, or None if mixed/empty."""
        dets = {m.det for _, m in self.terms}
        if len(dets) == 1:
            return dets.pop()
        return None

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, FormalSum):
            return FormalSum(self.terms + other.terms)
        if isinstance(other, IntMatrix2):
            return FormalSum(self.terms + ((1, other),))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return FormalSum((-c, m) for c, m in self.terms)

    def __sub__(self, other):
        return self + (-other if isinstance(other, FormalSum) else FormalSum(((-1, other),)))

    def __mul__(self, other):
        if isinstance(other, FormalSum):
            return FormalSum(
                (c1 * c2, m1 * m2) for c1, m1 in self.terms for c2, m2 in other.terms
            )
        if isinstance(other, IntMatrix2):
            return FormalSum((c, m * other) for c, m in self.terms)
        if isinstance(other, int):
            return FormalSum((c * other, m) for c, m in self.terms)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, IntMatrix2):
            return FormalSum((c, other * m) for c, m in self.terms)
        return self * other if isinstance(other, int) else NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def to_json_obj(self):
        """Canonical encoding: [{"coeff": c, "matrix": [[a,b],[c,d]]}, ...]."""
        return [{"coeff": c, "matrix": m.rows()} for c, m in self.terms]

    @classmethod
    def from_json_obj(cls, obj):
        return cls((t["coeff"], IntMatrix2.from_rows(t["matrix"])) for t in obj)

    def __repr__(self):
        return "FormalSum(%r)" % (list(self.terms),)
