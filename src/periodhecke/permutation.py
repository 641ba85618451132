"""The permutation representation induced on the right cosets of Gamma0(n):
mu x mu permutation matrices, and rho, which reads the permutation of a
word from a coset table's action on its points (CosetTable.images).

Only the rho subcommand and the numeric layer (the three-term residuals,
the cusp solution and verify's checks) call it, so a coset or operator run
never compiles it.  It imports only exact_core; rho takes its table as an
argument.
"""

from __future__ import annotations

from functools import lru_cache

from . import _EXPORTS
from .exact_core import Frozen

__all__ = list(_EXPORTS["permutation"])


class PermutationMatrix(Frozen):
    """A mu x mu permutation matrix stored by its image array: row i has
    its single 1 in column image[i]."""

    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise ValueError("not a permutation of 0..%d" % (len(image) - 1))
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, size):
        return cls(range(size))

    @property
    def size(self):
        return len(self.image)

    def __matmul__(self, other):
        """Matrix product self * other."""
        if not isinstance(other, PermutationMatrix):
            return NotImplemented
        if other.size != self.size:
            raise ValueError("permutation sizes %d and %d differ" % (self.size, other.size))
        return PermutationMatrix(other.image[j] for j in self.image)

    def apply(self, vector):
        """Matrix-vector product: component i of the result is vector[image[i]]."""
        if len(vector) != self.size:
            raise ValueError("vector length %d != %d" % (len(vector), self.size))
        return [vector[j] for j in self.image]

    def inverse(self):
        inv = [0] * self.size
        for i, j in enumerate(self.image):
            inv[j] = i
        return PermutationMatrix(inv)

    def rows(self):
        return [[1 if k == j else 0 for k in range(self.size)] for j in self.image]

    def __eq__(self, other):
        if not isinstance(other, PermutationMatrix):
            return NotImplemented
        return self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return "PermutationMatrix(%r)" % (list(self.image),)


@lru_cache(maxsize=128)
def rho(table, g):
    """The induced permutation matrix with entry (i, j) = 1 iff
    reps[i] * g * reps[j]^-1 lies in Gamma0(n), memoised per (table, g):
    repeated calls return the same immutable matrix.

    Satisfies rho(g') @ rho(g) == rho(g' * g).  Determinant -1 arguments are
    accepted through the same lookup (see congruence's docstring); row i is
    read from CosetTable.images.
    """
    if g.det not in (1, -1):
        raise ValueError("coset lookup needs determinant +-1, got %d" % g.det)
    return PermutationMatrix(table.images(*g.key))
