"""Deliberate mutants of the operator assembly, and a stub for work that
must not start, for the test modules to patch in.

Each named mutant is a stand-in for vector_hecke(table, m) built by
mutated; transposed takes an operator instead.  Every mutant is built
through the HeckeOperatorMatrix constructor, so it is an operator the
constructor accepts.
"""

from periodhecke.hecke import HeckeOperatorMatrix, vector_hecke


def mutated(change):
    """A stand-in for vector_hecke whose operator replaces each column
    (B, f_B) with change(B, f_B), or drops it where change returns None."""

    def mutant(table, m):
        op = vector_hecke(table, m)
        changed = (change(mat, image) for mat, image in op.columns)
        return HeckeOperatorMatrix(op.n, op.m, [column for column in changed if column is not None])

    return mutant


# Every column map f_B rotated by one row.
rotated = mutated(lambda mat, image: (mat, image[1:] + image[:1]))
# Rows mu - 2 and mu - 1 of every column map swapped.
swapped_last_rows = mutated(lambda mat, image: (mat, image[:-2] + image[:-3:-1]))
# Row 0 reached by no B.
row_zero_unreached = mutated(lambda mat, image: (mat, (None,) + image[1:]))
# No row reached by any B: every cell is empty.
unmapped = mutated(lambda mat, image: (mat, (None,) * len(image)))
# The first B in canonical order, (1 0; 0 m), which reaches row 0 at every
# level, dropped.
first_dropped = mutated(lambda mat, image: None if mat.key[:3] == (1, 0, 0) else (mat, image))


def transposed(op):
    """The row/column transpose of an operator with gcd(m, n) = 1: B moves
    from cell (j, f_B[j]) to cell (f_B[j], j), so each f_B is inverted."""
    columns = []
    for mat, image in op.columns:
        inverse = [None] * op.mu
        for j, i in enumerate(image):
            inverse[i] = j
        columns.append((mat, tuple(inverse)))
    return HeckeOperatorMatrix(op.n, op.m, columns)


def forbidden(name):
    """A stand-in for work that must not start: calling it raises
    AssertionError("<name> was started")."""

    def stub(*args, **kwargs):
        raise AssertionError("%s was started" % name)

    return stub
