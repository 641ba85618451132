"""Exact Hecke operator matrices on vector-valued period functions for the
congruence subgroups Gamma0(n), plus the numeric checks that verify them.

The package namespace is the table `_EXPORTS` below, the only list of
the public names: each library module with public names sets its
`__all__` from its own entry (representatives has none).  It is resolved
lazily (PEP 562): importing the package loads no module, and a public name
loads its home module on first access and is then cached here.  A
submodule loads only what it imports at its top: cli and exact_core load
nothing else, the other library modules exact_core (numeric permutation
too), checks cli, and verify every library module but representatives.
A few functions load a module when they are called: IntMatrix2.moebius
loads farey, farey.m_of_q and HeckeOperatorMatrix.row_sum load formal,
and CosetTable.reps loads representatives.  So a coset-layer run compiles
neither rationals nor formal sums, cosets compiles no permutations,
hecke-vector neither permutations nor the representatives' sweep, and a
CLI run that never touches the numeric layer never compiles it.  Every
number on the command line is read by `_plain_number` below, which loads
no layer.
"""

import importlib

__version__ = "0.1.0"

# The public names of each library module, in order; the module's `__all__` is its entry.
_EXPORTS = {
    "exact_core": ("IntMatrix2", "xgcd", "divisors", "I", "T", "S", "T_PRIME"),
    "farey": (
        "ExtendedRational", "MINUS_INFINITY", "INFINITY", "ZERO", "level", "farey_sequence",
        "left_neighbor", "lns", "m_of_q", "is_minimal_partition",
    ),
    "formal": ("FormalSum", "h_tilde"),
    "congruence": (
        "gamma0_contains", "gamma0_index", "CosetTable", "coset_table", "coset_projection",
    ),
    "permutation": ("PermutationMatrix", "rho"),
    "bookkeeping": (
        "gen_xm", "in_xm", "xm_representative", "sigma", "HeckeCosetRecord", "phi", "gen_sm",
    ),
    "hecke": ("in_sm", "HeckeOperatorMatrix", "vector_hecke"),
    "numeric": (
        "slash_eval", "constant_lift", "cusp_solution", "three_term_residual", "transfer_residual",
        "r_zeta", "laplace_fd", "eta_line_integral", "apply_hecke_numeric", "hecke_image",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _plain_number(text, read=int):
    """read(text) for ASCII text without "_": int() and float() alone also
    read other Unicode digits and spaces, and "_" between digits.  Named
    int, so that argparse's errors for --n and --m read as for type=int."""
    if not text.isascii() or "_" in text:
        raise ValueError("not a plain number: %r" % (text,))
    return read(text)


_plain_number.__name__ = "int"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + home, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
