"""Exact Hecke operator matrices on vector-valued period functions for the
congruence subgroups Gamma0(n), plus the numeric checks that verify them.

The package namespace is the table `_EXPORTS` below, the only list of
the public names: each of the five library modules sets its `__all__`
from its own entry.  It is resolved lazily (PEP 562): importing the
package or one of its submodules loads nothing else, and a public name
loads its home module on first access and is then cached here.  So a CLI
run that never touches the numeric layer never compiles it.  Every number
on the command line is read by `_plain_number` below, which loads no layer.
"""

import importlib

__version__ = "0.1.0"

# The public names of each library module, in order; the module's `__all__` is its entry.
_EXPORTS = {
    "exact_core": (
        "ExtendedRational", "IntMatrix2", "FormalSum", "xgcd", "divisors", "h_tilde",
        "MINUS_INFINITY", "INFINITY", "ZERO", "I", "T", "S", "T_PRIME",
    ),
    "farey": (
        "level", "farey_sequence", "left_neighbor", "lns", "m_of_q", "is_minimal_partition",
    ),
    "congruence": (
        "gamma0_contains", "gamma0_index", "CosetTable", "coset_table", "PermutationMatrix", "rho",
        "coset_projection",
    ),
    "hecke": (
        "gen_xm", "in_xm", "xm_representative", "sigma", "HeckeCosetRecord", "phi", "gen_sm",
        "in_sm", "HeckeOperatorMatrix", "vector_hecke",
    ),
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
