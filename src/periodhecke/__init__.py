"""Exact Hecke operator matrices on vector-valued period functions for the
congruence subgroups Gamma0(n), plus the numeric checks that verify them.
"""

from .exact_core import *
from .farey import *
from .congruence import *
from .hecke import *
from .numeric import *

__version__ = "0.1.0"
