import types

import periodhecke
from periodhecke import congruence, exact_core, farey, hecke, numeric

LIBRARY_MODULES = [exact_core, farey, congruence, hecke, numeric]


def test_every_module_export_is_a_package_attribute():
    for module in LIBRARY_MODULES:
        missing = [name for name in module.__all__ if not hasattr(periodhecke, name)]
        assert missing == [], module.__name__


def test_every_public_package_name_is_a_module_export():
    exported = {name for module in LIBRARY_MODULES for name in module.__all__}
    public = {
        name
        for name, value in vars(periodhecke).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - exported == set()
