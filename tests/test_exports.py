import collections
import types

import periodhecke
from periodhecke import congruence, exact_core, farey, hecke, numeric

LIBRARY_MODULES = [exact_core, farey, congruence, hecke, numeric]


def public_package_names():
    return {
        name
        for name, value in vars(periodhecke).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_module_export_is_a_package_attribute():
    for module in LIBRARY_MODULES:
        missing = [name for name in module.__all__ if not hasattr(periodhecke, name)]
        assert missing == [], module.__name__


def test_every_public_package_name_is_a_module_export():
    exported = {name for module in LIBRARY_MODULES for name in module.__all__}
    assert public_package_names() - exported == set()


def test_no_name_is_exported_by_two_modules():
    # The package star-imports each module in turn, so a name in two
    # __all__ lists would silently take the later module's object.
    counts = collections.Counter(name for module in LIBRARY_MODULES for name in module.__all__)
    assert [name for name, count in counts.items() if count > 1] == []


def test_every_package_attribute_is_the_object_its_module_defines():
    home = {name: module for module in LIBRARY_MODULES for name in module.__all__}
    for name in public_package_names():
        assert getattr(periodhecke, name) is getattr(home[name], name), name
