import collections
import re
import subprocess
import sys
import types
from pathlib import Path

import periodhecke
from periodhecke import bookkeeping, congruence, exact_core, farey, formal, hecke, numeric, permutation, representatives

LIBRARY_MODULES = [exact_core, farey, formal, congruence, permutation, representatives, bookkeeping, hecke, numeric]


def public_package_names():
    # dir(), not vars(): the package binds a name only on its first access.
    return {
        name
        for name in dir(periodhecke)
        if not name.startswith("_") and not isinstance(getattr(periodhecke, name), types.ModuleType)
    }


def test_the_package_name_table_is_each_module_all_list():
    # Each module takes its __all__ from the table, so the table's names
    # are the package's public names.
    assert sorted(periodhecke.__all__) == sorted(public_package_names())


def test_every_name_in_the_table_is_defined_by_its_module():
    # Identity with the module's attribute cannot catch a name filed under
    # a module that only imports it, as hecke imports divisors.
    for module, names in periodhecke._EXPORTS.items():
        home = "periodhecke." + module
        for name in names:
            obj = getattr(periodhecke, name)
            assert getattr(obj, "__module__", None) == home, (module, name)


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


def test_a_star_import_binds_every_module_export():
    # In a fresh interpreter, where no module of the package is loaded yet.
    script = """
from periodhecke import *
from periodhecke import bookkeeping, congruence, exact_core, farey, formal, hecke, numeric, permutation, representatives
modules = [exact_core, farey, formal, congruence, permutation, representatives, bookkeeping, hecke, numeric]
missing = [n for m in modules for n in m.__all__ if globals().get(n) is not getattr(m, n)]
assert missing == [], missing
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_the_readme_library_example_runs():
    # The ```python blocks of README.md, run as written, so the documented
    # API cannot drift from the code.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
