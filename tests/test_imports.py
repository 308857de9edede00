"""Every name a library module imports is used in that module.

``__init__.py`` is exempt: its imports are the package's public names.
"""

import ast
import os

import pytest

import slopekit

PACKAGE = os.path.dirname(slopekit.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds the name a
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_found():
    source = ("import os\nimport numpy as np\nfrom math import inf, nan\n"
              "print(np.zeros(1), inf)\n")
    assert unused_imports(source) == [(1, "os"), (3, "nan")]
