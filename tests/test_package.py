"""The package namespace: lazy exports that resolve to their home modules."""

from __future__ import annotations

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import consched


def test_every_export_is_its_home_modules_object():
    for name in consched.__all__:
        if name == "__version__":
            continue
        value = getattr(consched, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("consched."), name
        assert getattr(home, name) is value, name


def test_dir_lists_every_export():
    assert set(consched.__all__) <= set(dir(consched))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from consched import *", namespace)
    assert set(consched.__all__) <= set(namespace)
    assert namespace["solve"] is sys.modules["consched.rules"].solve


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        consched.nope  # noqa: B018
    assert not hasattr(consched, "available_backends")


@pytest.mark.parametrize("module", sorted(consched._EXPORTS))
def test_module_all_equals_its_export_row(module):
    home = importlib.import_module(f"consched.{module}")
    assert sorted(home.__all__) == sorted(consched._EXPORTS[module])
    assert len(set(home.__all__)) == len(home.__all__)


def unused_imports(source: str) -> list[str]:
    """Names a module imports, ``__future__`` aside, but never refers to."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for name in ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        if name not in used
    ]


@pytest.mark.parametrize("name", sorted(
    path.name for path in Path(consched.__file__).parent.glob("*.py") if path.name != "__init__.py"
))
def test_module_uses_every_name_it_imports(name):
    source = (Path(consched.__file__).parent / name).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_unused_imports_finds_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\n"
        "from .criteria import _task_histogram, interval_arrays\n"
        "def f(x: np.ndarray):\n    return os.path.join(interval_arrays(x))\n"
    )
    assert unused_imports(source) == ["_task_histogram"]


def unused_private_names(sources: list[str]) -> list[str]:
    """Module-level ``_name`` functions, classes and assignments no module refers to.

    A reference is a loaded name, an attribute or a ``from`` import, in any
    of ``sources``; dunder names are not private.
    """
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [t.id for target in targets for t in ast.walk(target)
                            if isinstance(t, ast.Name)]
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in used]


def test_package_uses_every_private_name_it_defines():
    package = Path(consched.__file__).parent
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    assert unused_private_names(sources) == []


def test_unused_private_names_finds_a_leftover():
    sources = [
        "import numpy as np\n_LIMIT, _SPARE = 3, 4\n__all__ = ['f']\n"
        "def _helper(x):\n    return x\nclass _Gone:\n    pass\n"
        "def f(x):\n    return _helper(x) + _LIMIT\n",
        "from .a import _shared\nfrom . import b\n_table: dict = {}\nb._attr_use()\n",
        "def _shared():\n    pass\ndef _attr_use():\n    pass\n",
    ]
    assert unused_private_names(sources) == ["_SPARE", "_Gone", "_table"]


def object_dtypes(source: str) -> list[int]:
    """Lines that build an object-dtype array: ``dtype=object`` or ``.astype(object)``."""
    def is_object(node):
        return (isinstance(node, ast.Name) and node.id == "object"
                or isinstance(node, ast.Attribute) and node.attr == "object_"
                or isinstance(node, ast.Constant) and node.value in ("O", "object"))

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (any(kw.arg == "dtype" and is_object(kw.value) for kw in node.keywords)
             or isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
             and node.args and is_object(node.args[0]))
    ]


@pytest.mark.parametrize("name", sorted(
    path.name for path in Path(consched.__file__).parent.glob("*.py")
))
def test_module_builds_no_object_array(name):
    # Costs are int64 throughout; an object array would be a second arithmetic.
    source = (Path(consched.__file__).parent / name).read_text(encoding="utf-8")
    assert object_dtypes(source) == []


def test_object_dtypes_finds_each_spelling():
    source = (
        "import numpy as np\n"
        "a = np.zeros(3, dtype=object)\nb = a.astype(object)\n"
        "c = np.empty(2, dtype=np.object_)\nd = a.astype('O')\n"
        "e = a.astype(np.int64)\nf = np.zeros(3, dtype=bool)\ng = object.__new__(int)\n"
    )
    assert object_dtypes(source) == [2, 3, 4, 5]


def raised_templates(source: str) -> list[str]:
    """The message of every ``raise X("...")``, each f-string field read as ``{}``."""
    templates = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
            continue
        first = node.exc.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            templates.append(first.value)
        elif isinstance(first, ast.JoinedStr):
            templates.append("".join(part.value if isinstance(part, ast.Constant) else "{}"
                                     for part in first.values))
    return templates


# Messages raised at more than one site, each with the reason it cannot have one.
REPEATED_MESSAGES = {
    "number has too many digits": "model._ints reads digit strings, while "
    "_lines._check_order_line reads any int() token and must tell too long from not an integer",
}


def test_each_error_message_is_raised_from_one_site():
    package = Path(consched.__file__).parent
    counts = Counter(template for path in sorted(package.glob("*.py"))
                     for template in raised_templates(path.read_text(encoding="utf-8")))
    assert {template for template, k in counts.items() if k > 1} == set(REPEATED_MESSAGES)


def test_raised_templates_reads_each_field_as_braces():
    source = (
        "def f(n, w):\n"
        "    if n:\n        raise ValueError(f'windows cover {w.n} tasks, profile has {n}')\n"
        "    raise KeyError('empty', 3)\n"
        "    raise ValueError(message)\n"
        "    raise\n"
    )
    assert sorted(raised_templates(source)) == ["empty", "windows cover {} tasks, profile has {}"]
