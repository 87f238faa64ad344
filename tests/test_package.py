"""The package namespace: lazy exports that resolve to their home modules."""

from __future__ import annotations

import importlib
import sys

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
