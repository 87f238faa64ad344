"""The package namespace: lazy exports that resolve to their home modules."""

from __future__ import annotations

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
