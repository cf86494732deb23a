"""The package's explicit export list."""

import types

import genera


def test_every_export_resolves_and_none_is_a_module():
    assert len(set(genera.__all__)) == len(genera.__all__)
    for name in genera.__all__:
        assert not isinstance(getattr(genera, name), types.ModuleType), name
    namespace = {}
    exec("from genera import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(genera.__all__)
