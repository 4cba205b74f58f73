"""The package's top-level names."""

import trifocal


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from trifocal import *", namespace)   # AttributeError on a name that does not resolve
    assert all(namespace[name] is getattr(trifocal, name) for name in trifocal.__all__)
