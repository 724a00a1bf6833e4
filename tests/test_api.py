"""The package's public names."""

import ccdig


def test_every_exported_name_resolves():
    for name in ccdig.__all__:
        getattr(ccdig, name)
    namespace = {}
    exec("from ccdig import *", namespace)
    assert set(ccdig.__all__) <= set(namespace)
