"""The package's public names: ``__all__`` is exactly what ``import *`` gives."""

import zetabounds


def test_all_names_resolve_once():
    names = zetabounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(zetabounds, name), name


def test_star_import_runs():
    namespace: dict = {}
    exec("from zetabounds import *", namespace)
    assert set(zetabounds.__all__) <= set(namespace)
