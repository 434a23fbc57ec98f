import types

import torsorcheck


def test_star_import_binds_no_module():
    namespace = {}
    exec("from torsorcheck import *", namespace)
    del namespace["__builtins__"]
    assert [n for n, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    assert sorted(namespace) == sorted(torsorcheck.__all__)


def test_all_lists_every_public_name_once():
    public = {n for n, v in vars(torsorcheck).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert len(torsorcheck.__all__) == len(set(torsorcheck.__all__))
    assert set(torsorcheck.__all__) == public
    assert all(hasattr(torsorcheck, name) for name in torsorcheck.__all__)


def test_submodules_still_import_by_name():
    from torsorcheck import connections, grids

    assert connections.CHERN_NORMALIZATION == torsorcheck.CHERN_NORMALIZATION
    assert grids.dbar_fd is torsorcheck.dbar_fd
