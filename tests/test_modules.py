import importlib
import pkgutil

import congtower


def test_every_exported_name_resolves():
    # a deleted helper must not stay listed in its module's __all__
    modules = [importlib.import_module("congtower." + info.name)
               for info in pkgutil.iter_modules(congtower.__path__)]
    assert any(hasattr(m, "__all__") for m in modules)
    missing = ["%s.%s" % (m.__name__, name) for m in modules
               for name in getattr(m, "__all__", ())
               if not hasattr(m, name)]
    assert missing == []
