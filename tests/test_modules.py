import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# what a `congtower` process does before its first job
SETUP_CODE = """\
import os, sys
from congtower import catalog, cli, homology
pres_dir = os.path.join(homology.data_dir(), "presentations")
for name in sorted(os.listdir(pres_dir)):
    homology.bundled_presentation(name)
catalog.o41_reflections()
print("numpy" in sys.modules)
"""


def test_setup_does_not_import_numpy():
    # numpy is a test and benchmark dependency only; importing it would
    # add to every process's start-up time
    src = str(Path(congtower.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
