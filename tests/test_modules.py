import ast
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


ROOT = Path(__file__).resolve().parent.parent

# exported names that no command or benchmark job reads, and why they stay
UNREAD_EXPORTS = {
    "coset.coset_enumerate": "Todd-Coxeter, the oracle for the coset tables",
    "congsub.pu_identity_congruent_count": "an acceptance row",
    "homology.o41_two_stage": "the two-stage Gamma(4) pipeline of criterion 8",
}


def _names_read(node):
    """Names that `node` reads, bare or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _names_defined(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def test_every_exported_name_is_read_by_the_program():
    # code that only tests reach is deleted: each name in an __all__ must be
    # read in the package or the benchmark, outside its own definition
    src = ROOT / "src" / "congtower"
    files = sorted(src.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py")
        if not p.name.startswith("test_"))
    exports = {}
    statements = []     # (module or None, names defined, names read)
    for path in files:
        module = path.stem if path.parent == src else None
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = _names_defined(stmt)
            if "__all__" in defined:
                exports[module] = ast.literal_eval(stmt.value)
            else:
                statements.append((module, defined, _names_read(stmt)))
    assert "congsub" in exports and "bttree" in exports
    unread = {
        "%s.%s" % (module, name)
        for module, names in exports.items() for name in names
        if not any(name in read and not (m == module and name in defined)
                   for m, defined, read in statements)}
    assert unread == set(UNREAD_EXPORTS)


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
