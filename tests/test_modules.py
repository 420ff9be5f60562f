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

# names that no command or benchmark job reads, and why they stay
UNREAD = {
    "coset.coset_enumerate": "Todd-Coxeter, the oracle for the coset tables",
    "congsub.pu_identity_congruent_count": "an acceptance row",
    "homology.o41_two_stage": "the two-stage Gamma(4) pipeline of criterion 8",
}


def _reads(tree):
    """(line, name, through_attribute) for each name that `tree` reads,
    bare or as an attribute."""
    out = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.append((sub.lineno, sub.id, False))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.append((sub.lineno, sub.attr, True))
    return out


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in cls.decorator_list)


def _self_attributes(cls):
    """(name, statement) for each public `self.name = ...` assignment in
    the methods of a class, the first one of each name."""
    out = {}
    for sub in ast.walk(cls):
        if isinstance(sub, (ast.Assign, ast.AnnAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for t in targets:
                if (isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                        and not t.attr.startswith("_")):
                    out.setdefault(t.attr, sub)
    return out.items()


def _definitions(module, tree):
    """(label, name, statement) for each name of `module` that must be
    read: its __all__ names, top-level functions, the public methods of
    its top-level classes, the fields of its dataclasses and the public
    `self.name = ...` attributes of its other classes.  The statement is
    the definition, or None.  A method's, a field's or an attribute's
    label has two dots."""
    exports, top = [], {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            if "__all__" in names:
                exports = ast.literal_eval(stmt.value)
            top.update((name, stmt) for name in names)
        elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            top[stmt.name] = stmt
    out = {"%s.%s" % (module, name): (name, top.get(name)) for name in exports}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            out["%s.%s" % (module, stmt.name)] = (stmt.name, stmt)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    out["%s.%s.%s" % (module, stmt.name, sub.name)] = (
                        sub.name, sub)
                elif (isinstance(sub, ast.AnnAssign) and _is_dataclass(stmt)
                        and isinstance(sub.target, ast.Name)):
                    out["%s.%s.%s" % (module, stmt.name, sub.target.id)] = (
                        sub.target.id, sub)
            if not _is_dataclass(stmt):
                for name, sub in _self_attributes(stmt):
                    out.setdefault("%s.%s.%s" % (module, stmt.name, name),
                                   (name, sub))
    return [(label, name, node) for label, (name, node) in out.items()]


def test_every_exported_name_is_read_by_the_program():
    # code that only tests reach is deleted: each __all__ name, top-level
    # function, public method, dataclass field and public attribute must
    # be read in the package or the benchmark, outside its own definition.
    # Names are matched, not resolved, so a method, a field or an
    # attribute counts as read when any `.name` is; a bare local of the
    # same name does not count.
    src = ROOT / "src" / "congtower"
    files = sorted(src.glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py")
        if not p.name.startswith("test_"))
    reads = {}          # name -> [(path, line, through_attribute)]
    checked = []        # (label, name, path, definition)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, name, attr in _reads(tree):
            reads.setdefault(name, []).append((path, line, attr))
        if path.parent == src:
            checked += [(label, name, path, node)
                        for label, name, node in _definitions(path.stem, tree)]
    labels = {label for label, _, _, _ in checked}
    assert {"congsub.SchemeSL", "bttree.bfs_explore",
            "presentations.Presentation.abelianization",
            "tower.TowerStep.move", "bttree.TreeGraph.edges",
            "errors.BudgetExceeded.estimate"} <= labels

    unread = {
        label for label, name, where, node in checked
        if all((node is not None and path == where
                and node.lineno <= line <= node.end_lineno)
               or (label.count(".") == 2 and not attr)
               for path, line, attr in reads.get(name, ()))}
    assert unread == set(UNREAD)


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
