import ast
import importlib
import json
import os
import pkgutil
import re
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
    the methods of a class, tuple targets unpacked, the first one of each
    name."""
    out = {}
    for sub in ast.walk(cls):
        if isinstance(sub, (ast.Assign, ast.AnnAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            targets = [e for t in targets
                       for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
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


# What no command input enters, and why it stays; dunder methods are not
# counted either.  An entry covers the functions nested in it.
UNENTERED = {
    "coset.coset_enumerate": "Todd-Coxeter, the oracle for the coset tables",
    "coset._Enumerator": "Todd-Coxeter's enumerator",
    "coset._letters": "Todd-Coxeter's letter indices",
    "coset.CosetTable.validate": "checks the Todd-Coxeter tables only",
    "coset.CosetTable.trace": "read by validate only",
    "homology.o41_two_stage": "the two-stage Gamma(4) pipeline of criterion 8",
    "homology.coxeter_presentation": "criterion 8's pipeline",
    "presentations.tietze_simplify": "criterion 8's pipeline",
    "presentations._normalize": "a helper of tietze_simplify",
    "presentations._canonical_cyclic": "a helper of tietze_simplify",
    "presentations.cyclic_reduce": "a helper of tietze_simplify",
    "congsub.pu_identity_congruent_count": "criterion 3, an acceptance row",
}

# Run in a fresh process with the profiler on before congtower is imported,
# so that what runs at import counts: the benchmark's jobs, one command per
# subcommand and output format, and budget and input errors.  Prints the
# (file, first line) of every code object entered.
REACH_CODE = """\
import contextlib, importlib.util, io, json, os, sys
root, tmp = sys.argv[1:]
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call"
               and entered.add(frame.f_code))
from congtower import cli
spec = importlib.util.spec_from_file_location(
    "perfbench_jobs", os.path.join(root, "perfbench", "jobs.py"))
jobs = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = jobs
spec.loader.exec_module(jobs)
for make in jobs.WORKLOADS.values():
    for job in make(1):
        assert job.run() == job.expected, job.name

def path(name, text):
    out = os.path.join(tmp, name)
    with open(out, "w") as fh:
        fh.write(text)
    return out

d1 = {"ring": "d=1", "matrices": {"a": [[1, 1], [0, 1]], "b": [[0, -1], [1, 0]],
                                  "u": [[1, [0, 1]], [0, 1]]}}
good = path("good.json", json.dumps(d1))
d1["matrices"]["a"][0][1] = "abc"
bad = path("bad.json", json.dumps(d1))
pres = path("bad.pres", "# provenance: test\\ngens a; rels a^2; b")
runs = [
    (0, "homology --norm-max 5"),
    (0, "homology --norm-max 2 --format json --output " + path("out", "")),
    (0, "homology --norm-max 2 --matrices " + good),
    (0, "check-identities"), (0, "check-identities --format json"),
    (0, "tree pgl2 --p 3 --radius 1"), (0, "tree oq --radius 1 --format json"),
    (0, "tree su --radius 1 --format dot"),
    (0, "tower magic --steps 2"), (0, "tower pu21 --steps 1 --format json"),
    (0, "lemma22 --j 1 --k 2"), (0, "lemma22 --j 1 --k 2 --format json"),
    (0, "lemma22 --field cyclotomic-5 --prime 3 --j 1 --k 1"),
    (2, "lemma22 --j 23 --k 24"), (2, "tree pgl2 --radius 3 --budget 5"),
    (3, "tower magic --steps abc"), (3, "homology --field 6"),
    (3, "homology --norm-max 2 --matrices " + bad),
    (3, "homology --norm-max 2 --presentation " + pres),
    (3, "lemma22 --prime x --j 1 --k 2"),
    (3, "lemma22 --j 1 --k 2 --prime-index 9"),
    (3, "tree oq --p 3"), (3, "tree pgl2 --p 4"),
]
for code, argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            got = cli.main(argv.split())
        except SystemExit as exc:
            got = exc.code
    assert got == code, (argv, got)
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered})))
"""


def _functions(path):
    """label -> first line (the first decorator's or the def's) of every
    function of a module, nested ones and methods included."""
    out = {}

    def walk(node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.FunctionDef):
                out[prefix + sub.name] = min(
                    [sub.lineno] + [d.lineno for d in sub.decorator_list])
            if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                walk(sub, prefix + sub.name + ".")
            else:
                walk(sub, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), path.stem + ".")
    return out


def _covers(entry, label):
    return label == entry or label.startswith(entry + ".")


def test_every_function_is_entered_by_a_command(tmp_path):
    # reachability by execution: a function read only by code that never
    # runs, or by tests, is dead even when its name is read
    src = ROOT / "src" / "congtower"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src.parent)] + ([os.environ["PYTHONPATH"]]
                             if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, "-c", REACH_CODE, str(ROOT), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(f).resolve()), line)
               for f, line in json.loads(proc.stdout)}
    labels = {}
    for path in sorted(src.glob("*.py")):
        for label, line in _functions(path).items():
            labels[label] = (str(path.resolve()), line) in entered
    assert {"rings.ResidueRing.mul", "tower._Conjugation.at_least",
            "rings._single_generator_search.first_generator"} <= set(labels)
    missed = sorted(
        label for label, hit in labels.items()
        if not (hit or re.search(r"\.__\w+__$", label)
                or any(_covers(entry, label) for entry in UNENTERED)))
    assert missed == []
    # each exemption names functions, and none that a command enters
    for entry in UNENTERED:
        covered = [hit for label, hit in labels.items() if _covers(entry, label)]
        assert covered and not any(covered), entry


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


# math functions whose results are floating point
_FLOAT_MATH = {"sqrt", "pow", "log", "exp"}


def test_no_floating_point_in_the_source():
    # the math is exact: no float or complex literal, no float() call and
    # no float-valued math function in any module of the package
    found = []
    for path in sorted(Path(congtower.__file__).resolve().parent.glob("*.py")):
        for sub in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(sub, ast.Constant)
                    and isinstance(sub.value, (float, complex))):
                found.append((path.name, sub.lineno, repr(sub.value)))
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id == "float"):
                found.append((path.name, sub.lineno, "float()"))
            elif (isinstance(sub, ast.Attribute) and sub.attr in _FLOAT_MATH
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "math"):
                found.append((path.name, sub.lineno, "math." + sub.attr))
    assert found == []
