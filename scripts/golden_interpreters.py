"""Run the golden CLI commands on every installed Python from 3.10 up.

    python3 scripts/golden_interpreters.py [--python PATH ...]

An opt-in check, like the benchmark: pyproject.toml declares
requires-python >= 3.10, and the byte-identical outputs must not depend
on the interpreter or on hash randomization.  The commands and their
sha256 digests are read from tests/test_golden.py, so the two cannot
drift apart: its GOLDEN commands are run with ``--format json``, its
EXPORTS commands (dot and text output) as written.  Each interpreter
runs every command through ``cli.main`` in one process, once with hash
randomization on and once under PYTHONHASHSEED=12345, with ``src`` on
its path; no test runner is needed.

Interpreters are the --python paths given, or else every pyenv version and
every python3.N on PATH, deduplicated by version; those older than 3.10
are skipped.  Prints one line per interpreter and run, and exits 1 if any
digest differs or any command fails.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FILE = ROOT / "tests" / "test_golden.py"
MIN_VERSION = (3, 10)
HASH_SEEDS = ("random", "12345")

# Run by each interpreter: argv[1] is the JSON list of full commands;
# prints {command: [exit code, sha256 of stdout]}.
RUNNER = """\
import contextlib, hashlib, io, json, sys
from congtower import cli
out = {}
for command in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(command.split())
    out[command] = [code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()]
print(json.dumps(out))
"""


def golden_digests(path=GOLDEN_FILE):
    """{full command: digest} from the GOLDEN and EXPORTS dicts of
    tests/test_golden.py, read without importing it."""
    found = {}
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        for t in getattr(stmt, "targets", ()):
            if isinstance(t, ast.Name) and t.id in ("GOLDEN", "EXPORTS"):
                found[t.id] = ast.literal_eval(stmt.value)
    if len(found) != 2:
        raise SystemExit("%s does not define both GOLDEN and EXPORTS" % path)
    return {**{cmd + " --format json": digest
               for cmd, digest in found["GOLDEN"].items()},
            **found["EXPORTS"]}


def _version(python):
    """(major, minor, micro) of an interpreter, or None if it does not run."""
    try:
        proc = subprocess.run(
            [python, "-c", "import sys; print(*sys.version_info[:3])"],
            capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    if proc.returncode:
        return None
    return tuple(int(x) for x in proc.stdout.split())


def discover():
    """Candidate interpreter paths: pyenv's versions, then python3.N on
    PATH."""
    out = []
    pyenv = shutil.which("pyenv")
    if pyenv:
        root = subprocess.run([pyenv, "root"], capture_output=True,
                              text=True).stdout.strip()
        versions = Path(root) / "versions"
        if versions.is_dir():
            out += [str(v / "bin" / "python") for v in sorted(versions.iterdir())
                    if (v / "bin" / "python").exists()]
    for minor in range(MIN_VERSION[1], 20):
        found = shutil.which("python3.%d" % minor)
        if found:
            out.append(found)
    return out


def interpreters(paths):
    """(version, path) for each distinct runnable interpreter of at least
    MIN_VERSION, in version order."""
    seen = {}
    for path in paths:
        version = _version(path)
        if version and version[:2] >= MIN_VERSION:
            seen.setdefault(version, path)
    return sorted(seen.items())


def run(python, commands, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                                          if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([python, "-c", RUNNER, json.dumps(commands)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        return None, proc.stderr.strip().splitlines()[-1:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python", action="append",
                        help="interpreter to run (repeatable); default: "
                             "every one found")
    args = parser.parse_args(argv)
    golden = golden_digests()
    found = interpreters(args.python or discover())
    if not found:
        print("no interpreter of Python %d.%d or later found" % MIN_VERSION)
        return 1
    ok = True
    for version, python in found:
        for seed in HASH_SEEDS:
            results, errors = run(python, list(golden), seed)
            label = "%s (%s) PYTHONHASHSEED=%s" % (
                ".".join(map(str, version)), python, seed)
            if results is None:
                print("%s: FAILED %s" % (label, " ".join(errors)))
                ok = False
                continue
            bad = [cmd for cmd, digest in golden.items()
                   if results.get(cmd) != [0, digest]]
            print("%s: %d/%d digests match%s" % (
                label, len(golden) - len(bad), len(golden),
                "".join("\n    differs: " + cmd for cmd in bad)))
            ok = ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
