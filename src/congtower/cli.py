"""Command line entry points.

Subcommands:

    homology          congruence-kernel abelianization table for a field
    check-identities  run the exact identity suite
    tree              explore a tree model and export it
    tower             build a certified congruence tower and report
    lemma22           verify the congruence-quotient p-group lemma by
                      enumeration at small levels

Exit codes: 0 success, 1 check failure, 2 budget exceeded, 3 input error
(a usage error included).
Every subcommand is deterministic given its flags and inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetExceeded, CheckFailed, CongtowerError, InputError
from . import bttree, congsub, homology, identities, tower
from .rings import make_ring, factor_rational_prime

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3


def _write_output(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_homology(args):
    rows, skipped = homology.homology_table(
        args.field, args.norm_max, pres_file=args.presentation,
        matrices_file=args.matrices, budget=args.budget,
        index_cap=args.index_cap)
    if args.format == "json":
        payload = {
            "field": args.field,
            "rows": [r.as_dict() for r in rows],
            "skipped": skipped,
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = ["Norm(p)  rank  torsion"]
        for r in rows:
            d = r.as_dict()
            lines.append("%7d  %4d  %s" % (d["norm"], d["rank"], d["torsion"]))
        for s in skipped:
            lines.append("%7d  skipped: %s" % (s["norm"], s["reason"]))
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_check_identities(args):
    ok, results = identities.run_identity_suite()
    if args.format == "json":
        payload = {
            "checks": [{"name": n, "pass": p} for n, p in results],
            "all_pass": ok,
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = []
        for name, passed in results:
            lines.append("%-55s %s" % (name, "pass" if passed else "FAIL"))
        lines.append("all checks pass" if ok else "SOME CHECKS FAILED")
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_MODEL_FACTORIES = {
    "pgl2": lambda args: bttree.pgl2_model(
        *(factor_and_ring(args.p) if args.p is not None else (None, None))),
    "oq": lambda args: bttree.oq_model(),
    "su": lambda args: bttree.su_model(),
}


def factor_and_ring(p):
    ring = make_ring(7)
    primes = factor_rational_prime(ring, p)
    for prime in primes:
        if prime.f == 1:
            return ring, prime
    return ring, primes[0]


def cmd_tree(args):
    if args.model not in _MODEL_FACTORIES:
        raise InputError("unknown tree model %r (have pgl2, oq, su)" % args.model)
    if args.p is not None and args.model != "pgl2":
        raise InputError("--p applies to the pgl2 model only, not %s" % args.model)
    model = _MODEL_FACTORIES[args.model](args)
    graph = bttree.bfs_explore(model, args.radius, budget=args.budget)
    if not graph.is_tree():
        raise CheckFailed("explored graph is not a tree")
    if args.format == "dot":
        _write_output(graph.to_dot(), args.output)
    elif args.format == "json":
        _write_output(json.dumps(graph.to_json(), indent=2) + "\n", args.output)
    else:
        counts = {}
        for t in graph.types:
            counts[t] = counts.get(t, 0) + 1
        lines = [
            "model: %s" % graph.model_name,
            "radius: %d" % args.radius,
            "vertices: %d  (%s)" % (
                len(graph.vertices),
                ", ".join("%s: %d" % kv for kv in sorted(counts.items()))),
            "edges: %d" % len(graph.edges),
            "valences: %s" % (model.valences(),),
            "acyclic: %s" % graph.is_tree(),
        ]
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_tower(args):
    data = tower.build_tower(args.example, args.steps)
    report = tower.tower_report(data, recheck_points=args.recheck_points)
    if args.format == "json":
        _write_output(json.dumps(report, indent=2) + "\n", args.output)
    else:
        lines = [
            "example: %s   (p = %d, Gamma = level p^%d)" % (
                report["example"], report["p"], report["level_j"]),
            "hypothesis: %s abelianization %s, no %d-torsion: %s" % (
                report["hypothesis"]["mode"],
                report["hypothesis"]["abelianization"],
                report["p"], report["hypothesis"]["no_p_torsion"]),
            "steps: %d certified at levels (a=%d, b=%d)" % (
                len(report["steps"]) - 1,
                report["certificate_levels"]["a"],
                report["certificate_levels"]["b"]),
            "cofinality radius (proxy): %d" % report["cofinality_radius"],
            "verdict: %s" % report["verdict"],
        ]
        for f in report["failures"]:
            lines.append("failure at step %s: %s" % (f["step"], f["reason"]))
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report["verdict"] == "PASS" else EXIT_CHECK_FAILED


_PRIME_ALIASES = {
    "1+i": ("d=1", 2),
    "zeta5-1": ("cyclotomic-5", 5),
}


def cmd_lemma22(args):
    if args.prime in _PRIME_ALIASES:
        field, p = _PRIME_ALIASES[args.prime]
        if args.field is not None and make_ring(args.field) != make_ring(field):
            raise InputError("--prime %s lies in %s, not in --field %s"
                             % (args.prime, field, args.field))
    else:
        field = "d=1" if args.field is None else args.field
        try:
            p = int(args.prime)
        except ValueError:
            raise InputError("--prime %r is neither an integer nor one of %s"
                             % (args.prime, ", ".join(_PRIME_ALIASES))) from None
    ring = make_ring(field)
    primes = factor_rational_prime(ring, p)
    if not 0 <= args.prime_index < len(primes):
        raise InputError("--prime-index %d is out of range: %d has %d prime(s) "
                         "above it" % (args.prime_index, p, len(primes)))
    prime = primes[args.prime_index]
    report = congsub.congruence_quotient_check(
        congsub.SchemeSL(2), prime, args.j, args.k, budget=args.budget)
    # the verdict asks only what the lemma claims: abelian for k <= 2j,
    # elementary abelian for k = j + 1; the exponent, and everything past
    # 2j, are reported as data
    ok = report["abelian"] if args.k <= 2 * args.j else True
    if args.k == args.j + 1:
        ok = ok and report["elementary_abelian"]
    if args.format == "json":
        payload = dict(report)
        payload["pass"] = ok
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [
            "scheme %s at norm-%d prime, j=%d, k=%d" % (
                report["scheme"], report["norm"], args.j, args.k),
            "kernel order: %d   exponent: %d" % (report["order"], report["exponent"]),
            "abelian: %s   elementary abelian: %s" % (
                report["abelian"], report["elementary_abelian"]),
            "verdict: %s" % ("PASS" if ok else "FAIL"),
        ]
        _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with EXIT_INPUT, since argparse's own code 2
    means a budget was exceeded here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


def _int_at_least(minimum):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "must be at least %d, got %d" % (minimum, value))
        return value
    parse.__name__ = "int"      # argparse names the type in its messages
    return parse


_count = _int_at_least(0)
_budget = _int_at_least(1)

# Output formats per subcommand; the rest write text or json.
_FORMATS = {"tree": ("text", "json", "dot")}


def build_parser():
    parser = _Parser(
        prog="congtower",
        description="exact computation with congruence subgroups of rank-1 "
                    "arithmetic lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="congruence-kernel homology table")
    p.add_argument("--field", type=int, default=1,
                   help="imaginary quadratic field d (1, 2, 3, 7, 11)")
    p.add_argument("--norm-max", type=_count, default=13)
    p.add_argument("--presentation", help="presentation file override")
    p.add_argument("--matrices",
                   help="SL2 generator matrices file (JSON, 2x2 matrices by "
                        "generator name)")
    p.add_argument("--budget", type=_budget, default=10 ** 7)
    p.add_argument("--index-cap", type=_count, default=50_000)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("check-identities", help="run the exact identity suite")
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser("tree", help="explore a Bruhat-Tits tree model")
    p.add_argument("model", choices=sorted(_MODEL_FACTORIES))
    p.add_argument("--radius", type=_count, default=2)
    p.add_argument("--p", type=int, default=None,
                   help="rational prime for the pgl2 model (default: 2)")
    p.add_argument("--budget", type=_budget, default=100_000)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("tower", help="build a certified congruence tower")
    p.add_argument("example", choices=sorted(tower.TOWER_EXAMPLES))
    p.add_argument("--steps", type=_count, default=5)
    p.add_argument("--recheck-points", type=_count, default=100)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("lemma22", help="SL2 congruence quotient p-group checks")
    p.add_argument("--field",
                   help="ring of integers (default: d=1, or the ring of a "
                        "--prime alias)")
    p.add_argument("--prime", default="1+i",
                   help="rational prime, or an alias like 1+i / zeta5-1")
    p.add_argument("--prime-index", type=int, default=0)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=_budget, default=10 ** 7)
    p.set_defaults(func=cmd_lemma22)

    for name, sp in sub.choices.items():
        sp.add_argument("--format", default="text",
                        choices=_FORMATS.get(name, ("text", "json")))
        sp.add_argument("--output", help="write output to a file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        counts = ", ".join("%s %d" % (name, n) for name, n in (
            ("estimate", exc.estimate), ("budget", exc.budget)) if n is not None)
        print("budget exceeded: %s%s" % (exc, counts and " (%s)" % counts),
              file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        if exc.filename is None:
            raise
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except CheckFailed as exc:
        print("check failed: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except CongtowerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
