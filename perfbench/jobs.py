"""The benchmark's workloads.

A job calls the public entry function that the matching ``congtower``
subcommand calls, with that subcommand's defaults, and reduces the answer
to a small summary of its mathematical result.  Each job carries the
summary it must produce.  Expected values come, where possible, from a
source independent of the code under test:

- published homology rows (the rows the acceptance tests reproduce);
- the image order |SL2(F_q)| = q (q^2 - 1);
- the kernel order N(p)^(3 (k - j)) and exponent p of a congruence quotient;
- tree ball sizes from the closed form for (3), (5,3) and (6,6) valences;
- tower verdicts, step counts and cofinality radii.

Values without an independent source are pinned to the output of the
commit the benchmark was written at, and labelled ``PINNED``.  Only
mathematical results are pinned, never report text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from congtower import bttree, congsub, homology, identities, tower
from congtower.rings import factor_rational_prime, make_ring


@dataclass
class Job:
    name: str
    run: Callable[[], object]   # returns a JSON-able summary of the result
    expected: object            # the summary the job must return


# -- homology ---------------------------------------------------------------

# (d, norm) -> (rank, torsion).  Published table rows.
PUBLISHED_ROWS = {
    (1, 2): (0, "2^5"), (1, 5): (6, "1"), (1, 9): (20, "1"),
    (2, 2): (3, "2^2"), (3, 3): (0, "3^3"), (7, 2): (3, "2"),
    (11, 4): (15, "2^2"),
}
# PINNED: rows with no published value, as computed at the benchmark's
# first commit.
PINNED_ROWS = {
    (2, 3): (4, "1"), (3, 4): (5, "2"), (7, 7): (24, "1"), (7, 9): (40, "3"),
    (11, 3): (4, "1"),
}
HOMOLOGY_FIELDS = ((1, 9), (2, 3), (3, 4), (7, 9), (11, 4))


def sl2_order(q):
    return q * (q * q - 1)


def homology_job(d, norm_max):
    """`congtower homology --field d --norm-max norm_max`."""
    rows = {**PUBLISHED_ROWS, **PINNED_ROWS}

    def run():
        table, skipped = homology.homology_table(d, norm_max)
        return {"rows": [r.as_dict() for r in table], "skipped": skipped}

    expected = {
        "rows": [{"norm": q, "index": sl2_order(q), "rank": rank, "torsion": tor}
                 for (dd, q), (rank, tor) in sorted(rows.items())
                 if dd == d and q <= norm_max],
        "skipped": [],
    }
    return Job("homology d=%d norm<=%d" % (d, norm_max), run, expected)


# -- checks -------------------------------------------------------------------

# PINNED: the number of checks in the identity suite.
IDENTITY_CHECK_COUNT = 10


def identity_job():
    """`congtower check-identities`."""
    def run():
        ok, results = identities.run_identity_suite()
        return {"all_pass": ok, "checks": len(results)}

    return Job("check-identities", run,
               {"all_pass": True, "checks": IDENTITY_CHECK_COUNT})


def quotient_job(field, p, j, k):
    """`congtower lemma22 SL2 --prime <p> --j j --k k`: the kernel of
    SL2(O/p^k) -> SL2(O/p^j) has order N(p)^(3 (k - j)) and exponent p,
    and is abelian for k <= 2j."""
    def run():
        prime = factor_rational_prime(make_ring(field), p)[0]
        rep = congsub.congruence_quotient_check(congsub.SchemeSL(2), prime, j, k)
        return {key: rep[key] for key in
                ("norm", "order", "exponent", "abelian", "elementary_abelian")}

    norm = p  # both primes used here have residue degree 1
    return Job("lemma22 %s p=%d j=%d k=%d" % (field, p, j, k), run, {
        "norm": norm, "order": norm ** (3 * (k - j)), "exponent": p,
        "abelian": True, "elementary_abelian": True})


def tree_ball(cycle, radius):
    """Vertex counts by type of a radius ball in a tree whose types
    alternate along every geodesic from the base as in ``cycle``, a list
    of (type, valence)."""
    counts = {}
    layer = 1
    for r in range(radius + 1):
        vtype, valence = cycle[r % len(cycle)]
        counts[vtype] = counts.get(vtype, 0) + layer
        layer *= valence if r == 0 else valence - 1
    return counts


# model -> (factory, valence cycle).  The factories look the model up at
# call time, so that a traced run sees the wrapped function.
TREE_MODELS = {
    "pgl2": (lambda: bttree.pgl2_model(), [("v", 3)]),
    "oq": (lambda: bttree.oq_model(), [("x0", 5), ("xhalf", 3)]),
    "su": (lambda: bttree.su_model(), [("v0", 6), ("mid", 6)]),
}


def tree_job(model_name, radius):
    """`congtower tree <model> --radius radius`."""
    def run():
        model = factory()
        graph = bttree.bfs_explore(model, radius)
        types = {}
        for t in graph.types:
            types[t] = types.get(t, 0) + 1
        return {"valences": model.valences(), "types": types,
                "edges": len(graph.edges), "is_tree": graph.is_tree()}

    factory, cycle = TREE_MODELS[model_name]
    types = tree_ball(cycle, radius)
    return Job("tree %s radius %d" % (model_name, radius), run, {
        "valences": dict(cycle), "types": types,
        "edges": sum(types.values()) - 1, "is_tree": True})


# -- towers ---------------------------------------------------------------------

# example -> (steps, cofinality radius)
TOWER_RUNS = {"magic": (10, 2), "o41": (3, 0), "pu21": (3, 0)}


def tower_job(example, steps, radius, rng_seed):
    """`congtower tower <example> --steps steps`, with the recheck points
    drawn from ``rng_seed``."""
    def run():
        data = tower.build_tower(example, steps)
        rep = tower.tower_report(data, recheck_points=100, rng_seed=rng_seed)
        return {"verdict": rep["verdict"], "steps": len(rep["steps"]) - 1,
                "reverified": all(s["reverified"] for s in rep["steps"][1:]),
                "cofinality_radius": rep["cofinality_radius"]}

    return Job("tower %s steps %d" % (example, steps), run, {
        "verdict": "PASS", "steps": steps, "reverified": True,
        "cofinality_radius": radius})


# -- workloads ------------------------------------------------------------------

def homology_workload(seed):
    return [homology_job(d, n) for d, n in HOMOLOGY_FIELDS]


def checks_workload(seed):
    return [
        identity_job(),
        quotient_job("d=1", 2, 2, 4),
        quotient_job("cyclotomic-5", 5, 1, 2),
        tree_job("pgl2", 8),
        tree_job("oq", 4),
        tree_job("su", 3),
    ]


def towers_workload(seed):
    return [tower_job(ex, steps, radius, seed)
            for ex, (steps, radius) in TOWER_RUNS.items()]


# Workload name -> job list from the seed.  Only `towers` uses the seed: it
# chooses the recheck points.  The other two are fully deterministic.
WORKLOADS = {
    "homology": homology_workload,
    "checks": checks_workload,
    "towers": towers_workload,
}
