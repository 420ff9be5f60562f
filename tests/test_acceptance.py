"""Acceptance checks, one per published criterion.

Each test prints a single PASS line on success (pytest -s shows them);
failures are plain assertion failures.  Every criterion runs by default,
the two-stage Gamma(4) pipeline of criterion 8 included.
"""

import dataclasses
import json
import time

import pytest

from congtower import (bttree, catalog, cli, congsub, homology, identities,
                       ringmat, tower)
from congtower.rings import factor_rational_prime, make_ring


def _line(name, detail=""):
    print("ACCEPT %-38s PASS %s" % (name, detail))


# -- 1. published table reproduction for Q(sqrt(-1)) -------------------------

EXPECTED_D1 = {2: (0, "2^5"), 5: (6, "1"), 9: (20, "1"), 13: (42, "1")}


def test_criterion_1_gaussian_rows():
    t0 = time.time()
    rows, skipped = homology.homology_table(1, 13)
    assert not skipped
    got = {r.norm: (r.invariants.free_rank, r.invariants.torsion_factorization())
           for r in rows}
    assert got == EXPECTED_D1
    _line("1 Gaussian homology rows", "norms 2,5,9,13 exact (%.0fs)" % (time.time() - t0))


# -- 2. ingested presentations for d in {2,3,7,11} --------------------------

EXPECTED_OTHER = {
    2: (2, (3, "2^2")),
    3: (3, (0, "3^3")),
    7: (2, (3, "2")),
    11: (4, (15, "2^2")),
}


@pytest.mark.parametrize("d", sorted(EXPECTED_OTHER))
def test_criterion_2_other_fields(d):
    norm, (rank, torsion) = EXPECTED_OTHER[d]
    rows, _ = homology.homology_table(d, norm)
    got = {r.norm: (r.invariants.free_rank, r.invariants.torsion_factorization())
           for r in rows}
    assert got[norm] == (rank, torsion)
    _line("2 ingested field d=%d" % d, "norm %d row exact" % norm)


# -- 3. the 5^5 residue count ------------------------------------------------

def test_criterion_3_residue_count():
    t0 = time.time()
    out = congsub.pu_identity_congruent_count()
    dt = time.time() - t0
    assert out == {"lift_count": 5 ** 6, "scalar_count": 5, "pu_count": 5 ** 5}
    assert dt < 1.0
    _line("3 unitary residue count", "5^6 / 5 / 5^5 in %.2fs" % dt)


# -- 4. identity suite --------------------------------------------------------

def test_criterion_4_identity_suite():
    t0 = time.time()
    ok, results = identities.run_identity_suite()
    dt = time.time() - t0
    assert ok, [n for n, p in results if not p]
    assert dt < 10.0
    _line("4 identity suite", "%d checks in %.1fs" % (len(results), dt))


# -- 5. tree lemmas ------------------------------------------------------------

def test_criterion_5_tree_lemmas(framed_ball, frame_neighbors,
                                 oq_residue_orbits):
    t0 = time.time()
    model = bttree.oq_model()
    assert model.valences() == {"x0": 5, "xhalf": 3}
    _gens, orbit, lines = oq_residue_orbits

    def v(*coords):
        return tuple((c,) for c in coords)

    assert set(orbit) == {
        v(0, 0, 0, 0, 1), v(1, 0, 0, 0, 0), v(1, 1, 1, 0, 1),
        v(1, 1, 0, 1, 1), v(1, 0, 1, 1, 1)}
    assert set(lines) == {v(1, 0, 0, 0, 0), v(0, 0, 0, 0, 1), v(1, 0, 0, 0, 1)}
    # the pgl2(2) model is 3-regular out to radius 4
    pgl2 = bttree.pgl2_model()
    graph = bttree.bfs_explore(pgl2, 4)
    assert len(graph.vertices) == 46 and graph.is_tree()
    ball = framed_ball(pgl2, 4)
    assert set(ball) == set(graph.vertices)
    for typ, frame in ball.values():
        nbrs = {w for (w, _, _) in frame_neighbors(pgl2, typ, frame)}
        assert len(nbrs) == 3
    dt = time.time() - t0
    assert dt < 60.0
    _line("5 tree lemmas", "valences (5,3) + orbits + 3-regular ball (%.0fs)" % dt)


# -- 6. congruence quotient lemma by enumeration --------------------------------

def test_criterion_6_quotient_lemma():
    t0 = time.time()
    prime = factor_rational_prime(make_ring(1), 2)[0]
    sch = congsub.SchemeSL(2)
    for j, k in ((1, 2), (2, 3), (2, 4)):
        rep = congsub.congruence_quotient_check(sch, prime, j, k)
        if k == j + 1:
            assert rep["elementary_abelian"]
        if k == 2 * j:
            assert rep["abelian"]
        assert rep["exponent"] == 2
    dt = time.time() - t0
    assert dt < 60.0
    _line("6 quotient lemma", "(1,2),(2,3),(2,4) enumerated (%.0fs)" % dt)


# -- 7. tower construction -------------------------------------------------------

def test_criterion_7_towers(capsys, tmp_path):
    t0 = time.time()
    out_magic = tmp_path / "magic.json"
    code = cli.main(["tower", "magic", "--steps", "10", "--format", "json",
                     "--output", str(out_magic)])
    assert code == 0
    rep = json.loads(out_magic.read_text())
    assert rep["verdict"] == "PASS"
    assert len(rep["steps"]) == 11
    assert all(s["reverified"] for s in rep["steps"][1:])
    out_pu = tmp_path / "pu21.json"
    code = cli.main(["tower", "pu21", "--steps", "3", "--format", "json",
                     "--output", str(out_pu)])
    assert code == 0
    rep_pu = json.loads(out_pu.read_text())
    assert rep_pu["verdict"] == "PASS"
    magic = tower.build_tower("magic", 10)
    # fault injection flips the verdict
    ring = make_ring(7)
    step = magic.steps[5]
    bad = [list(r) for r in step.conjugator]
    bad[0][0] = bad[0][0] + ring(2)
    from congtower.ringmat import mat
    magic.steps[5] = dataclasses.replace(step, conjugator=mat(ring, bad))
    rep_bad = tower.tower_report(magic, recheck_points=10)
    assert rep_bad["verdict"] == "FAIL"
    dt = time.time() - t0
    assert dt < 120.0
    _line("7 towers", "magic x10 + pu21 x3 PASS, fault flips FAIL (%.0fs)" % dt)


# -- 8. the two-stage orthogonal pipeline -----------------------------------------

def test_criterion_8_two_stage_pipeline():
    t0 = time.time()
    rep = homology.o41_two_stage()
    assert rep["index_gamma2"] == 120
    assert rep["index_gamma4_in_gamma2"] == 2 ** 10
    assert str(rep["gamma4_abelianization"]) == "Z^55"
    _line("8 two-stage pipeline", "Gamma(4)^ab = Z^55 (%.0fs)" % (time.time() - t0))


# -- 9. property suites (the per-module invariants run in the module tests;
#       this aggregates a quick cross-module randomized sweep) --------------------

def test_criterion_9_property_sweep(rng, lift):
    t0 = time.time()
    cases = 0
    # ring axioms on random triples in every supported ring
    from congtower.rings import SUPPORTED_D
    for spec in ("rational", "cyclotomic-5") + SUPPORTED_D:
        ring = make_ring(spec)
        for _ in range(1400):
            a = ring(tuple(rng.randint(-9, 9) for _ in range(ring.degree)))
            b = ring(tuple(rng.randint(-9, 9) for _ in range(ring.degree)))
            c = ring(tuple(rng.randint(-9, 9) for _ in range(ring.degree)))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            cases += 1
    # SNF invariance under random unimodular changes
    from congtower.intmat import snf
    for _ in range(400):
        m = [[rng.randint(-12, 12) for _ in range(3)] for _ in range(3)]
        u = [[1, rng.randint(-2, 2), rng.randint(-2, 2)],
             [0, 1, rng.randint(-2, 2)], [0, 0, 1]]
        um = [[sum(u[i][k] * m[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        assert snf(um) == snf(m)
        cases += 1
    # certificate soundness at random points
    _ring, prime = catalog.magic_ring_and_prime()
    cert = tower.certify_containment(catalog.magic_swap(), prime, 2, 1)
    cases += tower.recheck_certificate(cert, prime, points=100)
    # canonicalize idempotence on random p-local matrices
    ring = prime.ring
    for _ in range(300):
        rows = [[ring(rng.randint(-6, 6)) for _ in range(2)] for _ in range(2)]
        m = tuple(tuple(r) for r in rows)
        try:
            c = bttree.canonicalize(ringmat.numerator_columns(m), prime)
        except Exception:
            continue
        assert bttree.canonicalize(ringmat.numerator_columns(lift(ring, c)),
                                   prime) == c
        cases += 1
    assert cases >= 10_000
    dt = time.time() - t0
    assert dt < 300.0
    _line("9 property sweep", "%d randomized cases (%.0fs)" % (cases, dt))
