import random

import pytest

from congtower import bttree, catalog, ringmat, tower
from congtower.errors import CheckFailed
from congtower.intmat import AbelianInvariants
from congtower.rings import factor_rational_prime, make_ring


@pytest.fixture(scope="module")
def magic_prime():
    return catalog.magic_ring_and_prime()[1]


def test_certificate_magic(magic_prime):
    cert = tower.certify_containment(catalog.magic_swap(), magic_prime, 2, 1)
    assert cert.passed
    assert cert.min_valuation == 1
    assert cert.summary()["basis_checks"] == 2 * 2 + 1
    tower.recheck_certificate(cert, magic_prime, points=100)


def test_certificate_identity_trivial(magic_prime):
    ring = make_ring(7)
    ident = ringmat.identity(ring, 2)
    cert = tower.certify_containment(ident, magic_prime, 2, 1)
    assert cert.passed and cert.min_valuation == 2


def test_certificate_refuses_bad_conjugator(magic_prime):
    from fractions import Fraction
    ring = make_ring(7)
    # an element that genuinely drops the level too far: the (2,1) corner
    # of the conjugate picks up a coefficient of valuation 2 - 8 < 1
    bad = ringmat.mat(ring, [[0, 16], [Fraction(1, 16), 0]])
    with pytest.raises(CheckFailed):
        tower.certify_containment(bad, magic_prime, 2, 1)


def test_certificate_o41():
    prime = factor_rational_prime(make_ring("rational"), 2)[0]
    cert = tower.certify_containment(catalog.o41_swap(), prime, 4, 2)
    assert cert.passed and cert.min_valuation == 2
    assert cert.nvars == 25
    assert cert.summary()["basis_checks"] == 5 * 5 + 1
    tower.recheck_certificate(cert, prime, points=10)


def test_certificate_pu21():
    _, prime = catalog.pu21_ring_and_prime()
    cert = tower.certify_containment(catalog.pu21_swap(), prime, 4, 2)
    assert cert.passed and cert.min_valuation == 2
    assert cert.summary()["basis_checks"] == 3 * 3 + 1
    tower.recheck_certificate(cert, prime, points=10)


def test_certificate_refuses_single_basis_failure(magic_prime):
    # conjugating by diag(1, pi^-2) scales entry (0,1) by pi^-2 and entry
    # (1,0) by pi^2: only E_01 drops to valuation 0 < 1
    pi = magic_prime.gens[0]
    g = ringmat.mat(make_ring(7), [[1, 0], [0, (pi * pi).inverse()]])
    with pytest.raises(CheckFailed, match=r"E_\(0,1\), entry \(0,1\)"):
        tower.certify_containment(g, magic_prime, 2, 1)


def test_certificate_soundness_random_points(magic_prime):
    cert = tower.certify_containment(catalog.magic_swap(), magic_prime, 2, 1)
    # 100 fresh random points never fail
    rng = random.Random(99)
    assert tower.recheck_certificate(cert, magic_prime, rng=rng, points=100) == 100


def test_recheck_catches_corruption(magic_prime):
    from fractions import Fraction
    cert = tower.certify_containment(catalog.magic_swap(), magic_prime, 2, 1)
    ring = make_ring(7)
    corrupted = tower.ContainmentCertificate(
        conjugator=ringmat.mat(ring, [[0, 16], [Fraction(1, 16), 0]]),
        inner_level=cert.inner_level, outer_level=cert.outer_level,
        nvars=cert.nvars, min_valuation=cert.min_valuation, passed=True)
    with pytest.raises(CheckFailed):
        tower.recheck_certificate(corrupted, magic_prime, points=50)


def test_check_no_p_torsion():
    assert tower.check_no_p_torsion(AbelianInvariants(55, ()), 2)
    assert tower.check_no_p_torsion(AbelianInvariants(60, ()), 5)
    assert not tower.check_no_p_torsion(AbelianInvariants(0, (2, 2, 2, 2, 2)), 2)
    assert tower.check_no_p_torsion(AbelianInvariants(3, (3,)), 2)


def test_magic_tower_small():
    data = tower.build_tower("magic", 4)
    assert len(data.steps) == 5
    assert data.steps[0].conjugator == ringmat.identity(make_ring(7), 2)
    report = tower.tower_report(data, recheck_points=25)
    assert report["verdict"] == "PASS"
    assert report["hypothesis"]["no_p_torsion"]
    assert report["hypothesis"]["mode"] == "computed"
    # vertices are distinct and the BFS ball is covered in order
    verts = [s.vertex for s in data.steps]
    assert len(set(verts)) == len(verts)
    # steps 1..3 exhaust the base vertex's neighbors -> radius 1 covered
    assert report["cofinality_radius"] == 1


def test_magic_tower_form_free_steps():
    data = tower.build_tower("magic", 3)
    for step in data.steps[1:]:
        assert step.certificate.passed
        # the relative element is (stabilizer word) * swap: certificate holds
        assert step.source_i < step.n
        # swap conjugate exchanges the two vertices (validated in build, but
        # re-assert through the public data)
        src = data.steps[step.source_i]
        ctx = data.model.ctx
        assert bttree.canonicalize(
            ringmat.mat_mul(step.swap_conjugate, src.vertex), ctx) == step.vertex


def test_empty_tower_vacuous_pass():
    data = tower.build_tower("magic", 0)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "PASS"
    assert len(report["steps"]) == 1
    assert report["cofinality_radius"] == 0


def test_fault_injection_flips_verdict():
    data = tower.build_tower("magic", 3)
    ring = make_ring(7)
    step = data.steps[2]
    bad_rows = [list(row) for row in step.conjugator]
    bad_rows[0][0] = bad_rows[0][0] + ring(2)
    data.steps[2] = tower.TowerStep(
        n=step.n, conjugator=ringmat.mat(ring, bad_rows), vertex=step.vertex,
        vertex_depth=step.vertex_depth, source_i=step.source_i,
        relative=step.relative, swap_conjugate=step.swap_conjugate,
        certificate=step.certificate)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert any(f["step"] == 2 for f in report["failures"])


def test_fault_injected_certificate_flips_verdict():
    data = tower.build_tower("magic", 2)
    step = data.steps[1]
    ring = make_ring(7)
    rows = [list(row) for row in step.certificate.conjugator]
    rows[1][0] = rows[1][0] + ring.one
    corrupted = tower.ContainmentCertificate(
        conjugator=ringmat.mat(ring, rows),
        inner_level=step.certificate.inner_level,
        outer_level=step.certificate.outer_level,
        nvars=step.certificate.nvars,
        min_valuation=step.certificate.min_valuation,
        passed=True)
    data.steps[1] = tower.TowerStep(
        n=step.n, conjugator=step.conjugator, vertex=step.vertex,
        vertex_depth=step.vertex_depth, source_i=step.source_i,
        relative=step.relative, swap_conjugate=step.swap_conjugate,
        certificate=corrupted)
    report = tower.tower_report(data, recheck_points=25, check_radius=False)
    assert report["verdict"] == "FAIL"


def test_pu21_tower_steps():
    data = tower.build_tower("pu21", 2)
    report = tower.tower_report(data, recheck_points=10, check_radius=False)
    assert report["verdict"] == "PASS"
    for step in data.steps[1:]:
        assert step.certificate.min_valuation >= 2
        # conjugators preserve the hermitian form exactly
        assert ringmat.preserves_form(step.conjugator, data.model.form,
                                      "hermitian")


def test_o41_tower_steps():
    data = tower.build_tower("o41", 3)
    report = tower.tower_report(data, recheck_points=10, check_radius=False)
    assert report["verdict"] == "PASS"
    for step in data.steps[1:]:
        assert ringmat.preserves_form(step.conjugator, data.model.form,
                                      "bilinear")


def test_magic_certificate_levels_match_construction():
    # the magic chain certifies level p^2 inside level p at every step
    data = tower.build_tower("magic", 3)
    for step in data.steps[1:]:
        assert step.certificate.inner_level == 2
        assert step.certificate.outer_level == 1


def test_tower_vertex_sequence_deterministic():
    a = tower.build_tower("magic", 5)
    b = tower.build_tower("magic", 5)
    assert [s.vertex for s in a.steps] == [s.vertex for s in b.steps]
    assert [s.source_i for s in a.steps] == [s.source_i for s in b.steps]


def _align_from_scratch(model, f_m, v_i, v_n, depth):
    """Reference for the midpoint alignment of tower._swap_moves: a fresh
    breadth-first search over midpoint-stabilizer words that stops at the
    first word s with f_m s (base, swap base) = (v_i, v_n); returns f_m s."""
    ctx = model.ctx
    base = model.bases[model.base_type]
    f_inv = ringmat.mat_inverse(f_m)
    target = (bttree.canonicalize(ringmat.mat_mul(f_inv, v_i), ctx),
              bttree.canonicalize(ringmat.mat_mul(f_inv, v_n), ctx))

    def pair_of(s):
        return (bttree.canonicalize(ringmat.mat_mul(s, base), ctx),
                bttree.canonicalize(ringmat.mat_mul(
                    s, ringmat.mat_mul(model.swap, base)), ctx))

    ident = ringmat.identity(ctx.ring, len(base))
    seen = {pair_of(ident): ident}
    if target in seen:
        return ringmat.mat_mul(f_m, ident)
    frontier = [ident]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for gen in model.stab_mid:
                s2 = ringmat.mat_mul(gen, s)
                k2 = pair_of(s2)
                if k2 not in seen:
                    seen[k2] = s2
                    if k2 == target:
                        return ringmat.mat_mul(f_m, s2)
                    nxt.append(s2)
        frontier = nxt
    return None


@pytest.mark.parametrize("depth", [2, 8])
def test_swap_moves_match_fresh_search(monkeypatch, depth):
    # one pair (w, h) per (midpoint move, second move) pair, in that order,
    # with h the word a fresh search gives; some o41 pairs are first
    # reached at level 3, so depth 2 checks that no word beyond the limit
    # is used
    monkeypatch.setattr(tower, "_ALIGN_DEPTH", depth)
    model = bttree.oq_model()
    ctx = model.ctx
    base = model.bases[model.base_type]
    mid_type = model.moves(model.base_type)[0].target_type
    expected = []
    beyond = 0
    for mv_mid in model.moves(model.base_type):
        f_m = mv_mid.transporter
        for mv_b in model.moves(mid_type):
            vertex = bttree.canonicalize(ringmat.mat_mul(
                ringmat.mat_mul(f_m, mv_b.transporter), base), ctx)
            h = _align_from_scratch(model, f_m, base, vertex, depth)
            if h is not None:
                expected.append((ringmat.mat_mul(h, model.swap), h))
            else:
                beyond += vertex != base    # the base itself never aligns
    moves = tower._swap_moves(model)
    assert len(moves) == len(expected) > 0
    for (w, h), (w_ref, h_ref) in zip(moves, expected):
        assert ringmat.mat_eq(w, w_ref) and ringmat.mat_eq(h, h_ref)
        assert bttree.canonicalize(ringmat.mat_mul(h, base), ctx) == base
    assert bool(beyond) == (depth == 2)


def test_magic_swap_moves_are_the_base_moves():
    model = bttree.pgl2_model()
    moves = tower._swap_moves(model)
    assert [w for w, _h in moves] == [mv.transporter
                                      for mv in model.moves("v")]
    for w, h in moves:
        assert ringmat.mat_eq(ringmat.mat_mul(h, model.swap), w)
        assert bttree.canonicalize(h, model.ctx) == model.bases["v"]


def test_one_certificate_per_swap_move(monkeypatch):
    # magic has 3 swap moves; 10 steps use each of them several times
    calls = []
    certify = tower.certify_containment

    def counting(*args):
        calls.append(args[0])
        return certify(*args)

    monkeypatch.setattr(tower, "certify_containment", counting)
    data = tower.build_tower("magic", 10)
    assert len(data.steps) == 11 and len(data.moves) == 3
    assert len(calls) == 3
    for step in data.steps[1:]:
        assert ringmat.mat_eq(step.certificate.conjugator, step.relative)
        assert any(ringmat.mat_eq(step.relative, w) for w, _h in data.moves)


@pytest.mark.parametrize("example, steps, radius", [
    ("magic", 3, 1), ("magic", 9, 2), ("magic", 10, 2),
    ("o41", 3, 0), ("o41", 10, 1),
])
def test_covered_radius_pinned(example, steps, radius):
    # values of the full-layer search, which the early stop must keep
    assert tower.covered_radius(tower.build_tower(example, steps)) == radius
