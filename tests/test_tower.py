import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from congtower import (bttree, catalog, coset, identities, ringmat, rings,
                       tower)
from congtower.errors import CheckFailed
from congtower.intmat import AbelianInvariants
from congtower.rings import factor_rational_prime, make_ring


def canon(m, prime):
    """``bttree.canonicalize`` of the column span of a matrix of ring
    elements, any product in it formed exactly by ``ringmat.mat_mul``."""
    return bttree.canonicalize(ringmat.numerator_columns(m), prime)


@pytest.fixture(scope="module")
def magic_prime():
    return catalog.magic_ring_and_prime()[1]


def test_certificate_magic(magic_prime):
    cert = tower.certify_containment(catalog.magic_swap(), magic_prime, 2, 1)
    assert cert.min_valuation == 1
    assert cert.summary()["basis_checks"] == 2 * 2 + 1
    tower.recheck_certificate(cert, magic_prime, points=100)


def test_certificate_identity_trivial(magic_prime):
    ring = make_ring(7)
    ident = ringmat.identity(ring, 2)
    cert = tower.certify_containment(ident, magic_prime, 2, 1)
    assert cert.min_valuation == 2


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
    assert cert.min_valuation == 2
    assert cert.summary()["nvars"] == 25
    assert cert.summary()["basis_checks"] == 5 * 5 + 1
    tower.recheck_certificate(cert, prime, points=10)


def test_certificate_pu21():
    _, prime = catalog.pu21_ring_and_prime()
    cert = tower.certify_containment(catalog.pu21_swap(), prime, 4, 2)
    assert cert.min_valuation == 2
    assert cert.summary()["basis_checks"] == 3 * 3 + 1
    tower.recheck_certificate(cert, prime, points=10)


def test_certificate_refuses_single_basis_failure(magic_prime):
    # conjugating by diag(1, pi^-2) scales entry (0,1) by pi^-2 and entry
    # (1,0) by pi^2: only E_01 drops to valuation 0 < 1
    pi = magic_prime.pi
    g = ringmat.mat(make_ring(7), [[1, 0], [0, (pi * pi).inverse()]])
    with pytest.raises(CheckFailed, match=r"E_\(0,1\), entry \(0,1\)"):
        tower.certify_containment(g, magic_prime, 2, 1)


def test_certificate_soundness_random_points(magic_prime):
    cert = tower.certify_containment(catalog.magic_swap(), magic_prime, 2, 1)
    # 100 fresh random points never fail
    rng = random.Random(99)
    assert tower.recheck_certificate(cert, magic_prime, rng=rng, points=100) == 100


def test_recheck_catches_corruption(magic_prime):
    # the corrupted conjugator has D = 256, so its points are tested at
    # level 7: the denominators alone cannot pass it
    from fractions import Fraction
    cert = tower.certify_containment(catalog.magic_swap(), magic_prime, 2, 1)
    ring = make_ring(7)
    corrupted = tower.ContainmentCertificate(
        conjugator=ringmat.mat(ring, [[0, 16], [Fraction(1, 16), 0]]),
        inner_level=cert.inner_level, outer_level=cert.outer_level,
        min_valuation=cert.min_valuation)
    with pytest.raises(CheckFailed):
        tower.recheck_certificate(corrupted, magic_prime, points=50)


def _kernel_case(case):
    """(g, prime, a, b): the three swaps at their tower levels, the
    identity, the magic swap over 4, which the certificate passes at a
    recheck level of 1, and the three conjugators the certificate refuses
    at the magic prime."""
    if case == "o41":
        prime = factor_rational_prime(make_ring("rational"), 2)[0]
        return catalog.o41_swap(), prime, 4, 2
    if case == "pu21":
        return catalog.pu21_swap(), catalog.pu21_ring_and_prime()[1], 4, 2
    ring, prime = catalog.magic_ring_and_prime()
    g = {
        "magic": catalog.magic_swap(),
        "magic-quarter": ringmat.mat_scale(catalog.magic_swap(),
                                           Fraction(1, 4)),
        "identity": ringmat.identity(ring, 2),
        "magic-sixteen": ringmat.mat(ring, [[0, 16], [Fraction(1, 16), 0]]),
        "magic-diag": ringmat.mat(ring, [[1, 0], [0, (prime.pi ** 2).inverse()]]),
        "magic-shear": ringmat.mat(ring, [[1, Fraction(1, 4)], [0, 1]]),
    }[case]
    return g, prime, 2, 1


def _basis_point_certificate(g, prime, a, b):
    """The certificate's min_valuation, or the message it refuses with, by
    field arithmetic: g^-1 (Id + pi^a Y) g at Y = 0 and at each E_ij in
    row-major order, and the valuation of every entry of each conjugate
    minus Id, the first below b refusing."""
    ring = g[0][0].ring
    n = len(g)
    g_inv = ringmat.mat_inverse(g)
    pi_a = prime.uniformizer_power(a)
    ident = ringmat.identity(ring, n)
    min_val = math.inf
    for label, y in ringmat.basis_points(ring, n):
        conj = identities._conjugate_generic(g, g_inv, pi_a, y)
        if label == "0":
            if conj != ident:
                return "conjugating the identity does not give the identity"
            continue
        for k, l in itertools.product(range(n), repeat=2):
            v = prime.valuation(conj[k][l] - ident[k][l])
            min_val = min(min_val, v)
            if v < b:
                return ("at %s, entry (%d,%d) of the conjugate is %r, "
                        "valuation %s < %d from the identity"
                        % (label, k, l, conj[k][l], v, b))
    return min_val


def _certificate_outcome(g, prime, a, b):
    try:
        return tower.certify_containment(g, prime, a, b).min_valuation
    except CheckFailed as exc:
        return str(exc)


@pytest.mark.parametrize("case", [
    "magic", "o41", "pu21", "identity", "magic-sixteen", "magic-diag",
    "magic-shear", "magic 25", "o41 10", "pu21 30"])
def test_certificate_matches_the_basis_point_oracle(case):
    # the valuation bound a + min v(g^-1) + min v(g) >= b against the
    # conjugates at the n^2 + 1 basis points: the same min_valuation, or
    # the same refusal, message included.  A case "example steps" is every
    # move that tower uses, at its levels (2j, j)
    if " " in case:
        example, steps = case.split()
        data = tower.build_tower(example, int(steps))
        j = data.config.level_j
        cases = [(data.moves[k].transporter, data.model.prime, 2 * j, j)
                 for k in data.certificates]
        assert len(cases) == {"magic": 3, "o41": 10, "pu21": 30}[example]
    else:
        cases = [_kernel_case(case)]
    for g, prime, a, b in cases:
        outcome = _certificate_outcome(g, prime, a, b)
        assert outcome == _basis_point_certificate(g, prime, a, b)
        assert isinstance(outcome, str) == case.startswith("magic-")


@pytest.mark.parametrize("case", ["magic", "o41", "pu21"])
def test_certificate_reads_2n2_valuations_and_one_product(monkeypatch, case):
    # w^-1 w by one ringmat.mat_mul, then the valuations of the entries of
    # w and w^-1; no conjugation kernel and no basis-point product
    g, prime, a, b = _kernel_case(case)
    counts = {"valuation": 0, "mat_mul": 0}
    valuation, mat_mul = rings.PrimeIdeal.valuation, ringmat.mat_mul

    def counting_valuation(self, x):
        counts["valuation"] += 1
        return valuation(self, x)

    def counting_mat_mul(x, y):
        counts["mat_mul"] += 1
        return mat_mul(x, y)

    def no_kernel(*args):
        raise AssertionError("the certificate built a _Conjugation")

    monkeypatch.setattr(rings.PrimeIdeal, "valuation", counting_valuation)
    monkeypatch.setattr(ringmat, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(tower, "_Conjugation", no_kernel)
    tower.certify_containment(g, prime, a, b)
    assert counts == {"valuation": 2 * len(g) ** 2, "mat_mul": 1}


@pytest.mark.parametrize("case", ["magic", "o41", "pu21", "magic-quarter",
                                  "magic-sixteen", "magic-diag"])
def test_conjugation_kernel_matches_field_arithmetic(case):
    # pi^a (H X G) / D on int numerators against g^-1 (Id + pi^a X) g by
    # plain field arithmetic: the same entries and level-b verdicts at 25
    # random integer points
    g, prime, a, b = _kernel_case(case)
    ring = g[0][0].ring
    n = len(g)
    conj = tower._Conjugation(g, prime, a)
    g_inv = ringmat.mat_inverse(g)
    pi_a = prime.uniformizer_power(a)
    rng = random.Random(2020)
    verdicts = set()
    for _ in range(25):
        x = [[rng.randrange(-10, 11) for _ in range(n)] for _ in range(n)]
        field = identities._conjugate_generic(g, g_inv, pi_a,
                                              ringmat.mat(ring, x))
        nums = conj.numerators(x)
        for k in range(n):
            for l in range(n):
                diff = pi_a * rings.RingElt(ring, nums[k][l], conj.den)
                assert diff == field[k][l] - (ring.one if k == l
                                              else ring.zero)
                expected = prime.valuation(diff) >= b
                assert conj.at_least(nums[k][l], b) == expected
                verdicts.add(expected)
    assert verdicts == ({True} if case in ("magic", "o41", "pu21",
                                           "magic-quarter")
                        else {True, False})


def test_conjugation_kernel_checks_the_identity_point(monkeypatch,
                                                      magic_prime):
    # with -g^-1 in place of g^-1 every E_ij entry keeps its valuation and
    # the diagonal of the conjugate minus Id is -2 + ..., of valuation 1 at
    # the prime over 2, so only the point X = 0, g^-1 g == Id, refuses it
    inverse = ringmat.mat_inverse
    monkeypatch.setattr(ringmat, "mat_inverse",
                        lambda g: ringmat.mat_scale(inverse(g), -1))
    cert = tower.ContainmentCertificate(
        conjugator=catalog.magic_swap(), inner_level=2, outer_level=1,
        min_valuation=1)
    with pytest.raises(CheckFailed, match="conjugating the identity"):
        tower.certify_containment(cert.conjugator, magic_prime, 2, 1)
    with pytest.raises(CheckFailed, match="conjugating the identity"):
        tower.recheck_certificate(cert, magic_prime, points=5)


# b - a + v_p(D), the level at which the recheck tests each entry of
# H X G: for the swaps at their tower levels, the magic swap over 4, and
# the corrupted conjugator of test_recheck_catches_corruption
RECHECK_LEVELS = {"magic": 0, "o41": 0, "pu21": 6, "magic-quarter": 1,
                  "magic-sixteen": 7}


@pytest.mark.parametrize("case", sorted(RECHECK_LEVELS))
def test_recheck_levels_pinned(case):
    g, prime, a, b = _kernel_case(case)
    conj = tower._Conjugation(g, prime, a)
    assert b + conj.shift == RECHECK_LEVELS[case]


@pytest.mark.parametrize("case", ["magic", "o41", "pu21", "magic-quarter"])
@pytest.mark.parametrize("points", [0, 1, 7])
def test_recheck_draws_n_squared_entries_per_point(case, points):
    # at a positive level each point is n^2 draws of randrange(-10, 11),
    # so a seed picks the same points as the field-arithmetic recheck did;
    # at level 0 (the magic and o41 swaps) the denominators decide every
    # integral point, so none is drawn and the rng is left as it was, and
    # the recheck still stands for the points asked
    g, prime, a, b = _kernel_case(case)
    cert = tower.certify_containment(g, prime, a, b)
    rng, ref = random.Random(31), random.Random(31)
    assert tower.recheck_certificate(cert, prime, rng=rng,
                                     points=points) == points
    drawn = points if RECHECK_LEVELS[case] > 0 else 0
    for _ in range(len(g) ** 2 * drawn):
        ref.randrange(-10, 11)
    assert rng.getstate() == ref.getstate()


def test_check_no_p_torsion():
    # the tower hypothesis reads inv.has_p_torsion(p): o41's Z^55 at 2,
    # pu21's Z^60 at 5, and (Z/2)^5 at 2
    assert not AbelianInvariants(55, ()).has_p_torsion(2)
    assert not AbelianInvariants(60, ()).has_p_torsion(5)
    assert AbelianInvariants(0, (2, 2, 2, 2, 2)).has_p_torsion(2)
    assert not AbelianInvariants(3, (3,)).has_p_torsion(2)


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


def test_magic_tower_form_free_steps(lift):
    data = tower.build_tower("magic", 3)
    swap_inv = ringmat.mat_inverse(data.model.swap)
    prime = data.model.prime
    for n, step in enumerate(data.steps[1:], 1):
        w = data.moves[step.move].transporter
        # the relative element is the move, which the certificate is about
        assert step.source_i < n
        src = data.steps[step.source_i]
        assert ringmat.mat_mul(src.conjugator, w) == step.conjugator
        assert data.certificates[step.move].conjugator == w
        # h_n swap h_n^-1, h_n = T_i w swap^-1, exchanges the two vertices
        h_n = ringmat.mat_mul(ringmat.mat_mul(src.conjugator, w), swap_inv)
        g_n = ringmat.mat_mul(ringmat.mat_mul(h_n, data.model.swap),
                              ringmat.mat_inverse(h_n))
        assert canon(ringmat.mat_mul(g_n, lift(prime.ring, src.vertex)),
                     prime) == step.vertex
        assert canon(ringmat.mat_mul(g_n, lift(prime.ring, step.vertex)),
                     prime) == src.vertex


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
    data.steps[2] = dataclasses.replace(
        step, conjugator=ringmat.mat(ring, bad_rows))
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert any(f["step"] == 2 for f in report["failures"])


def _citing(data, k):
    return [n for n, s in enumerate(data.steps) if s.move == k]


def test_fault_injected_certificate_flips_verdict():
    # a certificate is one move's: every step citing the move fails
    data = tower.build_tower("magic", 10)
    k = data.steps[1].move
    cert = data.certificates[k]
    ring = make_ring(7)
    rows = [list(row) for row in cert.conjugator]
    rows[1][0] = rows[1][0] + ring.one
    data.certificates[k] = dataclasses.replace(
        cert, conjugator=ringmat.mat(ring, rows))
    report = tower.tower_report(data, recheck_points=25)
    assert report["verdict"] == "FAIL"
    assert [f["step"] for f in report["failures"]] == _citing(data, k)
    assert all("certificate is not about this move" in f["reason"]
               for f in report["failures"])


def test_tampered_step0_vertex_fails():
    # step 0 is checked itself: the identity frame and the base vertex
    data = tower.build_tower("magic", 3)
    data.steps[0] = dataclasses.replace(data.steps[0],
                                        vertex=data.steps[1].vertex)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert report["failures"] == [
        {"step": 0, "reason": "step 0: frame does not carry the base vertex"}]


def test_tampered_step0_frame_fails():
    data = tower.build_tower("magic", 3)
    data.steps[0] = dataclasses.replace(
        data.steps[0], conjugator=data.moves[0].transporter,
        vertex=data.steps[1].vertex)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert report["failures"][0]["step"] == 0


@pytest.mark.parametrize("example", ["magic", "o41"])
def test_move_times_translation_fails_every_citing_step(example):
    # w replaced by w [[1,1],[0,1]] (on the first two coordinates)
    data = tower.build_tower(example, 3)
    k = data.steps[1].move
    w = data.moves[k].transporter
    ring = w[0][0].ring
    u = [list(row) for row in ringmat.identity(ring, len(w))]
    u[0][1] = ring.one
    data.moves[k] = dataclasses.replace(
        data.moves[k], transporter=ringmat.mat_mul(w, ringmat.mat(ring, u)))
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert [f["step"] for f in report["failures"]] == _citing(data, k)


def test_identity_move_fails():
    # a step that stays put: frame, vertex and certificate agree with the
    # move, but h = w swap^-1 does not fix the base vertex
    data = tower.build_tower("magic", 1)
    k = data.steps[1].move
    ident = data.steps[0].conjugator
    data.moves[k] = dataclasses.replace(data.moves[k], transporter=ident)
    data.certificates[k] = tower.certify_containment(ident, data.model.prime,
                                                     2, 1)
    data.steps[1] = dataclasses.replace(
        data.steps[1], conjugator=ident, vertex=data.steps[0].vertex)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert report["failures"] == [
        {"step": 1, "reason": "move %d: w swap^-1 does not fix the base vertex" % k}]


def test_swap_that_is_not_an_involution_fails():
    # with swap = w^-1, w swap fixes the base, but swap^-1 base is not
    # swap base, so h = w swap^-1 need not fix it
    data = tower.build_tower("magic", 2)
    # keep the step by move 1, whose inverse squared moves the base
    data.steps[1:] = [data.steps[2]]
    assert data.steps[1].move == 1
    data.model.swap = ringmat.mat_inverse(data.moves[1].transporter)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert [f["step"] for f in report["failures"]] == [1]
    assert "swap does not exchange" in report["failures"][0]["reason"]


def test_a_wrong_swap_fails_every_move_with_one_check(monkeypatch):
    # the swap is checked once per report, and every step citing a move
    # fails with its refusal
    data = tower.build_tower("magic", 4)
    assert len({s.move for s in data.steps[1:]}) > 1
    data.model.swap = ringmat.mat_inverse(data.moves[1].transporter)
    calls = []
    check_swap = tower._check_swap
    monkeypatch.setattr(tower, "_check_swap",
                        lambda model: calls.append(model) or check_swap(model))
    report = tower.tower_report(data, recheck_points=5)
    assert len(calls) == 1
    assert report["failures"] == [
        {"step": n, "reason": "the swap does not exchange the base vertex "
                              "and its image"} for n in range(1, 5)]


def test_later_step_without_a_move_fails():
    data = tower.build_tower("magic", 2)
    data.steps[2] = data.steps[0]
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert [f["step"] for f in report["failures"]] == [2]


def test_step_with_a_later_source_fails():
    # step 1 cites source 2 by move 0, and step 2's frame is T_1 w_0^-1:
    # step 1's frame is then its source's frame times its move and carries
    # the base to its vertex, so only the source index refuses it
    data = tower.build_tower("magic", 3)
    w0_inv = ringmat.mat_inverse(data.moves[0].transporter)
    data.steps[2] = dataclasses.replace(
        data.steps[2],
        conjugator=ringmat.mat_mul(data.steps[1].conjugator, w0_inv))
    data.steps[1] = dataclasses.replace(data.steps[1], source_i=2, move=0)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert [f["step"] for f in report["failures"]] == [1, 2]
    assert report["failures"][0]["reason"] == (
        "step 1: frame is not its source's frame times its move")


def test_pu21_tower_steps():
    data = tower.build_tower("pu21", 2)
    report = tower.tower_report(data, recheck_points=10)
    assert report["verdict"] == "PASS"
    for step in data.steps[1:]:
        assert data.certificates[step.move].min_valuation >= 2
        # conjugators preserve the hermitian form exactly
        assert ringmat.preserves_form(step.conjugator, data.model.form,
                                      "hermitian")


def test_move_check_reads_the_form_kind_from_the_model():
    # the unitary moves preserve h0 as a hermitian form, not as a bilinear
    # one: every step fails through the move it cites
    data = tower.build_tower("pu21", 2)
    assert (data.model.form_kind, bttree.pgl2_model().form) == ("hermitian", None)
    data.model.form_kind = "bilinear"
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert [f["step"] for f in report["failures"]] == [1, 2]
    assert all("does not preserve the form" in f["reason"]
               for f in report["failures"])


def test_o41_tower_steps():
    data = tower.build_tower("o41", 3)
    report = tower.tower_report(data, recheck_points=10)
    assert report["verdict"] == "PASS"
    for step in data.steps[1:]:
        assert ringmat.preserves_form(step.conjugator, data.model.form,
                                      "bilinear")


def test_magic_certificate_levels_match_construction():
    # the magic chain certifies level p^2 inside level p at every step
    data = tower.build_tower("magic", 3)
    for step in data.steps[1:]:
        assert data.certificates[step.move].inner_level == 2
        assert data.certificates[step.move].outer_level == 1


def test_tower_vertex_sequence_deterministic():
    a = tower.build_tower("magic", 5)
    b = tower.build_tower("magic", 5)
    assert [s.vertex for s in a.steps] == [s.vertex for s in b.steps]
    assert [s.source_i for s in a.steps] == [s.source_i for s in b.steps]


@pytest.mark.parametrize("example, steps", [
    ("magic", 25), ("o41", 8), ("pu21", 4)])
def test_steps_match_full_frame_products(example, steps, lift):
    # build_tower canonicalizes T_source * canonicalize(w base); the
    # reference forms T_source w for every candidate and canonicalizes
    # T_source w base
    data = tower.build_tower(example, steps)
    base = data.model.bases[data.model.base_type]
    prime = data.model.prime
    frames = [ringmat.identity(prime.ring, len(base))]
    expected = [(base, 0, None)]
    index = {base: 0}
    head = 0
    while len(expected) <= steps:
        src = head
        head += 1
        for k, mv in enumerate(data.moves):
            t_n = ringmat.mat_mul(frames[src], mv.transporter)
            vertex = canon(ringmat.mat_mul(t_n, lift(prime.ring, base)),
                           prime)
            if vertex not in index and len(expected) <= steps:
                index[vertex] = len(expected)
                frames.append(t_n)
                expected.append((vertex, src, k))
    assert [(s.vertex, s.source_i, s.move) for s in data.steps] == expected
    assert all(s.conjugator == f for s, f in zip(data.steps, frames))


@pytest.mark.parametrize("example, steps", [
    ("magic", 25), ("o41", 15), ("pu21", 35)])
def test_walk_frames_are_the_numerators_of_the_products(example, steps):
    # each frame the walk keeps is ringmat.numerators of T_source w, the
    # int rows over the least common denominator; from step 31 of pu21
    # the product of the numerators has a common factor to divide out
    data = tower.build_tower(example, steps)
    walked = itertools.islice(tower._walk(data.model, data.moves), steps)
    for _, src, k, _, frame in walked:
        assert frame == ringmat.numerators(ringmat.mat_mul(
            data.steps[src].conjugator, data.moves[k].transporter))


@pytest.mark.parametrize("example, steps", [("magic", 10), ("pu21", 3)])
def test_covered_radius_builds_no_frame(monkeypatch, example, steps):
    # the walk's frames stay int numerators, and only build_tower turns
    # those of its steps into ring elements: one from_numerators per step
    # past the one each of its exact products makes
    data = tower.build_tower(example, steps)
    calls = {"mat_mul": 0, "from_numerators": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(ringmat, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(ringmat, name, counting)
    tower.covered_radius(data)
    assert calls == {"mat_mul": 0, "from_numerators": 0}
    tower.build_tower(example, steps)
    assert calls["from_numerators"] == steps + calls["mat_mul"]


def _align_from_scratch(model, base, f_m, v_i, v_n, depth):
    """Reference for the midpoint alignment of tower._swap_moves: a fresh
    breadth-first search over midpoint-stabilizer words that stops at the
    first word s with f_m s (base, swap base) = (v_i, v_n), the base and
    v_i, v_n lifted to ring elements; returns f_m s."""
    prime = model.prime
    f_inv = ringmat.mat_inverse(f_m)
    target = (canon(ringmat.mat_mul(f_inv, v_i), prime),
              canon(ringmat.mat_mul(f_inv, v_n), prime))

    def pair_of(s):
        return (canon(ringmat.mat_mul(s, base), prime),
                canon(ringmat.mat_mul(
                    s, ringmat.mat_mul(model.swap, base)), prime))

    ident = ringmat.identity(prime.ring, len(base))
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


# (model, a fresh-search depth, the longest word its moves need)
SWAP_SEARCHES = [pytest.param("oq", 2, 3, id="2"),
                 pytest.param("oq", 3, 3, id="3"),
                 pytest.param("oq", 8, 3, id="8"),
                 pytest.param("su", 3, 4, id="su-3"),
                 pytest.param("su", 4, 4, id="su-4")]


@pytest.mark.parametrize("name, depth, needed", SWAP_SEARCHES)
def test_swap_moves_match_fresh_search(name, depth, needed, lift):
    # one move w = h swap per (midpoint move, second move) pair, in that
    # order, with h the word a fresh search gives; the full search runs to
    # valence^2 levels, past the size of the pair orbit, so every pair but
    # the way back to the base is aligned. A search cut at `depth` gives the
    # same word where it reaches one, and misses some pair exactly when
    # depth < needed (o41 needs words of length 3, pu21 of length 4), so the
    # moves use words of every length the pair orbit needs, with no cap
    model = getattr(bttree, name + "_model")()
    prime = model.prime
    base = model.bases[model.base_type]
    lifted = lift(prime.ring, base)
    mid_type = model.moves(model.base_type)[0].target_type
    full = len(model.moves(mid_type)) ** 2
    assert full >= needed
    expected = []
    beyond = 0
    for mv_mid in model.moves(model.base_type):
        f_m = mv_mid.transporter
        for mv_b in model.moves(mid_type):
            vertex = canon(ringmat.mat_mul(
                ringmat.mat_mul(f_m, mv_b.transporter), lifted), prime)
            h = _align_from_scratch(model, lifted, f_m, lifted,
                                    lift(prime.ring, vertex), full)
            assert (h is None) == (vertex == base)
            if h is not None:
                expected.append(ringmat.mat_mul(h, model.swap))
            h_cut = _align_from_scratch(model, lifted, f_m, lifted,
                                        lift(prime.ring, vertex), depth)
            if h_cut is not None:
                assert h_cut == h
            else:
                beyond += vertex != base    # the base itself never aligns
    moves = tower._swap_moves(model)
    assert len(moves) == len(expected) > 0
    swap_inv = ringmat.mat_inverse(model.swap)
    for mv, w_ref in zip(moves, expected):
        assert mv.transporter == w_ref
        assert mv.target_type == model.base_type
        assert mv.vertex == canon(
            ringmat.mat_mul(w_ref, lifted), prime)
        h = ringmat.mat_mul(mv.transporter, swap_inv)
        assert canon(ringmat.mat_mul(h, lifted), prime) == base
    assert bool(beyond) == (depth < needed)


@pytest.mark.parametrize("name, count", [("pgl2", 0), ("oq", 23),
                                         ("su", 64)])
def test_swap_moves_form_one_product_per_tree_node(monkeypatch, name,
                                                    count):
    # one product per Schreier-tree node on a path from the seed to some
    # (0, b) of the pair orbit, then w = f tail and w base per move; w base
    # is only canonicalized, so it is a product of int rows: a product_rows
    # not inside a mat_mul, each of which makes one
    model = getattr(bttree, name + "_model")()
    calls = {"mat_mul": 0, "product_rows": 0}
    for attr in calls:
        def counting(*args, _f=getattr(ringmat, attr), _attr=attr):
            calls[_attr] += 1
            return _f(*args)
        monkeypatch.setattr(ringmat, attr, counting)
    moves = tower._swap_moves(model)
    monkeypatch.undo()
    assert calls["product_rows"] == count
    assert calls["product_rows"] - calls["mat_mul"] == (
        len(moves) if model.mid_action else 0)
    if not model.mid_action:
        return
    perms = model.mid_action
    pairs, _, parents = coset.orbit(
        (0, perms[0][0]), perms,
        lambda key, perm: (perm[key[0]], perm[key[1]]), len(perms[0]) ** 2)
    nodes = set()
    for end, (a, _) in enumerate(pairs):
        node = end if a == 0 else 0
        while parents[node] is not None:
            nodes.add(node)
            node = parents[node][0]
    assert count == len(nodes) + 2 * len(moves)


@pytest.mark.parametrize("name, count", [("pgl2", 0), ("oq", 10),
                                         ("su", 30)])
def test_swap_moves_canonicalize_once_per_move(monkeypatch, name, count):
    # the midpoint alignment reads the model's mid_action, so the one
    # canonical form per move is its vertex w base (none in a one-type
    # tree, whose swap moves are the base moves)
    model = getattr(bttree, name + "_model")()
    calls = []
    canonicalize = bttree.canonicalize

    def counting(*args):
        calls.append(args)
        return canonicalize(*args)

    monkeypatch.setattr(bttree, "canonicalize", counting)
    moves = tower._swap_moves(model)
    assert len(calls) == count
    assert count in (0, len(moves))


def test_magic_swap_moves_are_the_base_moves():
    model = bttree.pgl2_model()
    moves = tower._swap_moves(model)
    assert moves == model.moves("v")
    swap_inv = ringmat.mat_inverse(model.swap)
    for mv in moves:
        h = ringmat.mat_mul(mv.transporter, swap_inv)
        assert canon(h, model.prime) == model.bases["v"]


def test_magic_swap_is_the_pgl2_swap_and_move_0():
    # the identity suite certifies catalog.magic_swap(); the tower
    # certifies the swap pgl2_model builds by its own rule, move 0's w
    swap = catalog.magic_swap()
    assert bttree.pgl2_model().swap == swap
    assert tower.build_tower("magic", 1).moves[0].transporter == swap


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
    assert len(calls) == 3 and sorted(data.certificates) == [0, 1, 2]
    for k, cert in data.certificates.items():
        assert cert.conjugator == data.moves[k].transporter


def _counting_rechecks(monkeypatch, fail=None):
    """Record each recheck_certificate call; the certificate `fail`, if
    given, fails its recheck."""
    calls = []
    recheck = tower.recheck_certificate

    def counting(cert, prime, rng=None, points=100):
        calls.append((cert, points))
        if cert is fail:
            raise CheckFailed("injected recheck failure")
        return recheck(cert, prime, rng=rng, points=points)

    monkeypatch.setattr(tower, "recheck_certificate", counting)
    return calls


def test_each_certificate_rechecked_once(monkeypatch):
    calls = _counting_rechecks(monkeypatch)
    data = tower.build_tower("magic", 10)
    report = tower.tower_report(data, recheck_points=7)
    assert report["verdict"] == "PASS"
    certs = {id(data.certificates[step.move]) for step in data.steps[1:]}
    assert len(certs) == 3 and len(calls) == 3
    assert {id(cert) for cert, _ in calls} == certs
    assert all(points == 7 for _, points in calls)
    assert all(entry["reverified"] for entry in report["steps"][1:])


def test_failed_recheck_reaches_every_step_citing_it(monkeypatch):
    data = tower.build_tower("magic", 10)
    moves = [step.move for step in data.steps[1:]]
    k = max(set(moves), key=moves.count)
    shared = data.certificates[k]
    citing = _citing(data, k)
    assert len(citing) > 1
    calls = _counting_rechecks(monkeypatch, fail=shared)
    report = tower.tower_report(data, recheck_points=5)
    assert report["verdict"] == "FAIL"
    assert len(calls) == 3
    assert [f["step"] for f in report["failures"]] == citing
    assert all(f["reason"] == "injected recheck failure" for f in report["failures"])
    for entry in report["steps"][1:]:
        assert entry["reverified"] == (entry["n"] not in citing)


@pytest.mark.parametrize("example, steps, radius", [
    ("magic", 3, 1), ("magic", 9, 2), ("magic", 10, 2),
    ("o41", 3, 0), ("o41", 10, 1),
])
def test_covered_radius_pinned(example, steps, radius):
    # values of the full-layer search, which the early stop must keep
    assert tower.covered_radius(tower.build_tower(example, steps)) == radius



def _full_frame_radius(data, lift):
    # the covered radius, each candidate T w formed and T w base
    # canonicalized
    base = data.steps[0].vertex
    lifted = lift(data.model.prime.ring, base)
    visited = {s.vertex for s in data.steps}
    frontier, seen, radius = [data.steps[0].conjugator], {base}, 0
    while True:
        nxt = []
        for frame in frontier:
            for mv in data.moves:
                t_n = ringmat.mat_mul(frame, mv.transporter)
                vertex = canon(ringmat.mat_mul(t_n, lifted), data.model.prime)
                if vertex not in seen:
                    if vertex not in visited:
                        return radius
                    nxt.append(t_n)
                    seen.add(vertex)
        if not nxt:
            return radius
        radius += 1
        frontier = nxt


@pytest.mark.parametrize("example, steps", [
    ("magic", 19), ("magic", 40), ("o41", 11), ("pu21", 7)])
def test_covered_radius_matches_a_full_frame_search(example, steps, lift):
    # covered_radius canonicalizes T * canonicalize(w base); at magic 19
    # and 40 a move paired with the wrong vertex reads one layer more
    data = tower.build_tower(example, steps)
    assert tower.covered_radius(data) == _full_frame_radius(data, lift)


def test_towers_and_trees_hash_no_ring_element(monkeypatch):
    # vertices are int matrices, so building the benchmark's towers,
    # reporting on them and exploring each model's tree key and compare
    # int tuples only; with vertices of ring elements the towers alone
    # hashed 5 772 of them
    calls = []
    hash_ = rings.RingElt.__hash__
    monkeypatch.setattr(rings.RingElt, "__hash__",
                        lambda self: calls.append(self) or hash_(self))
    for example, steps in (("magic", 10), ("o41", 3), ("pu21", 3)):
        report = tower.tower_report(tower.build_tower(example, steps))
        assert report["verdict"] == "PASS"
    for factory, radius in ((bttree.pgl2_model, 4), (bttree.oq_model, 3),
                            (bttree.su_model, 2)):
        assert bttree.bfs_explore(factory(), radius).is_tree()
    assert calls == []
