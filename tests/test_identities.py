from fractions import Fraction

from congtower import catalog, cli, identities, ringmat
from congtower.poly import poly_identity_test
from congtower.rings import make_ring


def test_identity_suite_green():
    ok, results = identities.run_identity_suite()
    assert ok, [name for name, passed in results if not passed]
    assert len(results) == len(identities.IDENTITY_CHECKS)


def test_refused_containment_certificate_is_a_failed_row(monkeypatch, capsys):
    # certify_containment raises on a swap that drops the level; the suite
    # reports that row as FAIL and runs the others
    monkeypatch.setattr(catalog, "magic_swap", lambda: ringmat.mat(
        make_ring(7), [[1, Fraction(1, 4)], [0, 1]]))
    ok, results = identities.run_identity_suite()
    assert not ok
    assert [name for name, passed in results if not passed] == [
        "magic containment: level p^2 conjugates into level p"]
    assert cli.main(["check-identities"]) == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(identities.IDENTITY_CHECKS) + 1
    assert out[6].startswith("magic containment") and out[6].endswith("FAIL")
    assert out[-1] == "SOME CHECKS FAILED"


def test_fault_injected_alpha_fails(monkeypatch):
    alpha = catalog.coordinate_change_alpha()
    ring = make_ring("rational")
    rows = [list(row) for row in alpha]
    rows[0][1] = rows[0][1] + ring.one
    monkeypatch.setattr(catalog, "coordinate_change_alpha",
                        lambda: ringmat.mat(ring, rows))
    assert not identities.check_alpha_conjugates_forms()


def test_fault_injected_unitary_swap_fails(monkeypatch):
    g0 = catalog.pu21_swap()
    ring = make_ring("cyclotomic-5")
    rows = [list(row) for row in g0]
    rows[1][1] = rows[1][1] * ring.zeta()
    monkeypatch.setattr(catalog, "pu21_swap",
                        lambda: tuple(tuple(r) for r in rows))
    assert not identities.check_unitary_swap()


def test_affine_identity_test_names_the_differing_elementary_point():
    ring = make_ring("cyclotomic-5")
    z = ring.zeta()

    def lhs(y):
        return ringmat.mat_add(ringmat.identity(ring, 3),
                               ringmat.mat_scale(y, z - ring.one))

    def rhs(y):
        # lhs plus z * Y[1][0] in entry (2, 2): one E_ij coefficient apart
        rows = [list(row) for row in lhs(y)]
        rows[2][2] = rows[2][2] + z * y[1][0]
        return tuple(tuple(row) for row in rows)

    assert poly_identity_test(lhs, lhs, ring, 3) == (True, None)
    assert poly_identity_test(lhs, rhs, ring, 3) == (False, "E_(1,0)")


def test_affine_identity_test_checks_the_zero_point():
    # Y + s(Y) J and Y + J, s the entry sum: equal at every E_ij, not at 0
    ring = make_ring("rational")
    ones = ringmat.mat(ring, [[1] * 2] * 2)

    def lhs(y):
        s = sum((x for row in y for x in row), ring.zero)
        return ringmat.mat_add(y, ringmat.mat_scale(ones, s))

    def rhs(y):
        return ringmat.mat_add(y, ones)

    assert poly_identity_test(lhs, rhs, ring, 2) == (False, "0")


def test_identity_matrix_preserves_any_form():
    ring = make_ring("rational")
    q = catalog.q_form()
    assert ringmat.preserves_form(ringmat.identity(ring, 5), q, "bilinear")


def test_coordinate_change_row_passes_and_needs_a_squared_5(monkeypatch):
    assert identities.check_coordinate_change()
    # a + 1 in place of a = sqrt5: c still carries h to -h0, but a^2 = 5
    # and the norms fail
    h, h0, c, a, d, d_inv, e = identities._base_change_matrices()
    monkeypatch.setattr(identities, "_base_change_matrices",
                        lambda: (h, h0, c, a + 1, d, d_inv, e))
    assert identities._carries_h_to_minus_h0(c, h, h0)
    assert not identities.check_coordinate_change()


def test_identity_coordinate_change_fails_for_identity_matrix():
    # substituting c = Id: h and -h0 are different forms
    h, h0, c, *_ = identities._base_change_matrices()
    assert identities._carries_h_to_minus_h0(c, h, h0)
    ident = ringmat.identity(c[0][0].ring, 3)
    assert not identities._carries_h_to_minus_h0(ident, h, h0)


def test_coordinate_change_fails_for_one_changed_entry():
    h, h0, c, *_ = identities._base_change_matrices()
    for i in range(3):
        for j in range(3):
            rows = [list(row) for row in c]
            rows[i][j] = rows[i][j] + 1
            changed = tuple(tuple(row) for row in rows)
            assert not identities._carries_h_to_minus_h0(changed, h, h0), (i, j)


def test_coordinate_change_needs_the_compatible_second_root():
    # e -> -e in the bottom-left entry -1 - a + e breaks the identity
    h, h0, c, a, _d, _d_inv, e = identities._base_change_matrices()
    rows = [list(row) for row in c]
    rows[2][0] = -1 - a - e
    changed = tuple(tuple(row) for row in rows)
    assert not identities._carries_h_to_minus_h0(changed, h, h0)
