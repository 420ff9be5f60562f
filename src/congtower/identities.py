"""The exact identity suite for the built-in lattice data.

Each check is an independent computation (never a tautology): coordinate
changes are multiplied out over the exact rings, and each conjugation
display compares the machine-derived conjugate of a generic congruence
element Id + c Y with the printed template.  Both sides are affine in the
free matrix Y, so exact agreement at Y = 0 and at each elementary matrix
E_ij (the basis points the tower certificates also use) proves the
display for every Y.
"""

from __future__ import annotations

from . import catalog, ringmat, tower
from .poly import poly_identity_test
from .rings import make_ring, factor_rational_prime


def check_alpha_conjugates_forms(alpha=None):
    """alpha^t Q0 alpha = Q, with alpha integral of determinant one."""
    q0 = catalog.q0_form()
    q = catalog.q_form()
    if alpha is None:
        alpha = catalog.coordinate_change_alpha()
    lhs = ringmat.mat_mul(ringmat.mat_mul(ringmat.transpose(alpha), q0), alpha)
    ring = make_ring("rational")
    return (ringmat.mat_eq(lhs, q)
            and ringmat.det(alpha) == ring.one
            and ringmat.is_integral(alpha))


def check_o41_swap_in_so():
    """The x0/x1 swap preserves q and has determinant one."""
    q = catalog.q_form()
    g1 = catalog.o41_swap()
    ring = make_ring("rational")
    return (ringmat.preserves_form(g1, q, "bilinear")
            and ringmat.det(g1) == ring.one)


def check_unitary_swap(g0=None):
    """The unitary swap preserves the antidiagonal hermitian form h0 (the
    coordinates in which the building is described; the original tridiagonal
    h is carried to -h0 by the base change, see the coordinate-change check)
    and has determinant one."""
    ring = make_ring("cyclotomic-5")
    if g0 is None:
        g0 = catalog.pu21_swap()
    h0 = ringmat.mat(ring, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    return (ringmat.preserves_form(g0, h0, "hermitian")
            and ringmat.det(g0) == ring.one)


def check_coordinate_change():
    """c~^t h c = -h0 in Q(d), d^4 = 2d^2 + 4, plus N(1+a)=N(4+2a)=-4."""
    ok, _details = ringmat.coordinate_change_check()
    return ok


def check_o41_display():
    """The 5x5 conjugation display: conjugating the generic level-16 element
    by the swap produces exactly the printed template (scale factors 64,
    -32, 16, -8, 4 in the stated positions)."""
    ring = make_ring("rational")
    g1 = catalog.o41_swap()
    g1_inv = ringmat.mat_inverse(g1)
    sixteen = ring(16)
    # the printed template for g1^-1 (Id + 16 Y) g1, rows scaled by
    # (2,-1,-1,-1,1/2) and columns by (1/2,-1,-1,-1,2) after the 1<->5 swap:
    # entry (i, j) is [i == j] + c * Y[si][sj] for scale[(i, j)] = (si, sj, c)
    scale = {
        (0, 0): (4, 4, 16), (0, 1): (4, 1, -32), (0, 2): (4, 2, -32),
        (0, 3): (4, 3, -32), (0, 4): (4, 0, 64),
        (1, 0): (1, 4, -8), (1, 1): (1, 1, 16), (1, 2): (1, 2, 16),
        (1, 3): (1, 3, 16), (1, 4): (1, 0, -32),
        (2, 0): (2, 4, -8), (2, 1): (2, 1, 16), (2, 2): (2, 2, 16),
        (2, 3): (2, 3, 16), (2, 4): (2, 0, -32),
        (3, 0): (3, 4, -8), (3, 1): (3, 1, 16), (3, 2): (3, 2, 16),
        (3, 3): (3, 3, 16), (3, 4): (3, 0, -32),
        (4, 0): (0, 4, 4), (4, 1): (0, 1, -8), (4, 2): (0, 2, -8),
        (4, 3): (0, 3, -8), (4, 4): (0, 0, 16),
    }

    def derived(y):
        return tower._conjugate_generic(g1, g1_inv, sixteen, y)

    def template(y):
        rows = [[None] * 5 for _ in range(5)]
        for (i, j), (si, sj, c) in scale.items():
            rows[i][j] = y[si][sj] * ring(c)
        return ringmat.mat_add(ringmat.identity(ring, 5),
                               tuple(tuple(row) for row in rows))

    ok, _witness = poly_identity_test(derived, template, ring, 5)
    return ok


def check_pu21_display():
    """The 3x3 conjugation display: the printed level-p5^2 template, with
    its unit-times-pi-power scalars, conjugates under the unitary swap to
    the generic level-p5^4 element."""
    ring = make_ring("cyclotomic-5")
    g0 = catalog.pu21_swap()
    g0_inv = ringmat.mat_inverse(g0)
    s = catalog.pu21_gamma_template_scalars()
    # gamma's variable at (i,j) is the generic variable at the swapped spot
    sig = (2, 1, 0)

    def lhs(y):
        gamma = ringmat.mat_add(ringmat.identity(ring, 3), tuple(
            tuple(y[sig[i]][sig[j]] * s[i][j] for j in range(3))
            for i in range(3)))
        return ringmat.mat_mul(ringmat.mat_mul(g0, gamma), g0_inv)

    def rhs(y):
        return ringmat.mat_add(ringmat.identity(ring, 3),
                               ringmat.mat_scale(y, ring(5)))

    ok, _witness = poly_identity_test(lhs, rhs, ring, 3)
    return ok


def check_magic_containment():
    """Conjugating the generic level-p^2 element by the magic swap lands in
    the level-p congruence condition (p the norm-2 prime over Q(sqrt(-7)))."""
    _ring, prime = catalog.magic_ring_and_prime()
    cert = tower.certify_containment(catalog.magic_swap(), prime, 2, 1)
    return cert.passed


def check_o41_containment():
    """Level 16 conjugates into level 4 under the orthogonal swap."""
    prime = factor_rational_prime(make_ring("rational"), 2)[0]
    cert = tower.certify_containment(catalog.o41_swap(), prime, 4, 2)
    return cert.passed


def check_pu21_containment():
    """Level p5^4 = (5) conjugates into level p5^2 under the unitary swap."""
    _ring, prime = catalog.pu21_ring_and_prime()
    cert = tower.certify_containment(catalog.pu21_swap(), prime, 4, 2)
    return cert.passed


def check_reflection_data():
    """The reflection generators: integral, preserve Q0, and the pairwise
    product orders match the diagram labels.  Loading them runs the same
    predicate and raises InputError on data that fails it."""
    return catalog.reflection_data_problem(catalog.o41_reflections()) is None


IDENTITY_CHECKS = [
    ("alpha^t Q0 alpha = Q", check_alpha_conjugates_forms),
    ("orthogonal swap preserves q, det 1", check_o41_swap_in_so),
    ("unitary swap preserves h0 (hermitian), det 1", check_unitary_swap),
    ("base change carries h to -h0; N(1+a) = N(4+2a) = -4", check_coordinate_change),
    ("5x5 conjugation display (level 16 -> level 4)", check_o41_display),
    ("3x3 conjugation display (level p^4 -> level p^2)", check_pu21_display),
    ("magic containment: level p^2 conjugates into level p", check_magic_containment),
    ("orthogonal containment certificate (16 -> 4)", check_o41_containment),
    ("unitary containment certificate (p^4 -> p^2)", check_pu21_containment),
    ("reflection generators match the diagram", check_reflection_data),
]


def run_identity_suite():
    """Run every identity check; returns (all_ok, [(name, ok), ...])."""
    results = []
    all_ok = True
    for name, fn in IDENTITY_CHECKS:
        ok = bool(fn())
        results.append((name, ok))
        all_ok = all_ok and ok
    return all_ok, results


__all__ = [
    "run_identity_suite", "IDENTITY_CHECKS",
    "check_alpha_conjugates_forms", "check_o41_swap_in_so",
    "check_unitary_swap", "check_coordinate_change", "check_o41_display",
    "check_pu21_display", "check_magic_containment", "check_o41_containment",
    "check_pu21_containment", "check_reflection_data",
]
