import builtins

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from congtower import catalog, homology, identities, ringmat
from congtower.rings import make_ring

# the simple roots of the reflection group of diag(1,1,1,1,-1), and their
# reflections, as the repository bundled them before they were derived
ROOTS = [(-1, 1, 0, 0, 0), (0, -1, 1, 0, 0), (0, 0, -1, 1, 0),
         (0, 0, 0, -1, 0), (1, 1, 1, 0, 1)]
REFLECTIONS = [
    [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
     [0, 0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0],
     [0, 0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
     [0, 0, 0, 0, 1]],
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, -1, 0],
     [0, 0, 0, 0, 1]],
    [[0, -1, -1, 0, 1], [-1, 0, -1, 0, 1], [-1, -1, 0, 0, 1],
     [0, 0, 0, 1, 0], [-1, -1, -1, 0, 2]],
]
# path r1 - r2 - r3 = r4 with labels 3, 3, 4, and r5 on r3 with label 3
DIAGRAM = [[1, 3, 2, 2, 2],
           [3, 1, 3, 2, 2],
           [2, 3, 1, 4, 3],
           [2, 2, 4, 1, 2],
           [2, 2, 3, 2, 1]]


def _expected_reflections():
    ring = make_ring("rational")
    return [ringmat.mat(ring, rows) for rows in REFLECTIONS]


def test_vinberg_roots():
    assert catalog.o41_roots() == ROOTS


def test_reflections_in_the_roots():
    assert catalog.o41_reflections() == _expected_reflections()


def test_diagram_labels_from_the_gram_matrix():
    assert catalog.coxeter_diagram_orders() == DIAGRAM


def test_simplex_check_refuses_a_non_simple_height_0_root():
    catalog.check_finite_volume_simplex(ROOTS)
    # five roots in the 4-space e5-perp: the Gram matrix is singular
    with pytest.raises(AssertionError, match="signature"):
        catalog.check_finite_volume_simplex(ROOTS[:4] + [(-1, 0, 1, 0, 0)])


def test_simplex_check_refuses_a_vertex_neither_finite_nor_ideal():
    # a root non-acute to the four simple roots, of height 4, whose
    # hyperplane leaves the vertex opposite the third root hyperideal
    with pytest.raises(AssertionError, match="vertex opposite"):
        catalog.check_finite_volume_simplex(ROOTS[:4] + [(2, 1, 0, 0, 2)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.booleans())
def test_inertia_counts_the_eigenvalue_signs(rows, low_rank):
    # against floating-point eigenvalues of small integer matrices; a
    # low-rank case u u^t - w w^t exercises the zero-diagonal pivots
    n = len(rows)
    if low_rank:
        u, w = rows[0], rows[-1]
        gram = [[u[i] * u[j] - w[i] * w[j] for j in range(n)] for i in range(n)]
    else:
        gram = [[rows[min(i, j)][max(i, j)] for j in range(n)]
                for i in range(n)]
    ev = np.linalg.eigvalsh(np.array(gram, dtype=float))
    expected = (int((ev > 1e-9).sum()), int((ev < -1e-9).sum()),
                int((abs(ev) <= 1e-9).sum()))
    assert catalog._inertia(gram) == expected


def test_root_search_is_bounded(monkeypatch):
    # the fifth root has height 1/2; a search of height 0 alone finds four
    monkeypatch.setattr(catalog, "_MAX_ROOT_HEIGHT", 0)
    with pytest.raises(AssertionError, match="fewer than five roots"):
        catalog.o41_roots()


def test_o41_reflections_open_no_file(tmp_path, monkeypatch):
    monkeypatch.setenv(homology.DATA_ENV_VAR, str(tmp_path))

    def refuse(*args, **kwargs):
        raise AssertionError("opened %r" % (args,))

    monkeypatch.setattr(builtins, "open", refuse)
    mats = catalog.o41_reflections()
    monkeypatch.undo()
    assert mats == _expected_reflections()


def test_reflection_row_compares_product_orders_with_the_labels(monkeypatch):
    assert identities.check_reflection_data()
    wrong = [row[:] for row in DIAGRAM]
    wrong[2][3] = wrong[3][2] = 6
    monkeypatch.setattr(catalog, "coxeter_diagram_orders", lambda: wrong)
    assert not identities.check_reflection_data()
