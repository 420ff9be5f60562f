"""The deterministic identity test for the conjugation displays.

Both sides of a display are matrix-valued maps of a free n x n matrix Y,
affine in Y by construction: products of constant matrices with
Id + c Y.  Two affine maps agree everywhere exactly when they agree at
Y = 0 and at each elementary matrix E_ij, so comparing them exactly at
those n^2 + 1 basis points is a complete proof, not a sample.
"""

from __future__ import annotations

from . import ringmat


def poly_identity_test(lhs, rhs, ring, n):
    """Decide lhs(Y) == rhs(Y) for all n x n matrices Y over ``ring``.

    ``lhs`` and ``rhs`` map an n x n matrix to a matrix and must both be
    affine in Y.  Returns (ok, witness): witness is None on agreement,
    otherwise the label of the first basis point ("0" or "E_(i,j)") where
    the two sides differ.
    """
    for label, y in ringmat.basis_points(ring, n):
        if lhs(y) != rhs(y):
            return False, label
    return True, None


__all__ = ["poly_identity_test"]
