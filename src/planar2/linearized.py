"""Linearized polynomials L(x) = sum a_i x^(q^i) on a tower GF(q^k).

L is GF(q)-linear. It permutes the field exactly when its k x k Dickson
matrix (coefficients twisted by Frobenius along each row) is nonsingular,
which we decide by exact Gaussian elimination. Inverses of permutations
are again linearized and come out of a k x k linear solve; an
interpolation route is kept alongside as an independent cross-check.
Coefficients and arguments, Fe or int, are elements of the tower's field
(fields.FieldSpec.bits); anything else is a ValueError.
"""

from __future__ import annotations

import numpy as np

from .fields import Fe, TowerView, mat_det, mat_solve, vec_eval


class LinearizedPoly:
    """Coefficients a_0..a_{k-1} of L(x) = sum a_i x^(q^i)."""

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower: TowerView, coeffs):
        coeffs = tuple(map(tower.fe, coeffs))
        if len(coeffs) != tower.k:
            raise ValueError(f"need exactly k={tower.k} coefficients, got {len(coeffs)}")
        self.tower = tower
        self.coeffs = coeffs

    def __call__(self, x) -> Fe:
        t = self.tower
        spec = t.spec
        xb = spec.bits(x)
        acc = 0
        for i, c in enumerate(self.coeffs):
            acc ^= spec.mul(c.bits, spec.frob(xb, i * t.m))
        return Fe(acc, spec)

    def evaluate_vec(self, a) -> np.ndarray:
        """L(a), elementwise on an int64 array of element bits."""
        t = self.tower
        return vec_eval(t.spec, [((t.q ** i,), c.bits) for i, c in enumerate(self.coeffs)], [a])

    def value_table(self) -> np.ndarray:
        """L(x) for every x, indexed by bits."""
        return self.evaluate_vec(np.arange(self.tower.spec.order, dtype=np.int64))

    def dickson_rows(self) -> list[list[int]]:
        t = self.tower
        k = t.k
        return [[t.spec.frob(self.coeffs[(c - r) % k].bits, r * t.m) for c in range(k)]
                for r in range(k)]

    def __eq__(self, other):
        return (isinstance(other, LinearizedPoly) and other.tower == self.tower
                and other.coeffs == self.coeffs)

    def __repr__(self):
        cs = ",".join(c.to_hex() for c in self.coeffs)
        return f"LinearizedPoly[{cs}] over {self.tower!r}"

    def to_json(self) -> list[str]:
        return [c.to_hex() for c in self.coeffs]


def dickson_det(L: LinearizedPoly) -> Fe:
    """Determinant of the Dickson matrix of L."""
    return Fe(mat_det(L.tower.spec, L.dickson_rows()), L.tower.spec)


def is_permutation(L: LinearizedPoly) -> bool:
    """L permutes GF(q^k) iff its Dickson determinant is nonzero."""
    return bool(dickson_det(L))


def kernel(L: LinearizedPoly) -> set[Fe]:
    """All roots of L; a GF(q)-subspace, so its size is a power of q."""
    vals = L.value_table()
    spec = L.tower.spec
    return {Fe(int(b), spec) for b in np.nonzero(vals == 0)[0]}


def inverse_map(L: LinearizedPoly) -> LinearizedPoly:
    """The linearized M with M(L(x)) = x everywhere.

    Composing two linearized polynomials convolves their coefficients with
    a Frobenius twist, so M's coefficients solve a k x k system whose
    matrix is the transposed Dickson matrix of L.
    """
    t = L.tower
    rows = [list(col) for col in zip(*L.dickson_rows())]
    try:
        sol = mat_solve(t.spec, rows, [1] + [0] * (t.k - 1))
    except ValueError:
        raise ValueError("inverse of a non-permutation linearized polynomial") from None
    return LinearizedPoly(t, sol)


def inverse_by_interpolation(L: LinearizedPoly) -> LinearizedPoly:
    """Debug route: recover the inverse from L's values on a normal basis."""
    t = L.tower
    spec = t.spec
    k = t.k
    xi = t.normal_element
    basis = [spec.frob(xi.bits, j * t.m) for j in range(k)]
    ys = [L(b).bits for b in basis]
    rows = [[spec.frob(y, j * t.m) for j in range(k)] for y in ys]
    sol = mat_solve(spec, rows, basis)
    return LinearizedPoly(t, sol)
