"""Linearized polynomials: Dickson test, kernels, inverses."""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import planar2 as p2
from planar2.linearized import (LinearizedPoly, dickson_det, inverse_by_interpolation,
                                inverse_map, is_permutation, kernel)


def test_identity_has_unit_determinant():
    for k in (2, 3, 4):
        t = p2.tower(2, k)
        L = LinearizedPoly(t, [1] + [0] * (k - 1))
        assert dickson_det(L) == t.fe(1)
        assert is_permutation(L)


def test_all_ones_is_the_trace_and_singular():
    for k in (2, 3, 4):
        t = p2.tower(2, k)
        L = LinearizedPoly(t, [1] * k)
        assert dickson_det(L).bits == 0
        assert not is_permutation(L)
        assert len(kernel(L)) == t.q ** (k - 1)
        for x in t.elements():
            assert L(x) == t.rel_trace(x)


def test_k2_binomial_determinant_closed_form():
    # det(x + b x^q) = 1 + b^(1+q)
    t = p2.tower(2, 2)
    for b in range(16):
        L = LinearizedPoly(t, [1, b])
        assert dickson_det(L) == 1 + t.rel_norm(t.fe(b))


def test_determinant_vs_exhaustive_bijectivity():
    rng = np.random.default_rng(0)
    for k in (2, 3, 4):
        t = p2.tower(2, k)
        for _ in range(200):
            L = LinearizedPoly(t, [int(v) for v in rng.integers(0, t.spec.order, k)])
            bij = np.unique(L.value_table()).size == t.spec.order
            assert is_permutation(L) == bij


def test_determinant_vs_bijectivity_q8():
    rng = np.random.default_rng(5)
    for k in (2, 3):
        t = p2.tower(3, k)
        for _ in range(100):
            L = LinearizedPoly(t, [int(v) for v in rng.integers(0, t.spec.order, k)])
            bij = np.unique(L.value_table()).size == t.spec.order
            assert is_permutation(L) == bij


def test_kernel_image_product_is_field_size():
    rng = np.random.default_rng(1)
    t = p2.tower(2, 3)
    for _ in range(100):
        L = LinearizedPoly(t, [int(v) for v in rng.integers(0, 64, 3)])
        ker = kernel(L)
        img = np.unique(L.value_table()).size
        assert len(ker) * img == 64
        # kernel size is a power of q
        s = len(ker)
        while s % t.q == 0:
            s //= t.q
        assert s == 1


def test_inverse_of_identity():
    t = p2.tower(2, 3)
    ident = LinearizedPoly(t, [1, 0, 0])
    assert inverse_map(ident) == ident


def test_inverse_composes_to_identity_exhaustively():
    rng = np.random.default_rng(2)
    t = p2.tower(2, 2)
    found = 0
    while found < 25:
        L = LinearizedPoly(t, [int(v) for v in rng.integers(0, 16, 2)])
        if not is_permutation(L):
            continue
        found += 1
        Li = inverse_map(L)
        for x in t.elements():
            assert Li(L(x)) == x
            assert L(Li(x)) == x


def test_inverse_by_interpolation_agrees():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        t = p2.tower(2, k)
        found = 0
        while found < 20:
            L = LinearizedPoly(t, [int(v) for v in rng.integers(0, t.spec.order, k)])
            if not is_permutation(L):
                continue
            found += 1
            assert inverse_by_interpolation(L) == inverse_map(L)


@st.composite
def linearized_polys(draw):
    """Random coefficients over GF(q^k), k in {2, 3, 4}, q = 2^m."""
    m, k = draw(st.sampled_from([(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3),
                                 (3, 3), (1, 4), (2, 4)]))
    t = p2.tower(m, k)
    return LinearizedPoly(t, draw(st.lists(st.integers(0, t.spec.order - 1),
                                           min_size=k, max_size=k)))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(linearized_polys(), st.data())
def test_inverse_map_matches_interpolation(L, data):
    t = L.tower
    if not is_permutation(L):
        for inverse in (inverse_map, inverse_by_interpolation):
            with pytest.raises(ValueError):
                inverse(L)
        event(f"k={t.k} not a permutation")
        return
    M = inverse_map(L)
    assert inverse_by_interpolation(L) == M
    x = t.fe(data.draw(st.integers(0, t.spec.order - 1)))
    assert M(L(x)) == x and L(M(x)) == x
    event(f"k={t.k} permutation")


def test_inverse_of_non_permutation_raises():
    t = p2.tower(2, 2)
    with pytest.raises(ValueError):
        inverse_map(LinearizedPoly(t, [1, 1]))


def test_quartic_example_inverse_formula():
    # m even, w^2 + w + 1 = 0: the inverse of x + w x^q + x^q2 + w^2 x^q3
    # swaps w and w^2
    t = p2.tower(2, 4)
    w = next(t.fe(b) for b in range(2, 256) if (t.fe(b) ** 2 + t.fe(b) + 1).bits == 0)
    L = LinearizedPoly(t, [t.fe(1), w, t.fe(1), w * w])
    Li = inverse_map(L)
    assert Li == LinearizedPoly(t, [t.fe(1), w * w, t.fe(1), w])
    tbl, tbli = L.value_table(), Li.value_table()
    assert np.array_equal(tbli[tbl], np.arange(256))


def test_coefficient_count_enforced():
    t = p2.tower(2, 3)
    with pytest.raises(ValueError):
        LinearizedPoly(t, [1, 2])


def test_json_roundtrip():
    t = p2.tower(2, 3)
    L = LinearizedPoly(t, [3, 0, 7])
    assert L.to_json() == ["3", "0", "7"]
