"""Planarity predicates, criteria, families, sets, searches."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import planar2 as p2
from planar2 import cli, kernels, planar
from planar2.fields import BudgetError, lex_rows
from planar2.planar import (REGISTRY, AuditReport, DOPoly, FamilyParams, criterion_lists,
                            criterion_table_k2, criterion_table_k3, criterion_table_k4,
                            family_audit, family_coeffs, family_param_rows,
                            family_param_space, family_shape, family_tuple,
                            offdiagonal_search, planar_by_criterion)


def _planar_reference(f: DOPoly) -> bool:
    spec = f.spec
    fv = [f.eval(spec.fe(x)).bits for x in range(spec.order)]
    for a in range(1, spec.order):
        seen = set()
        for x in range(spec.order):
            v = fv[x ^ a] ^ fv[x] ^ spec.mul(a, x)
            if v in seen:
                return False
            seen.add(v)
    return True


# -- DOPoly normalization ----------------------------------------------------


def test_terms_merge_and_drop_zero():
    t = p2.tower(2, 2)
    f = DOPoly(t, [(3, 0, 2), (3, 2, 0)])  # same exponent twice cancels
    assert f.is_zero()
    g = DOPoly(t, [(3, 0, 2), (5, 0, 2)])
    assert g.terms == ((5, 6, 0, 2),)  # x^(2^0+2^2) with coefficient 3 + 5


def test_exponent_range_checked():
    t = p2.tower(2, 2)
    with pytest.raises(ValueError):
        DOPoly(t, [(1, 0, 4)])


@pytest.mark.parametrize("coeff", [-1, 16, 1 << 40])
def test_coefficient_range_checked(coeff):
    # over GF(2^4): an int coefficient is an element's bits, like Fe's
    with pytest.raises(ValueError, match="out of range"):
        DOPoly(p2.tower(2, 2), [(coeff, 0, 2)])


def test_square_exponent_term_is_additive():
    # u = v terms never change planarity: the linear part of the
    # difference map is unchanged
    t = p2.tower(2, 2)
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b, c = (int(v) for v in rng.integers(0, 16, 3))
        f = DOPoly(t, [(a, 0, 2), (b, 1, 3)])
        g = DOPoly(t, [(a, 0, 2), (b, 1, 3), (c, 1, 1)])
        assert p2.is_planar_bruteforce(f) == p2.is_planar_bruteforce(g)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_terms_merge_by_pair_and_sort_by_reduced_exponent(data):
    # raw terms with swapped pairs, and repeats that cancel; (n-1, n-1) is
    # x^(2^n) = x, the least reduced exponent
    n = data.draw(st.integers(1, 8))
    t = p2.tower(n, 1)
    spec = t.spec
    coeff, index = st.integers(0, spec.order - 1), st.integers(0, n - 1)
    raw = data.draw(st.lists(st.tuples(coeff, index, index), max_size=6))
    if raw:
        raw += [(c, v, u) for c, u, v in data.draw(st.lists(st.sampled_from(raw), max_size=4))]
    raw = data.draw(st.permutations(raw + [(data.draw(coeff), n - 1, n - 1)]))
    f = DOPoly(t, raw)
    want = [0] * spec.order
    for c, u, v in raw:
        for x in range(spec.order):
            want[x] ^= spec.mul(c, spec.pow(x, (1 << u) + (1 << v)))
    assert f.value_table().tolist() == want
    exps = [e for e, _, _, _ in f.terms]
    assert all(a < b for a, b in zip(exps, exps[1:]))
    top = 0
    for c, u, v in raw:
        if u == v == n - 1:
            top ^= c
    if top:
        assert f.terms[0][:2] == (1, top)
    else:
        assert 1 not in exps


def test_parse_roundtrip():
    t = p2.tower(2, 3)
    f = DOPoly(t, [(0x2A, 0, 2), (1, 2, 4)])
    assert DOPoly.parse(f.spec_string(), t) == f
    with pytest.raises(ValueError):
        DOPoly.parse("(1,2)", t)


# -- predicates ---------------------------------------------------------------


def test_zero_and_square_are_planar():
    t = p2.tower(2, 2)
    assert p2.is_planar_bruteforce(DOPoly(t, []))
    assert p2.is_planar_bruteforce(DOPoly(t, [(1, 0, 0)]))  # x^2
    assert p2.is_planar_linearized(DOPoly(t, []))


def test_cube_over_gf4_not_planar():
    t = p2.tower(1, 2)
    f = DOPoly(t, [(1, 0, 1)])
    assert not p2.is_planar_bruteforce(f)
    assert not p2.is_planar_linearized(f)
    assert not _planar_reference(f)


def test_predicates_agree_with_reference_on_random_polys():
    rng = np.random.default_rng(1)
    t = p2.tower(2, 3)
    for _ in range(120):
        nterm = int(rng.integers(1, 4))
        terms = [(int(rng.integers(0, 64)), int(rng.integers(0, 6)),
                  int(rng.integers(0, 6))) for _ in range(nterm)]
        f = DOPoly(t, terms)
        want = _planar_reference(f)
        assert p2.is_planar_bruteforce(f) == want
        assert p2.is_planar_linearized(f) == want


# -- no-root criteria ----------------------------------------------------------


def _no_nonzero_root(table) -> bool:
    return not np.any(table[1:] == 0)


def test_criteria_zero_coefficients_give_planar():
    assert _no_nonzero_root(criterion_table_k2([0, 0], p2.tower(2, 2)))
    assert _no_nonzero_root(criterion_table_k3([0] * 4, [0] * 2, p2.tower(2, 3)))
    assert _no_nonzero_root(criterion_table_k4([0] * 6, [0] * 4, [0] * 2, p2.tower(2, 4)))


def test_criterion_k2_exhaustive_binomials_m2():
    t = p2.tower(2, 2)
    for c0 in range(16):
        for c1 in range(16):
            f = DOPoly(t, [(c0, 0, 2), (c1, 1, 3)])
            assert planar_by_criterion(f) == p2.is_planar_bruteforce(f)


def test_criterion_k2_on_gf4_cube():
    # m = 1: the single-coefficient shape covers x^3 over GF(4)
    t = p2.tower(1, 2)
    assert not planar_by_criterion(DOPoly(t, [(1, 0, 1)]))
    assert planar_by_criterion(DOPoly(t, []))


def test_criterion_wrong_arity_raises():
    with pytest.raises(ValueError):
        criterion_table_k2([0], p2.tower(2, 2))
    with pytest.raises(ValueError):
        criterion_table_k3([0] * 4, [0] * 2, p2.tower(2, 2))


@pytest.mark.parametrize("coeff", [-1, 16])
def test_criterion_coefficient_range_checked(coeff):
    with pytest.raises(ValueError, match="out of range"):
        criterion_table_k2([coeff, 0], p2.tower(2, 2))


def test_criterion_lists_mapping():
    t = p2.tower(2, 3)
    f = DOPoly(t, [(7, 0, 2), (5, 2, 4), (3, 0, 4)])
    c1, c2 = criterion_lists(f)
    assert c1 == [7, 0, 5, 0] and c2 == [3, 0]
    # gap not a multiple of m: not covered
    assert criterion_lists(DOPoly(t, [(1, 0, 1)])) is None
    # additive square terms are ignored
    g = DOPoly(t, [(7, 0, 2), (9, 1, 1)])
    assert criterion_lists(g) == [[7, 0, 0, 0], [0, 0]]
    # k=2: one block; k=4: blocks of 3m, 2m and m, pairs read either way round
    assert criterion_lists(DOPoly(p2.tower(2, 2), [(5, 0, 2), (9, 3, 1), (2, 1, 1)])) == [[5, 9]]
    t4 = p2.tower(2, 4)
    h = DOPoly(t4, [(3, 5, 7), (4, 0, 4), (6, 7, 1), (1, 3, 3)])
    assert criterion_lists(h) == [[0, 0, 0, 0, 0, 3], [4, 0, 0, 0], [0, 6]]
    assert criterion_lists(DOPoly(t4, [(4, 0, 4), (1, 2, 5)])) is None


def test_criterion_matches_bruteforce_random_p2_p3_shapes():
    rng = np.random.default_rng(2)
    t = p2.tower(2, 3)
    for exps in ([(0, 2), (2, 4), (0, 4)], [(1, 3), (3, 5), (1, 5)]):
        for _ in range(60):
            coeffs = [int(v) for v in rng.integers(0, 64, 3)]
            f = DOPoly(t, [(coeffs[i], *exps[i]) for i in range(3)])
            assert planar_by_criterion(f) == p2.is_planar_bruteforce(f)


def test_criterion_matches_bruteforce_random_p4_shape():
    rng = np.random.default_rng(3)
    t = p2.tower(2, 4)
    for _ in range(40):
        a, b, c = (int(v) for v in rng.integers(0, 256, 3))
        f = DOPoly(t, [(a, 0, 2), (b, 0, 4), (c, 0, 6)])
        assert planar_by_criterion(f) == p2.is_planar_bruteforce(f)


def test_criterion_equivalence_q8():
    # binomial shape exhaustively over GF(64), trinomial shapes sampled
    t2 = p2.tower(3, 2)
    for a in range(64):
        for b in range(0, 64, 7):
            f = DOPoly(t2, [(a, 0, 3), (b, 1, 4)])
            assert planar_by_criterion(f) == p2.is_planar_bruteforce(f)
    rng = np.random.default_rng(4)
    t3 = p2.tower(3, 3)
    for exps in ([(0, 3), (3, 6), (0, 6)], [(1, 4), (4, 7), (1, 7)]):
        for _ in range(25):
            cs = [int(v) for v in rng.integers(0, 512, 3)]
            f = DOPoly(t3, [(cs[i], *exps[i]) for i in range(3)])
            assert planar_by_criterion(f) == p2.is_planar_bruteforce(f)


# -- families -------------------------------------------------------------------


def test_p1_zero_parameter_gives_zero_function():
    t = p2.tower(2, 2)
    f = family_coeffs(FamilyParams("P1", (t.spec.zero,), t))
    assert f.is_zero() and p2.is_planar_bruteforce(f)


def test_p1_norm_one_parameter_rejected():
    t = p2.tower(2, 2)
    bad = next(x for x in t.mu_set() if x.bits != 0)
    with pytest.raises(ValueError, match="s\\^\\(1\\+q\\)"):
        family_coeffs(FamilyParams("P1", (bad,), t))


def test_p1_instances_are_monomials():
    t = p2.tower(2, 2)
    for p in family_param_space("P1", t):
        f = family_coeffs(p)
        assert family_tuple("P1", f, t)[1] == 0  # doubled-exponent coefficient stays 0


def test_p2_zero_parameters_give_zero_function():
    t = p2.tower(2, 3)
    f = family_coeffs(FamilyParams("P2", (t.spec.zero, t.spec.zero), t))
    assert f.is_zero()


def test_p3_has_conjugate_coefficients():
    t = p2.tower(2, 3)
    for a in (1, 5, 30):
        f = family_coeffs(FamilyParams("P3", (t.fe(a),), t))
        # shape (1,3), (3,5), (1,5)
        assert family_tuple("P3", f, t) == (a, 0, t.frobq(t.fe(a)).bits)


def test_p4b_inadmissible_rejected():
    t = p2.tower(2, 4)
    bad = next(x for x in t.mu_set() if x.bits != 0)
    with pytest.raises(ValueError):
        family_coeffs(FamilyParams("P4b", (bad,), t))


def test_family_sufficiency_small():
    for fam, t in (("P1", p2.tower(2, 2)), ("P3", p2.tower(2, 3)),
                   ("P4a", p2.tower(2, 4))):
        rep = family_audit(fam, t, "sufficiency")
        assert len(rep.failures) == 0
        assert rep.tested == len(family_param_space(fam, t))
        assert rep.planar.shape[1] == len(family_shape(fam, t))
        assert (rep.planar == 0).all(axis=1).any()  # the zero row


def test_known_families_planar():
    cases = [("SZ-monomial", p2.tower(2, 2)), ("SZ-generalized", p2.tower(2, 2)),
             ("ScherrZieve", p2.tower(2, 3)), ("Hu2", p2.tower(1, 3)),
             ("Hu3", p2.tower(2, 3)), ("Knuth", p2.tower(1, 3))]
    for fam, t in cases:
        space = family_param_space(fam, t)
        assert space
        for p in space:
            assert p2.is_planar_bruteforce(family_coeffs(p))


def test_family_condition_errors():
    with pytest.raises(ValueError):  # m odd
        family_param_space("ScherrZieve", p2.tower(3, 3))
    with pytest.raises(ValueError):  # m = 2 mod 3
        family_coeffs(FamilyParams("Hu2", (), p2.tower(2, 3)))
    with pytest.raises(ValueError):  # m = 1 mod 3
        family_coeffs(FamilyParams("Hu3", (), p2.tower(1, 3)))
    with pytest.raises(ValueError):  # even degree
        family_coeffs(FamilyParams("Knuth", (), p2.tower(1, 4)))
    with pytest.raises(ValueError):
        family_coeffs(FamilyParams("nope", (), p2.tower(2, 2)))


def _admitted_towers(rec):
    """The towers with m in 1..3 on which a record's family lives (k=3 for
    the family without a natural degree)."""
    k = rec.k if rec.k is not None else 3
    return [p2.tower(m, k) for m in (1, 2, 3)
            if rec.tower_ok(m, k)]


def _row_terms(rec, t, rows):
    """The array terms of rec on parameter rows, as one term list per row."""
    cols = [(np.broadcast_to(c, rows.shape[:1]), u, v) for c, u, v in rec.terms(t, *rows.T)]
    return [[(int(c[i]), u, v) for c, u, v in cols] for i in range(rows.shape[0])]


def test_registry_records_are_consistent():
    rng = np.random.default_rng(2)
    for tag, rec in REGISTRY.items():
        checked = 0
        for t in _admitted_towers(rec):
            n = t.spec.n
            shape = None
            if rec.shape is not None:
                raw = rec.shape(t.m)
                if len({frozenset((u % n, v % n)) for u, v in raw}) < len(raw):
                    with pytest.raises(ValueError, match="coincide"):
                        family_shape(tag, t)
                    continue
                shape = family_shape(tag, t)
                assert all(0 <= u <= v < n for u, v in shape)
                assert len(set(shape)) == len(shape)
            # every parameter tuple over the field (262,144 pairs for P2 at
            # m=3) through the array admits
            every = lex_rows(t.spec.order, rec.arity)
            ok = np.broadcast_to(rec.admits(t, *every.T), every.shape[:1])
            space = family_param_rows(tag, t)
            assert np.array_equal(every[ok], space)
            checked += len(space)
            picks = range(len(space))
            if len(space) > 4096:  # polynomials for a sample of the rows
                picks = sorted(rng.choice(len(space), 200, replace=False))
            for i, terms in zip(picks, _row_terms(rec, t, space[list(picks)])):
                params = tuple(t.fe(b) for b in space[i].tolist())
                f = family_coeffs(FamilyParams(tag, params, t))
                assert f.tower == t
                assert f == DOPoly(t, [(c, u % n, v % n) for c, u, v in terms])
                if shape is not None:
                    tup = family_tuple(tag, f, t)
                    assert DOPoly(t, [(c, u, v) for c, (u, v) in zip(tup, shape)]) == f
            rejected = every[~ok]
            for row in rejected[rng.choice(len(rejected), min(20, len(rejected)),
                                           replace=False)]:
                with pytest.raises(ValueError):
                    family_coeffs(FamilyParams(tag, tuple(t.fe(int(b)) for b in row), t))
        assert checked, tag


# -- the scalar reference of the array-valued registry -------------------------
#
# admits and terms of each record with parameters, written on Fe scalars as
# the paper states them: the array forms in planar.REGISTRY must agree.

def _ref_p2_delta(t, u, v):
    u0, u1, u2 = (t.frobq(u, j) for j in range(3))
    v0, v1, v2 = (t.frobq(v, j) for j in range(3))
    return u0 * v1 + u1 * v2 + u2 * v0 + u0 * u1 * u2 + v0 * v1 * v2


def _ref_p2_terms(t, u, v):
    m = t.m
    uq, uq2 = t.frobq(u), t.frobq(u, 2)
    vq, vq2 = t.frobq(v), t.frobq(v, 2)
    den = 1 + _ref_p2_delta(t, u, v)
    a = (vq + uq * uq2 + uq2 * v * vq) / den
    b = (uq2 * vq) / den
    c = (vq * vq2 + uq2 + u * uq2 * vq) / den
    return [(a, 0, m), (b, m, 2 * m), (c, 0, 2 * m)]


def _ref_p4b_terms(t, s2):
    m = t.m
    den = 1 + t.rel_norm(s2)
    s2q, s2q2, s2q3 = t.frobq(s2), t.frobq(s2, 2), t.frobq(s2, 3)
    return [((s2q * s2q2 * s2q3) / den, 0, m), ((s2q2 * s2q3) / den, 0, 2 * m),
            (s2q3 / den, 0, 3 * m)]


def _ref_scherr_zieve_admits(t, c):
    e = (1 << 2 * t.m) + (1 << t.m) + 1
    return (c ** e).bits == 1 and (c ** (e // 3)).bits != 1


SCALAR_REFERENCE = {  # tag: (admits, terms)
    "P1": (lambda t, s: t.rel_norm(s).bits != 1,
           lambda t, s: [(t.frobq(s) / (1 + t.rel_norm(s)), 0, t.m)]),
    "P2": (lambda t, u, v: _ref_p2_delta(t, u, v).bits != 1, _ref_p2_terms),
    "P3": (lambda t, a: True,
           lambda t, a: [(a, 1, t.m + 1), (t.frobq(a), 1, 2 * t.m + 1)]),
    "P4a": (lambda t, s1: (s1 * t.frobq(s1, 2)).bits != 1,
            lambda t, s1: [(t.frobq(s1, 2) / (1 + s1 * t.frobq(s1, 2)), 0, 2 * t.m)]),
    "P4b": (lambda t, s2: t.rel_norm(s2).bits != 1, _ref_p4b_terms),
    "SZ-monomial": (lambda t, c: bool(c) and t.in_base(c) and t.abs_trace_base(c).bits == 0,
                    lambda t, c: [(c, 0, t.m)]),
    "SZ-generalized": (lambda t, c: bool(c) and t.abs_trace_base(t.rel_norm(c)).bits == 0,
                       lambda t, c: [(c, 0, t.m)]),
    "ScherrZieve": (_ref_scherr_zieve_admits, lambda t, c: [(c, t.m, 2 * t.m)]),
}


def _excluded_and_special(t):
    """0, 1, the q-subfield, and the elements the records exclude or sit
    next to: norm 1 (P1, P4b, and P2 through Delta(0, v) = N(v)),
    s1^(1+q^2) = 1 (P4a) and c^(q^2+q+1) = 1 (ScherrZieve)."""
    spec, q = t.spec, t.q
    out = {0, 1} | {x.bits for x in t.mu_set()} | {x.bits for x in t.subfield_members()}
    for e in (q * q + 1, q * q + q + 1):
        out |= {x for x in range(1, spec.order) if spec.pow(x, e) == 1}
    return sorted(out)


_ARRAY_CASES = [(tag, t.m) for tag, rec in REGISTRY.items() if rec.arity
                for t in _admitted_towers(rec)]


def test_every_record_with_parameters_has_a_scalar_reference():
    assert sorted(SCALAR_REFERENCE) == sorted({tag for tag, _ in _ARRAY_CASES})


@pytest.mark.parametrize("tag, m", _ARRAY_CASES)
@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_array_registry_matches_the_scalar_reference(tag, m, data):
    rec = REGISTRY[tag]
    t = p2.tower(m, rec.k)
    elem = st.one_of(st.sampled_from(_excluded_and_special(t)),
                     st.integers(0, t.spec.order - 1))
    params = data.draw(st.lists(st.tuples(*[elem] * rec.arity), min_size=1, max_size=30))
    rows = np.array(params, dtype=np.int64).reshape(len(params), rec.arity)
    ok = np.broadcast_to(rec.admits(t, *rows.T), rows.shape[:1])
    ref_admits, ref_terms = SCALAR_REFERENCE[tag]
    for row, admitted, terms in zip(params, ok, _row_terms(rec, t, rows)):
        fe = [t.fe(b) for b in row]
        assert bool(admitted) == bool(ref_admits(t, *fe)), row
        if admitted:
            assert terms == [(int(c), u, v) for c, u, v in ref_terms(t, *fe)], row


def test_sufficiency_budget_counts_admissible_rows():
    t = p2.tower(2, 3)
    assert len(family_param_rows("P2", t)) == 2836
    assert family_audit("P2", t, "sufficiency", budget=2836).tested == 2836
    with pytest.raises(BudgetError, match="admissible parameters exceed the audit budget 2835"):
        family_audit("P2", t, "sufficiency", budget=2835)


def test_p3_at_m1_takes_exponents_mod_n():
    t = p2.tower(1, 3)
    assert family_shape("P3", t) == [(1, 2), (0, 2), (0, 1)]
    space = family_param_space("P3", t)
    assert len(space) == 8
    assert all(p2.is_planar_bruteforce(family_coeffs(p)) for p in space)
    rep = family_audit("P3", t, "sufficiency")
    assert rep.tested == 8 and len(rep.failures) == 0


def test_p1_at_m1_shape_columns_coincide():
    t = p2.tower(1, 2)
    with pytest.raises(ValueError, match="coincide"):
        family_shape("P1", t)
    with pytest.raises(ValueError, match="coincide"):
        family_audit("P1", t, "converse")


def test_scherr_zieve_admissible_count_m2():
    # elements of multiplicative order dividing 21 but not 7
    t = p2.tower(2, 3)
    assert len(family_param_space("ScherrZieve", t)) == 14


# -- the coefficient-set correspondence -------------------------------------------


def test_norm_trace_zero_equals_fraction_image():
    for m, size in ((2, 6), (3, 28)):
        t = p2.tower(m, 2)
        M = p2.norm_trace_zero_set(t)
        assert M == p2.fraction_image_set(t)
        assert len(M) == size
        assert t.spec.zero in M


def test_monomial_planarity_matches_the_set():
    for m in (2, 3):
        t = p2.tower(m, 2)
        M = {c.bits for c in p2.norm_trace_zero_set(t)}
        got = {c for c in range(t.spec.order)
               if p2.is_planar_bruteforce(DOPoly(t, [(c, 0, m)]))}
        assert got == M


def test_two_to_one():
    assert p2.fraction_map_two_to_one(p2.tower(2, 2))
    assert p2.fraction_map_two_to_one(p2.tower(3, 2))


def _ref_fraction_map(t):
    """s -> s^q/(1+s^(1+q)) on Fe scalars, over s with s^(1+q) != 1."""
    return {s: t.frobq(s) / (1 + t.rel_norm(s)) for s in t.elements()
            if t.rel_norm(s).bits != 1}


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_coefficient_sets_match_their_scalar_definitions(m):
    t = p2.tower(m, 2)
    image = _ref_fraction_map(t)
    assert p2.norm_trace_zero_set(t) == {
        x for x in t.elements() if t.abs_trace_base(t.rel_norm(x)).bits == 0}
    assert p2.fraction_image_set(t) == set(image.values())
    fibres = {}
    for s, c in image.items():
        if s:
            fibres.setdefault(c, []).append(s)
    assert p2.fraction_map_two_to_one(t) == all(
        len(g) == 2 and g[1] == t.frobq(g[0].inv()) != g[0] for g in fibres.values())


# -- audits and searches ------------------------------------------------------------


def test_converse_audit_reports_rather_than_asserts():
    t = p2.tower(2, 2)
    rep = family_audit("P1", t, "converse")
    assert rep.tested == 256
    in_family = {tuple(int(c) for c in x) for x in rep.planar} \
        - {tuple(int(c) for c in x) for x in rep.extras}
    M = {c.bits for c in p2.norm_trace_zero_set(t)}
    assert in_family == {(c, 0) for c in M}
    # at this size the shape sweep finds nothing outside the family
    assert len(rep.extras) == 0


def test_audit_budget():
    with pytest.raises(BudgetError):
        family_audit("P2", p2.tower(2, 3), "converse", budget=10)


@pytest.mark.parametrize("search, tested", [
    (lambda budget: family_audit("P1", p2.tower(2, 2), "converse", budget).tested, 256),
    (lambda budget: offdiagonal_search(p2.tower(3, 2), 2, budget)["tested"], 12_097),
], ids=["converse-P1-m2", "problem27-m3-support2"])
def test_support_sweep_budget_boundary(search, tested):
    # tested = sum over s <= support of C(w, s) (2^n - 1)^s rows
    assert search(tested) == tested
    with pytest.raises(BudgetError):
        search(tested - 1)


@st.composite
def _element_rows(draw, max_bits=63):
    """(n, rows): int64 rows of n-bit elements, width * n <= max_bits, with
    small values mixed in so that rows repeat and share prefixes."""
    n = draw(st.integers(1, 20))
    width = draw(st.integers(0, max_bits // n))
    top = (1 << n) - 1
    elements = st.integers(0, min(top, 1)) | st.integers(0, top)
    return n, draw(hnp.arrays(np.int64, (draw(st.integers(0, 12)), width), elements=elements))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_element_rows())
def test_row_keys_are_injective_and_keep_the_lexicographic_order(case):
    n, rows = case
    keys = planar._row_keys(rows, n)
    assert keys.dtype == np.int64 and keys.shape == (len(rows),)
    tuples = [tuple(r) for r in rows.tolist()]
    for i, (ki, ti) in enumerate(zip(keys.tolist(), tuples)):
        for kj, tj in zip(keys.tolist()[i:], tuples[i:]):
            assert (ki < kj, ki == kj) == (ti < tj, ti == tj)
    with pytest.raises(ValueError, match="int64 key"):  # 63 // n + 1 digits need 64 bits or more
        planar._row_keys(np.zeros((1, 63 // n + 1), dtype=np.int64), n)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_element_rows(max_bits=80))
def test_audit_csv_is_a_header_and_one_line_of_hex_cells_per_planar_row(case):
    _, rows = case
    rep = AuditReport("P1", 4, 2, "converse", len(rows), rows, rows[:0], rows[:0])
    lines = [",".join(f"{c:x}" for c in row) for row in rows.tolist()]
    width = rows.shape[1] if lines else 0
    assert rep.to_csv() == "\n".join([",".join(f"c{i}" for i in range(width))] + lines) + "\n"


def test_audit_json_and_csv_deterministic():
    t = p2.tower(2, 2)
    r1 = family_audit("P1", t, "sufficiency")
    r2 = family_audit("P1", t, "sufficiency")
    j1, j2 = r1.to_json(), r2.to_json()
    tables = ("planar", "extras", "failures")
    assert all(np.array_equal(j1[key], j2[key]) for key in tables)
    hex_rows = {key: [[f"{c:x}" for c in row] for row in j2[key].tolist()] for key in tables}
    assert cli._json(j1) == json.dumps({**j2, **hex_rows}, sort_keys=True, indent=2)
    csv = r1.to_csv()
    assert csv.splitlines()[0] == "c0,c1"
    assert len(csv.splitlines()) == len(r1.planar) + 1


def test_sufficiency_splits_planar_and_failures_in_row_order(monkeypatch):
    t = p2.tower(2, 2)
    swept = []

    def every_third_fails(spec, exponents, rows):
        swept.append(rows)
        return np.arange(len(rows)) % 3 != 0

    monkeypatch.setattr(kernels, "planar_sweep", every_third_fails)
    rep = family_audit("P1", t, "sufficiency")
    (forms,) = swept
    image = np.array([family_tuple("P1", family_coeffs(p), t) for p in family_param_space("P1", t)])
    exponents = [(1 << u) + (1 << v) for u, v in family_shape("P1", t)]
    normal = [tuple(r) for r in kernels.normal_form(t.spec, exponents, image).tolist()]
    # the sweep sees each distinct normal form of the image once
    assert sorted(map(tuple, forms.tolist())) == sorted(set(normal))
    marked = {tuple(r) for r, ok in zip(forms.tolist(), np.arange(len(forms)) % 3 != 0) if ok}
    ok = np.array([r in marked for r in normal])
    assert rep.tested == len(image) and len(rep.failures) > 0 and ok.any()
    assert np.array_equal(rep.planar, image[ok]) and np.array_equal(rep.failures, image[~ok])
    assert rep.extras.shape == (0, 2)
    failures = rep.to_json()["failures"]
    assert np.array_equal(failures, image[~ok])
    assert cli._json(failures) == json.dumps([[f"{c:x}" for c in r] for r in image[~ok].tolist()],
                                             indent=2)


def test_sufficiency_sweeps_a_layout_too_wide_for_one_key():
    # Knuth's layout over GF(2^9) has 9 columns of 9 bits: no int64 key holds a row
    rep = family_audit("Knuth", p2.tower(1, 9), "sufficiency")
    assert rep.tested == 1 and rep.planar.shape == (1, 9) and len(rep.failures) == 0
    with pytest.raises(ValueError, match="int64 key"):
        planar._row_keys(rep.planar, 9)


@pytest.mark.parametrize("fam, m, forms", [("P1", 4, 8), ("P2", 2, 48), ("P3", 3, 2), ("P4b", 2, 3)])
def test_sufficiency_sweeps_one_row_per_scaling_orbit(monkeypatch, fam, m, forms):
    sweep, swept = kernels.planar_sweep, []

    def counted(spec, exponents, rows):
        swept.append(len(rows))
        return sweep(spec, exponents, rows)

    monkeypatch.setattr(kernels, "planar_sweep", counted)
    rep = family_audit(fam, p2.tower(m, REGISTRY[fam].k), "sufficiency")
    assert swept == [forms] and rep.tested > forms
    assert len(rep.planar) == rep.tested and len(rep.failures) == 0


@pytest.mark.parametrize("fam, m, leaders", [
    ("P1", 2, 9), ("P1", 3, 18), ("P1", 4, 42), ("P1", 5, 116), ("P3", 2, 716),
    ("P2", 2, 2118), ("P4a", 2, 24798), ("P4b", 2, 24798)])
def test_converse_sweeps_one_row_per_orbit(monkeypatch, fam, m, leaders):
    # the "leaders swept" column of README's converse table: a change to the
    # orbit layer that sweeps more rows than one per orbit fails here
    sweep, swept = kernels.planar_sweep, []

    def counted(spec, exponents, rows):
        swept.append(len(rows))
        return sweep(spec, exponents, rows)

    monkeypatch.setattr(kernels, "planar_sweep", counted)
    rep = family_audit(fam, p2.tower(m, REGISTRY[fam].k), "converse", budget=1 << 40)
    assert swept == [leaders] and rep.tested > leaders


def test_audit_csv_without_planar_rows_is_one_newline(monkeypatch):
    monkeypatch.setattr(kernels, "planar_sweep",
                        lambda spec, exponents, rows: np.zeros(len(rows), dtype=bool))
    rep = family_audit("P1", p2.tower(2, 2), "sufficiency")
    assert rep.planar.shape == (0, 2) and len(rep.failures) == rep.tested > 0
    assert rep.to_csv() == "\n"
    d = rep.to_json()
    assert all(np.array_equal(d[key], np.empty((0, 2))) for key in ("planar", "extras"))
    assert cli._json(d["planar"]) == cli._json(d["extras"]) == json.dumps([], indent=2)


def test_audit_of_parameter_free_family():
    rep = family_audit("Knuth", p2.tower(1, 5), "sufficiency")
    assert rep.tested == 1 and len(rep.failures) == 0
    with pytest.raises(ValueError):
        family_audit("Knuth", p2.tower(1, 5), "converse")


def test_offdiagonal_search_support1_recovers_the_set():
    t = p2.tower(2, 2)
    rep = offdiagonal_search(t, 1)
    M = {c.bits for c in p2.norm_trace_zero_set(t)}
    assert set(rep["in_shape"][:, 0].tolist()) == M
    assert len(rep["candidates"]) == 0
    assert (rep["planar"] == 0).all(axis=1).any()  # the zero row


def test_offdiagonal_search_support2_m2_full_space():
    t = p2.tower(2, 2)
    rep = offdiagonal_search(t, 2)
    assert rep["tested"] == 256  # the whole binomial space at m=2
    assert len(rep["candidates"]) == 0  # consistent with the conjectured shape


def test_offdiagonal_search_is_one_sweep_of_the_whole_shape(monkeypatch):
    t = p2.tower(3, 2)
    calls = []
    real = kernels.planar_sweep

    def counted(spec, exponents, rows):
        calls.append((list(exponents), rows.shape))
        return real(spec, exponents, rows)

    monkeypatch.setattr(kernels, "planar_sweep", counted)
    rep = offdiagonal_search(t, 2)
    # one call on the Frobenius leaders among the scaling normal forms of
    # every support of size <= 2. d_i = 9*2^i - 2 = 7, 16, 34 mod 63 gives
    # boxes of 1 (empty), 7 + 1 + 1 (one position) and 3 * 63 (two
    # positions) normal forms; Frobenius doubles logs, so it acts on the box
    # [0, 7) as x -> 2x mod 7 with 3 cycles, and on each 63-row box, the
    # quotient Z/63 of the logs by the scaling shifts, as doubling, whose
    # cycles are the 13 cyclotomic cosets of 2 mod 63. So 1 + 3 + 1 + 1 +
    # 3 * 13 rows, not the 199 normal forms or the 12,097 vectors tested
    assert calls == [([1 + 8, 2 + 16, 4 + 32], (1 + 3 + 1 + 1 + 3 * 13, 3))]
    assert rep["tested"] == 1 + 3 * 63 + 3 * 63 ** 2


def test_offdiagonal_search_off_mask_splits_the_planar_rows():
    rep = offdiagonal_search(p2.tower(3, 2), 2)
    off = rep["off"]
    assert np.array_equal(off, rep["planar"][:, 1:].any(axis=1))
    assert np.array_equal(rep["planar"][off], rep["candidates"])
    assert np.array_equal(rep["planar"][~off], rep["in_shape"])


def test_offdiagonal_search_guards():
    with pytest.raises(ValueError):
        offdiagonal_search(p2.tower(2, 3), 1)
    with pytest.raises(BudgetError):
        offdiagonal_search(p2.tower(2, 2), 2, budget=10)
