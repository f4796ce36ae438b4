"""Planarity predicates, criteria, families, sets, searches."""

import random

import numpy as np
import pytest

import planar2 as p2
from planar2.fields import BudgetError
from planar2.planar import (REGISTRY, DOPoly, FamilyParams, criterion_lists,
                            family_audit, family_coeffs, family_param_space,
                            family_shape, family_tuple, offdiagonal_search,
                            planar_by_criterion)


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
    assert g.coeff_at(0, 2).bits == 6


def test_exponent_range_checked():
    t = p2.tower(2, 2)
    with pytest.raises(ValueError):
        DOPoly(t, [(1, 0, 4)])


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


def test_bruteforce_budget_guard():
    t = p2.tower(2, 2)
    with pytest.raises(BudgetError):
        p2.is_planar_bruteforce(DOPoly(t, []), budget=8)


# -- no-root criteria ----------------------------------------------------------


def test_criteria_zero_coefficients_give_planar():
    assert p2.planar_criterion_k2([0, 0], p2.tower(2, 2))
    assert p2.planar_criterion_k3([0] * 4, [0] * 2, p2.tower(2, 3))
    assert p2.planar_criterion_k4([0] * 6, [0] * 4, [0] * 2, p2.tower(2, 4))


def test_criterion_k2_exhaustive_binomials_m2():
    t = p2.tower(2, 2)
    for c0 in range(16):
        for c1 in range(16):
            f = DOPoly(t, [(c0, 0, 2), (c1, 1, 3)])
            assert p2.planar_criterion_k2([c0, c1], t) == p2.is_planar_bruteforce(f)


def test_criterion_k2_on_gf4_cube():
    # m = 1: the single-coefficient shape covers x^3 over GF(4)
    t = p2.tower(1, 2)
    assert not p2.planar_criterion_k2([1], t)
    assert p2.planar_criterion_k2([0], t)


def test_criterion_wrong_arity_raises():
    with pytest.raises(ValueError):
        p2.planar_criterion_k2([0], p2.tower(2, 2))
    with pytest.raises(ValueError):
        p2.planar_criterion_k3([0] * 4, [0] * 2, p2.tower(2, 2))


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
        assert f.coeff_at(1, 3).bits == 0  # doubled-exponent coefficient stays 0


def test_p2_zero_parameters_give_zero_function():
    t = p2.tower(2, 3)
    f = family_coeffs(FamilyParams("P2", (t.spec.zero, t.spec.zero), t))
    assert f.is_zero()


def test_p3_has_conjugate_coefficients():
    t = p2.tower(2, 3)
    for a in (1, 5, 30):
        f = family_coeffs(FamilyParams("P3", (t.fe(a),), t))
        assert f.coeff_at(1, 3) == t.fe(a)
        assert f.coeff_at(1, 5) == t.frobq(t.fe(a))
        assert f.coeff_at(3, 5).bits == 0


def test_p4b_inadmissible_rejected():
    t = p2.tower(2, 4)
    bad = next(x for x in t.mu_set() if x.bits != 0)
    with pytest.raises(ValueError):
        family_coeffs(FamilyParams("P4b", (bad,), t))


def test_family_sufficiency_small():
    for fam, t in (("P1", p2.tower(2, 2)), ("P3", p2.tower(2, 3)),
                   ("P4a", p2.tower(2, 4))):
        rep = family_audit(fam, t, "sufficiency")
        assert not rep.failures
        assert rep.tested == len(family_param_space(fam, t))
        zero_tuple = tuple([0] * len(family_shape(fam, t)))
        assert zero_tuple in rep.planar


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


def test_registry_records_are_consistent():
    rng = random.Random(2)
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
            if t.spec.order ** rec.arity <= 4096:
                space = family_param_space(tag, t)
            else:  # too many tuples to enumerate here: sample candidates
                space = []
                for _ in range(200):
                    params = tuple(t.fe(rng.randrange(t.spec.order))
                                   for _ in range(rec.arity))
                    if rec.admits(t, *params):
                        space.append(FamilyParams(tag, params, t))
                    else:
                        with pytest.raises(ValueError):
                            family_coeffs(FamilyParams(tag, params, t))
            checked += len(space)
            for p in space:
                f = family_coeffs(p)
                assert f.tower == t
                if shape is not None:
                    tup = family_tuple(tag, f, t)
                    assert DOPoly(t, [(c, u, v) for c, (u, v) in zip(tup, shape)]) == f
        assert checked, tag


def test_p3_at_m1_takes_exponents_mod_n():
    t = p2.tower(1, 3)
    assert family_shape("P3", t) == [(1, 2), (0, 2), (0, 1)]
    space = family_param_space("P3", t)
    assert len(space) == 8
    assert all(p2.is_planar_bruteforce(family_coeffs(p)) for p in space)
    rep = family_audit("P3", t, "sufficiency")
    assert rep.tested == 8 and not rep.failures


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
    assert rep.extras == []


def test_audit_budget():
    with pytest.raises(BudgetError):
        family_audit("P2", p2.tower(2, 3), "converse", budget=10)


def test_audit_json_and_csv_deterministic():
    t = p2.tower(2, 2)
    r1 = family_audit("P1", t, "sufficiency")
    r2 = family_audit("P1", t, "sufficiency")
    assert r1.to_json() == r2.to_json()
    csv = r1.to_csv()
    assert csv.splitlines()[0] == "c0,c1"
    assert len(csv.splitlines()) == len(r1.planar) + 1


def test_audit_threads_match_serial():
    t = p2.tower(2, 3)
    a = family_audit("P3", t, "sufficiency", threads=1)
    b = family_audit("P3", t, "sufficiency", threads=4)
    assert a.planar == b.planar and a.extras == b.extras


def test_converse_audit_threads_match_serial():
    t = p2.tower(2, 2)
    a = family_audit("P1", t, "converse", threads=1)
    b = family_audit("P1", t, "converse", threads=3)
    assert a.planar == b.planar and a.extras == b.extras


def test_audit_of_parameter_free_family():
    rep = family_audit("Knuth", p2.tower(1, 5), "sufficiency")
    assert rep.tested == 1 and not rep.failures
    with pytest.raises(ValueError):
        family_audit("Knuth", p2.tower(1, 5), "converse")


def test_offdiagonal_search_support1_recovers_the_set():
    t = p2.tower(2, 2)
    rep = offdiagonal_search(t, 1)
    M = {c.bits for c in p2.norm_trace_zero_set(t)}
    assert {v[0] for v in rep["in_shape"]} == M
    assert rep["candidates"] == []
    assert tuple([0, 0]) in rep["planar"]


def test_offdiagonal_search_support2_m2_full_space():
    t = p2.tower(2, 2)
    rep = offdiagonal_search(t, 2)
    assert rep["tested"] == 256  # the whole binomial space at m=2
    assert rep["candidates"] == []  # consistent with the conjectured shape


def test_offdiagonal_search_guards():
    with pytest.raises(ValueError):
        offdiagonal_search(p2.tower(2, 3), 1)
    with pytest.raises(BudgetError):
        offdiagonal_search(p2.tower(2, 2), 2, budget=10)
