"""Companion hypersurfaces: orbit consistency, factors, specialization, counts."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import planar2 as p2
from planar2 import surfaces
from planar2.fields import BudgetError, lex_chunks, vec_mul
from planar2.planar import (REGISTRY, DOPoly, FamilyParams, criterion_table_k2,
                            criterion_table_k3, criterion_table_k4, criterion_lists,
                            family_coeffs, family_param_space, family_shape)
from planar2.surfaces import (LinearForm, MvPoly, build_G, companion_zeros,
                              count_points_affine, count_points_projective, divmod_linear,
                              langweil_check, langweil_rhs, linear_factor_search,
                              orbit_has_zero, orbit_value_table, specialize_normal)


# -- MvPoly basics -------------------------------------------------------------


def test_mvpoly_ring_ops():
    f = p2.field(4)
    x = MvPoly.variable(f, 2, 0)
    y = MvPoly.variable(f, 2, 1)
    p = (x + y) * (x + y)
    assert p == x * x + y * y  # characteristic 2
    assert (x * y) ** 3 == MvPoly(f, 2, {(3, 3): 1})
    assert p.degree() == 2 and p.is_homogeneous()
    assert not (p + MvPoly.constant(f, 2, 1)).is_homogeneous()


def test_constructor_merges_pairs_and_drops_zero_sums():
    f = p2.field(4)
    pairs = [((1, 0), 3), ((0, 1), 5), ((1, 0), 3), ((0, 1), f.fe(6)), ((2, 2), 0)]
    assert MvPoly(f, 2, pairs).terms == {(0, 1): 3}
    assert MvPoly(f, 2, iter(pairs)) == MvPoly(f, 2, {(0, 1): 3})
    assert MvPoly(f, 2).is_zero()


def test_linear_builds_sum_of_coefficient_times_variable():
    f = p2.field(4)
    assert MvPoly.linear(f, [3, 0, 1]).terms == {(1, 0, 0): 3, (0, 0, 1): 1}
    assert MvPoly.linear(f, [0, 1, 0]) == MvPoly.variable(f, 3, 1)
    assert LinearForm(f, [0, 2, 4]).to_mvpoly() == MvPoly.linear(f, [0, 1, 2])


@pytest.mark.parametrize("c", [-1, 99])
def test_mvpoly_coefficient_range_checked(c):
    with pytest.raises(ValueError):
        MvPoly(p2.field(4), 2, {(1, 0): c})


@pytest.mark.parametrize("c", [-1, 99])
def test_linear_form_coefficient_range_checked(c):
    with pytest.raises(ValueError):
        LinearForm(p2.field(4), [c, 1])


def test_mvpoly_substitute_and_evaluate():
    f = p2.field(4)
    x = MvPoly.variable(f, 2, 0)
    y = MvPoly.variable(f, 2, 1)
    p = x * x + x * y
    q = p.substitute({0: x + y})
    # (x+y)^2 + (x+y)y = x^2 + y^2 + xy + y^2 = x^2 + xy
    assert q == x * x + x * y
    for a in range(4):
        for b in range(4):
            assert p.evaluate([a, b]) == f.mul(a, a) ^ f.mul(a, b)


def _scalar_reference(P, point):
    """Term-by-term evaluation with the field's scalar mul and pow."""
    spec = P.spec
    acc = 0
    for exps, c in P.terms.items():
        for x, e in zip(point, exps):
            c = spec.mul(c, spec.pow(x, e))
        acc ^= c
    return acc


@st.composite
def polys_and_columns(draw):
    """A polynomial in 1-4 variables with zero, small and >= 2^n - 1
    exponents, and one column per variable: a scalar, a row, a column or a
    full grid, so the columns broadcast; coordinates are often zero."""
    spec = p2.field(draw(st.integers(1, 6)))
    order = spec.order
    nvars = draw(st.integers(1, 4))
    exp = st.one_of(st.integers(0, 3), st.integers(order - 2, 2 * order + 1))
    terms = draw(st.dictionaries(st.tuples(*[exp] * nvars), st.integers(0, order - 1),
                                 max_size=6))
    coord = st.one_of(st.just(0), st.integers(0, order - 1))
    rows, width = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shapes = draw(st.lists(st.sampled_from([(), (width,), (rows, 1), (rows, width)]),
                           min_size=nvars, max_size=nvars))
    cols = [draw(coord) if s == () else draw(arrays(np.int64, s, elements=coord))
            for s in shapes]
    return MvPoly(spec, nvars, terms), cols


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(polys_and_columns())
def test_evaluate_vec_matches_the_scalar_reference(case):
    P, cols = case
    shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
    vals = P.evaluate_vec(cols)
    assert vals.shape == shape
    grid = [np.broadcast_to(c, shape) for c in cols]
    for idx in np.ndindex(shape):
        point = [int(g[idx]) for g in grid]
        assert vals[idx] == _scalar_reference(P, point) == P.evaluate(point)


def _polys(spec, nvars, exp, max_size=6):
    terms = st.dictionaries(st.tuples(*[exp] * nvars), st.integers(0, spec.order - 1),
                            max_size=max_size)
    return terms.map(lambda t: MvPoly(spec, nvars, t))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(polys_and_columns(), st.data())
def test_sum_product_and_substitution_match_evaluation(case, data):
    """P + Q, P * Q and P.substitute({i: Q_i}) against evaluate_vec of
    their parts. The substituted polynomials keep exponents at most 3 and
    the Q_i at most 3 terms, so the expansion stays small; variables left
    out of the mapping stay themselves."""
    P, cols = case
    spec, nvars = P.spec, P.nvars
    at = lambda poly: poly.evaluate_vec(cols)
    Q = data.draw(_polys(spec, nvars, st.integers(0, 2 * spec.order + 1)))
    assert np.array_equal(at(P + Q), at(P) ^ at(Q))
    assert np.array_equal(at(P * Q), vec_mul(spec, at(P), at(Q)))
    small = st.integers(0, 3)
    R = data.draw(_polys(spec, nvars, small))
    mapped = data.draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
    subs = {i: data.draw(_polys(spec, nvars, small, max_size=3))
            for i in range(nvars) if mapped[i]}
    values = [at(subs[i]) if i in subs else cols[i] for i in range(nvars)]
    assert np.array_equal(at(R.substitute(subs)), R.evaluate_vec(values))


def test_evaluation_needs_one_value_per_variable():
    with pytest.raises(ValueError):
        MvPoly(p2.field(4), 2, {(1, 1): 1}).evaluate([1])


def test_mvpoly_json():
    f = p2.field(4)
    p = MvPoly(f, 2, {(1, 1): 3})
    assert p.to_json() == {"nvars": 2, "spec": {"n": 4, "modulus": "13"},
                           "terms": [{"exp": [1, 1], "coeff": "3"}]}


def test_homogenize():
    f = p2.field(4)
    p = MvPoly(f, 2, {(1, 1): 1, (2, 0): 5, (1, 0): 7, (0, 0): 2})
    h = p.homogenize()
    assert h.is_homogeneous() and h.nvars == 3
    assert h.terms == {(1, 1, 0): 1, (2, 0, 0): 5, (1, 0, 1): 7, (0, 0, 2): 2}


# -- companion polynomials --------------------------------------------------------


def test_build_G_trivial_cases():
    t2 = p2.tower(2, 2)
    g = build_G(DOPoly(t2, []), t2, shape="P1")
    assert g == MvPoly(t2.spec, 2, {(1, 1): 1})
    t3 = p2.tower(2, 3)
    g3 = build_G(DOPoly(t3, []), t3, shape="P3")
    assert g3 == MvPoly(t3.spec, 3, {(1, 1, 1): 1})
    g2 = build_G(DOPoly(t3, []), t3, shape="P2")
    assert g2 == g3


@pytest.mark.parametrize("fam, m, generators", [
    ("P1", 2, 3), ("P1", 3, 3), ("P2", 2, 4), ("P3", 2, 3), ("P4a", 2, 6), ("P4b", 2, 6)])
def test_companion_is_orbit_generators_closed_under_conjugation(fam, m, generators):
    rec = REGISTRY[fam]
    t = p2.tower(m, rec.k)
    rng = np.random.default_rng(m)
    assert REGISTRY["P4a"].companion is REGISTRY["P4b"].companion
    for _ in range(10):
        cs = [int(c) for c in rng.integers(1, t.spec.order, len(family_shape(fam, t)))]
        assert len(rec.companion(t, cs)) == generators
        f = DOPoly(t, [(c, u, v) for c, (u, v) in zip(cs, family_shape(fam, t))])
        g = build_G(f, t, shape=fam)
        for exps, c in g.terms.items():  # X_i -> X_(i+1), c -> c^q maps G to itself
            assert g.terms[exps[-1:] + exps[:-1]] == t.spec.frob(c, m)


def test_build_G_rejects_wrong_shape():
    t3 = p2.tower(2, 3)
    f = DOPoly(t3, [(1, 0, 1)])
    with pytest.raises(ValueError):
        build_G(f, t3)


def test_orbit_values_match_criterion_tables():
    rng = np.random.default_rng(0)
    for m in (2, 3):
        t2 = p2.tower(m, 2)
        for _ in range(40):
            a, b = (int(v) for v in rng.integers(0, t2.spec.order, 2))
            f = DOPoly(t2, [(a, 0, m), (b, 1, m + 1)])
            g = build_G(f, t2, shape="P1")
            (c1,) = criterion_lists(f)
            assert np.array_equal(orbit_value_table(g, t2), criterion_table_k2(c1, t2))
        t3 = p2.tower(m, 3)
        for shape in ("P2", "P3"):
            exps = family_shape(shape, t3)
            for _ in range(40):
                cs = [int(v) for v in rng.integers(0, t3.spec.order, 3)]
                f = DOPoly(t3, [(c, u, v) for c, (u, v) in zip(cs, exps)])
                g = build_G(f, t3, shape=shape)
                c1, c2 = criterion_lists(f)
                assert np.array_equal(orbit_value_table(g, t3),
                                      criterion_table_k3(c1, c2, t3))
    t4 = p2.tower(2, 4)
    for _ in range(25):
        a, b, c = (int(v) for v in rng.integers(0, 256, 3))
        f = DOPoly(t4, [(a, 0, 2), (b, 0, 4), (c, 0, 6)])
        g = build_G(f, t4, shape="P4a")
        l1, l2, l3 = criterion_lists(f)
        assert np.array_equal(orbit_value_table(g, t4),
                              criterion_table_k4(l1, l2, l3, t4))


def test_eval_orbit_at_zero_is_zero():
    t3 = p2.tower(2, 3)
    f = DOPoly(t3, [(9, 0, 2), (3, 2, 4), (1, 0, 4)])
    g = build_G(f, t3, shape="P2")
    assert orbit_value_table(g, t3)[0] == 0


def test_orbit_zero_iff_not_planar():
    rng = np.random.default_rng(1)
    t3 = p2.tower(2, 3)
    for _ in range(60):
        cs = [int(v) for v in rng.integers(0, 64, 3)]
        f = DOPoly(t3, [(cs[0], 0, 2), (cs[1], 2, 4), (cs[2], 0, 4)])
        g = build_G(f, t3, shape="P2")
        assert orbit_has_zero(g, t3) == (not p2.is_planar_bruteforce(f))


def test_orbit_zero_iff_not_planar_q8():
    rng = np.random.default_rng(6)
    t2 = p2.tower(3, 2)
    for _ in range(30):
        a, b = (int(v) for v in rng.integers(0, 64, 2))
        f = DOPoly(t2, [(a, 0, 3), (b, 1, 4)])
        g = build_G(f, t2, shape="P1")
        assert orbit_has_zero(g, t2) == (not p2.is_planar_bruteforce(f))
    t3 = p2.tower(3, 3)
    for _ in range(15):
        cs = [int(v) for v in rng.integers(0, 512, 3)]
        f = DOPoly(t3, [(cs[0], 0, 3), (cs[1], 3, 6), (cs[2], 0, 6)])
        g = build_G(f, t3, shape="P2")
        assert orbit_has_zero(g, t3) == (not p2.is_planar_bruteforce(f))


# -- linear factors -----------------------------------------------------------------


def test_divmod_linear_exact():
    f = p2.field(4)
    x = MvPoly.variable(f, 3, 0)
    y = MvPoly.variable(f, 3, 1)
    t = MvPoly.variable(f, 3, 2)
    form = LinearForm(f, [1, 3, 0])
    prod = form.to_mvpoly() * (x * y + t * t)
    q, r = divmod_linear(prod, form)
    assert r.is_zero() and q == x * y + t * t
    q2, r2 = divmod_linear(prod + MvPoly.constant(f, 3, 1), form)
    assert not r2.is_zero()


def test_factor_search_coordinate_split():
    f = p2.field(4)
    xyt = MvPoly(f, 3, {(1, 1, 1): 1})
    factors, rem = linear_factor_search(xyt)
    assert [(fm.coeffs, mu) for fm, mu in factors] == [
        ((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)]
    assert rem == MvPoly.constant(f, 3, 1)


def test_factor_search_multiplicity():
    f = p2.field(4)
    form = LinearForm(f, [1, 2, 0])
    sq = form.to_mvpoly() * form.to_mvpoly()
    factors, rem = linear_factor_search(sq)
    assert factors == [(form, 2)]
    assert rem == MvPoly.constant(f, 3, 1)


def _seeded_companions(fam, m):
    t = p2.tower(m, REGISTRY[fam].k)
    space = family_param_space(fam, t)
    picks = np.random.default_rng([m, len(fam)]).choice(len(space), 8, replace=False)
    return [build_G(family_coeffs(space[i]), t, shape=fam) for i in picks]


def test_factor_search_divides_only_by_factors(monkeypatch):
    # the probe screen decides every division, repeats included, so each
    # exact division is one multiplicity of a factor and none fails;
    # coordinate factors are shifted out without a division
    calls = []

    def spy(P, form):
        calls.append(divmod_linear(P, form))
        return calls[-1]

    monkeypatch.setattr(surfaces, "divmod_linear", spy)
    form = LinearForm(p2.field(4), [1, 2, 0])
    polys = [form.to_mvpoly() * form.to_mvpoly()] + [
        G for fam, m in (("P1", 3), ("P2", 2), ("P4a", 2), ("P4b", 2))
        for G in _seeded_companions(fam, m)]
    expected = 0
    for G in polys:
        factors, _ = linear_factor_search(G)
        expected += sum(mu for fm, mu in factors if sum(map(bool, fm.coeffs)) > 1)
    assert all(r.is_zero() for _, r in calls)
    assert len(calls) == expected > len(polys)


def test_p1_factorization_recovery_small():
    t = p2.tower(2, 2)
    spec = t.spec
    for p in family_param_space("P1", t):
        (s,) = p.params
        g = build_G(family_coeffs(p), t, shape="P1")
        factors, rem = linear_factor_search(g)
        got = {fm.coeffs: mu for fm, mu in factors}
        if s.bits == 0:
            assert got == {(1, 0): 1, (0, 1): 1}
        else:
            lead = LinearForm(spec, [1, (s * s).bits])
            assert got == {lead.coeffs: 1, lead.conjugate(t).coeffs: 1}
        prod = MvPoly.constant(spec, 2, 1)
        for fm, mu in factors:
            prod = prod * (fm.to_mvpoly() ** mu)
        assert prod * rem == g


def test_p2_full_support_factorization():
    # the three conjugate planes with coefficients (u^2, v^2)
    t = p2.tower(2, 3)
    spec = t.spec
    rng = np.random.default_rng(2)
    space = family_param_space("P2", t)
    for i in rng.integers(0, len(space), 8):
        p = space[int(i)]
        u, v = p.params
        g = build_G(family_coeffs(p), t, shape="P2")
        factors, rem = linear_factor_search(g)
        al, be = u * u, v * v
        if u.bits == 0 and v.bits == 0:
            lead = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
        else:
            f1 = LinearForm(spec, [1, al.bits, be.bits])
            lead = {f1.coeffs: 1, f1.conjugate(t).coeffs: 1,
                    f1.conjugate(t).conjugate(t).coeffs: 1}
        assert {fm.coeffs: mu for fm, mu in factors} == lead
        prod = MvPoly.constant(spec, 3, 1)
        for fm, mu in factors:
            prod = prod * (fm.to_mvpoly() ** mu)
        assert prod * rem == g


def test_frobenius_conjugate_of_factor_divides():
    t = p2.tower(2, 3)
    rng = np.random.default_rng(3)
    space = family_param_space("P2", t)
    for i in rng.integers(0, len(space), 6):
        g = build_G(family_coeffs(space[int(i)]), t, shape="P2")
        factors, _ = linear_factor_search(g)
        for fm, _ in factors:
            _, r = divmod_linear(g, fm.conjugate(t))
            assert r.is_zero()


def test_factor_search_budget():
    f = p2.field(8)
    g = MvPoly(f, 4, {(1, 1, 1, 1): 1})
    with pytest.raises(BudgetError):
        linear_factor_search(g, budget=100)


def _factor_reference(G: MvPoly):
    """Every normalized form of the candidate space, in report order, divided
    out exactly: the search without axis-line root sets or probe screen."""
    spec, v = G.spec, G.nvars
    support = v if v <= 3 else 2
    factors, work = [], G
    if G.is_zero() or G.degree() < 1:
        return factors, work
    for pivot in range(v):
        for size in range(support):
            for positions in itertools.combinations(range(pivot + 1, v), size):
                for vals in itertools.product(range(1, spec.order), repeat=size):
                    coeffs = [0] * v
                    coeffs[pivot] = 1
                    for pos, c in zip(positions, vals):
                        coeffs[pos] = c
                    form, mult = LinearForm(spec, coeffs), 0
                    while work.degree() >= 1:
                        q, r = divmod_linear(work, form)
                        if not r.is_zero():
                            break
                        work, mult = q, mult + 1
                    if mult:
                        factors.append((form, mult))
    return factors, work


@st.composite
def split_polys(draw):
    """G = a few linear forms, with multiplicities, times a nonzero cofactor,
    over GF(2^2)..GF(2^4) in 2-4 variables. Coefficients are often 0 or 1,
    so coordinate forms, repeated forms and forms beyond the 4-variable
    support limit all occur."""
    spec = p2.field(draw(st.integers(2, 4)))
    nvars = draw(st.integers(2, 4))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, spec.order - 1))
    forms = draw(st.lists(st.tuples(st.lists(coeff, min_size=nvars, max_size=nvars),
                                    st.integers(1, 3)), max_size=3))
    G = MvPoly(spec, nvars, draw(st.dictionaries(
        st.tuples(*[st.integers(0, 1)] * nvars), st.integers(1, spec.order - 1),
        min_size=1, max_size=3)))
    for coeffs, mult in forms:
        if any(coeffs):
            G = G * MvPoly.linear(spec, coeffs) ** mult
    return G


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(split_polys())
def test_factor_search_matches_the_candidate_space_reference(G):
    factors, rem = linear_factor_search(G)
    assert (factors, rem) == _factor_reference(G)


def test_factor_search_splits_the_gf4_line_product():
    # (X0^4 X1 + X0 X1^4) X2 = X0 X1 X2 (X0 + X1)(X0 + 2 X1)(X0 + 3 X1) over
    # GF(4); G' = X0^3 + X1^3 vanishes at c e0 + e1 for every c != 0
    G = MvPoly(p2.field(2), 3, {(4, 1, 1): 1, (1, 4, 1): 1})
    factors, rem = linear_factor_search(G)
    assert [(fm.coeffs, mu) for fm, mu in factors] == [
        ((1, 0, 0), 1), ((1, 1, 0), 1), ((1, 2, 0), 1), ((1, 3, 0), 1),
        ((0, 1, 0), 1), ((0, 0, 1), 1)]
    assert rem == MvPoly.constant(p2.field(2), 3, 1)
    assert (factors, rem) == _factor_reference(G)


def test_factor_search_where_every_root_set_is_the_whole_field():
    # the sum of x^4 y + x y^4 over the variable pairs vanishes on all of
    # GF(4)^3, so every root set is the whole field and their products are
    # the whole candidate space
    G = MvPoly(p2.field(2), 3, {(4, 1, 0): 1, (1, 4, 0): 1, (0, 4, 1): 1,
                                (0, 1, 4): 1, (1, 0, 4): 1, (4, 0, 1): 1})
    factors, rem = linear_factor_search(G)
    assert (factors, rem) == _factor_reference(G)
    assert [(fm.coeffs, mu) for fm, mu in factors] == [
        ((1, 1, 0), 1), ((1, 0, 1), 1), ((1, 2, 3), 1), ((1, 3, 2), 1), ((0, 1, 1), 1)]


# -- specialization --------------------------------------------------------------


def test_specialize_norm_form():
    t = p2.tower(2, 3)
    base = t.base_field()
    xyt = MvPoly(t.spec, 3, {(1, 1, 1): 1})
    psi = specialize_normal(xyt, t)
    assert psi.spec == base
    xi = t.normal_element
    for x0 in range(4):
        for x1 in range(4):
            for x2 in range(4):
                eps = (t.embed_base(base.fe(x0)) * xi
                       + t.embed_base(base.fe(x1)) * t.frobq(xi)
                       + t.embed_base(base.fe(x2)) * t.frobq(xi, 2))
                assert psi.evaluate([x0, x1, x2]) == t.project_base(t.rel_norm(eps)).bits


def test_specialize_zero():
    t = p2.tower(2, 3)
    assert specialize_normal(MvPoly(t.spec, 3, {}), t).is_zero()


def test_specialize_p1_matches_orbit_pointwise():
    rng = np.random.default_rng(4)
    t = p2.tower(2, 2)
    base = t.base_field()
    xi = t.normal_element
    for _ in range(25):
        a, b = (int(v) for v in rng.integers(0, 16, 2))
        f = DOPoly(t, [(a, 0, 2), (b, 1, 3)])
        g = build_G(f, t, shape="P1")
        psi = specialize_normal(g, t)
        orbit = orbit_value_table(g, t)
        for x0 in range(4):
            for x1 in range(4):
                eps = (t.embed_base(base.fe(x0)) * xi
                       + t.embed_base(base.fe(x1)) * t.frobq(xi))
                assert psi.evaluate([x0, x1]) == t.project_base(t.fe(int(orbit[eps.bits]))).bits


def test_specialize_rejects_asymmetric_input():
    t = p2.tower(2, 2)
    g = MvPoly(t.spec, 2, {(1, 0): 2})  # no conjugate term: not Frobenius-symmetric
    with pytest.raises(RuntimeError):
        specialize_normal(g, t)


# -- point counts ------------------------------------------------------------------


def test_projective_count_xy_in_p1():
    assert count_points_projective(MvPoly(p2.field(2), 2, {(1, 1): 1})) == 2


def test_projective_count_xyt_is_3q():
    for m in (2, 3):
        f = p2.field(m)
        assert count_points_projective(MvPoly(f, 3, {(1, 1, 1): 1})) == 3 * (1 << m)


def test_affine_projective_scaling():
    rng = np.random.default_rng(5)
    f = p2.field(3)
    for _ in range(10):
        terms = {}
        for _ in range(4):
            e = [0, 0, 0]
            for _ in range(3):  # distribute total degree 3 over the variables
                e[int(rng.integers(0, 3))] += 1
            terms[tuple(e) + (0,)] = int(rng.integers(0, 8))
        poly = MvPoly(f, 4, terms)
        if poly.is_zero():
            continue
        assert poly.is_homogeneous()
        aff = count_points_affine(poly)
        proj = count_points_projective(poly)
        assert aff - 1 == (f.order - 1) * proj


@pytest.mark.parametrize("fam, cs, affine, projective", [
    ("P3", [1, 2, 3], 400, 57), ("P2", [1, 2, 3], 344, 49), ("P2", [2, 3, 4], 680, 97)])
def test_counts_over_several_blocks_match_one_block(monkeypatch, fam, cs, affine, projective):
    # homogenized specializations over GF(8) in 4 variables, as surface
    # reports count them, of non-planar polynomials (so with points to count)
    t = p2.tower(3, REGISTRY[fam].k)
    f = DOPoly(t, [(c, u, v) for c, (u, v) in zip(cs, family_shape(fam, t))])
    poly = specialize_normal(build_G(f, t, shape=fam), t).homogenize()
    assert (count_points_affine(poly), count_points_projective(poly)) == (affine, projective)
    for rows in (7, 100):  # 586 blocks of at most 7 points, 64 blocks of 64
        monkeypatch.setattr(surfaces, "lex_chunks", functools.partial(lex_chunks, rows=rows))
        assert count_points_affine(poly) == affine
        assert count_points_projective(poly) == projective


def test_count_budget():
    with pytest.raises(BudgetError):
        count_points_affine(MvPoly(p2.field(8), 4, {(1, 1, 1, 1): 1}), budget=100)


def test_projective_count_needs_homogeneous():
    f = p2.field(2)
    with pytest.raises(ValueError):
        count_points_projective(MvPoly(f, 2, {(1, 1): 1, (1, 0): 1}))


def _reference_zeros(G, t):
    psi_h = specialize_normal(G, t).homogenize()
    return count_points_projective(psi_h), psi_h.degree(), orbit_has_zero(G, t)


_COMPANION_CASES = [("P1", m) for m in (2, 3, 4, 5)] + [
    (fam, m) for fam in ("P2", "P3", "P4a", "P4b") for m in (2, 3)]


@pytest.mark.parametrize("fam, m", _COMPANION_CASES)
def test_companion_zeros_match_the_expanded_specialization(fam, m):
    # arbitrary DO coefficients on the shape, each zero a quarter of the
    # time: P1 with a nonzero linear coefficient and every P3 companion are
    # not homogeneous, so the zeros at infinity come from G's top part
    t = p2.tower(m, REGISTRY[fam].k)
    rng = np.random.default_rng([m, REGISTRY[fam].k, len(fam)])
    shape = family_shape(fam, t)
    homogeneous = set()
    for _ in range(10):
        cs = [int(c) if rng.random() < 0.75 else 0
              for c in rng.integers(1, t.spec.order, len(shape))]
        G = build_G(DOPoly(t, [(c, u, v) for c, (u, v) in zip(cs, shape)]), t, shape=fam)
        homogeneous.add(G.is_homogeneous())
        assert companion_zeros(G, t) == _reference_zeros(G, t)
    if fam in ("P1", "P3"):
        assert False in homogeneous


def test_companion_zeros_of_a_constant_and_of_zero():
    t = p2.tower(2, 3)
    one = MvPoly.constant(t.spec, 3, 1)
    assert companion_zeros(one, t) == _reference_zeros(one, t) == (0, 0, False)
    zero = MvPoly(t.spec, 3, {})
    with pytest.raises(ValueError, match="nonzero homogeneous"):
        companion_zeros(zero, t)
    with pytest.raises(ValueError, match="nonzero homogeneous"):
        count_points_projective(specialize_normal(zero, t).homogenize())


@pytest.mark.parametrize("G", [
    {(1, 0): 2},  # no conjugate term
    {(1, 0): 2, (0, 1): 2},  # a conjugate term without the coefficient 2^q
    {(0, 0): 2},  # a constant outside GF(q)
])
def test_companion_zeros_reject_what_the_specialization_rejects(G):
    t = p2.tower(2, 2)
    G = MvPoly(t.spec, 2, G)
    for call in (companion_zeros, specialize_normal):
        with pytest.raises(RuntimeError, match="left GF\\(q\\)"):
            call(G, t)


def test_companion_zeros_budget_is_the_projective_enumeration():
    # P^3 over GF(8): 512 + 64 + 8 + 1 points
    t = p2.tower(3, 3)
    G = build_G(DOPoly(t, [(5, u, v) for u, v in family_shape("P3", t)]), t, shape="P3")
    psi_h = specialize_normal(G, t).homogenize()
    for call, arg in ((companion_zeros, (G, t)), (count_points_projective, (psi_h,))):
        with pytest.raises(BudgetError, match="^projective enumeration of 585 points exceeds"):
            call(*arg, budget=584)
    assert companion_zeros(G, t, budget=585)[0] == count_points_projective(psi_h, budget=585)


# -- deviation bound ------------------------------------------------------------------


def test_rhs_frozen_values():
    assert langweil_rhs(1, 2, 4) == 5
    assert langweil_rhs(2, 2, 16) == 105
    assert langweil_rhs(3, 2, 8) == 591
    assert langweil_rhs(3, 3, 16) == 9488  # 2*64 + 5*117*16


def test_rhs_degree_one_first_term_vanishes():
    for q in (4, 8, 16):
        assert langweil_rhs(1, 3, q) == 5 * q


def test_certified_fixtures_hold_bound():
    # all five are classically absolutely irreducible: hyperplanes, the
    # smooth conic X^2 = YT, the supersingular cubic Y^2 T + Y T^2 = X^3,
    # the smooth quadric surface XY = TS
    spec = p2.field(3)
    q = 8
    fixtures = [
        (MvPoly(spec, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), q + 1),
        (MvPoly(spec, 3, {(2, 0, 0): 1, (0, 1, 1): 1}), q + 1),
        (MvPoly(spec, 3, {(3, 0, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1}), 9),
        (MvPoly(spec, 4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}), (q + 1) ** 2),
        (MvPoly(spec, 4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                          (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}), q * q + q + 1),
    ]
    for poly, frozen_count in fixtures:
        rep = langweil_check(poly, certified_irreducible=True)
        assert rep["count"] == frozen_count
        assert rep["bound_holds"]
        # independent affine enumeration agrees with the projective count
        aff = count_points_affine(poly)
        assert aff - 1 == (q - 1) * rep["count"]


def test_uncertified_check_reports_without_asserting():
    # a visibly reducible surface: the bound may fail, the call must not raise
    spec = p2.field(2)
    xyt = MvPoly(spec, 3, {(1, 1, 1): 1})
    rep = langweil_check(xyt, certified_irreducible=False)
    assert rep["count"] == 12 and rep["certified_irreducible"] is False
