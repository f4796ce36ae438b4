"""Differential properties: the definition oracle, the rank kernel (sweep and
is_planar_linearized), the no-root criterion and the companion orbit must
agree on random Dembowski-Ostrom polynomials, on batches that straddle the
kernel's blocks, through the threaded sweep and on whole sufficiency spaces;
the column-table rank test must agree with a product table's injectivity,
and the presemifield constructor must reject exactly the rows the sweep
rejects; fields.span must be a scalar XOR loop; and the sweep of one row per
orbit of scaling and Frobenius must find what a full sweep finds, those
orbits must cover every row once, and each row's scaling normal form must
have the row's verdict."""

import contextlib
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import planar2 as p2
from planar2 import kernels, planar, semifields, surfaces
from planar2.fields import span, vec_mul
from planar2.planar import DOPoly, FamilyParams

GRID = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4)]
PLANTED = {2: "P1", 3: "P3", 4: "P4b"}  # a planar family on each tower degree
SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@contextlib.contextmanager
def kernel_constant(name, value):
    """Set one of the kernels module's size constants inside a block."""
    saved = getattr(kernels, name)
    setattr(kernels, name, value)
    try:
        yield
    finally:
        setattr(kernels, name, saved)


def block_bits(bits):
    """Shrink the kernel's rank-call cap so small fields straddle its blocks."""
    return kernel_constant("_BLOCK_BITS", bits)


def oracle(f: DOPoly) -> bool:
    return kernels.planar_check_table(f.spec, f.value_table())


@functools.lru_cache(maxsize=None)
def _powers(spec, e) -> np.ndarray:
    """x^e for every x, from the scalar spec.pow: no vectorized evaluator
    enters the oracle."""
    return np.array([spec.pow(x, e) for x in range(spec.order)], dtype=np.int64)


def row_oracle(spec, exps, row) -> bool:
    fv = np.zeros(spec.order, dtype=np.int64)
    for e, c in zip(exps, row):
        fv ^= vec_mul(spec, int(c), _powers(spec, e))
    return kernels.planar_check_table(spec, fv)


@st.composite
def do_polys(draw):
    """Random terms, gapped criterion-shape terms, or a planted family instance
    plus an additive term; about half of the planted ones stay planar."""
    m, k = draw(st.sampled_from(GRID))
    t = p2.tower(m, k)
    n, order = t.spec.n, t.spec.order
    coeff = st.integers(0, order - 1)
    kind = draw(st.sampled_from(("random", "gapped", "planted")))
    if kind == "random":
        terms = draw(st.lists(st.tuples(coeff, st.integers(0, n - 1), st.integers(0, n - 1)),
                              min_size=0, max_size=4))
    elif kind == "gapped":
        gap = st.integers(1, k - 1).flatmap(
            lambda j: st.tuples(coeff, st.integers(0, (k - j) * m - 1), st.just(j)))
        terms = [(c, i, i + j * m) for c, i, j in draw(st.lists(gap, min_size=1, max_size=4))]
    else:
        fam = PLANTED[k]
        while True:
            try:
                f = planar.family_coeffs(FamilyParams(fam, (t.fe(draw(coeff)),), t))
                break
            except ValueError:  # the few excluded parameters
                continue
        terms = [(cb, u, v) for _, cb, u, v in f.terms]
        if draw(st.booleans()):
            u = draw(st.integers(0, n - 1))
            terms.append((draw(coeff), u, u))      # additive: planarity unchanged
        else:
            terms.append((draw(coeff), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    return DOPoly(t, terms)


@SETTINGS
@given(do_polys())
def test_oracle_rank_kernel_and_criterion_agree(f):
    want = oracle(f)
    exps = [e for e, _, _, _ in f.terms]
    row = np.array([cb for _, cb, _, _ in f.terms], dtype=np.int64).reshape(1, -1)
    assert kernels.planar_sweep(f.spec, exps, row)[0] == want
    assert p2.is_planar_linearized(f) == want
    crit = p2.planar_by_criterion(f)
    assert crit is None or crit == want
    try:
        g = surfaces.build_G(f, f.tower)
    except ValueError:  # no companion shape holds f's exponent pairs
        g = None
    if g is not None:
        assert surfaces.orbit_has_zero(g, f.tower) == (not want)
    event(f"planar={want} criterion={'n/a' if crit is None else 'applies'} "
          f"orbit={'n/a' if g is None else 'applies'}")


@st.composite
def shape_batches(draw):
    """A converse shape on a small tower and a batch of rows on it: family
    tuples (planar) mixed with random tuples (mostly not)."""
    fam, m = draw(st.sampled_from([("P1", 2), ("P1", 3), ("P3", 2), ("P2", 2), ("P4a", 2)]))
    t = p2.tower(m, planar.REGISTRY[fam].k)
    shape = planar.family_shape(fam, t)
    space = planar.family_param_space(fam, t)
    picks = draw(st.lists(st.integers(0, len(space) - 1), min_size=1, max_size=40))
    planted = [planar.family_tuple(fam, planar.family_coeffs(space[i]), t) for i in picks]
    randoms = draw(st.lists(st.tuples(*[st.integers(0, t.spec.order - 1)] * len(shape)),
                            max_size=40))
    rows = draw(st.permutations(planted + randoms))
    return t, [(1 << u) + (1 << v) for u, v in shape], np.array(rows, dtype=np.int64)


@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(shape_batches(), st.sampled_from([2, 3, 4, 5]))
def test_batched_rows_straddling_blocks_match_the_oracle(batch, bits):
    t, exps, rows = batch
    spec = t.spec
    want = [row_oracle(spec, exps, row) for row in rows]
    with block_bits(bits):  # 2^bits matrices per rank call: rows and a both split
        small = kernels.planar_sweep(spec, exps, rows)
    assert small.tolist() == want
    assert kernels.planar_sweep(spec, exps, rows).tolist() == want


@st.composite
def scaled_batches(draw):
    """Rows on a random exponent set over GF(2^n), n = 1..8, whose terms
    x^(2^u + 2^v) mostly have v - u a multiple of a divisor d < n of n, so that
    the sweep's scaling degree s is often > 1, plus additive (weight 1) and
    constant (zero) exponents, exponents beyond 2^n - 1, and x^3 and x^6 over
    GF(4), whose exponents are = 0 mod 2^n - 1. Zero rows and rows with one
    live term keep planar rows in the batch."""
    n = draw(st.integers(1, 8) | st.sampled_from([4, 6, 8]))  # 1 < s < n needs n composite
    d = draw(st.sampled_from([d for d in range(1, max(2, n)) if n % d == 0]))
    u = st.integers(0, 2 * n - 1)
    gapped = st.tuples(u, st.integers(min(1, n // d - 1), n // d - 1)).map(
        lambda uj: (1 << uj[0]) + (1 << (uj[0] + d * uj[1])))
    free = st.tuples(u, u).map(lambda uv: (1 << uv[0]) + (1 << uv[1]))
    edge = st.sampled_from([0, 1, 2, 1 << n] + ([3, 6] if n == 2 else []))
    exps = draw(st.lists(st.one_of(gapped, gapped, free, edge), min_size=1, max_size=4))
    coeff = st.integers(0, (1 << n) - 1)
    rows = draw(st.lists(st.lists(coeff, min_size=len(exps), max_size=len(exps)),
                         min_size=1, max_size=24))
    rows.append([0] * len(exps))
    rows.append([0] * (len(exps) - 1) + [draw(coeff)])
    return p2.field(n), exps, np.array(draw(st.permutations(rows)), dtype=np.int64)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(scaled_batches(), st.sampled_from([None, 2, 3, 4]))
def test_sweep_over_coset_representatives_matches_the_oracle(batch, bits):
    spec, exps, rows = batch
    want = [row_oracle(spec, exps, row) for row in rows]
    if bits is None:
        got = kernels.planar_sweep(spec, exps, rows)
    else:
        with block_bits(bits):  # rank calls of 2^bits matrices: stages split over rows and a
            got = kernels.planar_sweep(spec, exps, rows)
    assert got.tolist() == want
    s = kernels._scaling_degree(spec.n, exps)
    event(f"s={'1' if s == 1 else 'n' if s == spec.n else '1<s<n'} "
          f"verdicts={'mixed' if 0 < sum(want) < len(want) else 'one'}")


@st.composite
def orbit_shapes(draw):
    """DO exponents over GF(2^n), n = 2..8, and a random collection of
    support patterns on them whose rows number at most 2^13. The exponents
    mix weight-2 terms (whose d_t = e_t - 2 often shares factors with
    2^n - 1, 63 = 7*9 and 255 = 3*5*17 at n = 6, 8), weight-1 terms and
    x^0, and x^2 and x^(2^(n+1)), whose d_t = 0: scaling fixes them."""
    n = draw(st.integers(2, 8) | st.sampled_from([6, 8]))
    p1 = (1 << n) - 1
    u = st.integers(0, 2 * n - 1)
    weight2 = st.tuples(u, u).map(lambda uv: (1 << uv[0]) + (1 << uv[1]))
    weight1 = u.map(lambda i: 1 << i)
    exps = draw(st.lists(st.one_of(weight2, weight2, weight1, st.sampled_from([0, 2, 2 << n])),
                         min_size=1, max_size=3))
    every = [p for r in range(len(exps) + 1) for p in itertools.combinations(range(len(exps)), r)]
    drawn = draw(st.lists(st.sampled_from([p for p in every if p1 ** len(p) <= 1 << 13]),
                          min_size=1, max_size=5, unique=True))
    patterns = [p for i, p in enumerate(drawn)
                if sum(p1 ** len(q) for q in drawn[:i + 1]) <= 1 << 13]
    return p2.field(n), exps, patterns


def box_logs(box) -> np.ndarray:
    """Every row of a _PatternBox as logs, one row per coordinate, in box order."""
    return np.indices(box.bounds, dtype=np.int64).reshape(len(box.bounds), math.prod(box.bounds))


def pattern_rows(spec, width, patterns) -> np.ndarray:
    """Every coefficient row whose support is one of patterns."""
    blocks = []
    for pattern in patterns:
        rows = np.zeros(((spec.order - 1) ** len(pattern), width), dtype=np.int64)
        rows[:, list(pattern)] = p2.fields.lex_rows(spec.order - 1, len(pattern)) + 1
        blocks.append(rows)
    return np.concatenate(blocks)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(orbit_shapes(), st.sampled_from([None, 61]))
def test_orbit_sweep_matches_the_full_sweep_and_lists_each_orbit_once(shape, rows_cap):
    spec, exps, patterns = shape
    full = pattern_rows(spec, len(exps), patterns)
    want = np.unique(full[kernels.planar_sweep(spec, exps, full)], axis=0)
    if rows_cap is None:
        got = kernels.planar_orbit_sweep(spec, exps, patterns)
    else:
        with kernel_constant("_ORBIT_ROWS", rows_cap):  # small batches, across patterns
            got = kernels.planar_orbit_sweep(spec, exps, patterns)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    listed = [tuple(r) for r in got.tolist()]
    assert listed == sorted(set(listed))  # each planar row once, in lexicographic order
    # the scaling orbits of every box's normal forms cover every row exactly once
    shifts = kernels._scaling_shifts(spec.n, exps)
    boxes = [kernels._PatternBox(spec, shifts, pattern) for pattern in patterns]
    forms = [box.rows(box_logs(box)) for box in boxes]
    assert sum(box.orbit * len(reps) for box, reps in zip(boxes, forms)) == len(full)
    images = np.concatenate([box.expand(reps, np.ones(len(reps), dtype=np.int64))  # no Frobenius
                             for box, reps in zip(boxes, forms)])
    assert len(images) == len(full) and np.array_equal(np.unique(images, axis=0),
                                                       np.unique(full, axis=0))
    p1 = spec.order - 1
    fixed = any(d == 0 for d in shifts.tolist())
    shared = any(math.gcd(d, p1) not in (1, p1) for d in shifts.tolist())
    event(f"d=0 {fixed} shared-factor d {shared} "
          f"multi-position {max(map(len, patterns)) > 1} planar {len(want) > 0}")


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(orbit_shapes(), st.sampled_from([None, 61]))
def test_frobenius_leaders_cover_every_row_once(shape, rows_cap):
    # each leader's Frobenius conjugates below its cycle length, then their
    # scaling orbits: the orbits of scaling and Frobenius together must list
    # every row of the patterns exactly once, so no orbit is missed and no
    # two leaders share one
    spec, exps, patterns = shape
    full = pattern_rows(spec, len(exps), patterns)
    shifts = kernels._scaling_shifts(spec.n, exps)
    boxes = [kernels._PatternBox(spec, shifts, pattern) for pattern in patterns]
    with kernel_constant("_ORBIT_ROWS", rows_cap or kernels._ORBIT_ROWS):
        blocks = [(rows, cycle, box) for box in boxes for rows, cycle in box.leaders()]
    images = [box.expand(rows, cycle) for rows, cycle, box in blocks]
    images = np.concatenate([np.empty((0, len(exps)), dtype=np.int64), *images])
    assert len(images) == len(full)
    assert np.array_equal(np.unique(images, axis=0), np.unique(full, axis=0))
    # every leader is a scaling normal form
    leaders = np.concatenate([np.empty((0, len(exps)), dtype=np.int64),
                              *(rows for rows, _, _ in blocks)])
    assert np.array_equal(kernels.normal_form(spec, exps, leaders), leaders)
    p1 = spec.order - 1
    fixed = any(d == 0 for d in shifts.tolist())
    shared = any(math.gcd(d, p1) not in (1, p1) for d in shifts.tolist())
    forms = sum(math.prod(box.bounds) for box in boxes)
    event(f"d=0 {fixed} shared-factor d {shared} fewer leaders than forms {len(leaders) < forms}")


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(orbit_shapes())
def test_walking_a_prefix_gives_the_prefix_of_the_full_walk(shape):
    # the leader search reads pi on prefixes of box rows: that is sound only
    # if the walk sets coordinate i from coordinates 0..i alone. Every
    # support pattern of the exponents, on 2^12 rows of random logs
    spec, exps, _ = shape
    shifts = kernels._scaling_shifts(spec.n, exps)
    rng = np.random.default_rng(spec.n * 8 + len(exps))
    for r in range(len(exps) + 1):
        for pattern in itertools.combinations(range(len(exps)), r):
            box = kernels._PatternBox(spec, shifts, pattern)
            logs = rng.integers(0, spec.order - 1, (r, 1 << 12))
            full = logs.copy()
            box.walk(full)
            assert (full < np.array(box.bounds, dtype=np.int64)[:, None]).all()
            for w in range(r + 1):
                prefix = logs[:w].copy()
                box.walk(prefix)
                assert np.array_equal(prefix, full[:w])
    event(f"exponents {len(exps)}")


@pytest.mark.parametrize("fam,m", [
    ("P1", 2), ("P2", 2), ("P3", 2), ("P4a", 2), ("P4b", 2), ("SZ-generalized", 4)])
def test_normal_forms_keep_every_verdict_of_random_rows(fam, m):
    # sufficiency audits sweep the normal forms and read the verdicts back:
    # on random rows, mostly not planar, each form must give its row's verdict
    rec = planar.REGISTRY[fam]
    t = p2.tower(m, rec.k)
    spec = t.spec
    pairs = planar.family_shape(fam, t) if rec.shape is not None else [(0, m)]  # c x^(1+q)
    exps = [(1 << u) + (1 << v) for u, v in pairs]
    rng = np.random.default_rng(m * rec.k)
    rows = rng.integers(0, spec.order, (2000, len(exps)))
    rows[rng.random(rows.shape) < 0.25] = 0
    want = kernels.planar_sweep(spec, exps, rows)
    got = kernels.planar_sweep(spec, exps, kernels.normal_form(spec, exps, rows))
    assert got.tolist() == want.tolist() and 0 < want.sum() < len(rows)


def _do_exponents(n):
    return st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
        lambda uv: (1 << uv[0]) + (1 << uv[1]))


def injective_products(consts) -> bool:
    """Reference: x -> a*x is injective for every a != 0, for the product
    with structure constants consts[i, j] = e_i * e_j, read off its full
    table a*y = table[y, a]."""
    cols = span(np.asarray(consts))  # cols[a, j] = a * e_j
    table = span(cols.T)             # table[y, a] = a * y
    return bool((table[1:, 1:] != 0).all())


@st.composite
def symmetric_constants(draw):
    """Symmetric n x n constants over GF(2^n), n = 1..8: the field's own
    product, the form of a random DO polynomial, or random entries; then,
    three times in four, one symmetric pair of entries changed, which mostly
    leaves a few a with a singular M_a. Most draws are singular."""
    n = draw(st.integers(1, 8))
    spec = p2.field(n)
    coeff = st.integers(0, spec.order - 1)
    kind = draw(st.sampled_from(("field", "form", "random")))
    if kind == "random":
        consts = np.array(draw(st.lists(coeff, min_size=n * n, max_size=n * n))).reshape(n, n)
        consts = np.triu(consts) | np.triu(consts, 1).T
    else:
        exps = draw(st.lists(_do_exponents(n), max_size=3)) if kind == "form" else []
        row = draw(st.lists(coeff, min_size=len(exps), max_size=len(exps)))
        consts = semifields._basis_products(spec, exps, row)
    if draw(st.integers(0, 3)):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        delta = draw(st.integers(1, spec.order - 1))
        consts[i, j] ^= delta
        if i != j:
            consts[j, i] ^= delta
    return kind, consts.astype(spec.dtype)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(symmetric_constants(), st.sampled_from([None, 2, 3]))
def test_nonsingular_table_is_injectivity_of_every_product_map(case, bits):
    kind, consts = case
    want = injective_products(consts)
    if bits is None:
        got = kernels.nonsingular_table(span(consts))
    else:
        with block_bits(bits):  # the table's rows split into rank calls of 2^bits
            got = kernels.nonsingular_table(span(consts))
    assert got == want
    event(f"{kind} nonsingular={want}")


@pytest.mark.parametrize("fam,m", [
    ("P1", 2), ("P2", 2), ("P3", 2), ("P4a", 2), ("P4b", 2), ("SZ-generalized", 4)])
def test_presemifield_constructor_rejects_exactly_the_rows_the_sweep_rejects(fam, m):
    # two independent paths to "no zero divisors": the definition on basis
    # pairs checked on the column table, and the planarity sweep of the row
    rec = planar.REGISTRY[fam]
    t = p2.tower(m, rec.k)
    pairs = planar.family_shape(fam, t) if rec.shape is not None else [(0, m)]  # c x^(1+q)
    exps = [(1 << u) + (1 << v) for u, v in pairs]
    rng = np.random.default_rng(7 * m + rec.k)
    rows = rng.integers(0, t.spec.order, (150, len(exps)))
    rows[rng.random(rows.shape) < 0.3] = 0
    want = kernels.planar_sweep(t.spec, exps, rows)
    for row, planar_row in zip(rows.tolist(), want):
        f = DOPoly(t, [(c, u, v) for c, (u, v) in zip(row, pairs)])
        try:
            semifields.presemifield_from_planar(f)
        except ValueError:
            assert not planar_row, row
        else:
            assert planar_row, row
    assert 0 < want.sum() < len(rows)


@SETTINGS
@given(st.integers(0, 10), st.sampled_from([(), (1,), (3,)]), st.data())
def test_span_is_the_xor_of_the_vectors_over_the_bits_of_each_index(k, tail, data):
    vectors = np.array(data.draw(st.lists(st.integers(0, (1 << 16) - 1),
                                          min_size=k * math.prod(tail),
                                          max_size=k * math.prod(tail))),
                       dtype=np.uint16).reshape((k,) + tail)
    want = np.zeros((1 << k,) + tail, dtype=np.uint16)
    for a in range(1 << k):
        for i in range(k):
            if a >> i & 1:
                want[a] ^= vectors[i]
    got = span(vectors)
    assert got.dtype == vectors.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("fam,m,k", [
    ("P1", 2, 2), ("P1", 3, 2), ("P1", 4, 2), ("P3", 2, 3), ("P3", 3, 3), ("P2", 2, 3),
    ("P4a", 2, 4), ("P4b", 2, 4), ("SZ-generalized", 3, 2), ("Hu3", 3, 3)])
def test_sufficiency_spaces_are_planar_in_every_test(fam, m, k):
    t = p2.tower(m, k)
    rep = planar.family_audit(fam, t, "sufficiency")
    assert len(rep.failures) == 0 and len(rep.planar) == rep.tested > 0
    space = planar.family_param_space(fam, t)
    for i in np.random.default_rng(m * k).choice(len(space), min(4, len(space)), replace=False):
        f = planar.family_coeffs(space[i])
        assert oracle(f) and p2.is_planar_linearized(f)
        assert p2.planar_by_criterion(f) in (None, True)
    if planar.REGISTRY[fam].shape is not None:
        exps = [(1 << u) + (1 << v) for u, v in planar.family_shape(fam, t)]
        with block_bits(4):
            assert kernels.planar_sweep(t.spec, exps, np.array(rep.planar[:8])).all()


def test_gf2_16_single_row_blocks_over_a():
    t = p2.tower(8, 2)  # 2^16 differences: four rank calls at the default cap
    assert t.spec.order > 1 << kernels._BLOCK_BITS
    f = planar.family_coeffs(FamilyParams("P1", (t.fe(3),), t))
    assert p2.is_planar_linearized(f)
    assert p2.planar_by_criterion(f) is True
    for c in (1, 2, 0x1234):  # a second criterion-shape term, c*x^(2^(m+1)+2)
        g = DOPoly(t, [(cb, u, v) for _, cb, u, v in f.terms] + [(c, 1, 9)])
        assert p2.is_planar_linearized(g) == p2.planar_by_criterion(g)


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(st.integers(1, (1 << 18) - 1),
       st.lists(st.tuples(st.integers(0, (1 << 18) - 1), st.integers(0, (1 << 18) - 1)),
                min_size=1, max_size=5))
def test_uint32_sweep_agrees_with_the_criterion_over_gf2_18(param, randoms):
    # the rank kernel's uint32 path, out of the oracle's reach (4^18): a
    # planted P1 row and random rows on P1's shape, each against the criterion
    t = p2.tower(9, 2)
    assert t.spec.dtype == np.uint32
    try:
        planted = [planar.family_tuple("P1", planar.family_coeffs(
            FamilyParams("P1", (t.fe(param),), t)), t)]
    except ValueError:  # the few excluded parameters
        planted = []
    shape = planar.family_shape("P1", t)
    rows = np.array(planted + randoms, dtype=np.int64)
    mask = kernels.planar_sweep(t.spec, [(1 << u) + (1 << v) for u, v in shape], rows)
    want = [p2.planar_by_criterion(DOPoly(t, [(int(c), u, v) for c, (u, v) in zip(row, shape)]))
            for row in rows]
    assert mask.tolist() == want
    assert mask[:len(planted)].all()
    event(f"planted={len(planted)} planar={int(mask.sum())}")
