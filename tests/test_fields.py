"""Field layer: moduli, arithmetic, towers, embeddings, and the one element
policy (FieldSpec.bits) at every entry point that takes a field value."""

import hashlib
import itertools

import numpy as np
import pytest

import planar2 as p2
from planar2 import linearized, planar, semifields, surfaces
from planar2.fields import (N_MAX, hex_text, is_irreducible, lex_chunks, lex_rows, mat_det,
                            mat_solve, vec_div, vec_eval, vec_frob, vec_mul)


def _divides(d: int, p: int) -> bool:
    dd = d.bit_length() - 1
    while p.bit_length() - 1 >= dd and p:
        p ^= d << (p.bit_length() - 1 - dd)
    return p == 0


def _irreducible_naive(p: int, n: int) -> bool:
    if p.bit_length() - 1 != n:
        return False
    return all(not _divides(d, p) for d in range(2, 1 << (n // 2 + 1)))


# frozen from the naive trial-division oracle above
KNOWN_MODULI = {1: 0x3, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43,
                7: 0x83, 8: 0x11B, 9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009}


def test_smallest_irreducible_matches_naive_oracle():
    for n in range(1, 11):
        best = min(x for x in range((1 << n) + 1, 1 << (n + 1), 2)
                   if _irreducible_naive(x, n))
        assert p2.smallest_irreducible(n) == best


def test_known_moduli_frozen():
    for n, mod in KNOWN_MODULI.items():
        assert p2.smallest_irreducible(n) == mod
        assert is_irreducible(mod, n)


def test_equal_degree_fields_are_identical():
    assert p2.field(5) is p2.field(5)
    assert p2.FieldSpec(5) == p2.FieldSpec(5)


def test_gf8_hand_product():
    # x * x^2 = x^3 = x + 1 modulo x^3 + x + 1
    f8 = p2.field(3)
    assert f8.mul(0b010, 0b100) == 0b011


def test_identity_and_absorbing():
    f = p2.field(6)
    for a in range(64):
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0


def test_inverse_and_double_inverse_exhaustive():
    f = p2.field(8)
    for a in range(1, 256):
        assert f.mul(a, f.inv(a)) == 1
        assert f.inv(f.inv(a)) == a
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_square_and_multiply_vs_naive():
    f = p2.field(5)
    for a in range(32):
        acc = 1
        for e in range(12):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_frobenius_is_homomorphism_exhaustive_n6():
    f = p2.field(6)
    for a in range(64):
        fa = f.frob(a, 1)
        for b in range(64):
            assert f.frob(a ^ b, 1) == fa ^ f.frob(b, 1)
            assert f.frob(f.mul(a, b), 1) == f.mul(fa, f.frob(b, 1))


def test_frobenius_is_homomorphism_random_n16():
    f = p2.field(16)
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, b = (int(v) for v in rng.integers(0, f.order, 2))
        assert f.frob(f.mul(a, b), 3) == f.mul(f.frob(a, 3), f.frob(b, 3))


def test_squaring_is_a_bijection():
    for n in (3, 4, 6):
        f = p2.field(n)
        assert len({f.sqr(a) for a in range(f.order)}) == f.order


def test_table_arithmetic_agrees_with_shift_and_xor():
    # the scalar reference: _mul_raw and _pow_raw never read the tables
    for n in (1, 10, 17, 20):
        f = p2.field(n)
        rng = np.random.default_rng(1)
        pairs = rng.integers(0, f.order, (200, 2))
        pairs[:3] = [(0, 0), (0, f.order - 1), (1, 0)]  # zero operands on either side
        want = [f._mul_raw(int(a), int(b)) for a, b in pairs]
        got = vec_mul(f, pairs[:, 0], pairs[:, 1])
        assert got.dtype == np.int64 and got.tolist() == want
        for (a, b), ab in zip(pairs.tolist(), want):
            assert f.mul(a, b) == ab
            if a:
                assert f.inv(a) == f._pow_raw(a, f.order - 2)
                assert f.pow(a, 77) == f._pow_raw(a, 77)
                assert f.frob(a, 4) == f._pow_raw(a, 1 << 4)


# sha256 of exp.tobytes() + log.tobytes(), recorded at 0.12.0, when
# FieldSpec._mul_raw still had its own shift-and-reduce loop.
TABLE_DIGESTS = {
    1: "6033d7d7e8a6b640795203accf09ff63e57ea5ae180589d93712cb70ff7820d6",
    2: "0c1f12de5039c3377f2418dd66e856bf60f21d4610be2d726f816f7638eed0be",
    3: "dab220f7be031b6e54a7a6232399ce73f7f43d92301c9532f46ff70b35069e9d",
    4: "c6179f29b636c1a2c1ef79809ce6b34752bfde1ae6a369909f4192cdd0f09d34",
    5: "ee5b70a6301177362492a44cc0a76ee5992927da32e17b55e9c03044248dea2c",
    6: "a527464f6a37c37ebee6fd2cc765c7c6e7ad0553b9726008d951b589e4f05a09",
    7: "887060d9fda16f8a0f83d15cab25f3e93d345dddfdde6c9bbdc13234c8c04311",
    8: "21fadb411d121d6ed1b9b7c951c5e0fdd0929235a15bd4b9fa33008ec90859a1",
    9: "ae031674d8d6ae01bf1bc24ff0c248f5abfa15c2a0c56879035c7d67922c1b3d",
    10: "0c2e04c0b6d59de86a85a29debe2a96c0bc1ab7e94fb232e1e420259f7805618",
    11: "a6f043d5a2302895f7a81658e625ad664be05af2a52c4911bd2ee8bd381c16b9",
    12: "15a0ff7b6d635daba1346d04a8ef50c310538a66536d53c476a29deaba5827d3",
    13: "213161b01ced665d57fd5f474f9c5e2ef32f204ebc3d0f7af204706ba40d29c4",
    14: "58b104145e2f699f0d99677d21c3d6d939e3d9c2bfbc260067b3ce3ab7b3f8dd",
    15: "bb1943f936534322c6f2c0b433c93c3795a0b99e715801f1533ce1d463232868",
    16: "2bc1bbdfe0875b641f48abbe69ef4f099ba94f620ab46b2c2967388d61829d7e",
    20: "607f1bcf6e04fb655d0f23e2dd04b59e2a9207fdde1931b36dfb38d911c3eda6",
}


def test_field_tables_match_the_recorded_digests():
    for n, digest in TABLE_DIGESTS.items():
        f = p2.field(n)
        assert hashlib.sha256(f.exp.tobytes() + f.log.tobytes()).hexdigest() == digest, n


def test_one_field_ceiling():
    assert N_MAX == 20 and p2.field(20).order == 1 << 20
    with pytest.raises(p2.BudgetError):
        p2.field(21)
    with pytest.raises(p2.BudgetError):
        p2.tower(11, 2)
    with pytest.raises(ValueError):
        p2.FieldSpec(0)
    assert p2.field(16).dtype == np.uint16 and p2.field(17).dtype == np.uint32


def test_log_tables_match_the_scalar_generator_chain():
    # reference: the one-product-per-element loop; log 0 = 2(2^n - 1) points
    # into the zeros that pad exp from two periods to 4(2^n - 1) + 1 entries
    for n in range(1, 17):
        f = p2.field(n)
        p1 = f.order - 1
        exp = np.zeros(2 * p1, dtype=np.int64)
        log = np.zeros(f.order, dtype=np.int64)
        v = 1
        for i in range(p1):
            exp[i] = v
            log[v] = i
            v = f._mul_raw(v, f.generator)
        exp[p1:] = exp[:p1]
        log[0] = 2 * p1
        assert f.exp.size == 4 * p1 + 1 and not f.exp[2 * p1:].any(), n
        assert np.array_equal(f.exp[:2 * p1], exp) and np.array_equal(f.log, log), n
        assert f.exp.dtype == f.dtype and f.log.dtype == log.dtype
        assert not f.exp.flags.writeable and not f.log.flags.writeable


def test_lex_rows_lists_tuples_like_itertools_product():
    import itertools
    for base, width in ((3, 0), (1, 0), (1, 3), (5, 1), (4, 3), (2, 5), (0, 2)):
        rows = lex_rows(base, width)
        assert rows.dtype == np.int64 and rows.shape == (base ** width, width)
        assert [tuple(r) for r in rows.tolist()] == list(
            itertools.product(range(base), repeat=width))


def test_hex_text_formats_like_an_fstring_per_element():
    def strings(a):  # each element's string, nested as a.tolist() nests them
        text, index = hex_text(a)
        return text[index].tolist()

    rng = np.random.default_rng(20)
    top = (1 << N_MAX) - 1
    rows = rng.integers(0, top + 1, size=(50, 3))
    rows[:5] = [0, 1, top]  # repeated values, both ends of the range
    for a in (rows, rows[:, 0], rows[:0], np.empty((0, 4), dtype=np.int64),
              np.arange(20, dtype=np.int64)):
        assert strings(a) == (
            [[f"{c:x}" for c in row] for row in a.tolist()] if a.ndim == 2
            else [f"{c:x}" for c in a.tolist()])
    assert strings(rows[:0]) == [] and strings(np.array([top])) == ["fffff"]
    with pytest.raises(ValueError, match="nonnegative"):
        hex_text(np.array([3, -1]))


def test_lex_chunks_list_lex_rows_in_bounded_blocks():
    import itertools
    for base, width, rows in ((3, 0, 4), (1, 3, 4), (5, 1, 4), (4, 3, 16), (4, 3, 20),
                              (2, 5, 7), (6, 2, 5), (7, 2, 1), (3, 4, 1 << 18)):
        blocks = list(lex_chunks((base,) * width, rows))
        assert np.array_equal(np.concatenate(blocks), lex_rows(base, width))
        assert all(b.dtype == np.int64 and len(b) <= rows for b in blocks)
    # per-column bases: the box of the scaling normal forms
    for bases, rows in (((3, 1, 5), 4), ((1, 7), 3), ((2, 3, 4), 6), ((9,), 2),
                        ((4, 1, 1, 3), 1 << 18), ((5, 2), 1)):
        blocks = list(lex_chunks(bases, rows))
        assert [tuple(r) for r in np.concatenate(blocks).tolist()] == list(
            itertools.product(*map(range, bases)))
        assert all(b.dtype == np.int64 and len(b) <= rows for b in blocks)


def test_determinant_and_solve_share_one_elimination():
    # reference: cofactor expansion along the first row (char 2: no signs)
    f = p2.field(4)

    def det(rows):
        if not rows:
            return 1
        acc = 0
        for j, c in enumerate(rows[0]):
            acc ^= f.mul(c, det([r[:j] + r[j + 1:] for r in rows[1:]]))
        return acc

    rng = np.random.default_rng(3)
    for i in range(200):
        k = int(rng.integers(1, 5))
        rows = rng.integers(0, 4 if i % 2 else 16, (k, k)).tolist()  # odd i: often singular
        rhs = rng.integers(0, 16, k).tolist()
        d = mat_det(f, rows)
        assert d == det(rows)
        if d == 0:
            with pytest.raises(ValueError):
                mat_solve(f, rows, rhs)
            continue
        x = mat_solve(f, rows, rhs)
        for r, v in zip(rows, rhs):
            acc = 0
            for c, xi in zip(r, x):
                acc ^= f.mul(c, xi)
            assert acc == v


def test_fe_operators():
    f = p2.field(4)
    x = f.fe(0b0110)
    assert (x + x).bits == 0
    assert (x * 1).bits == x.bits
    assert (x / x).bits == 1
    assert (x ** 3) * x == x ** 4
    assert x ** -1 == x.inv()
    assert bool(f.zero) is False
    with pytest.raises(ValueError):
        x + p2.field(5).fe(1)


# -- towers ---------------------------------------------------------------


def test_tower_requires_matching_degrees():
    t = p2.tower(2, 3)
    assert t.spec.n == 6 and t.q == 4


def test_subfield_bits_list_the_frobenius_fixed_elements():
    for m, k in [(1, 1), (3, 1), (1, 4), (2, 3), (4, 2), (5, 4)]:
        t = p2.tower(m, k)
        xs = np.arange(t.spec.order, dtype=np.int64)
        got = t.subfield_bits()
        assert got.dtype == np.int64 and np.array_equal(got, xs[t.vec_frobq(xs) == xs])


def test_frobq_fixes_subfield_and_has_order_k():
    t = p2.tower(2, 3)
    sub = t.subfield_members()
    assert len(sub) == 4
    for c in sub:
        assert t.frobq(c) == c
    for x in t.elements():
        assert t.frobq(x, t.k) == x


def test_rel_trace_and_norm_land_in_subfield():
    for (m, k) in ((2, 2), (2, 3), (1, 4), (3, 2)):
        t = p2.tower(m, k)
        for x in t.elements():
            assert t.in_base(t.rel_trace(x))
            assert t.in_base(t.rel_norm(x))


def test_rel_trace_gf4_over_gf2_omega():
    # omega + omega^2 = 1
    t = p2.tower(1, 2)
    assert t.rel_trace(t.fe(0b10)).bits == 1
    assert t.rel_trace(t.spec.zero).bits == 0


def test_rel_trace_is_base_linear():
    t = p2.tower(2, 2)
    rng = np.random.default_rng(2)
    sub = sorted(t.subfield_members(), key=lambda e: e.bits)
    for _ in range(100):
        x = t.fe(int(rng.integers(0, 16)))
        y = t.fe(int(rng.integers(0, 16)))
        c = sub[int(rng.integers(0, 4))]
        assert t.rel_trace(x + y) == t.rel_trace(x) + t.rel_trace(y)
        assert t.rel_trace(c * x) == c * t.rel_trace(x)


def test_subfield_constant_trace_parity():
    # trace of a subfield constant is k*c in characteristic 2
    todd, teven = p2.tower(2, 3), p2.tower(2, 2)
    for c in todd.subfield_members():
        assert todd.rel_trace(c) == c
    for c in teven.subfield_members():
        assert teven.rel_trace(c).bits == 0


def test_normal_element_gf4():
    t = p2.tower(1, 2)
    assert t.normal_element.bits == 2  # 1 is rejected: its orbit is constant


def test_normal_element_orbit_independent():
    for (m, k) in ((2, 2), (2, 3), (2, 4), (1, 5)):
        t = p2.tower(m, k)
        xi = t.normal_element
        orbit = [t.frobq(xi, j) for j in range(k)]
        # exhaustive independence check over subfield combinations
        sub = sorted(t.subfield_members(), key=lambda e: e.bits)
        seen = set()
        import itertools
        for combo in itertools.product(sub, repeat=k):
            acc = t.spec.zero
            for c, o in zip(combo, orbit):
                acc = acc + c * o
            seen.add(acc.bits)
        assert len(seen) == t.spec.order


def test_mu_set_size_and_membership():
    t = p2.tower(2, 2)
    mu = t.mu_set()
    assert len(mu) == 5  # (q^2-1)/(q-1) at q=4
    assert t.fe(1) in mu
    t3 = p2.tower(2, 3)
    assert len(t3.mu_set()) == (64 - 1) // 3


@pytest.mark.parametrize("m, k", [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2)])
def test_mu_set_is_the_norm_one_group(m, k):
    t = p2.tower(m, k)
    e = (t.spec.order - 1) // (t.q - 1)
    want = {b for b in range(1, t.spec.order) if t.spec.pow(b, e) == 1}
    mu = t.mu_set()
    assert {x.bits for x in mu} == want and len(mu) == e
    assert all(isinstance(x, p2.Fe) and x.spec is t.spec for x in mu)


def test_base_embedding_is_field_homomorphism():
    t = p2.tower(3, 2)
    base = t.base_field()
    for a in range(8):
        for b in range(8):
            xa, xb = base.fe(a), base.fe(b)
            assert t.embed_base(xa * xb) == t.embed_base(xa) * t.embed_base(xb)
            assert t.embed_base(xa + xb) == t.embed_base(xa) + t.embed_base(xb)
            assert t.project_base(t.embed_base(xa)) == xa
    with pytest.raises(ValueError):
        t.project_base(t.fe(next(b for b in range(64)
                                 if t.spec.frob(b, 3) != b)))


def test_tower_json_roundtrip():
    t = p2.tower(2, 3)
    assert t.to_json() == {"n": 6, "modulus": "43", "m": 2, "k": 3}


# -- vector helpers ---------------------------------------------------------


def test_vec_helpers_match_scalar_ops():
    f = p2.field(6)
    xs = np.arange(64, dtype=np.int64)
    rng = np.random.default_rng(3)
    ys = rng.integers(0, 64, 64).astype(np.int64)
    vm = vec_mul(f, xs, ys)
    vf = vec_frob(f, xs, 2)
    for i in range(64):
        assert vm[i] == f.mul(int(xs[i]), int(ys[i]))
        assert vf[i] == f.frob(int(xs[i]), 2)


def test_vec_div_is_zero_safe():
    for n in (1, 2, 5, 6):
        f = p2.field(n)
        a, b = (v.ravel() for v in np.indices((f.order, f.order), dtype=np.int64))
        want = [f.mul(x, f.inv(y)) if y else 0 for x, y in zip(a.tolist(), b.tolist())]
        assert vec_div(f, a, b).tolist() == want, n
        assert vec_div(f, 1, b).dtype == np.int64


def test_tower_column_ops_match_scalar_ops():
    for m, k in ((1, 2), (2, 3), (3, 2), (2, 4)):
        t = p2.tower(m, k)
        xs = np.arange(t.spec.order, dtype=np.int64)
        base = sorted(x.bits for x in t.subfield_members())
        for j in range(k + 1):
            assert t.vec_frobq(xs, j).tolist() == [t.frobq(x, j).bits for x in t.elements()]
        assert t.vec_rel_norm(xs).tolist() == [t.rel_norm(x).bits for x in t.elements()]
        assert t.vec_abs_trace_base(np.array(base)).tolist() == [
            t.abs_trace_base(t.fe(b)).bits for b in base]


def test_pow_table_matches_scalar():
    f = p2.field(5)
    xs = np.arange(32, dtype=np.int64)
    for e in (0, 1, 3, 9, 31, 40):  # x^0 = 1 at x = 0 too
        assert vec_eval(f, [((e,), 1)], [xs]).tolist() == [f.pow(x, e) for x in range(32)]
        # a zero coefficient adds nothing: log 0 reduced mod 2^n - 1 would read as a unit
        assert vec_eval(f, [((e,), 7), ((e + 1,), 0)], [xs]).tolist() == [
            f.mul(7, f.pow(x, e)) for x in range(32)]


def test_fe_equality_is_same_field_and_same_bits_and_hash_agrees():
    spec = p2.field(4)
    for x, y in itertools.product(range(16), repeat=2):
        a, b = spec.fe(x), spec.fe(y)
        assert (a == b) == (x == y) and (a != b) == (x != y)
        if a == b:
            assert hash(a) == hash(b)
    a, b = spec.fe(3), p2.field(8).fe(3)
    assert a != 3 and 3 != a and a != b
    assert len({a, b, 3}) == len({3, a, b}) == 3


def test_embedding_sends_x_to_the_smallest_root_of_the_base_modulus():
    # scalar reference: evaluate the base modulus at every q-subfield element
    for m, k in [(2, 2), (3, 2), (2, 3), (4, 2), (3, 4), (5, 3)]:
        t = p2.tower(m, k)
        spec, modulus = t.spec, t.base_field().modulus
        roots = []
        for c in range(spec.order):
            value = 0
            for i in range(m + 1):
                if modulus >> i & 1:
                    value ^= spec.pow(c, i)
            if value == 0 and spec.frob(c, m) == c:
                roots.append(c)
        assert len(roots) == m
        assert t.embed_base(t.base_field().fe(2)).bits == roots[0]


def test_embedding_failure_is_a_runtime_error(monkeypatch):
    # a RuntimeError rather than an assert, so python -O keeps the check
    t = p2.TowerView(2, 2)
    monkeypatch.setattr(t, "subfield_bits", lambda: np.zeros(0, dtype=np.int64))
    with pytest.raises(RuntimeError, match="must split"):
        t.embed_base(t.base_field().fe(1))


# -- one element policy: FieldSpec.bits ------------------------------------

def _entry_points():
    """(name, field, call) for each entry point that takes a field value:
    call(x) hands it x where it expects an element of that field."""
    t, t3, t4 = p2.tower(4, 2), p2.tower(2, 3), p2.tower(2, 4)
    spec = t.spec
    L = linearized.LinearizedPoly(t, [1, 0])
    P = semifields.field_presemifield(spec)
    out = [
        ("MvPoly", spec, lambda x: surfaces.MvPoly(spec, 2, {(1, 0): x})),
        ("MvPoly.evaluate", spec,
         lambda x: surfaces.MvPoly(spec, 2, {(1, 0): 1}).evaluate([x, 0])),
        ("LinearForm", spec, lambda x: surfaces.LinearForm(spec, [1, x])),
        ("LinearizedPoly", spec, lambda x: linearized.LinearizedPoly(t, [1, x])),
        ("LinearizedPoly.__call__", spec, L),
        ("DOPoly", spec, lambda x: planar.DOPoly(t, [(x, 0, 4)])),
        ("DOPoly.eval", spec, planar.DOPoly(t, [(1, 0, 4)]).eval),
        ("criterion_table_k2", spec, lambda x: planar.criterion_table_k2([x, 0, 0, 0], t)),
        ("criterion_table_k3", t3.spec,
         lambda x: planar.criterion_table_k3([0] * 4, [0, x], t3)),
        ("criterion_table_k4", t4.spec,
         lambda x: planar.criterion_table_k4([0] * 6, [0] * 4, [x, 0], t4)),
        ("family_coeffs", spec,
         lambda x: planar.family_coeffs(planar.FamilyParams("P1", (x,), t))),
        ("Presemifield.mul", spec, lambda x: P.mul(x, 1)),
        ("to_semifield", spec, lambda x: semifields.to_semifield(P, x)),
    ]
    for name in ("frobq", "rel_trace", "rel_norm", "in_base", "abs_trace_base",
                 "project_base"):
        out.append((f"TowerView.{name}", spec, getattr(t, name)))
    return out


_ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("spec, call", [e[1:] for e in _ENTRY_POINTS],
                         ids=[e[0] for e in _ENTRY_POINTS])
def test_every_entry_point_rejects_a_foreign_element(spec, call):
    # 3 is an element of GF(2^4) and, as bits, of every larger field too
    with pytest.raises(ValueError):
        call(p2.field(4).fe(3))
    with pytest.raises(ValueError, match="out of range"):
        call(spec.order)


def test_bits_is_the_element_gate():
    f = p2.field(4)
    assert f.bits(f.fe(9)) == 9 and f.bits(np.int64(9)) == 9 and f.bits(15) == 15
    for bad in (-1, 16):
        with pytest.raises(ValueError, match="out of range"):
            f.bits(bad)
    with pytest.raises(ValueError, match="another field"):
        f.bits(p2.field(5).fe(9))
    with pytest.raises(TypeError):
        f.bits(1.0)
