"""The definition oracle must agree with a set-based reference on arbitrary
tables, the rank test alone with a scalar GF(2) rank, and the rank kernel
with the oracle on identical inputs."""

import ast
import contextlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import planar2 as p2
from planar2 import kernels, planar
from planar2.fields import span, vec_mul
from planar2.planar import FamilyParams


def _first_failure(spec, fvals):
    # independent set-based oracle, no shared code with the kernels: the
    # smallest a whose difference map is not a bijection, or None
    for a in range(1, spec.order):
        seen = set()
        for x in range(spec.order):
            v = int(fvals[x ^ a]) ^ int(fvals[x]) ^ spec.mul(a, x)
            if v in seen:
                return a
            seen.add(v)
    return None


def _planar_reference(spec, fvals) -> bool:
    return _first_failure(spec, fvals) is None


def _table(spec, exps, row) -> np.ndarray:
    fv = np.zeros(spec.order, dtype=np.int64)
    for e, c in zip(exps, row):
        fv ^= np.array([spec.mul(int(c), spec.pow(x, e)) for x in range(spec.order)])
    return fv


def test_check_agrees_with_reference_oracle():
    spec = p2.field(4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        fv = rng.integers(0, 16, 16).astype(np.int64)
        assert kernels.planar_check_table(spec, fv) == _planar_reference(spec, fv)


def test_check_rejects_tables_that_are_not_field_valued():
    spec = p2.field(3)
    for bad in (np.zeros(7, dtype=np.int64), np.full(8, 8), np.full(8, -1),
                np.full(8, 0.5), np.zeros(8), np.arange(8, dtype=np.float32),
                np.zeros(8, dtype=bool)):  # a cast would read 0.5 as f = 0
        with pytest.raises(ValueError, match="elements of GF"):
            kernels.planar_check_table(spec, bad)


@contextlib.contextmanager
def check_elems(bits):
    """Shrink the oracle's gathers so that small fields run every stage."""
    saved = kernels._CHECK_ELEMS, kernels._FIRST_ELEMS
    kernels._CHECK_ELEMS = kernels._FIRST_ELEMS = 1 << bits
    try:
        yield
    finally:
        kernels._CHECK_ELEMS, kernels._FIRST_ELEMS = saved


@pytest.mark.parametrize("n", [1, 2, 5, 9])
@pytest.mark.parametrize("bits", [0, 4, 18])
def test_check_tests_every_difference_once(monkeypatch, n, bits):
    # squaring permutes the nonzero elements, so the a^2 of the rows the
    # oracle tests cover them once each iff every a != 0 is tested once
    spec = p2.field(n)
    squares = []
    real = kernels._pairs_distinct

    def spy(v, sq, order):
        squares.extend(np.broadcast_to(sq, (v.shape[0], 1)).ravel().tolist())
        return real(v, sq, order)

    monkeypatch.setattr(kernels, "_pairs_distinct", spy)
    with check_elems(bits):
        assert kernels.planar_check_table(spec, np.zeros(spec.order, dtype=np.int64))
    assert sorted(squares) == list(range(1, spec.order))


def _first_failure_np(spec, fvals):
    # numpy reference, no shared code with the kernels: the smallest a
    # whose D_a repeats a value, or None; one sorted row per a, 64 at a time
    xs = np.arange(spec.order)
    for a0 in range(0, spec.order, 64):
        a = np.arange(max(a0, 1), min(a0 + 64, spec.order))[:, None]
        d = np.sort(fvals[xs ^ a] ^ fvals ^ spec.exp[spec.log[a] + spec.log[xs]], axis=1)
        repeats = (d[:, 1:] == d[:, :-1]).any(axis=1)
        if repeats.any():
            return int(a[repeats.argmax(), 0])
    return None


@pytest.mark.parametrize("n", [10, 12])
def test_check_agrees_with_reference_on_large_fields(n):
    # the chunks of the late stages carry the largest row offsets in their
    # keys; check_elems(18) makes the cached first block hold more rows
    # than 2^16 keys allow in the field's dtype ((2^9 - 2) x 2^10 and
    # (2^7 - 2) x 2^12), and check_elems(8) one row per chunk
    spec = p2.field(n)
    t = p2.tower(n // 2, 2)
    fv = planar.family_coeffs(FamilyParams("P1", (t.fe(2),), t)).value_table()
    perturbed = fv.copy()
    perturbed[3 * spec.order // 4:] ^= 1  # D_a unchanged for a < 2^(n-2)
    fail = _first_failure_np(spec, perturbed)
    assert _first_failure_np(spec, fv) is None
    assert fail is not None and fail >= 1 << (n - 2)
    for bits in (None, 18, 8):
        with check_elems(bits) if bits else contextlib.nullcontext():
            assert kernels.planar_check_table(spec, fv)
            assert not kernels.planar_check_table(spec, perturbed)


# planar DO families by field degree n: (family, m, k)
_PLANTED = {3: [("P3", 1, 3)], 4: [("P1", 2, 2)], 6: [("P1", 3, 2), ("P3", 2, 3)],
            8: [("P1", 4, 2), ("P4a", 2, 4), ("P4b", 2, 4)]}


@st.composite
def tables(draw):
    """A value table over GF(2^n), n = 1..8: random; planted planar (f = 0 or
    a family instance, plus an additive function and a constant, which keep
    it planar); or planted and then perturbed by a delta != 0 on the quarter
    of inputs whose top two bits are set, which leaves D_a unchanged for
    every a < 2^(n-2)."""
    n = draw(st.integers(1, 8))
    spec = p2.field(n)
    order = spec.order
    kind = draw(st.sampled_from(("random", "planted", "perturbed")))
    if kind == "random":
        return n, kind, np.array(draw(st.lists(st.integers(0, order - 1),
                                                min_size=order, max_size=order)))
    fv = np.zeros(order, dtype=np.int64)
    families = _PLANTED.get(n, [])
    if families and draw(st.booleans()):
        fam, m, k = draw(st.sampled_from(families))
        t = p2.tower(m, k)
        while True:
            try:
                params = (t.fe(draw(st.integers(1, order - 1))),)
                fv = planar.family_coeffs(FamilyParams(fam, params, t)).value_table()
                break
            except ValueError:  # the few excluded parameters
                continue
    for i in range(n):  # additive terms c * x^(2^i)
        c = draw(st.integers(0, order - 1))
        fv ^= np.array([spec.mul(c, spec.pow(x, 1 << i)) for x in range(order)])
    fv ^= draw(st.integers(0, order - 1))
    if kind == "perturbed" and n > 1:
        fv[3 * order // 4:] ^= draw(st.integers(1, order - 1))
    return n, kind, fv


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(tables(), st.one_of(st.none(), st.integers(0, 8)))
def test_check_agrees_with_reference_on_arbitrary_tables(case, bits):
    n, kind, fv = case
    spec = p2.field(n)
    fail = _first_failure(spec, fv)
    if bits is None:
        got = kernels.planar_check_table(spec, fv)
    else:
        with check_elems(bits):  # few rows per gather: every stage and chunk runs
            got = kernels.planar_check_table(spec, fv)
    assert got == (fail is None)
    if kind == "planted":
        assert got
    if kind == "perturbed" and n > 1:
        assert fail is None or fail >= 1 << (n - 2)
    event(f"{kind} planar={got}")


def _gf2_rank(columns) -> int:
    # scalar reference on Python ints, no shared code with the kernels: an
    # XOR basis keyed by leading bit
    basis = {}
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


_RANK_KINDS = ("random", "nonsingular", "zero", "duplicate", "dependent")


@st.composite
def rank_batches(draw):
    """(n, kinds, cols) for the rank kernel: nb matrices over GF(2) as n
    column integers each, cols[j, s] column j of matrix s, in uint16 up to
    n = 16 and uint32 above. Each matrix is uniform, or a product of
    elementary column operations on a permuted identity (nonsingular), or
    that with one column made zero, a copy of another column, or the XOR
    of a nonempty set of the others (singular)."""
    n = draw(st.integers(1, 20))
    nb = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=5, max_size=5))) + 0.1
    kinds = [str(k) for k in rng.choice(_RANK_KINDS, nb, p=weights / weights.sum())]
    mats = []
    for kind in kinds:
        if kind == "random":
            mats.append([int(c) for c in rng.integers(0, 1 << n, n)])
            continue
        cols = [1 << int(j) for j in rng.permutation(n)]
        for _ in range(3 * n):
            i, j = (int(x) for x in rng.integers(0, n, 2))
            if i != j:
                cols[i] ^= cols[j]
        i = int(rng.integers(0, n))
        others = [j for j in range(n) if j != i]
        if kind == "zero" or (kind != "nonsingular" and not others):
            cols[i] = 0
        elif kind == "duplicate":
            cols[i] = cols[int(rng.choice(others))]
        elif kind == "dependent":
            picked = rng.choice(others, int(rng.integers(1, len(others) + 1)), replace=False)
            cols[i] = 0
            for j in picked:
                cols[i] ^= cols[int(j)]
        mats.append(cols)
    dtype = np.uint16 if n <= 16 else np.uint32
    return n, kinds, np.array(mats, dtype=dtype).T.copy()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(rank_batches())
def test_full_rank_agrees_with_a_scalar_gf2_rank(case):
    n, kinds, cols = case
    want = [_gf2_rank(int(c) for c in cols[:, s]) == n for s in range(cols.shape[1])]
    for kind, full in zip(kinds, want):  # the batch holds the verdicts its kinds promise
        assert kind == "random" or full == (kind == "nonsingular")
    got = kernels._full_rank(cols.copy())
    assert got.dtype == bool and got.tolist() == want
    event(f"{'uint16' if n <= 16 else 'uint32'} verdicts={sorted(set(want))}")


def test_rank_kernel_agrees_with_oracle_on_random_do_polys():
    spec = p2.field(6)
    rng = np.random.default_rng(1)
    for _ in range(80):
        nterms = int(rng.integers(1, 4))
        exps = [(1 << int(u)) + (1 << int(v)) for u, v in rng.integers(0, 6, (nterms, 2))]
        row = rng.integers(0, 64, nterms)
        got = kernels.planar_sweep(spec, exps, row[None, :])[0]
        assert got == kernels.planar_check_table(spec, _table(spec, exps, row))


def test_sweep_agrees_with_oracle_on_batched_rows():
    spec = p2.field(6)
    rng = np.random.default_rng(2)
    exps = [0b101, 0b10100, 0b10001]
    coeffs = rng.integers(0, 64, (400, 3)).astype(np.int64)
    coeffs[::7, 1:] = 0  # c*x^5 alone: planar for some c, so both verdicts occur
    mask = kernels.planar_sweep(spec, exps, coeffs)
    want = [kernels.planar_check_table(spec, _table(spec, exps, row)) for row in coeffs]
    assert mask.tolist() == want
    assert 0 < mask.sum() < len(mask)


def test_sweep_matches_per_table_checks():
    spec = p2.field(4)
    rng = np.random.default_rng(3)
    exps = [3, 5]
    coeffs = rng.integers(0, 16, (100, 2)).astype(np.int64)
    mask = kernels.planar_sweep(spec, exps, coeffs)
    for row, ok in zip(coeffs, mask):
        assert kernels.planar_check_table(spec, _table(spec, exps, row)) == ok


def test_known_planar_tables_pass_both_backends():
    # the oracle on value tables and the rank kernel on coefficient rows
    t = p2.tower(3, 2)
    spec = t.spec
    cs = sorted(x.bits for x in p2.norm_trace_zero_set(t))
    for c in cs:
        assert kernels.planar_check_table(spec, p2.DOPoly(t, [(c, 0, 3)]).value_table())
    assert kernels.planar_sweep(spec, [1 + 8], np.array(cs)[:, None]).all()


@pytest.mark.parametrize("fam,m,k,matrices", [("P1", 4, 2, 17), ("P3", 3, 3, 73)])
def test_planar_row_tests_one_a_per_subfield_coset(monkeypatch, fam, m, k, matrices):
    # every term has v - u = 0 mod m, so one a per coset of GF(2^m)* decides:
    # (2^n - 1)/(2^m - 1) matrices, not 2^n - 1, and all in one rank call
    t = p2.tower(m, k)
    f = planar.family_coeffs(FamilyParams(fam, (t.fe(3),), t))
    calls = []
    real = kernels._full_rank

    def counted(cols):
        calls.append(cols.shape[1])
        return real(cols)

    monkeypatch.setattr(kernels, "_full_rank", counted)
    assert p2.is_planar_linearized(f)
    assert calls == [matrices] == [(t.spec.order - 1) // (t.q - 1)]


def test_scaling_degree_reads_exponents_mod_the_group_order():
    assert kernels._scaling_degree(8, [1 + 16, 2 + 32]) == 4  # P1 at m=4
    assert kernels._scaling_degree(2, [3]) == 1  # x^3 over GF(4): 3 = 0 reads as 2^2 - 1
    assert kernels._scaling_degree(6, [0, 4, 1 + 8]) == 3  # weight <= 1 adds nothing
    assert kernels._scaling_degree(6, [1 + (1 << 9)]) == 3  # 2^9 = 2^3 mod 63
    assert kernels._scaling_degree(1, [3]) == 1


_FAMILY_TOWERS = [(fam, m) for fam in ("P1", "P2", "P3", "P4a", "P4b")
                  for m in range(1, 12 // planar.REGISTRY[fam].k + 1)
                  if (fam, m) != ("P1", 1)]  # two P1 columns coincide at m = 1


@st.composite
def scaling_rows(draw):
    """(spec, exponents, rows, j): coefficient rows on a P1-P4b shape with
    n <= 12, or on random DO exponents over GF(2^n), n = 1..12; eight rows
    of each support size 0..width, so the all-zero row among them, with
    random patterns and nonzero coefficients; and a scaling exponent j per
    row."""
    if draw(st.booleans()):
        fam, m = draw(st.sampled_from(_FAMILY_TOWERS))
        t = p2.tower(m, planar.REGISTRY[fam].k)
        spec, exps = t.spec, [(1 << u) + (1 << v) for u, v in planar.family_shape(fam, t)]
    else:
        n = draw(st.integers(1, 12))
        spec, u = p2.field(n), st.integers(0, 2 * n - 1)
        exps = draw(st.lists(st.tuples(u, u).map(lambda uv: (1 << uv[0]) + (1 << uv[1])),
                             min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = np.repeat(np.arange(len(exps) + 1), 8)
    support = rng.random((sizes.size, len(exps))).argsort(axis=1) < sizes[:, None]
    rows = np.where(support, rng.integers(1, spec.order, support.shape), 0)
    return spec, exps, rows, rng.integers(0, spec.order - 1, sizes.size)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(scaling_rows())
def test_normal_form_is_one_row_per_scaling_orbit_inside_the_box(case):
    spec, exps, rows, j = case
    p1 = spec.order - 1
    shifts = kernels._scaling_shifts(spec.n, exps)
    nf = kernels.normal_form(spec, exps, rows)
    assert nf.dtype == np.int64 and np.array_equal(nf != 0, rows != 0)
    assert np.array_equal(kernels.normal_form(spec, exps, nf), nf)
    # mu = gamma^j moves c_t to exp[log c_t + j*d_t]: the same orbit, the same form
    scaled = np.where(rows != 0, spec.exp[(spec.log[rows] + j[:, None] * shifts) % p1], 0)
    assert np.array_equal(kernels.normal_form(spec, exps, scaled), nf)
    for row in nf.tolist():
        pattern = [t for t, c in enumerate(row) if c]
        bounds = kernels._PatternBox(spec, shifts, pattern).bounds
        assert all(spec.log[row[t]] < b for t, b in zip(pattern, bounds))
    event(f"moved {not np.array_equal(nf, rows)} n {spec.n}")


# The three readings of "e mod 2^n - 1" that kernels.reduced_exponent
# replaced, as they stood at 0.12.0: planar._do_exponent (on e = 2^u + 2^v),
# the Dembowski-Ostrom check of kernels._monomial_forms and the reading of
# kernels._scaling_degree.

def _do_exponent_reading(e, p1):
    if p1 == 1:
        return 1
    return e % p1 or p1


def _do_check_rejects(e, p1):
    r = e % p1 if p1 > 1 else 1
    return bool(e and bin(r or p1).count("1") > 2)


def _scaling_reading(e, p1):
    return (e % p1 or p1) if e and p1 > 1 else 0


def _term_gap(r):
    """v - u for r = 2^u + 2^v of binary weight 2, else None: what a reading
    contributes to the scaling degree."""
    return r.bit_length() - (r & -r).bit_length() if bin(r).count("1") == 2 else None


def test_reduced_exponent_matches_the_readings_it_replaced():
    for n in range(1, 11):
        p1 = (1 << n) - 1
        for e in range(4 << n):
            r = kernels.reduced_exponent(n, e)
            if e:
                assert r == _do_exponent_reading(e, p1), (n, e)
            assert (bin(r).count("1") > 2) == _do_check_rejects(e, p1), (n, e)
            assert _term_gap(r) == _term_gap(_scaling_reading(e, p1)), (n, e)


def _xor_transformed_forms(spec, exponents):
    """The reference construction of 0.12.0: B_t(e_i, e_j) by scalar powers
    on the standard basis, then, by bilinearity in the a slot, an XOR
    transform into the coset basis of the scaling degree."""
    n = spec.n
    basis = [1 << i for i in range(n)]
    forms = np.zeros((len(exponents) + 1, n, n), dtype=np.int64)
    for t, e in enumerate(exponents):
        pw = [spec.pow(b, e) for b in basis]
        zero = spec.pow(0, e)
        for i in range(n):
            for j in range(i + 1, n):
                forms[t, i, j] = forms[t, j, i] = (
                    spec.pow(basis[i] ^ basis[j], e) ^ pw[i] ^ pw[j] ^ zero)
    for i in range(n):
        for j in range(n):
            forms[-1, i, j] = spec.mul(basis[i], basis[j])
    s = kernels._scaling_degree(n, exponents)
    bits = [[l for l in range(n) if b >> l & 1] for b in kernels._coset_basis(spec, s)]
    return s, np.stack([np.bitwise_xor.reduce(forms[:, ls], axis=1) for ls in bits], axis=1)


def _random_do_exponents(rng, n):
    pool = [0, 1, 2, 1 << n, (1 << n) - 1, 3]
    return [int(rng.choice(pool)) if rng.random() < 0.3
            else (1 << int(rng.integers(2 * n))) + (1 << int(rng.integers(2 * n)))
            for _ in range(int(rng.integers(0, 4)))]


@pytest.mark.parametrize("n, exponents, s", [
    (6, [3, 5], 1), (5, [1 + 4, 2, 0], 1), (1, [3, 0], 1), (2, [3, 6], 1),
    (8, [1 + 16, 2 + 32], 4), (6, [1 + 8, 4], 3), (9, [1 + 8, 1 + 64], 3),
    (12, [1 + 64, 2 + 128, 0], 6), (4, [1 + 4], 2)])
def test_sweep_forms_equal_the_xor_transformed_standard_forms(n, exponents, s):
    spec = p2.field(n)
    got_s, got = kernels._sweep_forms(spec, tuple(exponents))
    want_s, want = _xor_transformed_forms(spec, exponents)
    assert got_s == want_s == s
    assert np.array_equal(got, want) and not got.flags.writeable


def test_sweep_forms_equal_the_xor_transformed_standard_forms_on_random_exponents():
    rng = np.random.default_rng(13)
    seen = set()
    for _ in range(120):
        n = int(rng.integers(1, 11))
        exps = [e for e in _random_do_exponents(rng, n)
                if bin(kernels.reduced_exponent(n, e)).count("1") <= 2]
        spec = p2.field(n)
        s, got = kernels._sweep_forms(spec, tuple(exps))
        want_s, want = _xor_transformed_forms(spec, exps)
        assert s == want_s and np.array_equal(got, want), (n, exps)
        seen.add(s == 1)
    assert seen == {True, False}


def test_rank_calls_follow_the_stage_sequence_and_the_table_blocks(monkeypatch):
    # one sweep row, s = 1: a' < 2^min(n, 14) in one rank call, then 2^14-parts
    # of each [2^k, 2^(k+1)); a column table goes in 2^14-row blocks from row 1.
    # 0 * x^3 leaves B(a, x) = a*x, the field's own product, so all of them run
    sizes = []
    real = kernels._full_rank

    def counted(cols):
        sizes.append(cols.shape[1])
        return real(cols)

    monkeypatch.setattr(kernels, "_full_rank", counted)
    for n, want in ((5, [31]), (16, [(1 << 14) - 1] + [1 << 14] * 3)):
        spec = p2.field(n)
        sizes.clear()
        assert kernels.planar_sweep(spec, [3], np.zeros((1, 1), dtype=np.int64)).all()
        assert sizes == want
    # s = 2 (x^5): the first call holds [2^k, 2^(k+1)) for k = 0, 2, .., 12, then
    # [2^14, 2^15) goes in doubling slices of 1, 1, 2, .., 2^13, and k = 15 is no coset top
    sizes.clear()
    assert kernels.planar_sweep(spec, [5], np.zeros((1, 1), dtype=np.int64)).all()
    assert sizes == [sum(1 << k for k in range(0, 14, 2)), 1] + [1 << j for j in range(14)]
    e = 1 << np.arange(spec.n)
    sizes.clear()
    assert kernels.nonsingular_table(span(vec_mul(spec, e[:, None], e).astype(spec.dtype)))
    assert sizes == [1 << 14] * 3 + [(1 << 14) - 1]


def _private_kernel_reads(source: str) -> list[str]:
    """kernels._<name> attributes and `from .kernels import _<name>` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "kernels":
                found.append(f"{node.lineno}: kernels.{node.attr}")
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "kernels":
            found += [f"{node.lineno}: from kernels import {a.name}"
                      for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_reads_a_private_kernels_name():
    assert len(_private_kernel_reads(
        "from .kernels import _basis_rows, planar_sweep\n"
        "import planar2.kernels\n"
        "kernels._monomial_forms(spec, [3])\n"
        "planar2.kernels._BLOCK_BITS\n"
        "kernels.planar_sweep\n")) == 3
    package = Path(kernels.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "kernels.py":
            assert _private_kernel_reads(path.read_text()) == [], path.name


def test_sweep_rejects_exponents_outside_do_form():
    with pytest.raises(ValueError, match="Dembowski-Ostrom"):
        kernels.planar_sweep(p2.field(4), [7], np.ones((1, 1), dtype=np.int64))


def test_sweep_handles_no_rows_and_no_terms():
    spec = p2.field(5)
    assert kernels.planar_sweep(spec, [3], np.zeros((0, 1), dtype=np.int64)).shape == (0,)
    # f = 0 leaves x -> a*x, a bijection for every a != 0
    assert kernels.planar_sweep(spec, [], np.zeros((3, 0), dtype=np.int64)).all()


def test_backend_report():
    assert kernels.backend() == "numpy"
