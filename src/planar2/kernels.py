"""Hot loops: the batched GF(2)-rank planarity sweep and its definition oracle.

A function f on GF(2^n) is planar when x -> f(x+a) + f(x) + a*x is a
bijection for every nonzero a. Two independent implementations decide it:

  * the rank test, for Dembowski-Ostrom (DO) polynomials.
    B(a, x) = f(a+x) + f(a) + f(x) + f(0) + a*x is symmetric and
    GF(2)-bilinear, and the difference map at a is B(a, .) plus a
    constant, so f is planar iff the n x n GF(2) matrix
    M_a = [B(a, e_j)]_j is nonsingular for every a != 0. This module is
    the only one that knows how a DO polynomial becomes that test's
    input. One form builder, _monomial_forms, gathers B_t(b_i, e_j) for
    each monomial from the log tables, for any a-side basis b; one stage
    loop, _stage_sweep, builds the M_a from the rows B(b_i, .) by
    doubling and tests them by batched elimination, stage by stage with
    early exit. planar_sweep runs it on many coefficient rows and tests
    one a per coset of GF(2^s)* (see there), at most (q^k - 1)/(q - 1)
    matrices for the families of the paper; nonsingular_form runs it on
    one form's basis values (bilinear_form), such as a presemifield's
    structure constants, over every a. planar_orbit_sweep finds every
    planar row of a coefficient space with a sweep of one row per orbit
    of the scaling f -> mu^-2 f(mu x), which keeps planarity, and expands
    the planar ones into their orbits.
  * planar_check_table, the definition on a full value table, for any f.
    D_a(x) = f(x+a) + f(x) + a*x satisfies D_a(x+a) = D_a(x) + a^2, so D_a
    is a bijection iff min(v, v + a^2) takes distinct values on a
    transversal of the pairs {x, x+a}: 2^(n-1) values per a, tested by a
    scatter into a `seen` row instead of a sort, about 4^n/2 work. The
    scatter keys are built in the field's dtype: each row's offset
    r*2^n sits in the x-side tables (a*x, or f(x) + b*x per stage), so
    the XORs that make D_a make the keys, one intp cast per chunk feeds
    the scatter, and a chunk holds at most as many rows as keep r*2^n in
    the dtype. It assumes no DO form, shares no code with the sweep and
    serves as the independent oracle.

Both are vectorized numpy; there is no other backend.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fields import lex_chunks

_CHECK_ELEMS = 1 << 16  # the oracle gathers at most this many values D_a(x) at once
_FIRST_ELEMS = 1 << 15  # ... and at most this many in its first, cached gather
_BLOCK_BITS = 14        # the sweep's rank test takes at most 2^14 matrices M_a at once
_ORBIT_ROWS = 1 << 18   # planar_orbit_sweep lists and sweeps normal forms in batches this large


def backend() -> str:
    return "numpy"


# ---------------------------------------------------------------------------
# Oracle: the definition on a full value table
# ---------------------------------------------------------------------------

def _transversal(xs: np.ndarray, k: int) -> np.ndarray:
    """The inputs with bit k clear: one of each pair {x, x+a} for every a
    with bit k set."""
    return xs.reshape(-1, 2, 1 << k)[:, 0].ravel()


def _pairs_distinct(v: np.ndarray, sq: np.ndarray, order: int) -> bool:
    """v[r] holds D_a on a transversal of the pairs {x, x+a}, XORed with the
    row offset r*order, and sq[r] = a^2, for the a of row r: True iff, in
    every row, the pair representatives min(v, v ^ a^2) are distinct.
    a^2 < order leaves the offset alone, so min(v, v ^ a^2) is already each
    representative's key in a `seen` array of v.shape[0] x order: one intp
    cast and one scatter test every row."""
    np.minimum(v, v ^ sq, out=v)
    seen = np.zeros(v.shape[0] * order, dtype=bool)
    seen[v.astype(np.intp)] = True
    return np.count_nonzero(seen) == v.size


@functools.lru_cache(maxsize=None)
def _oracle_tables(spec, fold: int):
    """The part of the oracle over spec's field that does not depend on f:
    an int32 copy of the field's zero-safe log table (narrower gathers;
    exp[log y + log 0] = 0 holds as in spec), the inputs as intp, and the
    blocks for a = 1 and for 2 <= a < 2^fold. A block holds, for each of
    its a, the indices x + a and x for x on the transversal of a's top bit,
    a*x XORed with the row offset of a in the block (see _pairs_distinct),
    and a^2; a*x is in the narrowest dtype, at least spec's, that holds the
    block's rows * 2^n keys. A block holds at most _FIRST_ELEMS values, so
    the cache stays small. Everything is read-only."""
    n, logt, expt = spec.n, spec.log.astype(np.int32), spec.exp
    xs = np.arange(spec.order, dtype=np.intp)
    transversals = np.stack([_transversal(xs, k) for k in range(fold)])
    blocks = []
    for lo, hi in ((1, 2), (2, 1 << fold)):
        if lo < hi:
            aa = np.arange(lo, hi, dtype=np.intp)[:, None]
            tx = transversals[[a.bit_length() - 1 for a in range(lo, hi)]]
            la = logt[aa]
            key_dtype = np.promote_types(spec.dtype, np.min_scalar_type(((hi - lo) << n) - 1))
            ax = expt.take(logt.take(tx) + la).astype(key_dtype)
            ax ^= (np.arange(hi - lo, dtype=key_dtype) << n)[:, None]
            blocks.append((tx ^ aa, tx, ax, expt[2 * la]))
    for arr in (logt, xs, *(a for block in blocks for a in block)):
        arr.setflags(write=False)
    return logt, xs, blocks


def planar_check_table(spec, fvals: np.ndarray) -> bool:
    """True iff the tabulated f is planar over spec's field.

    For any f, D_a(x) = f(x+a) + f(x) + a*x satisfies D_a(x+a) = D_a(x) + a^2,
    so D_a maps each pair {x, x+a} to a pair {v, v + a^2}, and D_a is a
    bijection iff the representatives min(v, v ^ a^2) are distinct on a
    transversal of those pairs, such as the inputs with bit k clear for
    the top bit k of a: 2^(n-1) values per a instead of 2^n, and a scatter
    instead of a sort.

    The a go in ascending stages, and the check stops at the first one
    that fails: a = 1, so that most non-planar tables cost one gather;
    then every a < 2^s in one gather, each a with the transversal of its
    own top bit, s as large as a gather of at most _FIRST_ELEMS values
    allows (s = n up to GF(2^8)); then one stage per top bit k >= s, in
    chunks of rows a = a0 + b, b < c, that share one transversal. Both
    terms of D_a are additive in b there: f(x + a) = g(x + b) for
    g(x) = f(x + a0), and a*x = a0*x + b*x. The stage lays its transversal
    x_0 < x_1 < ... out as tx[j, i] = x_(ic+j), where x + b for b < c
    swaps row j with row j ^ b. So a chunk costs one gather of g on the
    transversal, c^2 row copies of it, and XORs with the stage's table of
    f(x) + b*x and with a0*x.

    Row r of a gather is scattered at r*2^n + min(v, v ^ a^2), and that
    row offset r*2^n is XORed into the x-side tables (a*x of the cached
    blocks, f(x) + b*x of a stage) when they are built, so the XORs that
    make D_a make the keys too, and each chunk casts them to intp once.
    A chunk's keys stay in spec's dtype: c is capped so that c*2^n fits
    in it (16 rows over GF(2^12)).
    """
    n, order = spec.n, spec.order
    fvals = np.asarray(fvals)
    if (not np.issubdtype(fvals.dtype, np.integer) or fvals.shape != (order,)
            or fvals.min() < 0 or fvals.max() >= order):
        raise ValueError(f"expected a table of {order} elements of GF(2^{n})")
    fold = max(1, min(n, (_FIRST_ELEMS >> (n - 1)).bit_length() - 1))
    logt, xs, blocks = _oracle_tables(spec, fold)
    expt, fv = spec.exp, fvals.astype(spec.dtype)
    rows = max(1, min(_CHECK_ELEMS >> (n - 1), (np.iinfo(spec.dtype).max + 1) >> n))
    for txa, tx, ax, sq in blocks:
        v = fv.take(txa).astype(ax.dtype, copy=False)
        v ^= fv.take(tx)
        v ^= ax
        if not _pairs_distinct(v, sq, order):
            return False
    for k in range(fold, n):  # a in [2^k, 2^(k+1)) as a0 + b, b < c
        c = min(rows, 1 << k)
        # tx[j, i] = x_(ic+j) on the transversal, and x_(ic+j) + b = x_(ic+(j^b))
        tx = np.ascontiguousarray(_transversal(xs, k).reshape(-1, c).T)
        ltx = logt.take(tx)
        b = np.arange(c)
        fbx = expt.take(ltx + logt[b][:, None, None])  # f(x) + b*x, with the row offsets
        fbx ^= fv.take(tx) ^ (b.astype(fbx.dtype) << n)[:, None, None]
        bsq = expt[2 * logt[b]][:, None]
        swap = b ^ b[:, None]
        for a0 in range(1 << k, 2 << k, c):
            v = fv.take(tx ^ a0).take(swap, axis=0)  # f(x + a0 + b), as v[b, j, i]
            v ^= fbx
            v ^= expt.take(ltx + logt[a0])
            if not _pairs_distinct(v.reshape(c, -1), bsq ^ expt[2 * logt[a0]], order):
                return False
    return True


# ---------------------------------------------------------------------------
# Production kernel: GF(2)-rank of the bilinear form
# ---------------------------------------------------------------------------

def reduced_exponent(n: int, e: int) -> int:
    """The exponent of x^e as a function on GF(2^n): e mod 2^n - 1, with a
    positive multiple of 2^n - 1 read as 2^n - 1 (not x^0), every e != 0 as 1
    over GF(2), and 0 as 0. x^e is Dembowski-Ostrom iff it has weight <= 2."""
    p1 = (1 << n) - 1
    return (e % p1 or p1) if e and p1 > 1 else int(e != 0)


def _monomial_forms(spec, exponents, basis) -> np.ndarray:
    """forms[t, i, j] = B_t(b_i, e_j) for the monomial x^exponents[t] and the
    a-side basis b, where B_t(a, x) = (a+x)^e + a^e + x^e + 0^e; the last
    slice holds b_i * e_j. Gathers from the log tables at the len(b) x n
    points b_i + e_j, so any basis costs the same as the standard one."""
    n, p1 = spec.n, spec.order - 1
    b = np.asarray(basis, dtype=np.int64)[:, None]
    e = 1 << np.arange(n, dtype=np.int64)
    points = (b ^ e, b, e)
    logs = [spec.log[x] for x in points]
    forms = np.empty((len(exponents) + 1, b.size, n), dtype=np.int64)
    for t, exponent in enumerate(exponents):
        r = reduced_exponent(n, exponent)
        if bin(r).count("1") > 2:
            raise ValueError(f"x^{exponent} is not a Dembowski-Ostrom monomial over GF(2^{n})")
        zero = int(r == 0)  # 0^e
        pab, pa, pb = (np.where(x != 0, spec.exp[lx * r % p1], zero)
                       for x, lx in zip(points, logs))
        forms[t] = pab ^ pa ^ pb ^ zero
    forms[-1] = spec.exp[logs[1] + logs[2]]
    return forms


def _scaling_degree(n: int, exponents) -> int:
    """s = gcd(n, v - u over the reduced exponents 2^u + 2^v of binary
    weight 2): every lambda in GF(2^s)* then has lambda^(2^u) = lambda^(2^v)
    in each term. Exponents of weight <= 1 add no term to B."""
    s = n
    for e in exponents:
        r = reduced_exponent(n, e)
        if bin(r).count("1") == 2:
            s = math.gcd(s, r.bit_length() - (r & -r).bit_length())
    return s


def _coset_basis(spec, s: int) -> list[int]:
    """A GF(2)-basis of GF(2^n) in n/s groups w_j*beta_0 .. w_j*beta_(s-1):
    beta_l = g^l for a generator g of GF(2^s)*, w_0 = 1, and each later w_j
    the first e_i outside the GF(2^s)-span of the groups before it. So
    index 0 is 1, and the a whose top coordinate is a multiple of s, with
    no other coordinate of its group set, are one per GF(2^s)*-coset."""
    n = spec.n
    g = int(spec.exp[(spec.order - 1) // ((1 << s) - 1)])
    beta = [spec.pow(g, l) for l in range(s)]
    basis, span = [], {}  # span: top bit -> vector, an XOR basis of the groups so far

    def reduce(x):
        while x and x.bit_length() - 1 in span:
            x ^= span[x.bit_length() - 1]
        return x

    for w in (1 << i for i in range(n)):
        if reduce(w):  # w is outside the span, a GF(2^s)-space: its whole group is too
            for b in beta:
                basis.append(spec.mul(w, b))
                y = reduce(basis[-1])
                span[y.bit_length() - 1] = y
    return basis


@functools.lru_cache(maxsize=256)
def _sweep_forms(spec, exponents: tuple) -> tuple[int, np.ndarray]:
    """(s, forms) for planar_sweep: s = _scaling_degree, and the
    _monomial_forms on the _coset_basis of s. Read-only."""
    s = _scaling_degree(spec.n, exponents)
    forms = _monomial_forms(spec, exponents, _coset_basis(spec, s))
    forms.setflags(write=False)
    return s, forms


def _basis_rows(spec, forms: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """B[r, i, j] = B(b_i, e_j) for the polynomial of coefficient row r, for
    the a-side basis elements b_i that forms covers."""
    mono, cross = forms[:-1], forms[-1]
    acc = np.empty((coeffs.shape[0],) + cross.shape, dtype=spec.dtype)
    acc[:] = cross
    logf = spec.log[mono]
    for t in range(mono.shape[0]):
        acc ^= spec.exp[spec.log[coeffs[:, t, None, None]] + logf[t]]
    return acc


def bilinear_form(spec, exponents, coeffs) -> np.ndarray:
    """brows[i, j] = B(e_i, e_j) on the standard basis, in spec's dtype, for
    f = sum_t coeffs[t] * x^exponents[t] (DO exponents, one coefficient
    row): nonsingular_form's input, and the structure constants e_i * e_j
    of the presemifield x*y = xy + f(x+y) + f(x) + f(y)."""
    forms = _monomial_forms(spec, exponents, [1 << i for i in range(spec.n)])
    return _basis_rows(spec, forms, np.asarray(coeffs, dtype=np.int64).reshape(1, -1))[0]


def _full_rank(cols: np.ndarray) -> np.ndarray:
    """cols[j, s] is column j of matrix s as an n-bit integer: True for each
    matrix whose n columns are linearly independent over GF(2).

    Branch-free XOR-basis insertion over the whole batch: each column is
    reduced from its top bit down by the pivot stored at that bit, and
    stored there itself when the slot is empty (which clears it). The
    matrix is nonsingular iff every one of the n slots ends up filled.
    Selections are products with 0/1 arrays; masked ufuncs (where=) are
    several times slower.
    """
    n, nb = cols.shape
    pivots = np.zeros((n, nb), dtype=cols.dtype)
    v = np.empty(nb, dtype=cols.dtype)
    top = np.empty(nb, dtype=cols.dtype)
    ins = np.empty(nb, dtype=cols.dtype)
    tmp = np.empty(nb, dtype=cols.dtype)
    for j in range(n):
        v[:] = cols[j]
        for b in range(n - 1, -1, -1):
            p = pivots[b]
            np.right_shift(v, b, out=top)  # bits above b are clear: top is bit b of v
            np.less(p, top, out=ins)       # 1 where bit b is set and the slot is empty
            np.multiply(v, ins, out=tmp)
            np.bitwise_or(p, tmp, out=p)
            np.multiply(top, p, out=tmp)
            np.bitwise_xor(v, tmp, out=v)
    return (pivots != 0).all(axis=0)


def _nonsingular(brows: np.ndarray, a0: int, bits: int, s: int) -> np.ndarray:
    """True for each row r of brows (brows[r, i] = B(b_i, .) as n integers,
    for an a-side basis b) whose M_a is nonsingular for every a = sum a'_i b_i
    with a' in [a0, a0 + 2^bits), a0 a multiple of 2^bits. From a0 = 0 only
    the a' != 0 whose top bit is a multiple of s are tested."""
    nrows, _, n = brows.shape
    if a0 == 0:  # a' in [2^k, 2^(k+1)) for k = 0, s, 2s, ..., from a table over k + 1 bits
        tops = range(0, bits, s)
        bits = tops[-1] + 1
    cols = np.empty((n, nrows, 1 << bits), dtype=brows.dtype)
    high = np.zeros((nrows, n), dtype=brows.dtype)
    for i in range(bits, a0.bit_length()):
        if a0 >> i & 1:
            high ^= brows[:, i]
    cols[:, :, 0] = high.T
    for i in range(bits):  # doubling: M_(a' + 2^i) = M_a' ^ B(b_i, .)
        h = 1 << i
        np.bitwise_xor(cols[:, :, :h], brows[:, i].T[:, :, None], out=cols[:, :, h:2 * h])
    if a0 == 0:  # a' = 0 is no difference; nor, for s > 1, is a' outside the tops
        cols = cols[:, :, 1:] if s == 1 else cols[:, :, np.concatenate(
            [np.arange(1 << k, 2 << k) for k in tops])]
    ok = _full_rank(cols.reshape(n, -1))
    return ok.reshape(nrows, -1).all(axis=1)


def _stage_sweep(n: int, s: int, nrows: int, basis_rows) -> np.ndarray:
    """The rank test's one stage loop: True for each of nrows forms on
    GF(2^n) whose M_a is nonsingular for every a' in [2^k, 2^(k+1)) with s | k
    (every a != 0 for s = 1). basis_rows(rows, lo, hi) gives the basis rows
    B(b_i, .), lo <= i < hi, of the forms with the given indices.

    Rows go in blocks of 2^14. Each block tests the a' < 2^k0 first (a = 1
    first of all), then a' in [2^k, 2^(k+1)) for k = k0 .. n-1 with s | k,
    and only the rows that pass a stage go on to the next: most non-planar
    rows fail at small a. k0 is 1 for a full block and larger for a smaller
    one, up to min(n, 14) for a single row, so that the first stage fills
    one rank call. A rank call holds at most 2^14 matrices: several rows
    while 2^k is small, one row and a slice of the stage when 2^k is larger.
    The basis rows are asked for per stage, for the bits that stage adds.
    """
    cap = 1 << _BLOCK_BITS
    out = np.zeros(nrows, dtype=bool)
    for r0 in range(0, nrows, cap):
        rows = np.arange(r0, min(r0 + cap, nrows))
        k0 = min(n, max(1, _BLOCK_BITS - (rows.size - 1).bit_length()))
        stages = [(0, 1 << k0)] + [(1 << k, 2 << k) for k in range(k0, n) if k % s == 0]
        brows = basis_rows(rows, 0, k0)
        for lo, hi in stages:
            if lo:  # the bits this stage adds, for the rows still alive
                extra = basis_rows(rows, brows.shape[1], hi.bit_length() - 1)
                brows = np.concatenate([brows, extra], axis=1)
            bits = min((hi - lo).bit_length() - 1, _BLOCK_BITS)
            per_call = max(1, cap >> bits)
            kept = []
            for s0 in range(0, rows.size, per_call):
                sub = np.arange(s0, min(s0 + per_call, rows.size))
                for a0 in range(lo, hi, 1 << bits):
                    sub = sub[_nonsingular(brows[sub], a0, bits, s)]
                    if not sub.size:
                        break
                kept.append(sub)
            keep = np.concatenate(kept)
            rows, brows = rows[keep], brows[keep]
            if not rows.size:
                break
        out[rows] = True
    return out


def nonsingular_form(brows: np.ndarray) -> bool:
    """True iff M_a = [B(a, e_j)]_j is nonsingular for every a != 0, for the
    one form with basis values brows[i, j] = B(e_i, e_j) (bilinear_form):
    _stage_sweep on one row with s = 1. On a presemifield's structure
    constants it says "no zero divisors"."""
    return bool(_stage_sweep(brows.shape[0], 1, 1, lambda rows, lo, hi: brows[None, lo:hi])[0])


def planar_sweep(spec, exponents: list[int], coeffs: np.ndarray) -> np.ndarray:
    """Planarity mask for many coefficient rows of a fixed monomial shape.

    Row r encodes f(x) = sum_t coeffs[r, t] * x^exponents[t]; every exponent
    must be a Dembowski-Ostrom one (reduced_exponent of binary weight <= 2).

    Only one a per coset of GF(2^s)* is tested, s = _scaling_degree. Each
    term x^(2^u + 2^v) has s | v - u, so lambda^(2^u) = lambda^(2^v) for
    lambda in GF(2^s), and B_t(lambda*a, x) = lambda^(2^u) * B_t(a, x) =
    B_t(a, lambda*x); so does a*x. Hence B(lambda*a, .) = B(a, .) o lambda,
    and M_(lambda*a) is singular iff M_a is. In the coordinates a' of
    _coset_basis, a = sum_j mu_j w_j with mu_j in GF(2^s); scaling by
    1/mu_J for the top nonzero mu_J leaves mu_J = 1, which is a' in
    [2^k, 2^(k+1)) for k = J*s: (2^n - 1)/(2^s - 1) values of a instead of
    2^n - 1 (17 for P1 at m=4, 73 for P3 at m=3). s = 1 tests every a.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.int64)
    s, forms = _sweep_forms(spec, tuple(map(int, exponents)))
    return _stage_sweep(spec.n, s, coeffs.shape[0],
                        lambda rows, lo, hi: _basis_rows(spec, forms[:, lo:hi], coeffs[rows]))


# ---------------------------------------------------------------------------
# Scaling orbits: one coefficient row per orbit of f -> mu^-2 f(mu x)
# ---------------------------------------------------------------------------

def _scaling_shifts(n: int, exponents) -> np.ndarray:
    """d_t = reduced_exponent(e_t) - 2 mod 2^n - 1: scaling by mu = gamma^j
    adds j*d_t to the log of the coefficient of x^e_t."""
    p1 = (1 << n) - 1
    return np.array([(reduced_exponent(n, e) - 2) % p1 for e in exponents], dtype=np.int64)


def _normal_form_box(p1: int, shifts: np.ndarray, pattern) -> tuple[list[int], int]:
    """(bounds, orbit) for the rows with support pattern (t_1 < ... < t_r):
    the normal forms are the rows with log c_(t_i) in [0, bounds[i]), and
    every orbit has orbit rows.

    j in Z/p1 adds j*d_t to log c_t. The shifts of the first coordinate
    are the multiples of g_1 = gcd(d_(t_1), p1), so log c_(t_1) has one
    value in [0, g_1) per orbit, and the j that keep it are the multiples
    of step = p1/g_1. They shift the next coordinate by the multiples of
    g_2 = gcd(step*d_(t_2), p1), and keep it for the multiples of
    step*p1/g_2; and so on. At the end the stabilizer is the multiples of
    step, which has p1/gcd(step, p1) elements, so orbit = gcd(step, p1)."""
    step, bounds = 1, []
    for t in pattern:
        bounds.append(math.gcd(step * int(shifts[t]), p1))
        step *= p1 // bounds[-1]
    return bounds, math.gcd(step, p1)


def _normal_forms(spec, shifts: np.ndarray, patterns):
    """(rows, orbit) blocks: the normal forms of each support pattern as
    coefficient rows (zero off the pattern), listed by fields.lex_chunks
    over their log box, and the orbit size they share."""
    p1, width = spec.order - 1, shifts.size
    for pattern in patterns:
        bounds, orbit = _normal_form_box(p1, shifts, pattern)
        for logs in lex_chunks(bounds, _ORBIT_ROWS):
            rows = np.zeros((logs.shape[0], width), dtype=np.int64)
            rows[:, list(pattern)] = spec.exp[logs]
            yield rows, orbit


def _scaled_images(spec, shifts: np.ndarray, rows: np.ndarray, orbit: int) -> np.ndarray:
    """The orbit of each row under scaling, j < orbit: exp[log c_t + j*d_t
    mod p1], one gather, zero coefficients staying zero (log 0 points into
    the zeros of exp)."""
    j = np.arange(orbit, dtype=np.int64)[:, None, None]
    images = spec.exp[spec.log[rows] + j * shifts % (spec.order - 1)]
    return images.reshape(-1, shifts.size).astype(np.int64)


def _batches(blocks, cap: int):
    """Consecutive blocks grouped so that each group but the last holds
    at least cap rows."""
    held, size = [], 0
    for block in blocks:
        held.append(block)
        size += block[0].shape[0]
        if size >= cap:
            yield held
            held, size = [], 0
    if held:
        yield held


def planar_orbit_sweep(spec, exponents, patterns) -> np.ndarray:
    """The planar rows, sorted, among every coefficient row of the shape
    x^exponents[t] whose support is one of patterns (tuples of column
    indices, ascending), found by sweeping one row per scaling orbit.

    For mu in GF(2^n)*, g(x) = mu^-2 f(mu x) has coefficient c_t mu^(e_t-2)
    on x^e_t, and D_a g(x) = mu^-2 D_(mu a) f(mu x) (the two cross terms
    a*x cancel), so g is planar iff f is. With mu = gamma^j for a generator
    gamma this adds j*d_t to log c_t (_scaling_shifts) and keeps the
    support. The normal forms of each pattern (_normal_form_box) go through
    planar_sweep in batches of about _ORBIT_ROWS rows, one call per batch
    on the calling thread, and each planar one is expanded into its orbit,
    which lists every planar row once."""
    shifts = _scaling_shifts(spec.n, exponents)
    found = [np.empty((0, shifts.size), dtype=np.int64)]
    for batch in _batches(_normal_forms(spec, shifts, patterns), _ORBIT_ROWS):
        mask = planar_sweep(spec, exponents, np.concatenate([rows for rows, _ in batch]))
        ends = np.cumsum([len(rows) for rows, _ in batch])
        for (rows, orbit), ok in zip(batch, np.split(mask, ends[:-1])):
            found.append(_scaled_images(spec, shifts, rows[ok], orbit))
    return np.unique(np.concatenate(found), axis=0)
