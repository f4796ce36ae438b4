"""Hot loops: the batched GF(2)-rank planarity sweep and its definition oracle.

A function f on GF(2^n) is planar when x -> f(x+a) + f(x) + a*x is a
bijection for every nonzero a. Two independent implementations decide it:

  * the rank test, for Dembowski-Ostrom (DO) polynomials.
    B(a, x) = f(a+x) + f(a) + f(x) + f(0) + a*x is symmetric and
    GF(2)-bilinear, and the difference map at a is B(a, .) plus a
    constant, so f is planar iff the n x n GF(2) matrix
    M_a = [B(a, e_j)]_j is nonsingular for every a != 0. This module is
    the only one that knows how a DO polynomial becomes that test's
    input. One form builder, _monomial_forms, evaluates B_t(b_i, e_j) for
    each monomial with fields.vec_eval, for any a-side basis b; one stage
    loop, _stage_sweep, builds the M_a from the rows B(b_i, .) by
    doubling and tests them by batched elimination, stage by stage with
    early exit, for s > 1 in doubling slices of each coset range. The
    elimination (_full_rank) goes one bit at a time from the top: the
    largest column of each matrix is its pivot for that bit and is XORed
    into every column that has the bit, three numpy calls per bit over
    the whole batch. planar_sweep runs it on many
    coefficient rows and tests one a per coset of GF(2^s)* (see there),
    at most (q^k - 1)/(q - 1) matrices for the families of the paper;
    nonsingular_table runs the elimination alone on a stored table of M_a.
    planar_orbit_sweep finds every planar row of a coefficient space with
    a sweep of one row per orbit of a group that keeps planarity: the
    scaling f -> mu^-2 f(mu x) and the Galois conjugation
    f -> sigma o f o sigma^-1, sigma(x) = x^2, which squares every
    coefficient. On the logs L of a row's coefficients they act as
    L -> 2^i L + j*d, a group of order up to n(2^n - 1). One class,
    _PatternBox, knows a support pattern's box of scaling normal forms,
    one row per scaling orbit: its bounds, its walk, which normal_form
    uses too, so that a caller that holds the rows, such as a sufficiency
    audit, sweeps only their distinct normal forms; the Frobenius
    permutation pi(x) = the normal form of 2x, which is
    (pi_S(x_S), 2*x_F + J(x_S)*d_F mod 2^n - 1) over the coordinates S
    the walk constrains and the free ones F, J the scaling exponent the
    walk adds; its leaders, one per pi-cycle, the normal form of least box
    index among those of a row's n conjugates; and the expansion of the
    planar leaders back into their orbits.
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

from .fields import lex_chunks, vec_eval, vec_mul

_CHECK_ELEMS = 1 << 16  # the oracle gathers at most this many values D_a(x) at once
_FIRST_ELEMS = 1 << 15  # ... and at most this many in its first, cached gather
_BLOCK_BITS = 14        # the sweep's rank test takes at most 2^14 matrices M_a at once
_ORBIT_ROWS = 1 << 18   # rows per planar_orbit_sweep block, sweep batch and prefix box


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
    slice holds b_i * e_j. One fields.vec_eval of x_0^r + x_1^r + x_2^r per
    monomial at the len(b) x n points (b_i + e_j, b_i, e_j), so any basis
    costs the same as the standard one."""
    n = spec.n
    b = np.asarray(basis, dtype=np.int64)[:, None]
    e = 1 << np.arange(n, dtype=np.int64)
    forms = np.empty((len(exponents) + 1, b.size, n), dtype=np.int64)
    for t, exponent in enumerate(exponents):
        r = reduced_exponent(n, exponent)
        if bin(r).count("1") > 2:
            raise ValueError(f"x^{exponent} is not a Dembowski-Ostrom monomial over GF(2^{n})")
        powers = [((r, 0, 0), 1), ((0, r, 0), 1), ((0, 0, r), 1)]
        forms[t] = vec_eval(spec, powers, (b ^ e, b, e)) ^ int(r == 0)  # + 0^r
    forms[-1] = vec_mul(spec, b, e)
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


def _full_rank(cols: np.ndarray) -> np.ndarray:
    """cols[j, s] is column j of matrix s as an n-bit integer: True for each
    matrix whose n columns are linearly independent over GF(2). Consumes
    cols: the elimination runs in place.

    Elimination from the top bit down, over the whole batch at once, in n
    steps. At each step the pivot p of a matrix is its largest column, and
    every column w becomes min(w, w ^ p). If the top bit of p is t, no
    column has a bit above t, so w ^ p < w exactly when w has bit t: the
    step XORs p into the columns with bit t, as w ^ (w >> t) * p would,
    and clears bit t everywhere, the pivot itself included. So each pivot
    has a lower top bit than the one before, and the pivots together with
    the columns still span the column space of the matrix.

    If every step finds a pivot p != 0, the n pivots have the distinct top
    bits n-1 .. 0 and lie in the column span, so the matrix is nonsingular.
    If the matrix is nonsingular, the b+1 pivots still to come before step
    b (b = n-1 .. 0) must add b+1 dimensions, so the columns are not all
    zero and the step finds one, with top bit b. A zero or duplicate column
    is used up without adding a pivot (a duplicate of the pivot is cleared
    with it), so some step of a singular matrix finds p = 0. Step 0 needs
    only its pivot: 3n - 2 numpy calls over the n x nb columns per batch,
    and one `all` for the verdict.
    """
    pivots = np.empty_like(cols)
    tmp = np.empty_like(cols)
    for b in range(cols.shape[0] - 1, -1, -1):
        pivot = cols.max(axis=0, out=pivots[b])
        if b:
            np.bitwise_xor(cols, pivot, out=tmp)
            np.minimum(cols, tmp, out=cols)
    return pivots.all(axis=0)


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
        cols = np.concatenate([cols[:, :, 1 << k:2 << k] for k in tops], axis=2)
    ok = _full_rank(cols.reshape(n, -1))  # cols is this call's own buffer: consumed
    return ok.reshape(nrows, -1).all(axis=1)


def _stages(n: int, s: int, k0: int):
    """The (lo, hi) ranges of a' that _stage_sweep tests in turn: a' < 2^k0,
    then [2^k, 2^(k+1)) for k = k0 .. n-1 with s | k. For s > 1 each of
    those ranges goes in aligned doubling slices, [2^k, 2^k + 1) and then
    [2^k + 2^j, 2^k + 2^(j+1)) for j = 0 .. k-1, so that a row leaves at its
    first singular slice instead of after the whole range."""
    yield 0, 1 << k0
    for k in range(k0, n):
        if k % s == 0:
            if s == 1:
                yield 1 << k, 2 << k
            else:
                yield 1 << k, (1 << k) + 1
                for j in range(k):
                    yield (1 << k) + (1 << j), (1 << k) + (2 << j)


def _stage_sweep(spec, s: int, forms: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The rank test's stage loop: True for each coefficient row whose form
    has M_a nonsingular for every a' in [2^k, 2^(k+1)) with s | k (every
    a != 0 for s = 1), with the basis rows B(b_i, .) from _basis_rows on
    forms, the _sweep_forms of s.

    Rows go in blocks of 2^14. Each block tests the ranges of _stages in
    turn: the a' < 2^k0 first (a = 1 first of all), then a' in
    [2^k, 2^(k+1)) for k = k0 .. n-1 with s | k, in doubling slices for
    s > 1. Only the rows that pass a range go on to the next: most
    non-planar rows fail at small a, and for s > 1 a row that passes
    a' = 2^k stops at its first singular slice, not at the end of
    [2^k, 2^(k+1)). Every row still meets the same matrices, so the
    verdicts do not depend on the slicing. k0 is 1 for a full block and
    larger for a smaller one, up to min(n, 14) for a single row, so that
    the first range fills one rank call. A rank call holds at most 2^14
    matrices: several rows while a range is small, one row and a 2^14
    part of the range when it is larger. The basis rows are asked for
    when a range first needs them, up to bit (hi - 1).bit_length(): a
    slice's hi can sit below 2^(k+1).
    """
    cap = 1 << _BLOCK_BITS
    out = np.zeros(len(coeffs), dtype=bool)
    for r0 in range(0, len(coeffs), cap):
        rows = np.arange(r0, min(r0 + cap, len(coeffs)))
        k0 = min(spec.n, max(1, _BLOCK_BITS - (rows.size - 1).bit_length()))
        brows = _basis_rows(spec, forms[:, :k0], coeffs[rows])
        for lo, hi in _stages(spec.n, s, k0):
            top = (hi - 1).bit_length()
            if top > brows.shape[1]:  # the bits this range adds, for the rows still alive
                new = forms[:, brows.shape[1]:top]
                brows = np.concatenate([brows, _basis_rows(spec, new, coeffs[rows])], axis=1)
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


def nonsingular_table(cols: np.ndarray) -> bool:
    """True iff every matrix cols[a], a != 0, is nonsingular, with row a of
    the table holding its n columns as integers: on a presemifield's column
    table cols[a, j] = a * e_j, "no zero divisors". _full_rank on rows 1..,
    2^_BLOCK_BITS rows at a time, stopping at the first singular block."""
    step = 1 << _BLOCK_BITS
    return all(_full_rank(cols[lo:lo + step].T.copy()).all()
               for lo in range(1, len(cols), step))


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
    return _stage_sweep(spec, s, forms, coeffs)


# ---------------------------------------------------------------------------
# Orbits: one coefficient row per orbit of scaling and Frobenius
# ---------------------------------------------------------------------------

def _scaling_shifts(n: int, exponents) -> np.ndarray:
    """d_t = reduced_exponent(e_t) - 2 mod 2^n - 1: scaling by mu = gamma^j
    adds j*d_t to the log of the coefficient of x^e_t."""
    p1 = (1 << n) - 1
    return np.array([(reduced_exponent(n, e) - 2) % p1 for e in exponents], dtype=np.int64)


def normal_form(spec, exponents, rows: np.ndarray) -> np.ndarray:
    """The normal form of each coefficient row of the shape x^exponents[t]:
    the one row of its orbit under the scaling f -> mu^-2 f(mu x), which
    keeps planarity (planar_orbit_sweep), that lies in the _PatternBox of
    its support pattern. Equal rows for rows of one orbit, the row itself
    for a normal form, int64 like the rows. The rows of one support
    pattern go together, through the box's walk."""
    rows = np.asarray(rows, dtype=np.int64)
    shifts = _scaling_shifts(spec.n, exponents)
    out = np.zeros_like(rows)
    support = (rows != 0) @ (1 << np.arange(rows.shape[1], dtype=np.int64))
    for key in np.unique(support).tolist():
        pattern = [t for t in range(rows.shape[1]) if key >> t & 1]
        at = np.ix_(np.flatnonzero(support == key), pattern)
        logs = np.ascontiguousarray(spec.log[rows[at]].T)
        _PatternBox(spec, shifts, pattern).walk(logs)
        out[at] = spec.exp[logs.T]
    return out


class _PatternBox:
    """The box of one support pattern's scaling normal forms, its walk, and
    the Frobenius permutation pi of it. Box rows are held as logs, one row
    per coordinate and one column per box row, so that each numpy call of
    the walk runs over contiguous memory.

    For the pattern (t_1 < ... < t_r), the normal forms are the rows with
    log c_(t_i) in [0, bounds[i]), the j that keep log c_(t_1) ..
    log c_(t_(i-1)) are the multiples of steps[i], and every scaling orbit
    has orbit rows. j in Z/p1 adds j*d_t to log c_t. The shifts of the
    first coordinate are the multiples of g_1 = gcd(d_(t_1), p1), so
    log c_(t_1) has one value in [0, g_1) per orbit, and the j that keep it
    are the multiples of step = p1/g_1. They shift the next coordinate by
    the multiples of g_2 = gcd(step*d_(t_2), p1), and keep it for the
    multiples of step*p1/g_2; and so on. At the end the stabilizer is the
    multiples of step, which has p1/gcd(step, p1) elements, so
    orbit = gcd(step, p1). A row's box index is its lexicographic place.

    c -> c^2 on every coefficient doubles every log and keeps the support,
    so it maps scaling orbits to scaling orbits, and pi(x), the normal form
    of 2x mod p1, is a permutation of the box; pi^i(x) is the normal form
    of 2^i x, one walk, and pi^n = 1. The walk constrains the coordinates
    S with bound < p1 and reads no free one (F), so
    pi(x) = (pi_S(x_S), 2*x_F + J(x_S)*d_F mod p1), with pi_S and J the
    walk on the doubled x_S; and as it goes from the first coordinate to
    the last, the first w coordinates of pi(x) depend on those of x alone.
    So the leaders, the rows of least box index in their pi-cycles, are
    found prefix first (leaders)."""

    def __init__(self, spec, shifts: np.ndarray, pattern):
        self.spec, self.pattern, self.width = spec, list(pattern), shifts.size
        self.p1, self.d = spec.order - 1, shifts[self.pattern]
        step, self.steps, self.bounds = 1, [], []
        for d in self.d.tolist():
            self.steps.append(step)
            self.bounds.append(math.gcd(step * d, self.p1))
            step *= self.p1 // self.bounds[-1]
        self.orbit = math.gcd(step, self.p1)

    def walk(self, logs: np.ndarray) -> None:
        """Move each column of logs, the logs in [0, p1) of the first
        len(logs) coordinates of rows on the pattern, to the first
        len(logs) coordinates of its normal form, in place.

        At t_i the j that keep the coordinates before it are the multiples
        of step, and j = step*y adds y*D to L = log c_(t_i),
        D = step*d_t mod p1. That reaches L plus the multiples of
        g = gcd(D, p1), so y = -(L div g) / (D/g) mod p1/g, one modular
        inverse per coordinate, takes L to L mod g in [0, g). Any y of that
        class does, so j is taken as step*y mod p1 with y unreduced, and
        L mod g is taken directly. Adding j*d_t to every coordinate leaves
        the earlier ones where they are, so only the later ones are
        updated. A coordinate with g = p1 is free: no such j moves it, so
        the walk reads it nowhere and only adds the sum J of the j to it,
        J*d_t."""
        p1, d, w = self.p1, self.d[:len(logs)], len(logs)
        for i, (g, step) in enumerate(zip(self.bounds[:w], self.steps)):
            if g < p1:
                if i + 1 < w:
                    m = p1 // g
                    j = logs[i] // g * (-step * pow(step * int(d[i]) % p1 // g, -1, m) % p1) % p1
                    later = logs[i + 1:]
                    later += d[i + 1:, None] * j
                    later %= p1
                logs[i] %= g

    def rows(self, logs: np.ndarray) -> np.ndarray:
        """The coefficient rows, zero off the pattern, of box rows' logs."""
        rows = np.zeros((logs.shape[1], self.width), dtype=np.int64)
        rows[:, self.pattern] = self.spec.exp[logs.T]
        return rows

    def _power(self, x: np.ndarray, i: int) -> np.ndarray:
        """pi^i on the first len(x) coordinates of box rows' logs."""
        y = x * pow(2, i, self.p1) % self.p1
        self.walk(y)
        return y

    def leaders(self):
        """(rows, cycle) blocks of about _ORBIT_ROWS leaders, in box order,
        as coefficient rows, with the lengths of their pi-cycles.

        The prefixes over the first k coordinates, the most whose box has
        at most _ORBIT_ROWS rows, take one walk: it gives pi as a
        permutation of their indices, and each further power is one gather.
        The least index over a prefix's n images finds the leading
        prefixes, and a second pass over those alone finds the length
        c | n of each one's pi-cycle. A row leads only if its prefix leads
        in the prefix's own pi-cycle, and pi^i moves such a prefix up
        unless c | i. So only the tails of leading prefixes are listed, in
        blocks, and only those of prefixes with c < n are walked, at the
        powers c, 2c, .. < n (_settle). The weights of the box index are
        built here: a normal_form box (Knuth's 9 columns of 9 bits) overflows."""
        n, bounds = self.spec.n, self.bounds
        k = 0
        while k < len(bounds) and math.prod(bounds[:k + 1]) <= _ORBIT_ROWS:
            k += 1
        x = np.indices(bounds[:k], dtype=np.int64).reshape(k, math.prod(bounds[:k]))
        cycle = np.ones(1, dtype=np.int64)
        if x.shape[1] > 1:
            weights = np.array([math.prod(bounds[i + 1:k]) for i in range(k)], dtype=np.int64)
            pi = weights @ self._power(x, 1)
            index = np.arange(x.shape[1])
            least, image = index.copy(), index
            for _ in range(n - 1):
                image = pi[image]
                np.minimum(least, image, out=least)
            heads = np.flatnonzero(least == index)
            cycle, image = np.full(len(heads), n, dtype=np.int64), heads
            for i in range(1, n):
                image = pi[image]
                cycle[(image == heads) & (cycle == n)] = i
            x = x[:, heads]
        if k == len(bounds):
            yield self.rows(x), cycle
            return
        weights = np.array([math.prod(bounds[i + 1:]) for i in range(len(bounds))], dtype=np.int64)
        tail = bounds[k:]
        per = max(1, _ORBIT_ROWS // math.prod(tail))
        for h in range(0, x.shape[1], per):
            heads = x[:, h:h + per]
            for tail_logs in lex_chunks(tail, _ORBIT_ROWS):
                logs = np.empty((len(bounds), heads.shape[1], len(tail_logs)), dtype=np.int64)
                logs[:k] = heads[:, :, None]
                logs[k:] = tail_logs.T[:, None]
                logs = logs.reshape(len(bounds), -1)
                lengths = np.repeat(cycle[h:h + per], len(tail_logs))
                lead, lengths = self._settle(weights, logs, lengths)
                logs, lengths = logs[:, lead], lengths[lead]  # the unfiltered block is freed here
                yield self.rows(logs), lengths

    def _settle(self, weights: np.ndarray, logs: np.ndarray, cycle: np.ndarray):
        """(lead, cycle) for box rows whose prefix leads in a pi-cycle of
        the given length c | n: whether each row leads in its own pi-cycle,
        and that cycle's length, the first multiple of c whose power fixes
        the row. Only the powers c, 2c, .. < n keep the prefix, so only they
        are walked, and a row leaves at the first that moves it down or
        back to itself."""
        n, index = self.spec.n, weights @ logs
        lead = np.ones(len(index), dtype=bool)
        out = np.full(len(index), n, dtype=np.int64)
        for c in np.unique(cycle[cycle < n]).tolist():
            rows = np.flatnonzero(cycle == c)
            for i in range(c, n, c):
                image = weights @ self._power(logs[:, rows], i)
                lead[rows[image < index[rows]]] = False
                out[rows[image == index[rows]]] = i
                rows = rows[image > index[rows]]
        return lead, out

    def expand(self, rows: np.ndarray, cycle: np.ndarray) -> np.ndarray:
        """Every row of the orbits of rows of this box under scaling and
        Frobenius, given the lengths of their pi-cycles: the conjugates
        2^i x of each row's logs x, 0 <= i < its cycle length, one row in
        each scaling orbit of its pi-cycle (the conjugate 2^i x lies in the
        scaling orbit of pi^i(x)), and then their scaling orbits, j*d added
        for j < orbit (logs below 2*p1, which exp reads). No row twice,
        since those scaling orbits are disjoint and each has orbit rows."""
        logs = self.spec.log[rows[:, self.pattern].T]
        conjugates = np.concatenate([logs, *(logs[:, cycle > i] * pow(2, i, self.p1) % self.p1
                                             for i in range(1, int(cycle.max(initial=1))))], axis=1)
        j = np.arange(self.orbit, dtype=np.int64)[:, None]
        images = conjugates[:, None, :] + self.d[:, None, None] * j % self.p1
        return self.rows(images.reshape(len(self.d), self.orbit * conjugates.shape[1]))


def _batches(blocks, cap: int):
    """Consecutive blocks grouped so that each group holds at most cap
    rows, or is one block of more."""
    held, size = [], 0
    for block in blocks:
        if held and size + block[0].shape[0] > cap:
            yield held
            held, size = [], 0
        held.append(block)
        size += block[0].shape[0]
    if held:
        yield held


def planar_orbit_sweep(spec, exponents, patterns) -> np.ndarray:
    """The planar rows, sorted, among every coefficient row of the shape
    x^exponents[t] whose support is one of patterns (tuples of column
    indices, ascending), found by sweeping one row per orbit of scaling
    and Frobenius together.

    For mu in GF(2^n)*, g(x) = mu^-2 f(mu x) has coefficient c_t mu^(e_t-2)
    on x^e_t, and D_a g(x) = mu^-2 D_(mu a) f(mu x) (the two cross terms
    a*x cancel), so g is planar iff f is. With mu = gamma^j for a generator
    gamma this adds j*d_t to log c_t (_scaling_shifts) and keeps the
    support. The Galois conjugate h = sigma o f o sigma^-1, sigma(x) = x^2,
    has coefficient c_t^2 on x^e_t, and D_a h = sigma o D_(sigma^-1 a) f
    o sigma^-1, so h is planar iff f is: it doubles every log. Together
    they act on the logs as L -> 2^i L + j*d, a group of order up to
    n(2^n - 1). Its orbits are the pi-cycles of scaling orbits, pi(x) the
    normal form of 2x in the _PatternBox of x's pattern, and the sweep
    takes the leader of each cycle, the normal form of least box index
    among those of its n conjugates (_PatternBox.leaders). The leaders go
    through planar_sweep in batches of about _ORBIT_ROWS rows, one call
    per batch on the calling thread, and each planar one is expanded into
    its orbit (_PatternBox.expand). That lists every planar row once, since
    the orbits are disjoint, so one np.lexsort over the columns, last
    column first, sorts the rows, with no dedup; it also sorts rows too
    wide for one int64 key, such as problem27's m columns."""
    shifts = _scaling_shifts(spec.n, exponents)
    boxes = (_PatternBox(spec, shifts, pattern) for pattern in patterns)
    found = [np.empty((0, shifts.size), dtype=np.int64)]
    for batch in _batches(((rows, cycle, box) for box in boxes for rows, cycle in box.leaders()),
                          _ORBIT_ROWS):
        mask = planar_sweep(spec, exponents, np.concatenate([rows for rows, _, _ in batch]))
        ends = np.cumsum([len(rows) for rows, _, _ in batch])
        for (rows, cycle, box), ok in zip(batch, np.split(mask, ends[:-1])):
            found.append(box.expand(rows[ok], cycle[ok]))
    found = np.concatenate(found)
    return found[np.lexsort(found.T[::-1])]
