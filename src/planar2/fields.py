"""Exact arithmetic in GF(2^n) and its tower views GF(q^k) with q = 2^m.

Field elements are n-bit integers in the polynomial basis (bit i is the
coefficient of x^i), wrapped in a small Fe value class for operator
syntax. Reduction is modulo a fixed degree-n irreducible polynomial over
GF(2); for each n we take the smallest irreducible by integer encoding,
so every run (and every serialized fixture) agrees on the representation.

FieldSpec.bits is the one gate for field values: every entry point that
takes an element, an Fe or its int bit pattern, reads it through the bits
of the field it computes in. An int outside range(2^n) and an Fe of
another field are a ValueError, so no layer computes with a value of a
different field.

Every field carries log/antilog tables taken with respect to the
smallest generator of the multiplicative group, and all arithmetic, scalar
or vectorized, reads them. They are zero-safe: log 0 = 2(2^n - 1) points
into the zeros that pad exp to 4(2^n - 1) + 1 entries, so
exp[log a + log b] = a*b for all a, b, and vec_div gives a/0 = 0 the same
way; code that multiplies or shifts a log (powers, scalar inverses,
Frobenius) still treats zero apart. The tables fix
the one field ceiling: FieldSpec refuses n > N_MAX = 20 with BudgetError,
so every layer above may tabulate the field and list its tuples (lex_rows).

vec_eval is the one evaluator of polynomial value tables: sum c * prod
x_i^e_i on int64 columns, one log-domain gather per monomial. The value
tables of planar, linearized and surfaces, the criterion tables, the
tower's column norm and base trace, the embedding's root search and the
sweep's monomial forms all call it; nothing caches a table of powers.

A TowerView reads GF(2^{mk}) as the degree-k extension of GF(q), q = 2^m.
The q-Frobenius x -> x^q is m squarings, the relative trace and norm land
in the subfield {x : x^q = x}, and a normal basis {xi, xi^q, ...} is
located by scanning element encodings upward and testing the Moore
matrix for nonsingularity.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

N_MAX = 20  # the largest supported extension degree: tables of 2^20 elements


class BudgetError(RuntimeError):
    """An operation would exceed its stated enumeration budget."""


# ---------------------------------------------------------------------------
# GF(2)[x] on plain ints (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def _gf2x_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _gf2x_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while (da := a.bit_length()) >= dm:
        a ^= m << (da - dm)
    return a


def _gf2x_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2x_mod(a, b)
    return a


def _gf2x_pow_frob(steps: int, m: int) -> int:
    """x^(2^steps) mod m, by repeated squaring in GF(2)[x]/m."""
    r = 0b10
    for _ in range(steps):
        r = _gf2x_mod(_gf2x_mul(r, r), m)
    return r


def _prime_factors(v: int) -> list[int]:
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1
    if v > 1:
        out.append(v)
    return out


def is_irreducible(p: int, n: int) -> bool:
    """Rabin test: p is irreducible of degree n over GF(2)."""
    if p.bit_length() - 1 != n or not (p & 1):
        return False
    if n == 1:
        return True
    if _gf2x_pow_frob(n, p) != 0b10:
        return False
    for r in _prime_factors(n):
        if _gf2x_gcd(_gf2x_pow_frob(n // r, p) ^ 0b10, p) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def smallest_irreducible(n: int) -> int:
    """Smallest (by integer encoding) irreducible of degree n over GF(2)."""
    p = (1 << n) | 1
    while not is_irreducible(p, n):
        p += 2
    return p


# ---------------------------------------------------------------------------
# Field of 2^n elements
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def field(n: int) -> "FieldSpec":
    """The canonical GF(2^n) (memoized; equal n means identical field)."""
    return FieldSpec(n)


class FieldSpec:
    """GF(2^n) with the canonical modulus for its degree.

    Use the module-level field(n) factory; direct construction always
    picks the same modulus, so two instances of equal n are
    interchangeable.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"extension degree n={n} must be at least 1")
        if n > N_MAX:
            raise BudgetError(f"GF(2^{n}) exceeds the field ceiling GF(2^{N_MAX})")
        self.n = n
        self.modulus = smallest_irreducible(n)
        self.order = 1 << n
        self.dtype = np.uint16 if n <= 16 else np.uint32  # narrowest that holds an element
        self._build_tables()

    # -- table construction --------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        return _gf2x_mod(_gf2x_mul(a, b), self.modulus)

    def _is_generator(self, g: int) -> bool:
        # g generates iff g^((N-1)/p) != 1 for every prime p | N-1
        p1 = self.order - 1
        for f in _prime_factors(p1):
            if self._pow_raw(g, p1 // f) == 1:
                return False
        return True

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _build_tables(self):
        p1 = self.order - 1
        if self.n == 1:
            g = 1
        else:
            g = 2
            while not self._is_generator(g):
                g += 1
        self.generator = g
        chain = np.zeros(p1, dtype=np.int64)
        chain[0] = 1
        k = 1
        while k < p1:  # chain[k:2k] = chain[:k] * g^k: the products e_i * g^k over the bits i
            src, dst = chain[:min(k, p1 - k)], chain[k:2 * k]
            col = self._pow_raw(g, k)
            for i in range(self.n):  # col = e_i * g^k
                dst ^= (src >> i & 1) * col
                col = _gf2x_mod(col << 1, self.modulus)
            k *= 2
        self.exp = np.zeros(4 * p1 + 1, dtype=self.dtype)  # a run of zeros past 2 periods
        self.exp[:p1] = self.exp[p1:2 * p1] = chain
        self.log = np.full(self.order, 2 * p1, dtype=np.int64)  # log 0 lands in the zeros
        self.log[chain] = np.arange(p1)
        for table in (self.exp, self.log):
            table.setflags(write=False)

    # -- int-level arithmetic --------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.exp[self.log[a] + self.log[b]])

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of 0 in GF(2^n)")
        p1 = self.order - 1
        return int(self.exp[(p1 - self.log[a]) % p1])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        p1 = self.order - 1
        return int(self.exp[(self.log[a] * (e % p1)) % p1])

    def frob(self, a: int, j: int) -> int:
        """a^(2^j); j is reduced modulo n."""
        j %= self.n
        if a == 0 or j == 0:
            return a
        p1 = self.order - 1
        return int(self.exp[(self.log[a] << j) % p1])

    # -- element/iteration helpers ---------------------------------------

    def bits(self, x) -> int:
        """The bits of x as an element of this field: the one gate every
        field value passes. An Fe of this field gives its bits, an Fe of
        another field raises ValueError, and an integer is its own bit
        pattern, ValueError when outside range(order)."""
        if type(x) is not int:  # the common int costs one type test
            if isinstance(x, Fe):
                if x.spec != self:
                    raise ValueError(f"{x!r} is an element of another field than {self!r}")
                return x.bits
            x = operator.index(x)
        if 0 <= x < self.order:
            return x
        raise ValueError(f"bits {x:#x} out of range for {self!r}")

    def fe(self, x) -> "Fe":
        return Fe(x, self)

    @property
    def zero(self) -> "Fe":
        return Fe(0, self)

    def elements(self):
        return (Fe(b, self) for b in range(self.order))

    # -- identity & serialization ----------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.n == self.n

    def __hash__(self):
        return hash(("FieldSpec", self.n))

    def __repr__(self):
        return f"GF(2^{self.n}; mod=0x{self.modulus:x})"

    def to_json(self) -> dict:
        return {"n": self.n, "modulus": f"{self.modulus:x}"}


class Fe:
    """One element of a FieldSpec, addition = xor of bit patterns.

    The constructor and the operators take their values through
    FieldSpec.bits, so ints read as bit patterns of the same field and
    formulas like 1 + s**(q + 1) read naturally.
    """

    __slots__ = ("bits", "spec")

    def __init__(self, bits, spec: FieldSpec):
        self.bits = spec.bits(bits)
        self.spec = spec

    def _coerce(self, other):
        """other's bits in this field, or NotImplemented for a non-element."""
        if isinstance(other, (Fe, int)):
            return self.spec.bits(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fe(self.bits ^ o, self.spec)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fe(self.spec.mul(self.bits, o), self.spec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fe(self.spec.mul(self.bits, self.spec.inv(o)), self.spec)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fe(self.spec.mul(o, self.spec.inv(self.bits)), self.spec)

    def __pow__(self, e: int):
        return Fe(self.spec.pow(self.bits, e), self.spec)

    def inv(self) -> "Fe":
        return Fe(self.spec.inv(self.bits), self.spec)

    def frob(self, j: int = 1) -> "Fe":
        """Absolute Frobenius power: self^(2^j)."""
        return Fe(self.spec.frob(self.bits, j), self.spec)

    def __eq__(self, other):  # an int lies in no one field, so Fe(3) != 3
        if not isinstance(other, Fe):
            return NotImplemented
        return other.spec == self.spec and other.bits == self.bits

    def __hash__(self):
        return hash((self.spec.n, self.bits))

    def __bool__(self):
        return self.bits != 0

    def __index__(self):
        return self.bits

    def __repr__(self):
        return f"Fe(0x{self.bits:x}, n={self.spec.n})"

    def to_hex(self) -> str:
        return f"{self.bits:x}"


# ---------------------------------------------------------------------------
# Vectorized helpers (int64 arrays of element bits)
# ---------------------------------------------------------------------------

def hex_text(a) -> tuple[np.ndarray, np.ndarray]:
    """(text, index): the distinct values of a as lowercase hex strings, in
    an object array, and the position of each element's string in it,
    shaped like a. The one formatter of element bits: each distinct value
    is formatted once, and text[index] holds every element's string.
    Linear in a.size + max(a): the distinct values are read off a presence
    mask over range(max(a) + 1), at most 2^N_MAX bytes for field elements,
    and each one's rank is scattered into a table that a gathers from."""
    a = np.asarray(a, dtype=np.int64)
    if a.size and a.min() < 0:
        raise ValueError("element bits are nonnegative")
    seen = np.zeros(int(a.max()) + 1 if a.size else 0, dtype=bool)
    seen[a] = True
    values = np.flatnonzero(seen)
    rank = np.empty(seen.size, dtype=np.intp)
    rank[values] = np.arange(values.size)
    return np.array([f"{v:x}" for v in values.tolist()], dtype=object), rank[a]


def hex_grid(rows, sep: str, end: str) -> np.ndarray:
    """A table writer's cells, in one object array: per row of a 2-D array of
    element bits, each element's string (hex_text), then sep, or end after its last."""
    text, index = hex_text(rows)
    grid = np.empty((index.shape[0], 2 * index.shape[1]), dtype=object)
    grid[:, ::2] = text[index]
    grid[:, 1::2] = sep  # the same str in every cell (np.full would copy it per cell)
    grid[:, -1] = end
    return grid


def lex_rows(base: int, width: int) -> np.ndarray:
    """All base^width tuples over range(base) in lexicographic order, as the
    rows of an int64 array; width 0 gives one empty row."""
    return np.indices((base,) * width, dtype=np.int64).reshape(width, base ** width).T


def lex_chunks(bases, rows: int = 1 << 18):
    """Every tuple of range(bases[0]) x range(bases[1]) x ... in
    lexicographic order, in consecutive blocks, without holding it whole:
    over one base b, lex_rows(b, len(bases)).

    Take the largest j with a product of the last j bases <= rows. Each
    block is a run of at most rows // that product leading tuples over the
    first bases, each one followed by every tuple over the last j. Broadcasts
    write a block into one new C-contiguous array, so no rows are held twice
    and no element is divided."""
    width = len(bases)
    j = 0
    while j < width and math.prod(bases[width - j - 1:]) <= rows:
        j += 1
    lead, tail = tuple(bases[:width - j]), tuple(bases[width - j:])
    heads = np.indices(lead, dtype=np.int64).reshape(len(lead), math.prod(lead)).T
    step = max(1, rows // max(1, math.prod(tail)))
    for h in range(0, heads.shape[0], step):
        head = heads[h:h + step]
        block = np.empty((head.shape[0],) + tail + (width,), dtype=np.int64)
        block[..., :width - j] = head.reshape((head.shape[0],) + (1,) * j + (width - j,))
        for c, base in enumerate(tail):  # tail digit c varies along axis 1 + c
            axes = (1,) * (c + 1) + (base,) + (1,) * (j - c - 1)
            block[..., width - j + c] = np.arange(base, dtype=np.int64).reshape(axes)
        yield block.reshape(head.shape[0] * math.prod(tail), width)


def span(vectors) -> np.ndarray:
    """out[a] = the XOR of vectors[i] (integers or rows of them) over the
    bits i of a, by doubling: out[2^i + a] = out[a] ^ vectors[i], a < 2^i."""
    vectors = np.asarray(vectors)
    out = np.zeros((1 << len(vectors),) + vectors.shape[1:], dtype=vectors.dtype)
    for i, v in enumerate(vectors):
        h = 1 << i
        np.bitwise_xor(out[:h], v, out=out[h:2 * h])
    return out


def vec_mul(spec: FieldSpec, a, b) -> np.ndarray:
    """Elementwise field product of two bit-pattern arrays (broadcasting)."""
    return spec.exp[spec.log[a] + spec.log[b]].astype(np.int64)


def vec_div(spec: FieldSpec, a, b) -> np.ndarray:
    """Elementwise quotient a / b (broadcasting), zero-safe: a / 0 = 0, the
    product of a and b^(2^n - 2). The log of 1/b is p1 - log b for b != 0,
    and log 0 = 2 p1 maps to 2 p1 again (mod 3 p1), so a sum with log a
    stays inside the table and lands in its zeros whenever a or b is 0."""
    p1 = spec.order - 1
    return spec.exp[spec.log[a] + (p1 - spec.log[b]) % (3 * p1)].astype(np.int64)


def vec_frob(spec: FieldSpec, a, j: int) -> np.ndarray:
    """Elementwise a^(2^j), as int64; zero stays zero by a product with
    (a != 0), as in vec_eval."""
    j %= spec.n
    a = np.asarray(a, dtype=np.int64)
    if j == 0:
        return a.copy()
    return np.multiply(spec.exp[(spec.log[a] << j) % (spec.order - 1)], a != 0, dtype=np.int64)


def vec_eval(spec: FieldSpec, terms, columns) -> np.ndarray:
    """sum c * prod_i x_i^(e_i) over the terms, pairs (exponent tuple e, c),
    as int64: the one evaluator of polynomial value tables. columns[i]
    holds x_i as a scalar or an array; the columns broadcast against each
    other.

    Each monomial is one gather in the log domain,
    exp[(log c + sum e_i log x_i) mod (2^n - 1)], zeroed wherever a
    variable with e_i > 0 is zero (so 0^0 = 1); zero coefficients are
    skipped.
    """
    cols = [np.asarray(c, dtype=np.int64) for c in columns]
    logs = [spec.log[c] for c in cols]
    nonzero = [c != 0 for c in cols]
    p1 = spec.order - 1
    acc = np.zeros(np.broadcast(*cols).shape, dtype=np.int64)
    for exps, cb in terms:
        if not cb:
            continue
        lg, live = spec.log[cb], True
        for i, e in enumerate(exps):
            if e:
                lg = lg + (e % p1) * logs[i]
                live = nonzero[i] if live is True else live & nonzero[i]
        acc ^= spec.exp[lg % p1] * live
    return acc


# ---------------------------------------------------------------------------
# Small exact linear algebra over a FieldSpec (rows of int bits)
# ---------------------------------------------------------------------------

def _gauss_jordan(spec: FieldSpec, a: list[list[int]]) -> int:
    """Reduce the rows a, k of them, in place to [I | *] on their first k
    columns. Returns the product of the pivots, the determinant of that
    k x k block (char 2 ignores signs), or 0 if it is singular."""
    k = len(a)
    det = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col]), None)
        if piv is None:
            return 0
        a[col], a[piv] = a[piv], a[col]
        det = spec.mul(det, a[col][col])
        ipiv = spec.inv(a[col][col])
        a[col] = [spec.mul(v, ipiv) for v in a[col]]
        for r in range(k):
            f = a[r][col]
            if r != col and f:
                a[r] = [v ^ spec.mul(f, w) for v, w in zip(a[r], a[col])]
    return det


def mat_det(spec: FieldSpec, rows: list[list[int]]) -> int:
    """Determinant: the product of the Gauss-Jordan pivots."""
    return _gauss_jordan(spec, [list(r) for r in rows])


def mat_solve(spec: FieldSpec, rows: list[list[int]], rhs: list[int]) -> list[int]:
    """Solve A x = rhs over the field; raises ValueError on singular A."""
    a = [list(r) + [v] for r, v in zip(rows, rhs)]
    if not _gauss_jordan(spec, a):
        raise ValueError("singular linear system over GF(2^n)")
    return [r[-1] for r in a]


# ---------------------------------------------------------------------------
# Tower view GF(q^k) of GF(2^{mk})
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def tower(m: int, k: int) -> "TowerView":
    """GF(2^{mk}) viewed as the degree-k extension of GF(2^m) (memoized)."""
    return TowerView(m, k)


class TowerView:
    """GF(q^k) with q = 2^m, laid flat inside GF(2^{mk}).

    Immutable after construction; the normal element and the base-field
    embedding are computed once on first access and then frozen.
    """

    def __init__(self, m: int, k: int):
        if m < 1 or k < 1:
            raise ValueError("tower requires m >= 1 and k >= 1")
        self.m = m
        self.k = k
        self.q = 1 << m
        self.spec = field(m * k)

    # -- q-Frobenius, trace, norm ----------------------------------------

    def frobq(self, x, j: int = 1) -> Fe:
        """x^(q^j)."""
        return Fe(self.spec.frob(self.spec.bits(x), (j % self.k) * self.m), self.spec)

    def rel_trace(self, x) -> Fe:
        b = self.spec.bits(x)
        acc = 0
        for j in range(self.k):
            acc ^= self.spec.frob(b, j * self.m)
        return Fe(acc, self.spec)

    def rel_norm(self, x) -> Fe:
        b = self.spec.bits(x)
        acc = 1
        for j in range(self.k):
            acc = self.spec.mul(acc, self.spec.frob(b, j * self.m))
        return Fe(acc, self.spec)

    def abs_trace_base(self, x) -> Fe:
        """Absolute trace GF(q) -> GF(2) of a subfield element, as 0 or 1."""
        b = self.spec.bits(x)
        if not self.in_base(b):
            raise ValueError("absolute base trace needs an element of the q-subfield")
        acc = 0
        for j in range(self.m):
            acc ^= self.spec.frob(b, j)
        return Fe(acc, self.spec)

    def in_base(self, x) -> bool:
        b = self.spec.bits(x)
        return self.spec.frob(b, self.m) == b

    # -- the same on int64 columns of element bits ---------------------------

    def vec_frobq(self, a, j: int = 1) -> np.ndarray:
        """a^(q^j), elementwise."""
        return vec_frob(self.spec, a, (j % self.k) * self.m)

    def vec_rel_norm(self, a) -> np.ndarray:
        """a^(1 + q + ... + q^(k-1)) = a^((q^k - 1)/(q - 1)), elementwise."""
        return vec_eval(self.spec, [(((self.spec.order - 1) // (self.q - 1),), 1)], [a])

    def vec_abs_trace_base(self, a) -> np.ndarray:
        """a + a^2 + ... + a^(2^(m-1)), elementwise: the absolute trace of
        GF(q) for elements of the q-subfield (unchecked; see in_base)."""
        return vec_eval(self.spec, [((1 << j,), 1) for j in range(self.m)], [a])

    # -- subsets -----------------------------------------------------------

    def subfield_bits(self) -> np.ndarray:
        """The q-subfield {x : x^q = x} as a sorted int64 array of element
        bits: 0 and the powers of g^((q^k - 1)/(q - 1)), the subgroup of order
        q - 1 of the cyclic group GF(q^k)*."""
        p1 = self.spec.order - 1
        units = self.spec.exp[:p1:p1 // (self.q - 1)]
        return np.sort(np.concatenate([[0], units]).astype(np.int64))

    def subfield_members(self) -> set[Fe]:
        """All x with x^q = x; exactly q of them."""
        return {Fe(b, self.spec) for b in self.subfield_bits().tolist()}

    def mu_set(self) -> set[Fe]:
        """Norm-1 elements {d : d^((q^k-1)/(q-1)) = 1}: the subgroup of that
        order of the cyclic group GF(q^k)*, the powers of g^(q-1)."""
        units = self.spec.exp[:self.spec.order - 1:self.q - 1]
        return {Fe(b, self.spec) for b in units.tolist()}

    def elements(self):
        return self.spec.elements()

    # -- normal basis --------------------------------------------------------

    @functools.cached_property
    def normal_element(self) -> Fe:
        """Smallest xi (by bit encoding) whose Frobenius orbit is a q-basis."""
        if self.k == 1:
            return Fe(1, self.spec)
        for bits in range(2, self.spec.order):
            orbit = [self.spec.frob(bits, j * self.m) for j in range(self.k)]
            rows = [[self.spec.frob(orbit[j], i * self.m) for j in range(self.k)]
                    for i in range(self.k)]
            if mat_det(self.spec, rows) != 0:
                return Fe(bits, self.spec)
        raise RuntimeError("no normal element found (impossible for a finite field)")

    # -- base-field embedding -------------------------------------------------

    def base_field(self) -> FieldSpec:
        return field(self.m)

    @functools.cached_property
    def _embedding(self):
        cands, modulus = self.subfield_bits(), self.base_field().modulus
        value = vec_eval(self.spec, [((i,), modulus >> i & 1)
                                     for i in range(modulus.bit_length())], [cands])
        roots = cands[value == 0]
        if not roots.size:
            raise RuntimeError("base modulus must split in its own subfield")
        root = int(roots[0])
        fwd = span([self.spec.pow(root, i) for i in range(self.m)])  # sum of root^i, bits i of b
        return fwd, {int(v): i for i, v in enumerate(fwd)}

    def embed_base(self, x) -> Fe:
        """Map an element of the standalone GF(q) into the q-subfield here."""
        b = self.base_field().bits(x)
        fwd, _ = self._embedding
        return Fe(int(fwd[b]), self.spec)

    def project_base(self, x) -> Fe:
        """Inverse of embed_base; requires x in the q-subfield."""
        b = self.spec.bits(x)
        _, back = self._embedding
        if b not in back:
            raise ValueError("element is not in the q-subfield")
        return Fe(back[b], self.base_field())

    # -- misc -----------------------------------------------------------------

    def fe(self, x) -> Fe:
        return Fe(x, self.spec)

    def __repr__(self):
        return f"GF(({1 << self.m})^{self.k}) in GF(2^{self.spec.n})"

    def __eq__(self, other):
        return isinstance(other, TowerView) and (other.m, other.k) == (self.m, self.k)

    def __hash__(self):
        return hash(("TowerView", self.m, self.k))

    def to_json(self) -> dict:
        return {"n": self.spec.n, "modulus": f"{self.spec.modulus:x}",
                "m": self.m, "k": self.k}
