"""Presemifields and semifields on GF(2^n).

A planar quadratic f induces the commutative presemifield product
x*y = xy + f(x+y) + f(x) + f(y); the binary-semifield product
xy + (x Tr(y) + y Tr(x))^2 and its chained-trace generalization are built
directly. Presemifields constructed here are verified (exhaustively, for
n <= 12) to be biadditive, commutative and free of zero divisors.

A unital semifield is obtained from a presemifield in two ways, both
kept because they differ in shape even though each is an isotope:

  * isotope at e:   (x*e) o (y*e) = x*y, identity e*e;
  * left division:  x o y = Le^{-1}(x*y) with Le(x) = x*e, identity e.

Nuclei are read off the associators on basis pairs (the product is
biadditive, so they are GF(2)-trilinear); for a commutative unital structure
of these orders, "left nucleus = everything" is the same as being a field.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import BudgetError, Fe, FieldSpec, TowerView, field, tower, vec_frob, vec_mul
from .linearized import LinearizedPoly, inverse_map
from .planar import DOPoly, is_planar_bruteforce

TABLE_N_MAX = 12  # materialized 2^n x 2^n products


def _mul_table_from_fvals(spec: FieldSpec, fvals: np.ndarray) -> np.ndarray:
    """Table of x*y = xy + f(x+y) + f(x) + f(y) from the value table of f."""
    n_ord = spec.order
    xs = np.arange(n_ord, dtype=np.int64)
    prod = vec_mul(spec, xs[:, None], xs[None, :])
    return prod ^ fvals[xs[:, None] ^ xs[None, :]] ^ fvals[:, None] ^ fvals[None, :]


class Presemifield:
    """Carrier field plus a biadditive commutative product with no zero
    divisors; a materialized table for n <= 12, closed form beyond."""

    def __init__(self, spec: FieldSpec, label: str, table: np.ndarray | None = None,
                 mul_fn=None, identity: int | None = None):
        if table is None and mul_fn is None:
            raise ValueError("need a table or a closed-form product")
        self.spec = spec
        self.label = label
        self._table = table
        self._mul_fn = mul_fn
        self.identity = identity
        if table is not None:
            self._verify()

    # -- product access ------------------------------------------------------

    def mul(self, x: Fe, y: Fe) -> Fe:
        if x.spec != self.spec or y.spec != self.spec:
            raise ValueError("operands belong to a different field")
        if self._table is not None:
            return Fe(int(self._table[x.bits, y.bits]), self.spec)
        return Fe(self._mul_fn(x.bits, y.bits), self.spec)

    def table(self) -> np.ndarray:
        if self._table is None:
            if self.spec.n > TABLE_N_MAX:
                raise BudgetError(f"product table for n={self.spec.n} exceeds n<={TABLE_N_MAX}")
            n_ord = self.spec.order
            t = np.zeros((n_ord, n_ord), dtype=np.int64)
            for x in range(n_ord):
                for y in range(x, n_ord):
                    v = self._mul_fn(x, y)
                    t[x, y] = v
                    t[y, x] = v
            self._table = t
            self._verify()
        return self._table

    # -- structure checks -----------------------------------------------------

    def _verify(self):
        t = self._table
        n_ord = self.spec.order
        if not np.array_equal(t, t.T):
            raise ValueError(f"{self.label}: product is not commutative")
        # additivity in the second slot, one bit at a time: t[:, 2^i + j] is
        # t[:, 2^i] ^ t[:, j] for j < 2^i (at i = 0 this forces t[:, 0] = 0)
        for i in range(self.spec.n):
            b = 1 << i
            if not np.array_equal(t[:, b:2 * b], t[:, b, None] ^ t[:, :b]):
                raise ValueError(f"{self.label}: product is not biadditive")
        zeros = np.count_nonzero(t == 0)
        if zeros != 2 * n_ord - 1:
            raise ValueError(f"{self.label}: product has zero divisors")

    def has_zero_divisors(self) -> bool:
        t = self.table()
        return np.count_nonzero(t == 0) != 2 * self.spec.order - 1

    def is_unital(self) -> bool:
        if self.identity is None:
            return False
        t = self.table()
        xs = np.arange(self.spec.order)
        return bool(np.array_equal(t[self.identity], xs) and np.array_equal(t[:, self.identity], xs))

    def dump_table(self, path: str):
        """Row-major little-endian uint16 dump for external tools; tables
        exist for n <= TABLE_N_MAX, whose entries fit in 16 bits."""
        self.table().astype("<u2").tofile(path)

    def __repr__(self):
        unit = f", identity=0x{self.identity:x}" if self.identity is not None else ""
        return f"Presemifield({self.label}, n={self.spec.n}{unit})"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def field_presemifield(spec: FieldSpec) -> Presemifield:
    """The field itself, as the trivial (pre)semifield."""
    if spec.n <= TABLE_N_MAX:
        xs = np.arange(spec.order, dtype=np.int64)
        t = vec_mul(spec, xs[:, None], xs[None, :])
        return Presemifield(spec, "field", table=t, identity=1)
    return Presemifield(spec, "field", mul_fn=spec.mul, identity=1)


def presemifield_from_planar(f: DOPoly, check_planar: bool = True) -> Presemifield:
    """x*y = xy + f(x+y) + f(x) + f(y) for a planar quadratic f."""
    spec = f.spec
    if check_planar and not is_planar_bruteforce(f):
        raise ValueError("f is not planar; the product would have zero divisors")
    fvals = f.value_table()
    if spec.n <= TABLE_N_MAX:
        return Presemifield(spec, "planar", table=_mul_table_from_fvals(spec, fvals))

    def mul_fn(x, y, _fv=fvals, _spec=spec):
        return _spec.mul(x, y) ^ int(_fv[x ^ y]) ^ int(_fv[x]) ^ int(_fv[y])

    return Presemifield(spec, "planar", mul_fn=mul_fn)


@functools.lru_cache(maxsize=None)
def _abs_trace_table(n: int) -> np.ndarray:
    spec = field(n)
    xs = np.arange(spec.order, dtype=np.int64)
    acc = np.zeros_like(xs)
    for j in range(spec.n):
        acc ^= vec_frob(spec, xs, j)
    acc.setflags(write=False)
    return acc


def knuth_mul(spec: FieldSpec, x: Fe, y: Fe) -> Fe:
    """x*y = xy + (x Tr(y) + y Tr(x))^2 with the absolute trace; n odd."""
    if spec.n % 2 == 0:
        raise ValueError("the binary-semifield product needs odd n")
    tr_t = _abs_trace_table(spec.n)
    inner = spec.mul(x.bits, int(tr_t[y.bits])) ^ spec.mul(y.bits, int(tr_t[x.bits]))
    return Fe(spec.mul(x.bits, y.bits) ^ spec.sqr(inner), spec)


def knuth_presemifield(n: int) -> Presemifield:
    spec = field(n)
    if n % 2 == 0:
        raise ValueError("the binary-semifield product needs odd n")
    xs = np.arange(spec.order, dtype=np.int64)
    tr = _abs_trace_table(spec.n)
    inner = vec_mul(spec, xs[:, None], tr[None, :]) ^ vec_mul(spec, xs[None, :], tr[:, None])
    t = vec_mul(spec, xs[:, None], xs[None, :]) ^ vec_frob(spec, inner, 1)
    return Presemifield(spec, "knuth", table=t)


@dataclass(frozen=True)
class TraceChain:
    """Subfield chain F = F_0 > F_1 > ... > F_t with [F : F_t] odd, plus one
    nonzero weight per proper level."""

    spec: FieldSpec
    degrees: tuple[int, ...]      # m_1 > m_2 > ... > m_t, all dividing n
    zetas: tuple[int, ...]        # weight bits, one per degree

    def __post_init__(self):
        n = self.spec.n
        if len(self.degrees) != len(self.zetas) or not self.degrees:
            raise ValueError("need one nonzero weight per chain level")
        prev = n
        for d in self.degrees:
            if d <= 0 or prev % d != 0 or d >= prev:
                raise ValueError(f"invalid chain degree {d} below {prev}")
            prev = d
        if (n // self.degrees[-1]) % 2 == 0:
            raise ValueError("the chain needs odd total index [F : F_t]")
        for z in self.zetas:
            if not 0 < z < self.spec.order:
                raise ValueError("chain weights must be nonzero field elements")


def _rel_trace_table(spec: FieldSpec, sub_degree: int) -> np.ndarray:
    xs = np.arange(spec.order, dtype=np.int64)
    acc = np.zeros_like(xs)
    for j in range(spec.n // sub_degree):
        acc ^= vec_frob(spec, xs, j * sub_degree)
    return acc


def _chain_weight_table(chain: TraceChain) -> np.ndarray:
    spec = chain.spec
    xs = np.arange(spec.order, dtype=np.int64)
    acc = np.zeros_like(xs)
    for d, z in zip(chain.degrees, chain.zetas):
        acc ^= _rel_trace_table(spec, d)[vec_mul(spec, z, xs)]
    return acc


def kantor_mul(chain: TraceChain, x: Fe, y: Fe) -> Fe:
    """x*y = xy + (x sum_i Tr_i(zeta_i y) + y sum_i Tr_i(zeta_i x))^2."""
    spec = chain.spec
    s = _chain_weight_table(chain)
    inner = spec.mul(x.bits, int(s[y.bits])) ^ spec.mul(y.bits, int(s[x.bits]))
    return Fe(spec.mul(x.bits, y.bits) ^ spec.sqr(inner), spec)


def kantor_presemifield(chain: TraceChain) -> Presemifield:
    spec = chain.spec
    xs = np.arange(spec.order, dtype=np.int64)
    s = _chain_weight_table(chain)
    inner = vec_mul(spec, xs[:, None], s[None, :]) ^ vec_mul(spec, xs[None, :], s[:, None])
    t = vec_mul(spec, xs[:, None], xs[None, :]) ^ vec_frob(spec, inner, 1)
    return Presemifield(spec, "kantor", table=t)


# ---------------------------------------------------------------------------
# Unital isotopes
# ---------------------------------------------------------------------------

def to_semifield(P: Presemifield, e: Fe | None = None,
                 construction: str = "isotope") -> Presemifield:
    """Unital semifield from a presemifield.

    construction="isotope":       u o v = Re^{-1}(u) * Re^{-1}(v), Re(x) = x*e,
                                  identity e*e.
    construction="left-division": u o v = Le^{-1}(u*v), Le(x) = x*e,
                                  identity e.
    """
    spec = P.spec
    if e is None:
        e = spec.one
    if not e:
        raise ValueError("isotopes need a nonzero base point e")
    t = P.table()
    col = t[:, e.bits]
    inv_perm = np.zeros(spec.order, dtype=np.int64)
    if np.unique(col).size != spec.order:
        raise RuntimeError("x -> x*e is not a bijection; input is not a presemifield")
    inv_perm[col] = np.arange(spec.order, dtype=np.int64)
    if construction == "isotope":
        new = t[np.ix_(inv_perm, inv_perm)]
        ident = int(t[e.bits, e.bits])
    elif construction == "left-division":
        new = inv_perm[t]
        ident = e.bits
    else:
        raise ValueError("construction must be 'isotope' or 'left-division'")
    out = Presemifield(spec, f"{P.label}/{construction}[e=0x{e.bits:x}]",
                       table=new, identity=ident)
    if not out.is_unital():
        raise RuntimeError("isotope failed to produce an identity element")
    return out


# ---------------------------------------------------------------------------
# Nuclei
# ---------------------------------------------------------------------------

@dataclass
class NucleiReport:
    left: list[int]
    middle: list[int]
    right: list[int]
    is_associative: bool
    is_field: bool
    order: int
    meta: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "left_size": len(self.left), "middle_size": len(self.middle),
            "right_size": len(self.right),
            "left": [f"{b:x}" for b in self.left],
            "middle": [f"{b:x}" for b in self.middle],
            "right": [f"{b:x}" for b in self.right],
            "is_associative": self.is_associative,
            "is_field": self.is_field,
            **self.meta,
        }


def nuclei(S: Presemifield) -> NucleiReport:
    """Left/middle/right nuclei of a unital semifield. Every table a
    Presemifield holds has passed `_verify`, so the product is biadditive and
    each associator, e.g. (a*x)*y + a*(x*y), is GF(2)-trilinear: it vanishes
    for all x, y iff it does on the basis pairs (e_i, e_j). One 2^n x n x n
    gather per nucleus tests every a at once."""
    if S.identity is None:
        raise ValueError("nuclei are defined for unital semifields; isotope first")
    t = S.table()
    n_ord = S.spec.order
    a = np.arange(n_ord)[:, None, None]
    x = (1 << np.arange(S.spec.n))[None, :, None]
    y = x.reshape(1, 1, -1)

    def members(lhs, rhs):
        return np.flatnonzero((lhs == rhs).all(axis=(1, 2))).tolist()

    left = members(t[t[a, x], y], t[a, t[x, y]])      # (a*x)*y == a*(x*y)
    middle = members(t[t[x, a], y], t[x, t[a, y]])    # (x*a)*y == x*(a*y)
    right = members(t[t[x, y], a], t[x, t[y, a]])     # (x*y)*a == x*(y*a)
    is_assoc = len(left) == n_ord
    return NucleiReport(left, middle, right, is_assoc, is_assoc, n_ord)


# ---------------------------------------------------------------------------
# The quartic example: trinomial coefficients (w, 1, w^2), m even
# ---------------------------------------------------------------------------

def _omega(t: TowerView) -> Fe:
    """Smallest root of z^2 + z + 1 in the field (exists once 4 | 2^n-1... i.e. n even)."""
    for b in range(2, t.spec.order):
        if t.spec.sqr(b) ^ b ^ 1 == 0:
            return t.fe(b)
    raise ValueError("no cube root of unity; need an even-degree field")


def quartic_example_tower(m: int) -> tuple[TowerView, Fe, DOPoly]:
    """The k=4 trinomial with coefficients (w, 1, w^2), w^2 + w + 1 = 0."""
    if m % 2 != 0:
        raise ValueError("the quartic example needs m even so w lies in GF(q)")
    t = tower(m, 4)
    w = _omega(t)
    h = DOPoly(t, [(w, 0, m), (1, 0, 2 * m), (w * w, 0, 3 * m)])
    return t, w, h


def quartic_example_check(m: int, rng_triples: int = 1000, seed: int = 0) -> dict:
    """Verify the associativity decomposition of the quartic example.

    Expands a o (x o y) and (a o x) o y into coordinate functions against
    the basis (a, a^q, a^q^2, a^q^3) and checks the four coordinate pairs
    agree: on all of GF(q^4)^2 for m = 2, on a full basis-pair sweep for
    m = 4 (both sides are biadditive). Also spot-checks associativity on
    random triples and, for m = 2, computes the nuclei.
    """
    if m not in (2, 4):
        raise ValueError("supported example sizes: m = 2 and m = 4")
    t, w, h = quartic_example_tower(m)
    spec = t.spec
    w2 = (w * w).bits
    wb = w.bits

    ell = LinearizedPoly(t, [1, wb, 1, w2])
    ell_inv = inverse_map(ell)

    if m == 2:
        xs = np.arange(spec.order, dtype=np.int64)
        xg, yg = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))
    else:
        basis = np.array([1 << i for i in range(spec.n)], dtype=np.int64)
        xg, yg = (a.ravel() for a in np.meshgrid(basis, basis, indexing="ij"))

    frq = lambda arr, j: vec_frob(spec, arr, j * t.m)

    def star(xa, ya):
        out = vec_mul(spec, xa, ya)
        for cb, j in ((wb, 1), (1, 2), (w2, 3)):
            out ^= vec_mul(spec, cb, vec_mul(spec, xa, frq(ya, j)) ^ vec_mul(spec, frq(xa, j), ya))
        return out

    def linv(arr):
        out = np.zeros_like(arr)
        for i, c in enumerate(ell_inv.coeffs):
            if c.bits:
                out ^= vec_mul(spec, c.bits, frq(arr, i))
        return out

    circ = linv(star(xg, yg))

    # coordinate functions of a o (x o y)
    a_side = [
        circ,
        vec_mul(spec, w2, frq(circ, 1)) ^ vec_mul(spec, wb, frq(circ, 2)) ^ frq(circ, 3),
        vec_mul(spec, wb, frq(circ, 1)) ^ frq(circ, 2) ^ vec_mul(spec, w2, frq(circ, 3)),
        frq(circ, 1) ^ vec_mul(spec, w2, frq(circ, 2)) ^ vec_mul(spec, wb, frq(circ, 3)),
    ]

    # coordinate functions of (a o x) o y
    x1, x2, x3 = frq(xg, 1), frq(xg, 2), frq(xg, 3)
    y1, y2, y3 = frq(yg, 1), frq(yg, 2), frq(yg, 3)
    mw = lambda c, arr: vec_mul(spec, c, arr)
    u1 = mw(w2, y1) ^ mw(wb, y2) ^ y3
    u2 = mw(wb, y1) ^ y2 ^ mw(w2, y3)
    u3 = y1 ^ mw(w2, y2) ^ mw(wb, y3)
    b_side = [
        vec_mul(spec, xg, yg)
        ^ vec_mul(spec, x2 ^ mw(w2, x3) ^ mw(wb, xg), u1)
        ^ vec_mul(spec, mw(wb, x3) ^ xg ^ mw(w2, x1), u2)
        ^ vec_mul(spec, mw(w2, xg) ^ mw(wb, x1) ^ x2, u3),
        vec_mul(spec, mw(w2, x1) ^ mw(wb, x2) ^ x3, yg)
        ^ vec_mul(spec, x1, u1)
        ^ vec_mul(spec, x3 ^ mw(w2, xg) ^ mw(wb, x1), u2)
        ^ vec_mul(spec, mw(wb, xg) ^ x1 ^ mw(w2, x2), u3),
        vec_mul(spec, mw(wb, x1) ^ x2 ^ mw(w2, x3), yg)
        ^ vec_mul(spec, mw(w2, x2) ^ mw(wb, x3) ^ xg, u1)
        ^ vec_mul(spec, x2, u2)
        ^ vec_mul(spec, xg ^ mw(w2, x1) ^ mw(wb, x2), u3),
        vec_mul(spec, x1 ^ mw(w2, x2) ^ mw(wb, x3), yg)
        ^ vec_mul(spec, mw(wb, x2) ^ x3 ^ mw(w2, xg), u1)
        ^ vec_mul(spec, mw(w2, x3) ^ mw(wb, xg) ^ x1, u2)
        ^ vec_mul(spec, x3, u3),
    ]

    identities = [bool(np.array_equal(a, b)) for a, b in zip(a_side, b_side)]

    rng = np.random.default_rng(seed)
    assoc_ok = True
    star_t = None
    linv_t = None
    if spec.n <= TABLE_N_MAX:
        xsf = np.arange(spec.order, dtype=np.int64)
        star_t = _mul_table_from_fvals(spec, h.value_table())
        linv_t = linv(xsf)
    for _ in range(rng_triples):
        al, xv, yv = (int(v) for v in rng.integers(0, spec.order, 3))
        if star_t is not None:
            c1 = linv_t[star_t[xv, yv]]
            lhs = linv_t[star_t[al, c1]]
            c2 = linv_t[star_t[al, xv]]
            rhs = linv_t[star_t[c2, yv]]
        else:
            sxy = int(star(np.array([xv]), np.array([yv]))[0])
            c1 = int(linv(np.array([sxy]))[0])
            lhs = int(linv(star(np.array([al]), np.array([c1])))[0])
            sax = int(star(np.array([al]), np.array([xv]))[0])
            c2 = int(linv(np.array([sax]))[0])
            rhs = int(linv(star(np.array([c2]), np.array([yv])))[0])
        if lhs != rhs:
            assoc_ok = False
            break

    report = {
        "m": m,
        "inverse_coeffs": ell_inv.to_json(),
        "expected_inverse": [f"{c:x}" for c in (1, w2, 1, wb)],
        "coordinate_identities": identities,
        "identities_hold": all(identities),
        "random_triples_associative": assoc_ok,
    }
    if m == 2:
        pre = presemifield_from_planar(h)
        semi = to_semifield(pre, construction="left-division")
        rep = nuclei(semi)
        report["left_nucleus_size"] = len(rep.left)
        report["is_field"] = rep.is_field
    return report
