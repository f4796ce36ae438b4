"""Presemifields and semifields on GF(2^n).

Every presemifield here is the form of a Dembowski-Ostrom polynomial f:
x*y = xy + f(x+y) + f(x) + f(y), which has no zero divisors exactly when
f is planar. f = 0 gives the field, a planar f its commutative
presemifield, and f = (x s(x))^2, for the GF(2)-linear
s(x) = sum_i Tr_i(zeta_i x) of a subfield chain, the chained-trace product
xy + (x s(y) + y s(x))^2; its trivial chain, s = Tr, is the
binary-semifield product. A presemifield is held as its structure
constants S[i, j] = e_i * e_j on the polynomial basis (Knuth's cubical
array), the definition on basis pairs, so the product is biadditive by
construction, and its column table C[a, j] = a * e_j, the span of S; every
operation reads S or C. The constructor checks that S is symmetric and
that every x -> a*x, a != 0, is nonsingular (no zero divisors) on C with
kernels.nonsingular_table, which shares only the rank elimination with the
planarity sweep, so no constructed Presemifield has any.
Only the full 2^n x 2^n table (for n <= TABLE_N_MAX) holds 4^n entries.

A unital semifield is obtained from a presemifield in two ways, both
kept because they differ in shape even though each is an isotope:

  * isotope at e:   (x*e) o (y*e) = x*y, identity e*e;
  * left division:  x o y = Le^{-1}(x*y) with Le(x) = x*e, identity e.

Nuclei are kernels of GF(2)-linear maps given by the n basis images a = e_k
(the associators are trilinear, the product being biadditive); for these
commutative unital structures, "left nucleus = everything" is a field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import (BudgetError, Fe, FieldSpec, TowerView, span, tower, vec_eval, vec_frob,
                     vec_mul)
from .linearized import LinearizedPoly, inverse_map
from .planar import DOPoly, FamilyParams, family_coeffs
from .planar import is_planar_bruteforce  # noqa: F401 (perfbench's tracer looks it up here)

TABLE_N_MAX = 12  # the full 2^n x 2^n table: table() and dump_table


class Presemifield:
    """Carrier field plus a commutative biadditive product with no zero
    divisors, held as its structure constants consts[i, j] = e_i * e_j and
    the column table cols[a, j] = a * e_j, their span, since
    (a + e_i) * e_j = a * e_j + e_i * e_j."""

    def __init__(self, spec: FieldSpec, label: str, consts, identity: int | None = None):
        n = spec.n
        consts = np.asarray(consts)
        if consts.shape != (n, n) or consts.min() < 0 or consts.max() >= spec.order:
            raise ValueError(f"{label}: expected {n} x {n} structure constants in GF(2^{n})")
        if not np.array_equal(consts, consts.T):
            raise ValueError(f"{label}: product is not commutative")
        self.spec = spec
        self.label = label
        self.identity = identity
        self.consts = consts.astype(spec.dtype)
        self.cols = span(self.consts)
        if not kernels.nonsingular_table(self.cols):
            raise ValueError(f"{label}: product has zero divisors")
        for arr in (self.consts, self.cols):
            arr.setflags(write=False)

    # -- product access ------------------------------------------------------

    def mul(self, x, y) -> Fe:
        return Fe(int(self._mul(self.spec.bits(x), self.spec.bits(y))), self.spec)

    def _mul(self, x, y) -> np.ndarray:
        """x*y for arrays of element bits (broadcasting): the sum of the
        columns x*e_j over the bits j of y."""
        rows = self.cols[x]
        y = np.asarray(y, dtype=self.cols.dtype)
        out = np.zeros(np.broadcast_shapes(np.shape(x), y.shape), dtype=self.cols.dtype)
        for j in range(self.spec.n):
            out ^= rows[..., j] * (y >> j & 1)
        return out

    def table(self) -> np.ndarray:
        """t[x, y] = x*y for all x, y, built by doubling:
        (x + e_i)*y = x*y + y*e_i."""
        if self.spec.n > TABLE_N_MAX:
            raise BudgetError(f"product table for n={self.spec.n} exceeds n<={TABLE_N_MAX}")
        return span(self.cols.T)

    # -- structure checks -----------------------------------------------------

    def is_unital(self) -> bool:
        """identity * e_j = e_j for every j, which suffices by linearity."""
        if self.identity is None:
            return False
        return bool(np.array_equal(self.cols[self.identity], 1 << np.arange(self.spec.n)))

    def dump_table(self, path: str):
        """Row-major little-endian uint16 dump of table() for external tools."""
        self.table().astype("<u2", copy=False).tofile(path)

    def __repr__(self):
        unit = f", identity=0x{self.identity:x}" if self.identity is not None else ""
        return f"Presemifield({self.label}, n={self.spec.n}{unit})"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _basis_products(spec: FieldSpec, exponents, coeffs) -> np.ndarray:
    """e_i * e_j = e_i e_j + f(e_i + e_j) + f(e_i) + f(e_j) for all i, j, for
    f = sum_t coeffs[t] x^exponents[t]: the definition on basis pairs, with
    f evaluated by vec_eval at the n^2 points e_i + e_j and the n points e_i."""
    e = 1 << np.arange(spec.n, dtype=np.int64)
    terms = [((int(x),), int(c)) for x, c in zip(exponents, np.ravel(coeffs))]
    fe = vec_eval(spec, terms, [e])
    return vec_mul(spec, e[:, None], e) ^ vec_eval(spec, terms, [e[:, None] ^ e]) ^ fe[:, None] ^ fe


def field_presemifield(spec: FieldSpec) -> Presemifield:
    """The field itself, as the trivial (pre)semifield: f = 0."""
    return Presemifield(spec, "field", _basis_products(spec, [], []), identity=1)


def presemifield_from_planar(f: DOPoly) -> Presemifield:
    """x*y = xy + f(x+y) + f(x) + f(y) for a planar quadratic f, which has
    no zero divisors exactly when f is planar: the constructor's rank test
    on the column table raises ValueError when f is not planar."""
    return Presemifield(f.spec, "planar", _basis_products(f.spec, *f.as_row()))


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


def kantor_presemifield(chain: TraceChain) -> Presemifield:
    """The chained-trace product x*y = xy + (x s(y) + y s(x))^2, where
    s(x) = sum_i Tr_i(zeta_i x) and Tr_i is the trace onto the subfield of
    degree m_i. s is GF(2)-linear, s(x) = sum_j w_j x^(2^j) with w_j the
    sum of zeta_i^(2^j) over the levels with m_i | j, so the product is the
    form of f = (x s(x))^2 = sum_j w_j^2 x^(2 + 2^((j+1) mod n))."""
    spec = chain.spec
    n = spec.n
    w = [0] * n
    for d, z in zip(chain.degrees, chain.zetas):
        for j in range(0, n, d):
            w[j] ^= spec.frob(z, j)
    exponents = [2 + (1 << ((j + 1) % n)) for j in range(n)]
    return Presemifield(spec, "kantor",
                        _basis_products(spec, exponents, [spec.sqr(c) for c in w]))


def knuth_presemifield(n: int) -> Presemifield:
    """The binary-semifield product xy + (x Tr(y) + y Tr(x))^2, n odd: the
    form of the registry's Knuth polynomial x^2 Tr(x) = (x Tr(x))^2, the
    chained-trace product of the chain F > GF(2) with weight 1."""
    f = family_coeffs(FamilyParams("Knuth", (), tower(1, n)))
    return Presemifield(f.spec, "knuth", _basis_products(f.spec, *f.as_row()))


# ---------------------------------------------------------------------------
# Unital isotopes
# ---------------------------------------------------------------------------

def to_semifield(P: Presemifield, e: Fe | int = 1,
                 construction: str = "isotope") -> Presemifield:
    """Unital semifield from a presemifield.

    construction="isotope":       u o v = Re^{-1}(u) * Re^{-1}(v), Re(x) = x*e,
                                  identity e*e; constants Re^{-1}(e_i) * Re^{-1}(e_j).
    construction="left-division": u o v = Le^{-1}(u*v), Le(x) = x*e,
                                  identity e; constants Le^{-1}(e_i * e_j).
    """
    spec = P.spec
    e = spec.bits(e)
    if not e:
        raise ValueError("isotopes need a nonzero base point e")
    xs = np.arange(spec.order)
    col = span(P.cols[e])  # Re = Le: x -> x*e, the span of e_j * e = e * e_j
    inv = np.zeros_like(col)
    inv[col] = xs
    if not np.array_equal(col[inv], xs):
        raise RuntimeError("x -> x*e is not a bijection; input is not a presemifield")
    if construction == "isotope":
        u = inv[1 << np.arange(spec.n)]
        consts, ident = P._mul(u[:, None], u[None, :]), int(P._mul(e, e))
    elif construction == "left-division":
        consts, ident = inv[P.consts], e
    else:
        raise ValueError("construction must be 'isotope' or 'left-division'")
    out = Presemifield(spec, f"{P.label}/{construction}[e=0x{e:x}]",
                       consts, identity=ident)
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

    def to_json(self) -> dict:
        """The report, each nucleus as an int64 array; equal nuclei share
        one array, which cli._json formats once."""
        left = np.array(self.left, dtype=np.int64)
        middle = left if self.middle == self.left else np.array(self.middle, dtype=np.int64)
        right = (left if self.right == self.left else
                 middle if self.right == self.middle else np.array(self.right, dtype=np.int64))
        return {
            "order": self.order,
            "left_size": len(self.left), "middle_size": len(self.middle),
            "right_size": len(self.right),
            "left": left, "middle": middle, "right": right,
            "is_associative": self.is_associative,
            "is_field": self.is_field,
        }


def _kernel(images) -> list[int]:
    """The sorted a = sum_k a_k e_k with sum_k a_k images[k] = 0. Image k's
    element bits, read as one integer, go above n low bits holding 1 << k,
    and each vector is reduced by top bit against the pivots so far: the
    low bits of those whose image part reaches zero span the kernel."""
    n, pivots, basis = len(images), {}, []  # pivots: top bit -> vector
    for k, image in enumerate(images):
        v = int.from_bytes(np.asarray(image, dtype="<u4").tobytes(), "little") << n | 1 << k
        while v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v >> n:
            pivots[v.bit_length()] = v
        else:
            basis.append(v)
    return np.sort(span(np.array(basis, dtype=np.int64))).tolist()


def nuclei(S: Presemifield) -> NucleiReport:
    """Left/middle/right nuclei of a unital semifield. A Presemifield's
    product is biadditive and commutative by construction, so each
    associator, e.g. (a*x)*y + a*(x*y), is GF(2)-trilinear: it vanishes for
    all x, y iff it does on the basis pairs (e_i, e_j). With
    L[a, i, j] = (a*e_i)*e_j, a gather from the column table, and
    R[a, i, j] = a*(e_i*e_j), a is in the left nucleus iff L[a] = R[a] and
    in the middle one iff L[a] = L[a]^T (e_i*(a*e_j) = (a*e_j)*e_i). Both
    are linear in a, so each nucleus is the _kernel of its n basis images
    a = e_k, n^3 bits each. The right nucleus, (x*y)*a = x*(y*a), is the
    left one read through commutativity."""
    if S.identity is None:
        raise ValueError("nuclei are defined for unital semifields; isotope first")
    e = 1 << np.arange(S.spec.n)
    lhs = S.cols[S.cols[e]]
    left = _kernel(lhs ^ S._mul(e[:, None, None], S.consts))
    middle = _kernel(lhs ^ lhs.transpose(0, 2, 1))
    is_assoc = len(left) == S.spec.order
    return NucleiReport(left, middle, left, is_assoc, is_assoc, S.spec.order)


# ---------------------------------------------------------------------------
# The quartic example: trinomial coefficients (w, 1, w^2), m even
# ---------------------------------------------------------------------------

def _omega(t: TowerView) -> Fe:
    """Smallest root of z^2 + z + 1 in the field; one exists iff 3 | 2^n - 1,
    that is, iff n is even."""
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

    xs = np.arange(spec.order) if m == 2 else 1 << np.arange(spec.n)  # all of it, or the basis
    xg, yg = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))

    frq = lambda arr, j: vec_frob(spec, arr, j * t.m)
    pre = presemifield_from_planar(h)

    linv = ell_inv.evaluate_vec
    circ = linv(pre._mul(xg, yg))

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
    al, xv, yv = rng.integers(0, spec.order, (3, rng_triples))
    lhs = linv(pre._mul(al, linv(pre._mul(xv, yv))))   # a o (x o y)
    rhs = linv(pre._mul(linv(pre._mul(al, xv)), yv))   # (a o x) o y

    report = {
        "m": m,
        "inverse_coeffs": ell_inv.to_json(),
        "expected_inverse": [f"{c:x}" for c in (1, w2, 1, wb)],
        "coordinate_identities": identities,
        "identities_hold": all(identities),
        "random_triples_associative": bool(np.array_equal(lhs, rhs)),
    }
    if m == 2:
        rep = nuclei(to_semifield(pre, construction="left-division"))
        report["left_nucleus_size"] = len(rep.left)
        report["is_field"] = rep.is_field
    return report
