"""Planar functions over GF(2^n): predicates, criteria, families, sweeps.

f is planar when x -> f(x+a) + f(x) + a*x permutes the field for every
nonzero a. For quadratic f written in Dembowski-Ostrom form (every
exponent a sum of two powers of 2) that map differs from the GF(2)-linear
map x -> f(x+a) + f(x) + f(a) + a*x only by a constant, so planarity has
two independent tests:

  * is_planar_bruteforce - the definition on the full value table (the
    oracle: it reads the linear parts of a quadratic table off the table,
    about n^2 2^n work, and runs the pair loop on any other, about 4^n/2),
    and
  * is_planar_linearized - GF(2)-rank of the linear map per a, through the
    rank kernel that also runs every sweep. This module hands kernels only
    exponents and coefficient rows (DOPoly.as_row, the audit layouts).

For coefficient families with exponents 2^(jm+i) + 2^i there is a third,
equivalent test: a single equation having no nonzero root, whose value
tables are criterion_table_k2/k3/k4 for towers of degree 2, 3 and 4 and
whose verdict is planar_by_criterion.

The family registry covers the four parameterized families over GF(q^2),
GF(q^3), GF(q^4) plus the known monomial/binomial families and the
quadratic companion of the binary-semifield product. Its records are
array-valued: admissibility and terms read int64 columns of parameter
bits, so an audit lists, filters and builds a whole parameter space as
arrays (family_param_rows), and family_coeffs and family_param_space are
one-row and list views of the same code. Exhaustive audits sweep
parameter or coefficient spaces; converse sweeps report extras instead of
asserting their absence, since the necessity direction of the family
characterizations is asymptotic in m. Converse audits and the sparse
problem27 search are one search, _support_sweep: every coefficient row of
bounded support on a list of exponent pairs, one sweep row per orbit
of scaling and Frobenius (kernels.planar_orbit_sweep), while tested and
the budget count every row. _gapped_layout is the one list of the gapped pairs (i, i + jm):
the criteria's coefficient blocks and problem27's k=2 shape. Reports carry
their coefficient rows as the sweep's int64 arrays, split by boolean
masks, and hand them to the writer as arrays: cli._json prints each one
as the JSON of its hex strings, and fields.hex_grid lays them out there
and in AuditReport.to_csv.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import (BudgetError, Fe, TowerView, hex_grid, lex_chunks, vec_div,
                     vec_eval, vec_frob, vec_mul)

# ---------------------------------------------------------------------------
# Dembowski-Ostrom polynomials
# ---------------------------------------------------------------------------

class DOPoly:
    """sum c * x^(2^u + 2^v) with 0 <= u, v < n (u = v gives c * x^(2^(u+1))).

    Terms are normalized: duplicates of the pair (min(u, v), max(u, v))
    merged by coefficient addition, zero coefficients dropped, sorted by
    the exponent read as a function on the field (kernels.reduced_exponent:
    modulo 2^n - 1, a zero residue kept at 2^n - 1, never x^0). For
    u <= v < n the pair and that exponent determine each other.
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower: TowerView, terms):
        bits, n = tower.spec.bits, tower.spec.n
        merged: dict[tuple[int, int], int] = {}
        for coeff, u, v in terms:
            cb = bits(coeff)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"exponent pair ({u},{v}) out of range for n={n}")
            pair = (min(u, v), max(u, v))
            merged[pair] = merged.get(pair, 0) ^ cb
        self.tower = tower
        self.terms = tuple(sorted((kernels.reduced_exponent(n, (1 << u) + (1 << v)), cb, u, v)
                                  for (u, v), cb in merged.items() if cb != 0))

    @property
    def spec(self):
        return self.tower.spec

    def is_zero(self) -> bool:
        return not self.terms

    def as_row(self) -> tuple[list[int], np.ndarray]:
        """f as the rank kernel reads it: its exponents, and their
        coefficients as the one row of an int64 array."""
        return ([e for e, _, _, _ in self.terms],
                np.array([cb for _, cb, _, _ in self.terms], dtype=np.int64).reshape(1, -1))

    def exponent_pairs(self) -> set[tuple[int, int]]:
        return {(u, v) for _, _, u, v in self.terms}

    def eval(self, x) -> Fe:
        spec = self.spec
        xb = spec.bits(x)
        acc = 0
        for e, cb, _, _ in self.terms:
            acc ^= spec.mul(cb, spec.pow(xb, e))
        return Fe(acc, spec)

    def value_table(self) -> np.ndarray:
        """f(x) for every x, indexed by bits."""
        return vec_eval(self.spec, [((e,), cb) for e, cb, _, _ in self.terms],
                        [np.arange(self.spec.order, dtype=np.int64)])

    def __eq__(self, other):
        return (isinstance(other, DOPoly) and other.tower == self.tower
                and other.terms == self.terms)

    def __repr__(self):
        if not self.terms:
            return "DOPoly(0)"
        parts = [f"{cb:x}*x^(2^{u}+2^{v})" for _, cb, u, v in self.terms]
        return "DOPoly(" + " + ".join(parts) + f") over {self.tower!r}"

    def spec_string(self) -> str:
        return ";".join(f"({cb:x},{u},{v})" for _, cb, u, v in self.terms)

    @classmethod
    def parse(cls, s: str, tower: TowerView) -> "DOPoly":
        """Parse "(coeff_hex,u,v);(coeff_hex,u,v);..." (empty = zero)."""
        s = s.strip()
        terms = []
        if s:
            for chunk in s.split(";"):
                chunk = chunk.strip()
                if not (chunk.startswith("(") and chunk.endswith(")")):
                    raise ValueError(f"bad term {chunk!r}; expected (coeff_hex,u,v)")
                parts = [p.strip() for p in chunk[1:-1].split(",")]
                if len(parts) != 3:
                    raise ValueError(f"bad term {chunk!r}; expected (coeff_hex,u,v)")
                terms.append((int(parts[0], 16), int(parts[1]), int(parts[2])))
        return cls(tower, terms)

    def to_json(self) -> list[dict]:
        return [{"coeff": f"{cb:x}", "u": u, "v": v} for _, cb, u, v in self.terms]


# ---------------------------------------------------------------------------
# Planarity predicates
# ---------------------------------------------------------------------------

def is_planar_bruteforce(f: DOPoly) -> bool:
    """Definition test: every difference map hits every value exactly once.

    Runs kernels.planar_check_table on f's value table, which reads no
    exponent or coefficient. f's table has algebraic degree <= 2, so each
    difference map is affine and the check tests its linear part, read
    off the table, for nonsingularity: about n^2 2^n work (about 2.4 ms
    for a planar f over GF(2^14), 0.5 ms over GF(2^12))."""
    return kernels.planar_check_table(f.spec, f.value_table())


def is_planar_linearized(f: DOPoly) -> bool:
    """Rank test: the linear part of each difference map must be bijective."""
    return bool(kernels.planar_sweep(f.spec, *f.as_row())[0])


# ---------------------------------------------------------------------------
# No-root criteria for gapped coefficient shapes (towers of degree 2, 3, 4)
# ---------------------------------------------------------------------------

def _coeff_bits(c, t: TowerView, length: int, what: str) -> list[int]:
    """The element bits of the coefficients c, each read by
    t.spec.bits (an Fe of t's field or an int in range, else ValueError),
    and ValueError unless there are length of them."""
    out = list(map(t.spec.bits, c))
    if len(out) != length:
        raise ValueError(f"{what} expects {length} coefficients, got {len(out)}")
    return out


def _shifted(spec, coeffs, *offsets) -> list:
    """The vec_eval terms of sum_i (c_i x)^(2^j) = sum_i c_i^(2^j) x^(2^j),
    with j = offset - i mod n, once for each offset."""
    return [((1 << j,), spec.frob(ci, j))
            for i, ci in enumerate(coeffs) for j in ((o - i) % spec.n for o in offsets)]


def criterion_table_k2(c, t: TowerView) -> np.ndarray:
    """Values (per x) whose nonvanishing on x != 0 is planarity for the
    shape f = sum_i c_i x^(2^(m+i) + 2^i) over GF(q^2)."""
    if t.k != 2:
        raise ValueError("degree-2 criterion needs a tower with k=2")
    m, spec = t.m, t.spec
    cb = _coeff_bits(c, t, m, "criterion_table_k2")
    terms = [(((1 << m) + 1,), 1)] + _shifted(spec, cb, m + 1, 2 * m + 1)
    return vec_eval(spec, terms, [np.arange(spec.order, dtype=np.int64)])


def criterion_table_k3(c1, c2, t: TowerView) -> np.ndarray:
    """Same for f = sum c1_i x^(2^(m+i)+2^i) + sum c2_i x^(2^(2m+i)+2^i)
    over GF(q^3)."""
    if t.k != 3:
        raise ValueError("degree-3 criterion needs a tower with k=3")
    m, spec = t.m, t.spec
    c1b = _coeff_bits(c1, t, 2 * m, "criterion_table_k3 first block")
    c2b = _coeff_bits(c2, t, m, "criterion_table_k3 second block")
    xs = [np.arange(spec.order, dtype=np.int64)]
    power = lambda e: vec_eval(spec, [((e,), 1)], xs)
    a2 = vec_eval(spec, _shifted(spec, c2b, 3 * m) + _shifted(spec, c1b, 2 * m), xs)
    inner = vec_mul(spec, power(1 << m), vec_mul(spec, a2, a2))
    tr = inner ^ vec_frob(spec, inner, m) ^ vec_frob(spec, inner, 2 * m)
    return power((1 << (2 * m)) + (1 << m) + 1) ^ tr


def criterion_table_k4(c1, c2, c3, t: TowerView) -> np.ndarray:
    """Same for f = sum c1_i x^(2^i(q+1)) + sum c2_i x^(2^i(q^2+1)) +
    sum c3_i x^(2^i(q^3+1)) over GF(q^4)."""
    if t.k != 4:
        raise ValueError("degree-4 criterion needs a tower with k=4")
    m, spec = t.m, t.spec
    c1b = _coeff_bits(c1, t, 3 * m, "criterion_table_k4 first block")
    c2b = _coeff_bits(c2, t, 2 * m, "criterion_table_k4 second block")
    c3b = _coeff_bits(c3, t, m, "criterion_table_k4 third block")
    xs = [np.arange(spec.order, dtype=np.int64)]
    power = lambda e: vec_eval(spec, [((e,), 1)], xs)
    a2 = vec_eval(spec, _shifted(spec, c2b, 4 * m, 2 * m), xs)
    a3 = vec_eval(spec, _shifted(spec, c3b, 4 * m) + _shifted(spec, c1b, 3 * m), xs)

    sq = lambda v: vec_frob(spec, v, 1)
    a2q = vec_frob(spec, a2, m)
    a2sq = vec_mul(spec, a2, a2)
    acc = power((1 << 3 * m) + (1 << 2 * m) + (1 << m) + 1)
    acc ^= sq(vec_mul(spec, a2, a2q))                                   # A2^(2q+2)
    t3 = sq(vec_mul(spec, a3, vec_frob(spec, a3, 2 * m)))               # A3^(2q^2+2)
    acc ^= t3
    acc ^= vec_frob(spec, t3, m)                                        # A3^(2q^3+2q)
    w = vec_mul(spec, power((1 << 3 * m) + (1 << m)), a2sq)
    acc ^= w ^ vec_frob(spec, w, m)        # x^(q^2+1) A2^(2q) + x^(q^3+q) A2^2, x^(q^4) = x
    trv = vec_mul(spec, power((1 << 2 * m) + (1 << m)), vec_mul(spec, a3, a3))
    acc ^= trv ^ vec_frob(spec, trv, m) ^ vec_frob(spec, trv, 2 * m) ^ vec_frob(spec, trv, 3 * m)
    return acc


def _gapped_layout(t: TowerView) -> list[tuple[int, int]]:
    """The exponent pairs (i, i + jm) of the gapped shape over GF(q^k), for
    j = 1..k-1 and i < (k-j)m, in one block per j: the coefficient positions
    of the no-root criteria, and at k = 2 those of the problem27 search."""
    m, k = t.m, t.k
    return [(i, i + j * m) for j in range(1, k) for i in range((k - j) * m)]


def criterion_lists(f: DOPoly):
    """Map a DOPoly onto the criterion coefficient blocks, if its shape fits.

    Terms where both exponents coincide are additive and never change
    planarity, so they are skipped. Returns None when another term lies
    off the gapped layout (its exponent gap is not a multiple of m): the
    criteria do not cover that shape.
    """
    t = f.tower
    if t.k not in (2, 3, 4):
        return None
    terms = [(cb, u, v) for _, cb, u, v in f.terms if u != v]
    try:
        row = _layout_rows("gapped", _gapped_layout(t), terms, 1)[0].tolist()
    except ValueError:
        return None
    ends = list(itertools.accumulate((t.k - j) * t.m for j in range(1, t.k)))
    return [row[start:end] for start, end in zip([0] + ends, ends)]


def planar_by_criterion(f: DOPoly):
    """Criterion verdict for f: no zero of its criterion table (k = 2, 3
    or 4) at x != 0. None when the shape is not covered."""
    lists = criterion_lists(f)
    if lists is None:
        return None
    table = (criterion_table_k2, criterion_table_k3, criterion_table_k4)[f.tower.k - 2]
    return not bool(np.any(table(*lists, f.tower)[1:] == 0))


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyParams:
    family: str
    params: tuple
    tower: TowerView


@dataclass(frozen=True)
class Family:
    """One coefficient family: where it lives, what it admits, what it builds.

    k is the natural tower degree (None: the caller picks the degree and m
    must be 1); tower_ok states any further condition on (m, k). A
    parameter is a tuple of arity field elements, drawn from the whole
    field or, with subfield set, from GF(q). Both pieces that read it are
    array-valued: each parameter position is an int64 column of element
    bits, one row per parameter. admits(t, *cols) returns a bool mask (or
    True for every row), and terms(t, *cols) lists the (coefficient
    column, u, v) terms of the family polynomials, a constant coefficient
    standing for every row. Quotients are zero-safe (fields.vec_div), and
    rows that admits rejects may give any coefficients. shape gives the
    exponent pairs of the coefficient space a converse audit sweeps.
    companion(t, coeffs) gives, for the coefficient bits coeffs on that
    shape, the Frobenius-orbit generators of the companion polynomial:
    {exponent tuple: coefficient bits}, one term per orbit, which
    surfaces.build_G expands into its conjugates. Exponent indices are
    taken mod n, so small m needs no special case.
    """
    tag: str
    k: int | None
    terms: Callable
    arity: int = 1
    admits: Callable = lambda t, *cols: True
    admits_msg: str = ""
    tower_ok: Callable[[int, int], bool] = lambda m, k: True
    tower_msg: str = ""
    subfield: bool = False
    shape: Callable[[int], list[tuple[int, int]]] | None = None
    companion: Callable | None = None


def _p2_delta(t, u, v) -> np.ndarray:
    """Delta(u, v) = u v^q + u^q v^(q^2) + u^(q^2) v + N(u) + N(v), per row."""
    mul = functools.partial(vec_mul, t.spec)
    u1, u2 = t.vec_frobq(u), t.vec_frobq(u, 2)
    v1, v2 = t.vec_frobq(v), t.vec_frobq(v, 2)
    return (mul(u, v1) ^ mul(u1, v2) ^ mul(u2, v)
            ^ mul(mul(u, u1), u2) ^ mul(mul(v, v1), v2))


def _p2_terms(t, u, v):
    m, spec = t.m, t.spec
    mul = functools.partial(vec_mul, spec)
    uq, uq2 = t.vec_frobq(u), t.vec_frobq(u, 2)
    vq, vq2 = t.vec_frobq(v), t.vec_frobq(v, 2)
    den = 1 ^ _p2_delta(t, u, v)
    a = vq ^ mul(uq, uq2) ^ mul(mul(uq2, v), vq)
    b = mul(uq2, vq)
    c = mul(vq, vq2) ^ uq2 ^ mul(mul(u, uq2), vq)
    return [(vec_div(spec, a, den), 0, m), (vec_div(spec, b, den), m, 2 * m),
            (vec_div(spec, c, den), 0, 2 * m)]


def _p1_terms(t, s):
    return [(vec_div(t.spec, t.vec_frobq(s), 1 ^ t.vec_rel_norm(s)), 0, t.m)]


def _p4a_norm(t, s1):
    """s1^(1 + q^2), per row."""
    return vec_mul(t.spec, s1, t.vec_frobq(s1, 2))


def _p4a_terms(t, s1):
    return [(vec_div(t.spec, t.vec_frobq(s1, 2), 1 ^ _p4a_norm(t, s1)), 0, 2 * t.m)]


def _p4b_terms(t, s2):
    m, spec = t.m, t.spec
    mul = functools.partial(vec_mul, spec)
    den = 1 ^ t.vec_rel_norm(s2)
    s2q, s2q2, s2q3 = t.vec_frobq(s2), t.vec_frobq(s2, 2), t.vec_frobq(s2, 3)
    return [(vec_div(spec, mul(mul(s2q, s2q2), s2q3), den), 0, m),
            (vec_div(spec, mul(s2q2, s2q3), den), 0, 2 * m),
            (vec_div(spec, s2q3, den), 0, 3 * m)]


def _scherr_zieve_admits(t, c):
    e = (1 << 2 * t.m) + (1 << t.m) + 1
    power = lambda d: vec_eval(t.spec, [((d,), 1)], [c])
    return (power(e) == 1) & (power(e // 3) != 1)


def _k4_shape(m):
    return [(0, m), (0, 2 * m), (0, 3 * m)]


# Companion orbit generators, one term per orbit of the cyclic variable
# shift; surfaces.build_G adds their conjugates.

def _p1_companion(t, coeffs):
    a, b = coeffs
    return {(1, 1): 1, (2, 0): t.spec.sqr(a), (1, 0): b}


def _p2_companion(t, coeffs):
    a, b, c = (t.spec.sqr(x) for x in coeffs)
    return {(1, 1, 1): 1, (3, 0, 0): b, (2, 1, 0): c, (2, 0, 1): a}


def _p3_companion(t, coeffs):
    a, b, c = coeffs
    return {(1, 1, 1): 1, (1, 1, 0): c ^ t.spec.frob(a, t.m), (2, 0, 0): b}


def _k4_companion(t, coeffs):
    a, b, c = (t.spec.sqr(x) for x in coeffs)
    mul, fr = t.spec.mul, lambda x, j: t.spec.frob(x, j * t.m)
    return {(1, 1, 1, 1): 1,
            (2, 2, 0, 0): mul(b, fr(b, 1)) ^ mul(fr(a, 1), c),
            (2, 0, 2, 0): mul(c, fr(c, 2)) ^ mul(a, fr(a, 2)),
            (2, 1, 0, 1): b, (2, 1, 1, 0): c, (2, 0, 1, 1): a}


REGISTRY = {f.tag: f for f in (
    Family("P1", 2, _p1_terms,
           admits=lambda t, s: t.vec_rel_norm(s) != 1,
           admits_msg="P1 needs s with s^(1+q) != 1",
           shape=lambda m: [(0, m), (1, m + 1)], companion=_p1_companion),
    Family("P2", 3, _p2_terms, arity=2,
           admits=lambda t, u, v: _p2_delta(t, u, v) != 1,
           admits_msg="P2 needs (u,v) with Delta != 1",
           shape=lambda m: [(0, m), (m, 2 * m), (0, 2 * m)], companion=_p2_companion),
    Family("P3", 3, lambda t, a: [(a, 1, t.m + 1), (t.vec_frobq(a), 1, 2 * t.m + 1)],
           shape=lambda m: [(1, m + 1), (m + 1, 2 * m + 1), (1, 2 * m + 1)],
           companion=_p3_companion),
    Family("P4a", 4, _p4a_terms,
           admits=lambda t, s1: _p4a_norm(t, s1) != 1,
           admits_msg="P4a needs s1 with s1^(1+q^2) != 1",
           shape=_k4_shape, companion=_k4_companion),
    Family("P4b", 4, _p4b_terms,
           admits=lambda t, s2: t.vec_rel_norm(s2) != 1,
           admits_msg="P4b needs s2 with s2^(1+q+q^2+q^3) != 1",
           shape=_k4_shape, companion=_k4_companion),
    Family("SZ-monomial", 2, lambda t, c: [(c, 0, t.m)], subfield=True,
           admits=lambda t, c: (c != 0) & (t.vec_frobq(c) == c)
           & (t.vec_abs_trace_base(c) == 0),
           admits_msg="monomial family needs trace-zero c in GF(q)*"),
    Family("SZ-generalized", 2, lambda t, c: [(c, 0, t.m)],
           admits=lambda t, c: (c != 0) & (t.vec_abs_trace_base(t.vec_rel_norm(c)) == 0),
           admits_msg="generalized monomial family needs c != 0 with trace-zero c^(1+q)"),
    Family("ScherrZieve", 3, lambda t, c: [(c, t.m, 2 * t.m)],
           admits=_scherr_zieve_admits,
           admits_msg="needs c^(q^2+q+1) = 1 and c^((q^2+q+1)/3) != 1",
           tower_ok=lambda m, k: m % 2 == 0, tower_msg="this monomial family needs m even"),
    Family("Hu2", 3, lambda t: [(1, 0, t.m), (1, t.m, 2 * t.m)], arity=0,
           tower_ok=lambda m, k: m % 3 != 2,
           tower_msg="this binomial family needs m != 2 (mod 3)"),
    Family("Hu3", 3, lambda t: [(1, 0, 2 * t.m), (1, t.m, 2 * t.m)], arity=0,
           tower_ok=lambda m, k: m % 3 != 1,
           tower_msg="this binomial family needs m != 1 (mod 3)"),
    Family("Knuth", None,
           lambda t: [(1, 0, 1), (1, 1, 1)] + [(1, 1, j) for j in range(2, t.k)], arity=0,
           tower_ok=lambda m, k: m == 1 and k % 2 == 1 and k >= 3,
           tower_msg="the binary-semifield companion is viewed over GF(2) (m=1) "
                     "with odd degree k >= 3 (at k=1 its two terms cancel)"),
)}

FAMILIES = tuple(REGISTRY)


def family_record(fam: str, t: TowerView | None = None) -> Family:
    """The registry record of fam; with a tower, also check that fam lives there."""
    rec = REGISTRY.get(fam)
    if rec is None:
        raise ValueError(f"unknown family tag {fam!r}; expected one of {FAMILIES}")
    if t is not None:
        if rec.k is not None and t.k != rec.k:
            raise ValueError(f"{fam} lives on a k={rec.k} tower")
        if not rec.tower_ok(t.m, t.k):
            raise ValueError(rec.tower_msg)
    return rec


def _admitted(rec: Family, t: TowerView, rows: np.ndarray) -> np.ndarray:
    """rec.admits on parameter rows, as one bool per row."""
    return np.broadcast_to(rec.admits(t, *rows.T), rows.shape[:1])


def _term_columns(rec: Family, t: TowerView, rows: np.ndarray) -> list:
    """(coefficient column, u, v) for each term of rec's polynomials on the
    parameter rows, one coefficient per row, exponent indices mod n."""
    n = t.spec.n
    return [(np.broadcast_to(np.asarray(c, dtype=np.int64), rows.shape[:1]), u % n, v % n)
            for c, u, v in rec.terms(t, *rows.T)]


def family_param_rows(fam: str, t: TowerView, budget: int | None = None) -> np.ndarray:
    """All admissible parameters as the rows of an int64 array (arity
    columns of element bits), in lexicographic order: tuples over the
    field, or over the q-subfield for a subfield family, listed in blocks
    by fields.lex_chunks. With a budget, raise BudgetError as soon as
    more than budget rows are admissible, before listing the rest."""
    rec = family_record(fam, t)
    pool = t.subfield_bits() if rec.subfield else np.arange(t.spec.order, dtype=np.int64)
    kept, count = [], 0
    for block in lex_chunks((pool.size,) * rec.arity):
        block = pool[block]
        kept.append(block[_admitted(rec, t, block)])
        count += kept[-1].shape[0]
        if budget is not None and count > budget:
            raise BudgetError(f"admissible parameters exceed the audit budget {budget}")
    return np.concatenate(kept)


def family_coeffs(p: FamilyParams) -> DOPoly:
    """Concrete polynomial for admissible family parameters: one row of
    the record's admits and terms."""
    t = p.tower
    rec = family_record(p.family, t)
    row = np.array(_coeff_bits(p.params, t, rec.arity, p.family),
                   dtype=np.int64).reshape(1, rec.arity)
    if not _admitted(rec, t, row)[0]:
        raise ValueError(rec.admits_msg)
    return DOPoly(t, [(int(c[0]), u, v) for c, u, v in _term_columns(rec, t, row)])


def family_param_space(fam: str, t: TowerView) -> list[FamilyParams]:
    """All admissible parameters, sorted by integer encoding: the rows of
    family_param_rows as tuples of field elements."""
    return [FamilyParams(fam, tuple(t.fe(b) for b in row), t)
            for row in family_param_rows(fam, t).tolist()]


def family_shape(fam: str, t: TowerView) -> list[tuple[int, int]]:
    """Exponent pairs of the family's coefficient shape (sweep layout), mod n."""
    rec = family_record(fam)
    if rec.shape is None:
        raise ValueError(f"no coefficient-space shape for family {fam!r}")
    n = t.spec.n
    pairs = [(min(u % n, v % n), max(u % n, v % n)) for u, v in rec.shape(t.m)]
    if len(set(pairs)) != len(pairs):
        raise ValueError(f"two columns of the {fam} shape coincide at m={t.m}")
    return pairs


def _layout_rows(fam: str, layout, terms, nrows: int) -> np.ndarray:
    """Coefficient rows on a layout of exponent pairs: each term column
    (u, v taken mod n) added into the column of its exponent pair."""
    out = np.zeros((nrows, len(layout)), dtype=np.int64)
    for c, u, v in terms:
        pair = (min(u, v), max(u, v))
        if pair not in layout:
            raise ValueError(f"term x^(2^{u}+2^{v}) lies outside the {fam} shape")
        out[:, layout.index(pair)] ^= c
    return out


def family_tuple(fam: str, f: DOPoly, t: TowerView) -> tuple[int, ...]:
    """f's coefficients on the family's shape, one per exponent pair."""
    terms = [(cb, u, v) for _, cb, u, v in f.terms]
    return tuple(_layout_rows(fam, family_shape(fam, t), terms, 1)[0].tolist())


# ---------------------------------------------------------------------------
# The coefficient sets of the degree-2 monomial correspondence, read from the
# registry: the monomial coefficients of SZ-generalized and the P1 term
# ---------------------------------------------------------------------------

def norm_trace_zero_set(t: TowerView) -> set[Fe]:
    """{c in GF(q^2) : absolute trace of c^(1+q) over GF(q) is 0}: zero and
    the SZ-generalized parameters."""
    return {t.fe(c) for c in [0] + family_param_rows("SZ-generalized", t)[:, 0].tolist()}


def _p1_image(t: TowerView) -> tuple[np.ndarray, np.ndarray]:
    """The P1 parameters s and their monomial coefficients s^q/(1+s^(1+q))."""
    s = family_param_rows("P1", t)
    ((c, _, _),) = _term_columns(REGISTRY["P1"], t, s)
    return s[:, 0], c


def fraction_image_set(t: TowerView) -> set[Fe]:
    """{s^q / (1 + s^(1+q)) : s in GF(q^2), s^(1+q) != 1}."""
    return {t.fe(c) for c in np.unique(_p1_image(t)[1]).tolist()}


def fraction_map_two_to_one(t: TowerView) -> bool:
    """The map s -> s^q/(1+s^(1+q)) pairs s with s^(-q) and nothing else,
    over nonzero s outside the norm-1 subgroup."""
    s, img = _p1_image(t)
    s, img = s[s != 0], img[s != 0]
    partner = vec_div(t.spec, 1, t.vec_frobq(s))  # s^(-q), again in the domain
    image_of = np.zeros(t.spec.order, dtype=np.int64)
    image_of[s] = img
    _, counts = np.unique(img, return_counts=True)
    return bool((counts == 2).all() and (partner != s).all()
                and (image_of[partner] == img).all())


# ---------------------------------------------------------------------------
# Exhaustive audits
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class AuditReport:
    """An audit's verdicts. planar, extras and failures are int64
    coefficient rows, one column per layout pair; an empty one keeps its
    width. to_json hands them over as arrays, which cli._json writes as
    hex strings, and to_csv lays them out through fields.hex_grid."""
    family: str
    q: int
    k: int
    mode: str
    tested: int
    planar: np.ndarray
    extras: np.ndarray
    failures: np.ndarray

    def to_json(self) -> dict:
        return {
            "family": self.family, "q": self.q, "k": self.k, "mode": self.mode,
            "tested": self.tested, "planar": self.planar,
            "extras": self.extras, "failures": self.failures,
        }

    def to_csv(self) -> str:
        """A header c0,c1,... and one line per planar row, the cell grid of
        fields.hex_grid joined once; no rows is one empty line."""
        if self.planar.size == 0:
            return "\n" * (len(self.planar) + 1)
        header = ",".join(f"c{i}" for i in range(self.planar.shape[1]))
        return header + "\n" + "".join(hex_grid(self.planar, ",", "\n").ravel().tolist())


def family_audit(fam: str, t: TowerView, mode: str, budget: int = 1 << 22) -> AuditReport:
    """Sufficiency: every admissible parameter must give a planar function.
    Converse: find every planar tuple of the family's shape (_support_sweep
    over its full support), and report those outside the family image
    (never assert absence).

    Both build the family image through arrays: one coefficient row per
    admissible parameter (family_param_rows, the record's term columns) on
    one layout, the family's shape or else its term pairs ordered by
    reduced exponent. Converse tests each planar tuple for membership in
    the image. Sufficiency maps the image to its scaling normal forms
    (kernels.normal_form; a row is planar iff its normal form is), sweeps
    each distinct form once and reads the verdicts back onto the image
    rows, so planar and failures list image rows in image order."""
    if mode not in ("sufficiency", "converse"):
        raise ValueError("mode must be 'sufficiency' or 'converse'")
    spec = t.spec
    rec = family_record(fam)
    converse = mode == "converse"
    if converse:  # an over-budget sweep stops before the image is built
        shape = family_shape(fam, t)
        tested, rows = _support_sweep(spec, shape, len(shape), budget)
    params = family_param_rows(fam, t, None if converse else budget)
    terms = _term_columns(rec, t, params)
    if rec.shape is not None:
        layout = family_shape(fam, t)
    else:
        layout = sorted({(min(u, v), max(u, v)) for _, u, v in terms}, key=lambda uv:
                        kernels.reduced_exponent(spec.n, (1 << uv[0]) + (1 << uv[1])))
    image = _layout_rows(fam, layout, terms, len(params))
    if converse:
        return AuditReport(fam, t.q, t.k, mode, tested, rows, rows[~_rows_in(rows, image, spec.n)],
                           rows[:0])
    exponents = [(1 << u) + (1 << v) for u, v in layout]
    forms = kernels.normal_form(spec, exponents, image)
    if forms.shape[1] * spec.n <= 63:  # one int64 key per form: sweep each distinct one once
        _, first, inverse = np.unique(_row_keys(forms, spec.n), return_index=True,
                                      return_inverse=True)
    else:  # Knuth's parameter-free layout, k columns over GF(2^k) for k >= 9: its one row
        first = inverse = np.arange(len(forms))
    mask = kernels.planar_sweep(spec, exponents, forms[first])[inverse]
    return AuditReport(fam, t.q, t.k, mode, len(params), image[mask], image[:0], image[~mask])


def _support_sweep(spec, pairs, support: int, budget: int) -> tuple[int, np.ndarray]:
    """(tested, rows): the planar coefficient rows on the exponent pairs
    (u, v) whose support has at most support columns, found with one sweep
    row per orbit of scaling and Frobenius on each support pattern
    (kernels.planar_orbit_sweep). tested counts every such row,
    sum_(s <= support) C(w, s) (2^n - 1)^s for w pairs, which is order^w at
    support = w; BudgetError when it exceeds budget, before any sweep."""
    width = len(pairs)
    tested = sum(math.comb(width, s) * (spec.order - 1) ** s for s in range(support + 1))
    if tested > budget:
        raise BudgetError(f"coefficient space of size {tested} exceeds the budget {budget}")
    patterns = [p for s in range(support + 1) for p in itertools.combinations(range(width), s)]
    exponents = [(1 << u) + (1 << v) for u, v in pairs]
    return tested, kernels.planar_orbit_sweep(spec, exponents, patterns)


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One int64 key per row of n-bit elements: the row's base-2^n digits,
    first column most significant, so distinct rows get distinct keys and
    keys order as the rows do lexicographically. ValueError when a row of
    rows.shape[1] digits needs more than 63 bits. Every family shape has
    width <= 3, so n <= 20 fits; of the other layouts only Knuth's k
    columns over GF(2^k) pass 63 bits, at k >= 9."""
    width = rows.shape[1]
    if width * n > 63:
        raise ValueError(f"{width} columns of {n} bits do not fit an int64 key")
    return rows @ (1 << n * np.arange(width - 1, -1, -1, dtype=np.int64))


def _rows_in(rows: np.ndarray, table: np.ndarray, n: int) -> np.ndarray:
    """Whether each int64 row of rows, n-bit elements, is a row of table
    (same width)."""
    return np.isin(_row_keys(rows, n), _row_keys(table, n))


def offdiagonal_search(t: TowerView, support_size: int, budget: int = 1 << 22) -> dict:
    """Sweep sparse coefficient vectors of the k=2 gapped shape
    f = sum_i c_i x^(2^(m+i)+2^i) and collect every planar vector whose
    support reaches past index 0 (candidate violations of the conjectured
    single-coefficient shape). Every support of at most support_size
    positions of the k=2 _gapped_layout is covered (_support_sweep); the
    budget counts every vector. planar,
    candidates and in_shape are int64 rows of the m coefficients; off marks
    the planar rows that are candidates. An empty candidate list at this
    scale is evidence, not proof."""
    if t.k != 2:
        raise ValueError("the sparse-shape search needs a k=2 tower")
    if support_size > 3:
        raise ValueError("support_size is capped at 3")
    support_size = min(support_size, t.m)
    tested, rows = _support_sweep(t.spec, _gapped_layout(t), support_size, budget)
    off = rows[:, 1:].any(axis=1)
    return {
        "m": t.m, "q": t.q, "support": support_size, "tested": tested,
        "planar": rows, "candidates": rows[off], "in_shape": rows[~off], "off": off,
    }
