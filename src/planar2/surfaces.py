"""Hypersurface side of the planarity criteria.

Each supported coefficient shape has a companion polynomial G in k
variables over GF(q^k): substituting the Frobenius orbit
(eps, eps^q, ..., eps^(q^(k-1))) reproduces the single-variable criterion
value pointwise, so planarity is exactly "G has no zero on a nonzero
orbit". The family registry holds G as one generator term per Frobenius
orbit (Family.companion), and build_G adds the conjugates of each.
Reducibility of G explains which coefficients can be planar:
the relevant factorizations are products of Frobenius-conjugate linear
forms. linear_factor_search recovers them by exact division, trying only
the forms whose coefficients are roots of G on the axis lines
c e_p + e_j: about k^2 q^k evaluations, not q^(2k) candidate forms. A
screen on fixed points of a form's hyperplane decides every division,
repeats included; an exact division confirms each form it passes.

MvPoly is the algebra under all of it: its constructor is the one place
that XOR-merges terms (sums, products and substitutions hand it their
term lists) and reads every coefficient through fields.FieldSpec.bits, as
LinearForm and MvPoly.evaluate do, so an element of another field is a
ValueError; MvPoly.linear is the one builder of sum_i c_i x_i, and
MvPoly.evaluate_vec hands its terms to fields.vec_eval, the one
polynomial evaluator. Orbit values are read from orbit_value_table.

Via a normal basis the orbit substitution turns G into a polynomial over
GF(q) in k affine coordinates (specialize_normal); homogenizing and
counting projective points connects to the quantitative bound
rhs = (d-1)(d-2) q^(k-3/2) + 5 d^(13/3) q^(k-2) on the deviation of an
absolutely irreducible degree-d hypersurface from q^(k-1) points. The
fractional powers are rounded up in exact integer arithmetic so the
asserted inequality is conservative. Absolute irreducibility itself is
never decided here; langweil_check takes it as a caller-supplied
certificate.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .fields import BudgetError, FieldSpec, TowerView, lex_chunks, vec_eval, vec_frob, vec_mul
from .planar import REGISTRY, DOPoly, family_record, family_shape, family_tuple

COUNT_LIMIT = 1 << 24  # affine/projective enumeration budget (points)


# ---------------------------------------------------------------------------
# Dense-dict multivariate polynomials
# ---------------------------------------------------------------------------

class MvPoly:
    """Multivariate polynomial over a FieldSpec; terms map exponent tuples
    to nonzero coefficient bits.

    The constructor is the one place that adds terms: it takes a mapping
    or an iterable of (exponent tuple, coefficient) pairs, reads each
    coefficient as it arrives (FieldSpec.bits: an Fe of spec or an int in
    range), XOR-adds equal tuples, drops zero sums, and only then checks
    each kept tuple. Sums, products and substitutions hand it their terms.
    """

    __slots__ = ("spec", "nvars", "terms")

    def __init__(self, spec: FieldSpec, nvars: int, terms=()):
        bits = spec.bits
        merged: dict[tuple[int, ...], int] = {}
        for exps, c in (terms.items() if hasattr(terms, "items") else terms):
            merged[exps] = merged.get(exps, 0) ^ bits(c)
        clean = {}
        for exps, c in merged.items():
            if not c:
                continue
            if len(exps) != nvars or min(exps, default=0) < 0:
                raise ValueError(f"bad exponent tuple {exps} for {nvars} variables")
            clean[tuple(map(int, exps))] = c
        self.spec = spec
        self.nvars = nvars
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, spec, nvars, c):
        return cls(spec, nvars, {(0,) * nvars: c})

    @classmethod
    def linear(cls, spec, coeffs):
        """sum_i c_i x_i in len(coeffs) variables: the one builder of a
        linear polynomial."""
        n = len(coeffs)
        return cls(spec, n, ((tuple(int(j == i) for j in range(n)), c)
                             for i, c in enumerate(coeffs)))

    @classmethod
    def variable(cls, spec, nvars, i):
        coeffs = [0] * nvars
        coeffs[i] = 1
        return cls.linear(spec, coeffs)

    # -- ring operations ----------------------------------------------------

    def _compat(self, other: "MvPoly"):
        if self.spec != other.spec or self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "MvPoly") -> "MvPoly":
        self._compat(other)
        return MvPoly(self.spec, self.nvars,
                      itertools.chain(self.terms.items(), other.terms.items()))

    def __mul__(self, other: "MvPoly") -> "MvPoly":
        self._compat(other)
        mul = self.spec.mul
        return MvPoly(self.spec, self.nvars,
                      ((tuple(map(operator.add, e1, e2)), mul(c1, c2))
                       for e1, c1 in self.terms.items() for e2, c2 in other.terms.items()))

    def __pow__(self, e: int) -> "MvPoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        out = MvPoly.constant(self.spec, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, MvPoly) and other.spec == self.spec
                and other.nvars == self.nvars and other.terms == self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- substitution and evaluation -----------------------------------------

    def substitute(self, mapping: dict[int, "MvPoly"]) -> "MvPoly":
        """Simultaneously replace variables by polynomials (same ring); an
        unmapped variable stays itself."""
        powers: dict[tuple[int, int], MvPoly] = {}
        products = []
        for exps, cb in self.terms.items():
            term = MvPoly.constant(self.spec, self.nvars, cb)
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in powers:
                        base = (mapping[i] if i in mapping
                                else MvPoly.variable(self.spec, self.nvars, i))
                        powers[i, e] = base ** e
                    term = term * powers[i, e]
            products.extend(term.terms.items())
        return MvPoly(self.spec, self.nvars, products)

    def evaluate(self, point) -> int:
        return int(self.evaluate_vec([self.spec.bits(p) for p in point]))

    def evaluate_vec(self, columns) -> np.ndarray:
        """Evaluate on many points at once (fields.vec_eval). columns[i]
        holds variable i as a scalar or an array; the columns broadcast
        against each other."""
        if len(columns) != self.nvars:
            raise ValueError("point arity does not match the variable count")
        return vec_eval(self.spec, self.terms.items(), columns)

    # -- homogenization ---------------------------------------------------------

    def homogenize(self) -> "MvPoly":
        """Append one variable raising every term to the total degree."""
        d = self.degree()
        out = {e + (d - sum(e),): c for e, c in self.terms.items()}
        return MvPoly(self.spec, self.nvars + 1, out)

    # -- misc ---------------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "MvPoly(0)"
        names = "XYTSUVW"
        parts = []
        for exps, cb in sorted(self.terms.items(), reverse=True):
            mono = "".join(
                (names[i] if i < len(names) else f"X{i}") + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps) if e)
            parts.append((f"{cb:x}*" if cb != 1 or not mono else f"{cb:x}" if not mono else "") + mono)
        return "MvPoly(" + " + ".join(parts) + ")"

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "spec": self.spec.to_json(),
            "terms": [{"exp": list(e), "coeff": f"{c:x}"}
                      for e, c in sorted(self.terms.items())],
        }


# ---------------------------------------------------------------------------
# Linear forms
# ---------------------------------------------------------------------------

class LinearForm:
    """Homogeneous linear form, projectively normalized so the first
    nonzero coefficient is 1."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        cb = [spec.bits(c) for c in coeffs]
        lead = next((i for i, c in enumerate(cb) if c), None)
        if lead is None:
            raise ValueError("linear form must not be identically zero")
        if cb[lead] != 1:
            inv = spec.inv(cb[lead])
            cb = [spec.mul(inv, c) for c in cb]
        self.spec = spec
        self.coeffs = tuple(cb)

    @property
    def pivot(self) -> int:
        return next(i for i, c in enumerate(self.coeffs) if c)

    def to_mvpoly(self) -> MvPoly:
        return MvPoly.linear(self.spec, self.coeffs)

    def conjugate(self, t: TowerView) -> "LinearForm":
        """Coefficients raised to q, variables cyclically shifted."""
        k = len(self.coeffs)
        out = [0] * k
        for i, c in enumerate(self.coeffs):
            out[(i + 1) % k] = t.spec.frob(c, t.m)
        return LinearForm(self.spec, out)

    def __eq__(self, other):
        return (isinstance(other, LinearForm) and other.spec == self.spec
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.spec.n, self.coeffs))

    def __repr__(self):
        names = "XYTSUVW"
        parts = [f"{c:x}*{names[i]}" if c != 1 else names[i]
                 for i, c in enumerate(self.coeffs) if c]
        return "LinearForm(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# Companion polynomials: the registry's orbit generators and their conjugates
# ---------------------------------------------------------------------------

def build_G(f: DOPoly, t: TowerView, shape: str | None = None) -> MvPoly:
    """The k-variable companion polynomial of a supported-shape f.

    shape is a family tag; by default it is the first family on this
    tower degree with a companion whose shape holds f's exponent pairs.
    The record's companion gives one generator term per Frobenius orbit
    for f's coefficients on that shape; each term (e, c) contributes its
    conjugates, variable i moved to i + j and c raised to q^j, for j up
    to the period of e under the cyclic shift.
    """
    if f.tower != t:
        raise ValueError("polynomial belongs to a different tower")
    if shape is None:
        shape = next((rec.tag for rec in REGISTRY.values()
                      if rec.companion and rec.k == t.k
                      and f.exponent_pairs() <= set(family_shape(rec.tag, t))), None)
        if shape is None:
            raise ValueError(f"no companion shape of a k={t.k} family fits the polynomial")
    companion = family_record(shape, t).companion
    if companion is None:
        raise ValueError(f"family {shape!r} has no companion polynomial")
    terms: dict[tuple[int, ...], int] = {}
    for exps, c in companion(t, family_tuple(shape, f, t)).items():
        for j in range(t.k):
            conj = exps[t.k - j:] + exps[:t.k - j]
            if j and conj == exps:
                break
            terms[conj] = t.spec.frob(c, j * t.m)
    return MvPoly(t.spec, t.k, terms)


# ---------------------------------------------------------------------------
# Orbit evaluation
# ---------------------------------------------------------------------------

def orbit_value_table(G: MvPoly, t: TowerView) -> np.ndarray:
    """Orbit values of G for every eps, indexed by bits."""
    if G.nvars != t.k:
        raise ValueError("orbit evaluation needs one variable per Frobenius power")
    xs = np.arange(t.spec.order, dtype=np.int64)
    cols = [vec_frob(t.spec, xs, j * t.m) for j in range(t.k)]
    return G.evaluate_vec(cols)


def orbit_has_zero(G: MvPoly, t: TowerView) -> bool:
    vals = orbit_value_table(G, t)
    return bool(np.any(vals[1:] == 0))


# ---------------------------------------------------------------------------
# Normal-basis specialization to GF(q)
# ---------------------------------------------------------------------------

_ASYMMETRIC = ("specialized coefficients left GF(q); the input is not "
               "Frobenius-symmetric like build_G's companions")


def specialize_normal(G: MvPoly, t: TowerView) -> MvPoly:
    """Substitute the normal-basis coordinates and re-type over GF(q).

    build_G adds every conjugate of each generator term, so G is fixed by
    q-Frobenius on its coefficients combined with a cyclic shift of its
    variables. The normal-basis substitution x_j = sum_i y_i xi^(q^(i+j))
    turns that symmetry into q-Frobenius invariance of the result, whose
    coefficients therefore lie in GF(q). Input without that symmetry can
    leave GF(q) and raises RuntimeError.
    """
    if G.nvars != t.k:
        raise ValueError("specialization needs one variable per Frobenius power")
    spec = t.spec
    xi = t.normal_element.bits
    h = G.substitute({j: MvPoly.linear(spec, [spec.frob(xi, ((i + j) % t.k) * t.m)
                                              for i in range(t.k)])
                      for j in range(t.k)})
    if any(spec.frob(c, t.m) != c for c in h.terms.values()):
        raise RuntimeError(_ASYMMETRIC)

    base = t.base_field()
    out = {e: t.project_base(c).bits for e, c in h.terms.items()}
    return MvPoly(base, t.k, out)


# ---------------------------------------------------------------------------
# Point counting
# ---------------------------------------------------------------------------

def count_points_affine(P: MvPoly, budget: int = COUNT_LIMIT) -> int:
    """Exact number of affine zeros over the coefficient field, counted over
    fields.lex_chunks blocks of points."""
    total = P.spec.order ** P.nvars
    if total > budget:
        raise BudgetError(f"affine enumeration of {total} points exceeds the budget")
    return sum(int(np.count_nonzero(P.evaluate_vec(block.T) == 0))
               for block in lex_chunks((P.spec.order,) * P.nvars))


def count_points_projective(P: MvPoly, budget: int = COUNT_LIMIT) -> int:
    """Projective zeros of a homogeneous P, by normalized representatives
    (first nonzero coordinate = 1), counted over fields.lex_chunks blocks."""
    if not P.is_homogeneous() or P.is_zero():
        raise ValueError("projective count needs a nonzero homogeneous polynomial")
    spec = P.spec
    v = P.nvars
    total = sum(spec.order ** (v - 1 - p) for p in range(v))
    if total > budget:
        raise BudgetError(f"projective enumeration of {total} points exceeds the budget")
    return sum(int(np.count_nonzero(P.evaluate_vec([0] * p + [1] + list(block.T)) == 0))
               for p in range(v) for block in lex_chunks((spec.order,) * (v - 1 - p)))


def companion_zeros(G: MvPoly, t: TowerView,
                    budget: int = COUNT_LIMIT) -> tuple[int, int, bool]:
    """(count, d, orbit_has_zero(G, t)), where count and d are
    count_points_projective and the degree of
    specialize_normal(G, t).homogenize(), read off G's orbit values
    without building that polynomial.

    The normal-basis coordinates y of eps = sum_i y_i xi^(q^i) run over
    GF(q)^k exactly once as eps runs over GF(q^k), and the specialization
    psi takes the orbit value of G at eps. The substitution is linear and
    invertible, so it keeps the degree d and maps G_top, the degree-d part
    of G, to the top part of psi. With A(P) the number of eps, 0 included,
    whose orbit value under P is 0, the chart z = 1 of psi_h holds A(G)
    projective zeros and the hyperplane z = 0 holds those of psi's top
    part, (A(G_top) - 1)/(q - 1) (G_top(0) = 0 when d > 0). A nonzero
    constant has no zeros. When G is homogeneous, G_top = G and one table
    gives both.

    It raises where specialize_normal and count_points_projective would:
    RuntimeError unless each term (e, c) of G has c^q on its cyclic shift
    e[-1:] + e[:-1] (so G is fixed by the shift combined with c -> c^q,
    which is exactly when psi's coefficients lie in GF(q)), ValueError on
    zero G, and BudgetError past budget points of P^k.
    """
    if G.nvars != t.k:
        raise ValueError("specialization needs one variable per Frobenius power")
    frob = t.spec.frob
    if any(G.terms.get(e[-1:] + e[:-1]) != frob(c, t.m) for e, c in G.terms.items()):
        raise RuntimeError(_ASYMMETRIC)
    if G.is_zero():
        raise ValueError("projective count needs a nonzero homogeneous polynomial")
    q = t.q
    total = sum(q ** p for p in range(t.k + 1))
    if total > budget:
        raise BudgetError(f"projective enumeration of {total} points exceeds the budget")
    vals = orbit_value_table(G, t)
    affine = int(np.count_nonzero(vals == 0))
    d = G.degree()
    top = MvPoly(t.spec, t.k, {e: c for e, c in G.terms.items() if sum(e) == d})
    at_infinity = affine if top == G else int(np.count_nonzero(orbit_value_table(top, t) == 0))
    count = affine + (at_infinity - 1) // (q - 1) if d else 0
    return count, d, affine > (int(vals[0]) == 0)  # a zero besides eps = 0


# ---------------------------------------------------------------------------
# Linear-factor extraction
# ---------------------------------------------------------------------------

def divmod_linear(P: MvPoly, form: LinearForm) -> tuple[MvPoly, MvPoly]:
    """Exact division of P by a linear form; remainder has no pivot variable."""
    spec, piv = P.spec, form.pivot
    rest = MvPoly.linear(spec, [0 if i == piv else c for i, c in enumerate(form.coeffs)])
    bydeg: dict[int, dict] = {}
    for exps, c in P.terms.items():
        bydeg.setdefault(exps[piv], {})[exps[:piv] + (0,) + exps[piv + 1:]] = c
    carry, quot = MvPoly(spec, P.nvars), []
    for d in range(max(bydeg, default=0), 0, -1):
        carry = carry + MvPoly(spec, P.nvars, bydeg.get(d, {}))
        # carry has no pivot variable, so times x_piv^(d-1) sets that exponent
        quot.extend((e[:piv] + (d - 1,) + e[piv + 1:], c) for e, c in carry.terms.items())
        carry = carry * rest
    return MvPoly(spec, P.nvars, quot), carry + MvPoly(spec, P.nvars, bydeg.get(0, {}))


_PROBE_SEEDS = (1, 2, 3, 5, 7, 11, 13, 19)


def _vanishes_on_probes(P: MvPoly, pivot: int, cand: np.ndarray) -> np.ndarray:
    """One bool per row c of cand (c[pivot] = 1): whether P vanishes at the
    probes of the hyperplane X_pivot = sum_(j != pivot) c_j X_j, one per
    _PROBE_SEEDS entry with fixed nonzero coordinates off the pivot. A
    factor c . X of P passes, so a row that fails needs no division."""
    free = [i for i in range(P.nvars) if i != pivot]
    seeds = np.array(_PROBE_SEEDS, dtype=np.int64)[:, None]
    point = [(seeds * (r + 1) ** 2 + r) % (P.spec.order - 1) + 1 for r in range(len(free))]
    on_plane = np.zeros((len(seeds), len(cand)), dtype=np.int64)
    for x, i in zip(point, free):
        on_plane ^= vec_mul(P.spec, x, cand[:, i])
    point.insert(pivot, on_plane)  # one row per probe, one column per candidate
    return ~P.evaluate_vec(point).any(axis=0)


def linear_factor_search(G: MvPoly,
                         budget: int = 1 << 19) -> tuple[list[tuple[LinearForm, int]], MvPoly]:
    """Split off homogeneous linear factors with coefficients in G's field.

    For up to 3 variables every normalized form is a candidate. With 4
    variables the candidates are the forms supported on at most two
    variables, which covers every linear factor the supported quartic
    companion polynomials can acquire from planar coefficients (their
    split types force two zero coefficients). The budget counts that whole
    candidate space, but only a small part of it is tried:

    - X_i divides G exactly min_t e_t[i] times (the least exponent of x_i
      over G's terms); shifting those exponents out leaves G', which has
      no coordinate factor.
    - If L = X_p + sum c_j X_j divides G', the point c_j e_p + e_j lies on
      L = 0, so G' vanishes there; for c_j = 0 that point is e_j. One
      evaluation of G' on the axis lines c e_p + e_j, c over the whole
      field, gives for each pivot p the root sets that hold the c_j, and
      the candidates are their products.
    - Candidates are screened by exact evaluation at deterministic points
      of their hyperplane (a true factor vanishes there identically, so no
      factor is ever screened out), then divided out exactly. After each
      division the quotient is screened on the same form's points, so a
      further division is tried only where the form may divide again.

    That is about k^2 q^k evaluations on the axis lines, against q^(2k)
    candidates in the whole space for k = 3 over GF(q^k); a G' vanishing
    on a whole axis line falls back to every value there. Factors are
    listed by pivot, then support size, support positions and coefficients
    in lexicographic order. The product of the returned factors times the
    remainder equals G.
    """
    spec, v = G.spec, G.nvars
    support = v if v <= 3 else 2
    total = sum(
        sum(math.comb(v - 1 - piv, s) * (spec.order - 1) ** s for s in range(0, support))
        for piv in range(v))
    if total > budget:
        raise BudgetError(f"{total} candidate forms exceed the factor-search budget {budget}")
    if G.is_zero() or G.degree() < 1:
        return [], G
    coord = [min(e[i] for e in G.terms) for i in range(v)]
    work = MvPoly(spec, v, ((tuple(map(operator.sub, e, coord)), c) for e, c in G.terms.items()))
    factors: list[tuple[LinearForm, int]] = []
    for pivot in range(v):
        if coord[pivot]:
            factors.append((LinearForm(spec, [int(i == pivot) for i in range(v)]), coord[pivot]))
        if work.degree() < 1 or pivot == v - 1:
            continue
        free = [i for i in range(v) if i != pivot]
        lines = list(np.eye(len(free), dtype=np.int64)[:, :, None])
        lines.insert(pivot, np.arange(spec.order, dtype=np.int64))
        zero = work.evaluate_vec(lines) == 0  # zero[r, c]: G'(c e_pivot + e_free[r]) = 0
        # nonzero roots on the line of each later j, which is free[j - 1]
        roots = {j: np.flatnonzero(zero[j - 1, 1:]) + 1 for j in free[pivot:]}
        blocks = []
        for size in range(1, support):
            for positions in itertools.combinations(free[pivot:], size):
                if not all(zero[r, 0] for r, i in enumerate(free) if i not in positions):
                    continue
                # every tuple of the positions' roots, in lexicographic order
                grids = np.meshgrid(*(roots[j] for j in positions), indexing="ij")
                vals = np.stack(grids, axis=-1).reshape(-1, size)
                block = np.zeros((len(vals), v), dtype=np.int64)
                block[:, pivot] = 1
                block[:, list(positions)] = vals
                blocks.append(block)
        if not blocks:
            continue
        cand = np.concatenate(blocks)
        for row in cand[_vanishes_on_probes(work, pivot, cand)]:
            if work.degree() < 1:
                break
            form, mult, again = LinearForm(spec, [int(c) for c in row]), 0, True
            while again:  # the screen decides each repeat; a division confirms it
                q, r = divmod_linear(work, form)
                if not r.is_zero():
                    break
                work, mult = q, mult + 1
                again = _vanishes_on_probes(work, pivot, row[None])[0]
            if mult:
                factors.append((form, mult))
    return factors, work


# ---------------------------------------------------------------------------
# Quantitative point-count bound
# ---------------------------------------------------------------------------

def _ceil_sqrt(v: int) -> int:
    s = math.isqrt(v)
    return s if s * s == v else s + 1


def _ceil_cbrt(v: int) -> int:
    c = round(v ** (1.0 / 3.0))
    while c ** 3 < v:
        c += 1
    while c >= 1 and (c - 1) ** 3 >= v:
        c -= 1
    return c


def langweil_rhs(d: int, k: int, q: int) -> int:
    """(d-1)(d-2) q^(k-3/2) + 5 d^(13/3) q^(k-2), rounded up exactly."""
    if k < 2:
        raise ValueError("the bound is stated for projective dimension k >= 2")
    t1 = (d - 1) * (d - 2) * q ** (k - 2) * _ceil_sqrt(q)
    t2 = 5 * _ceil_cbrt(d ** 13) * q ** (k - 2)
    return t1 + t2


def langweil_bound(q: int, k: int, d: int, count: int, certified_irreducible: bool) -> dict:
    """Compare count, the projective points of a degree-d hypersurface in
    P^k over GF(q), against the deviation bound. The bound is only
    asserted when the caller certifies absolute irreducibility (decided
    elsewhere); without the certificate both sides are reported, nothing
    asserted."""
    expected = q ** (k - 1)
    rhs = langweil_rhs(d, k, q)
    holds = abs(count - expected) <= rhs
    report = {
        "q": q, "k": k, "d": d,
        "count": count, "expected": expected, "rhs": rhs,
        "bound_holds": holds,
        "bound_vacuous": rhs >= expected,
        "certified_irreducible": bool(certified_irreducible),
    }
    if certified_irreducible and not holds:
        raise RuntimeError(
            f"certified-irreducible hypersurface violates the point-count bound: {report}")
    return report


def langweil_check(Phom: MvPoly, certified_irreducible: bool,
                   budget: int = COUNT_LIMIT) -> dict:
    """langweil_bound on the projective point count of a homogeneous
    hypersurface, enumerated by count_points_projective."""
    if not Phom.is_homogeneous() or Phom.is_zero():
        raise ValueError("the bound applies to nonzero homogeneous polynomials")
    count = count_points_projective(Phom, budget)
    return langweil_bound(Phom.spec.order, Phom.nvars - 1, Phom.degree(), count,
                          certified_irreducible)
