"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Timed criteria (C01-C04, C12) time the library calls with no
warm-up: whatever those calls build first and cache (the sweep's forms;
in C03 and C12 the field tables too) is inside the time, unless an
earlier test in the same process built it. Converse sweeps report
findings and never fail on them.
"""

import time

import numpy as np

import planar2 as p2
from planar2 import semifields as sf
from planar2 import surfaces
from planar2.linearized import LinearizedPoly, is_permutation
from planar2.planar import (DOPoly, FamilyParams, criterion_lists, family_audit,
                            family_coeffs, family_param_space, planar_by_criterion)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num} failed: {detail}"


SHAPE_EXPS = {
    "P1": [(0, 2), (1, 3)],
    "P2": [(0, 2), (2, 4), (0, 4)],
    "P3": [(1, 3), (3, 5), (1, 5)],
    "P4": [(0, 2), (0, 4), (0, 6)],
}


def _random_shape_poly(shape: str, t, rng) -> DOPoly:
    exps = SHAPE_EXPS[shape]
    coeffs = rng.integers(0, t.spec.order, len(exps))
    return DOPoly(t, [(int(c), u, v) for c, (u, v) in zip(coeffs, exps)])


def test_c01_family1_sufficiency():
    elapsed = {}
    failures = 0
    for m in (2, 3, 4):
        t = p2.tower(m, 2)
        t0 = time.perf_counter()
        rep = family_audit("P1", t, "sufficiency")
        elapsed[1 << m] = time.perf_counter() - t0
        failures += len(rep.failures)
    ok = failures == 0 and elapsed[16] < 5.0
    _report(1, "degree-2 binomial family sufficiency q=4,8,16", ok,
            f"failures={failures}, q=16 in {elapsed[16]:.2f}s (< 5s)")


def test_c02_family2_sufficiency():
    t = p2.tower(2, 3)
    t0 = time.perf_counter()
    rep = family_audit("P2", t, "sufficiency")
    dt = time.perf_counter() - t0
    ok = len(rep.failures) == 0 and dt < 60.0
    _report(2, "degree-3 trinomial family sufficiency q=4", ok,
            f"{rep.tested} admissible pairs, failures={len(rep.failures)}, {dt:.2f}s (< 60s)")


def test_c03_family3_sufficiency():
    failures = 0
    t0 = time.perf_counter()
    for m in (2, 3):
        rep = family_audit("P3", p2.tower(m, 3), "sufficiency")
        failures += len(rep.failures)
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 30.0
    _report(3, "doubled-exponent trinomial family sufficiency q=4,8", ok,
            f"failures={failures}, {dt:.2f}s (< 30s)")


def test_c03_family3_converse_sweep():
    t = p2.tower(2, 3)
    rep = family_audit("P3", t, "converse")
    extras = {tuple(r) for r in rep.extras.tolist()}
    in_family = {tuple(r) for r in rep.planar.tolist()} - extras
    covered = all(tuple(r) in in_family or tuple(r) in extras for r in rep.planar.tolist())
    _report(3, "doubled-exponent trinomial converse sweep q=4 (report-only)", covered,
            f"tested={rep.tested}, planar={len(rep.planar)}, extras={len(rep.extras)}")


def test_c04_family4_sufficiency():
    t = p2.tower(2, 4)
    t0 = time.perf_counter()
    failures = 0
    tested = 0
    for fam in ("P4a", "P4b"):
        rep = family_audit(fam, t, "sufficiency")
        failures += len(rep.failures)
        tested += rep.tested
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt < 120.0
    _report(4, "degree-4 trinomial family sufficiency q=4 (both branches)", ok,
            f"{tested} params, failures={failures}, {dt:.2f}s (< 120s)")


def test_c05_criterion_equivalence():
    rng = np.random.default_rng(105)
    disagreements = 0
    tested = 0
    towers = {"P1": p2.tower(2, 2), "P2": p2.tower(2, 3),
              "P3": p2.tower(2, 3), "P4": p2.tower(2, 4)}
    for shape, t in towers.items():
        if shape == "P1":
            polys = [DOPoly(t, [(a, 0, 2), (b, 1, 3)])
                     for a in range(16) for b in range(16)]
        else:
            polys = [_random_shape_poly(shape, t, rng) for _ in range(200)]
        for f in polys:
            brute = p2.is_planar_bruteforce(f)
            rank = p2.is_planar_linearized(f)
            crit = planar_by_criterion(f)
            tested += 1
            if not (brute == rank == crit):
                disagreements += 1
    _report(5, "three-way planarity criterion equivalence q=4", disagreements == 0,
            f"{tested} tuples, disagreements={disagreements}")


def test_c06_dickson_permutation_test():
    rng = np.random.default_rng(106)
    disagreements = 0
    for k in (2, 3, 4):
        t = p2.tower(2, k)
        for _ in range(500):
            L = LinearizedPoly(t, [int(v) for v in rng.integers(0, t.spec.order, k)])
            bij = np.unique(L.value_table()).size == t.spec.order
            if is_permutation(L) != bij:
                disagreements += 1
    _report(6, "Dickson determinant vs exhaustive bijectivity", disagreements == 0,
            f"1500 polynomials, disagreements={disagreements}")


def test_c07_coefficient_set_correspondence():
    sizes = {}
    ok = True
    for m, expect in ((2, 6), (3, 28), (4, 120)):
        t = p2.tower(m, 2)
        M = p2.norm_trace_zero_set(t)
        N = p2.fraction_image_set(t)
        ok = ok and (M == N) and len(M) == expect
        sizes[1 << m] = len(M)
    two_to_one = all(p2.fraction_map_two_to_one(p2.tower(m, 2)) for m in (2, 3))
    _report(7, "trace-zero set equals fractional image; 2-to-1 map", ok and two_to_one,
            f"sizes={sizes}, two-to-one q=4,8 {two_to_one}")


def test_c08_surface_consistency():
    rng = np.random.default_rng(108)
    towers = {"P1": p2.tower(2, 2), "P2": p2.tower(2, 3),
              "P3": p2.tower(2, 3), "P4": p2.tower(2, 4)}
    mismatches = 0
    tested = 0
    for shape, t in towers.items():
        for _ in range(100):
            f = _random_shape_poly(shape, t, rng)
            g = surfaces.build_G(f, t, shape="P4a" if shape == "P4" else shape)
            orbit = surfaces.orbit_value_table(g, t)
            lists = criterion_lists(f)
            if t.k == 2:
                from planar2.planar import criterion_table_k2
                crit = criterion_table_k2(lists[0], t)
            elif t.k == 3:
                from planar2.planar import criterion_table_k3
                crit = criterion_table_k3(lists[0], lists[1], t)
            else:
                from planar2.planar import criterion_table_k4
                crit = criterion_table_k4(lists[0], lists[1], lists[2], t)
            tested += 1
            if not np.array_equal(orbit, crit):
                mismatches += 1
                continue
            if surfaces.orbit_has_zero(g, t) == p2.is_planar_bruteforce(f):
                mismatches += 1
    _report(8, "companion polynomial orbit consistency", mismatches == 0,
            f"{tested} tuples, mismatches={mismatches}")


def test_c09_factorization_recovery():
    bad = 0
    tested = 0
    for m in (2, 3):
        t = p2.tower(m, 2)
        spec = t.spec
        for p in family_param_space("P1", t):
            (s,) = p.params
            g = surfaces.build_G(family_coeffs(p), t, shape="P1")
            factors, rem = surfaces.linear_factor_search(g)
            got = {fm.coeffs: mu for fm, mu in factors}
            if s.bits == 0:
                want = {(1, 0): 1, (0, 1): 1}
            else:
                lead = surfaces.LinearForm(spec, [1, (s * s).bits])
                want = {lead.coeffs: 1, lead.conjugate(t).coeffs: 1}
            prod = surfaces.MvPoly.constant(spec, 2, 1)
            for fm, mu in factors:
                prod = prod * (fm.to_mvpoly() ** mu)
            tested += 1
            if got != want or prod * rem != g:
                bad += 1
    t4 = p2.tower(2, 4)
    spec4 = t4.spec
    for fam in ("P4a", "P4b"):
        for p in family_param_space(fam, t4):
            (s,) = p.params
            g = surfaces.build_G(family_coeffs(p), t4, shape=fam)
            factors, rem = surfaces.linear_factor_search(g)
            th = s * s
            if s.bits == 0:
                want = {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
            elif fam == "P4a":
                want = {
                    surfaces.LinearForm(spec4, [1, 0, th.bits, 0]).coeffs: 1,
                    surfaces.LinearForm(spec4, [0, 1, 0, t4.frobq(th, 1).bits]).coeffs: 1,
                    surfaces.LinearForm(spec4, [t4.frobq(th, 2).bits, 0, 1, 0]).coeffs: 1,
                    surfaces.LinearForm(spec4, [0, t4.frobq(th, 3).bits, 0, 1]).coeffs: 1,
                }
            else:
                want = {
                    surfaces.LinearForm(spec4, [1, th.bits, 0, 0]).coeffs: 1,
                    surfaces.LinearForm(spec4, [0, 1, t4.frobq(th, 1).bits, 0]).coeffs: 1,
                    surfaces.LinearForm(spec4, [0, 0, 1, t4.frobq(th, 2).bits]).coeffs: 1,
                    surfaces.LinearForm(spec4, [t4.frobq(th, 3).bits, 0, 0, 1]).coeffs: 1,
                }
            got = {fm.coeffs: mu for fm, mu in factors}
            prod = surfaces.MvPoly.constant(spec4, 4, 1)
            for fm, mu in factors:
                prod = prod * (fm.to_mvpoly() ** mu)
            tested += 1
            if got != want or prod * rem != g:
                bad += 1
    _report(9, "linear factorization recovery (squared parameters)", bad == 0,
            f"{tested} planar instances, mismatches={bad}")


def test_c10_normal_basis_specialization():
    rng = np.random.default_rng(110)
    towers = {"P1": p2.tower(2, 2), "P2": p2.tower(2, 3),
              "P3": p2.tower(2, 3), "P4": p2.tower(2, 4)}
    bad = 0
    tested = 0
    for shape, t in towers.items():
        base = t.base_field()
        xi = t.normal_element
        emb = np.array([t.embed_base(base.fe(b)).bits for b in range(base.order)],
                       dtype=np.int64)
        orbit_bits = [t.frobq(xi, j).bits for j in range(t.k)]
        # phi(x) for every base-coordinate tuple, vectorized
        total = base.order ** t.k
        idx = np.arange(total, dtype=np.int64)
        coords = []
        rem = idx
        for _ in range(t.k):
            coords.append(rem % base.order)
            rem = rem // base.order
        eps = np.zeros(total, dtype=np.int64)
        from planar2.fields import vec_mul
        for j in range(t.k):
            eps ^= vec_mul(t.spec, emb[coords[j]], orbit_bits[j])
        for _ in range(100):
            f = _random_shape_poly(shape, t, rng)
            g = surfaces.build_G(f, t, shape="P4a" if shape == "P4" else shape)
            psi = surfaces.specialize_normal(g, t)  # raises if not over GF(q)
            tested += 1
            if psi.spec != base:
                bad += 1
                continue
            psi_vals = psi.evaluate_vec(coords)
            orbit_vals = surfaces.orbit_value_table(g, t)[eps]
            if not np.array_equal(emb[psi_vals], orbit_vals):
                bad += 1
    _report(10, "normal-basis specialization lands in GF(q), pointwise equal",
            bad == 0, f"{tested} companion polynomials, failures={bad}")


def test_c11_pointcount_bound():
    reports = []
    agree = True
    for n, q in ((2, 4), (3, 8), (4, 16)):
        spec = p2.field(n)
        fixtures = [
            surfaces.MvPoly(spec, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}),
            surfaces.MvPoly(spec, 3, {(2, 0, 0): 1, (0, 1, 1): 1}),
            surfaces.MvPoly(spec, 3, {(3, 0, 0): 1, (0, 2, 1): 1, (0, 1, 2): 1}),
            surfaces.MvPoly(spec, 4, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}),
            surfaces.MvPoly(spec, 4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1,
                                      (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}),
        ]
        for poly in fixtures:
            rep = surfaces.langweil_check(poly, certified_irreducible=True)
            reports.append(rep)
            aff = surfaces.count_points_affine(poly)
            if aff - 1 != (q - 1) * rep["count"]:
                agree = False
    held = all(r["bound_holds"] for r in reports)
    vacuous = sum(r["bound_vacuous"] for r in reports)
    _report(11, "point-count deviation bound on certified hypersurfaces",
            held and agree and len(reports) >= 5,
            f"{len(reports)} fixtures, bound held in all; vacuous at these q for "
            f"{vacuous}/{len(reports)} (substantive check: affine/projective agreement)")


def test_c12_quartic_example():
    t0 = time.perf_counter()
    rep = sf.quartic_example_check(2, rng_triples=1000, seed=112)
    dt = time.perf_counter() - t0
    ok = (rep["inverse_coeffs"] == rep["expected_inverse"]
          and rep["identities_hold"] and rep["random_triples_associative"]
          and rep["is_field"] and rep["left_nucleus_size"] == 256
          and dt < 60.0)
    _report(12, "quartic example: inverse formula, identities, field nucleus", ok,
            f"m=2, identities={rep['coordinate_identities']}, "
            f"left nucleus {rep['left_nucleus_size']}/256, {dt:.2f}s (< 60s)")


def test_c13_known_families():
    cases = [
        ("SZ-monomial", p2.tower(2, 2)), ("SZ-monomial", p2.tower(3, 2)),
        ("SZ-generalized", p2.tower(2, 2)), ("SZ-generalized", p2.tower(3, 2)),
        ("ScherrZieve", p2.tower(2, 3)),
        ("Hu2", p2.tower(1, 3)), ("Hu2", p2.tower(3, 3)),
        ("Hu3", p2.tower(2, 3)), ("Hu3", p2.tower(3, 3)),
        ("Knuth", p2.tower(1, 3)), ("Knuth", p2.tower(1, 5)),
    ]
    failures = 0
    tested = 0
    for fam, t in cases:
        for p in family_param_space(fam, t):
            tested += 1
            if not p2.is_planar_bruteforce(family_coeffs(p)):
                failures += 1
    _report(13, "known monomial/binomial families planar", failures == 0,
            f"{tested} instances over 11 cases, failures={failures}")


def test_c14_presemifield_axioms():
    failures = 0
    tested = 0

    def exercise(f: DOPoly):
        nonlocal failures, tested
        if f.spec.n > 12:
            return
        tested += 1
        try:
            sf.presemifield_from_planar(f)  # verifies axioms
        except ValueError:
            failures += 1

    for m in (2, 3, 4):
        for p in family_param_space("P1", p2.tower(m, 2)):
            exercise(family_coeffs(p))
    for fam in ("P2", "P3"):
        for p in family_param_space(fam, p2.tower(2, 3)):
            exercise(family_coeffs(p))
    for fam in ("P4a", "P4b"):
        for p in family_param_space(fam, p2.tower(2, 4)):
            exercise(family_coeffs(p))
    for fam, t in (("SZ-monomial", p2.tower(2, 2)), ("SZ-monomial", p2.tower(3, 2)),
                   ("SZ-generalized", p2.tower(2, 2)), ("ScherrZieve", p2.tower(2, 3)),
                   ("Hu2", p2.tower(1, 3)), ("Hu2", p2.tower(3, 3)),
                   ("Hu3", p2.tower(2, 3)), ("Hu3", p2.tower(3, 3)),
                   ("Knuth", p2.tower(1, 3)), ("Knuth", p2.tower(1, 5))):
        for p in family_param_space(fam, t):
            exercise(family_coeffs(p))
    _report(14, "presemifield axioms exhaustive for planar instances (n <= 12)",
            failures == 0, f"{tested} instances, failures={failures}")
