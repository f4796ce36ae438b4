"""Command-line front end.

Subcommands: check, audit, surface, semifield, problem27, fields. All
reports are deterministic JSON (or CSV) embedding the modulus, tool
version and backend, plus the budget and thread count of the subcommands
that take them, so identical invocations produce identical bytes. A
subcommand accepts only the flags it uses. Exit codes separate tool
failures from mathematical findings: 0 = ran to completion (extras in a
converse audit are findings, not errors), 1 = bad arguments (unknown
flags included), 2 = internal disagreement between planarity criteria,
3 = budget exceeded (a field beyond GF(2^fields.N_MAX) included),
4 = internal invariant failed (a RuntimeError or AssertionError, reported
on stderr instead of a traceback); a negative count (--budget, --support,
--max-n) or fewer than one thread is bad arguments. check runs the
definition oracle up to GF(2^CHECK_ORACLE_N_MAX) and the rank test always,
reporting "bruteforce": null beyond; surface takes the rank verdict alone,
reads orbit_has_zero and the projective zero count of the specialization
off the companion's orbit values, evaluated once (surfaces.companion_zeros),
and derives its affine zero count from the projective one. --threads N on
audit and problem27 means "at most N worker threads": it is checked and
echoed in the report, but every sweep runs on the calling thread, so any
N >= 1 gives the same rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, kernels, planar, semifields, surfaces
from .fields import BudgetError, hex_grid, tower
from .planar import DOPoly, FamilyParams

# check runs the 4^n definition oracle only up to this degree (about 0.44 s
# for a planar input over GF(2^14)); beyond it the rank verdict decides.
CHECK_ORACLE_N_MAX = 14
# the smallest value each count takes
_LEAST = {"budget": 0, "support": 0, "threads": 1, "max_n": 0}


def _meta(t, args) -> dict:
    given = vars(args)
    return {
        "version": __version__,
        "backend": kernels.backend(),
        "modulus": f"{t.spec.modulus:x}",
        "n": t.spec.n, "m": t.m, "k": t.k,
        **{key: given[key] for key in ("budget", "threads") if key in given},
    }


def _emit(args, payload: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


_SCALARS = {str, int, float, bool, type(None)}
_quote = json.encoder.encode_basestring_ascii  # a key as json writes it; a non-str key raises
_LEAVES = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
           type(None): lambda _: "null"}


def _json(obj, pad: str = "\n", tables: dict | None = None) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for str-keyed objects, at
    the indentation that pad (a newline and spaces) gives, in the same
    bytes, where a 1-D or 2-D integer array stands for the lists of its
    elements' lowercase hex strings (fields.hex_text). With indent, json
    runs its pure-Python encoder, slow on a report's rows; here nonempty
    dicts and lists are walked, an array is laid out by _hex_array (the one
    table writer) once per object and indentation (tables holds the text,
    so a report that hands one array over under several keys formats it
    once), and a nonempty list of scalars is one call of the C encoder.
    json.dumps writes floats and empty containers."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    tables = {} if tables is None else tables
    if isinstance(obj, np.ndarray):
        if (id(obj), pad) not in tables:
            tables[id(obj), pad] = _hex_array(obj, pad)
        return tables[id(obj), pad]
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{inner}{_quote(k)}: {_json(v, inner, tables)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _SCALARS:
            return f"[{inner}{json.dumps(obj, separators=(',' + inner, ': '))[1:-1]}{pad}]"
        return "[" + ",".join(inner + _json(v, inner, tables) for v in obj) + pad + "]"
    return json.dumps(obj)


def _hex_array(a: np.ndarray, pad: str) -> str:
    """json.dumps of the lists of a's elements' hex strings, indent=2, at
    pad for a 1-D or 2-D integer array, in the same bytes: one join of the
    fields.hex_grid cells, whose separators carry the quotes."""
    if a.size == 0:  # [] or, with zero columns, rows of []
        return "[" + ",".join([pad + "  []"] * len(a)) + pad + "]" if len(a) else "[]"
    table = a.ndim == 2
    row = pad + "  " if table else pad  # the indentation of each row's "]"
    cell = row + "  "
    grid = hex_grid(np.atleast_2d(a), f'",{cell}"', f'"{row}],{row}[{cell}"')
    grid[-1, -1] = f'"{row}]{pad}]' if table else f'"{row}]'
    return (f'[{row}[{cell}"' if table else f'[{cell}"') + "".join(grid.ravel().tolist())


def _emit_json(args, obj: dict):
    _emit(args, _json(obj) + "\n")


def _family_poly(args, t) -> DOPoly:
    coeffs = [t.fe(int(c, 16)) for c in args.coeffs.split(",")] if args.coeffs else []
    return planar.family_coeffs(FamilyParams(args.family, tuple(coeffs), t))


def cmd_check(args) -> int:
    t = tower(args.m, args.k)
    f = DOPoly.parse(args.terms, t)
    if t.spec.order > args.budget:
        raise BudgetError(f"field of size 2^{t.spec.n} exceeds the planarity budget {args.budget}")
    brute = planar.is_planar_bruteforce(f) if t.spec.n <= CHECK_ORACLE_N_MAX else None
    linear = planar.is_planar_linearized(f)
    crit = planar.planar_by_criterion(f)
    verdicts = [v for v in (brute, linear, crit) if v is not None]
    agree = len(set(verdicts)) == 1
    report = {
        "poly": f.to_json(),
        "planar": linear if brute is None else brute,
        "criteria": {
            "bruteforce": brute,
            "linearized_rank": linear,
            "coefficient_criterion": crit,
        },
        "agree": agree,
        **_meta(t, args),
    }
    _emit_json(args, report)
    return 0 if agree else 2


def cmd_audit(args) -> int:
    t = tower(args.m, args.k)
    report = planar.family_audit(args.family, t, args.mode, budget=args.budget)
    if args.format == "csv":
        _emit(args, report.to_csv())
    else:
        _emit_json(args, {**report.to_json(), **_meta(t, args)})
    return 0


def cmd_surface(args) -> int:
    t = tower(args.m, args.k)
    f = _family_poly(args, t)
    g = surfaces.build_G(f, t, shape=args.family)
    factors, remainder = surfaces.linear_factor_search(g, budget=args.budget)
    count, d, orbit_has_zero = surfaces.companion_zeros(g, t, budget=args.budget)
    lw = surfaces.langweil_bound(t.q, t.k, d, count, certified_irreducible=False)
    report = {
        "family": args.family,
        "poly": f.to_json(),
        "companion": g.to_json(),
        "orbit_has_zero": orbit_has_zero,
        "planar": planar.is_planar_linearized(f),
        "factors": [{"coeffs": np.asarray(form.coeffs), "multiplicity": mult}
                    for form, mult in factors],
        "remainder": remainder.to_json(),
        # a cone: psi_h is a degree-k form, as G's top term x_0...x_(k-1) survives the basis change
        "specialized_affine_zeros": 1 + (t.q - 1) * count,
        "specialized_projective_zeros": count,
        "pointcount_bound": lw,
        **_meta(t, args),
    }
    _emit_json(args, report)
    return 0


def cmd_semifield(args) -> int:
    t = tower(args.m, args.k)
    f = _family_poly(args, t)
    pre = semifields.presemifield_from_planar(f)
    e = t.fe(int(args.e, 16))
    semi = semifields.to_semifield(pre, e, construction=args.construction)
    rep = semifields.nuclei(semi)
    if args.dump_table:
        semi.dump_table(args.dump_table)
    _emit_json(args, {**rep.to_json(), "family": args.family, "e": args.e,
                      "construction": args.construction, **_meta(t, args)})
    return 0


def cmd_problem27(args) -> int:
    t = tower(args.m, 2)
    rep = planar.offdiagonal_search(t, args.support, budget=args.budget)
    keys = ("tested", "support", "planar", "candidates", "in_shape")  # rows split by rep["off"]
    _emit_json(args, {**{key: rep[key] for key in keys}, **_meta(t, args)})
    return 0


def cmd_fields(args) -> int:
    from .fields import smallest_irreducible

    rows = [{"n": n, "modulus": f"{smallest_irreducible(n):x}"}
            for n in range(1, args.max_n + 1)]
    payload = {"version": __version__, "moduli": rows}
    _emit_json(args, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planar2",
        description="planar functions over GF(2^n): checks, audits, surfaces, semifields")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, k_default=None, families=None, budget=True, threads=False):
        p.add_argument("--m", type=int, required=True, help="base degree, q = 2^m")
        if families is not None:
            p.add_argument("--family", required=True, choices=families)
            p.add_argument("--k", type=int, default=None,
                           help="tower degree (defaults to the family's natural k)")
        elif k_default is not None:
            p.add_argument("--k", type=int, default=k_default, help="tower degree")
        if budget:
            p.add_argument("--budget", type=int, default=1 << 22)
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="at most N worker threads (the sweep uses one)")
        p.add_argument("--out", default=None)

    p = sub.add_parser("check", help="planarity of an explicit polynomial")
    p.add_argument("--terms", required=True,
                   help='terms "(coeff_hex,u,v);(coeff_hex,u,v);..."')
    common(p, k_default=2)

    p = sub.add_parser("audit", help="sweep a family (sufficiency or converse)")
    p.add_argument("--mode", choices=("sufficiency", "converse"), default="sufficiency")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p, families=planar.FAMILIES, threads=True)

    p = sub.add_parser("surface", help="companion polynomial analysis of a family instance")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated hex family parameters (s | u,v | a | s1 | s2)")
    common(p, families=[tag for tag, rec in planar.REGISTRY.items() if rec.companion])

    p = sub.add_parser("semifield", help="nuclei of the semifield of a family instance")
    p.add_argument("--coeffs", default="",
                   help="comma-separated hex family parameters (empty for parameter-free families)")
    p.add_argument("--e", default="1", help="isotope base point (hex)")
    p.add_argument("--construction", choices=("isotope", "left-division"),
                   default="isotope")
    p.add_argument("--dump-table", default=None,
                   help="write the raw multiplication table (uint16, row-major)")
    common(p, families=planar.FAMILIES, budget=False)

    p = sub.add_parser("problem27", help="sparse planar vectors off the conjectured shape (k=2)")
    p.add_argument("--support", type=int, default=2)
    common(p, threads=True)

    p = sub.add_parser("fields", help="print the canonical modulus table")
    p.add_argument("--max-n", type=int, default=16)
    p.add_argument("--out", default=None)

    return ap


_parser = functools.cache(build_parser)  # built on the first main call, not at import


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    low = next((key for key, least in _LEAST.items() if getattr(args, key, least) < least), None)
    if low is not None:
        print(f"error: --{low.replace('_', '-')} must be at least {_LEAST[low]}", file=sys.stderr)
        return 1
    if getattr(args, "family", None) is not None and args.k is None:
        args.k = planar.REGISTRY[args.family].k
        if args.k is None:
            print(f"error: the {args.family} family has no natural tower degree; pass --k",
                  file=sys.stderr)
            return 1
    try:
        return globals()[f"cmd_{args.command}"](args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, AssertionError) as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
