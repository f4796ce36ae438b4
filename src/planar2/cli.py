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
--max-n) or fewer than one thread is bad arguments. check and surface run
the definition oracle up to GF(2^CHECK_ORACLE_N_MAX) and take the rank
verdict beyond, where check reports "bruteforce": null. --threads N on
audit and problem27 means "at most N worker threads": it is checked and
echoed in the report, but every sweep runs on the calling thread, so any
N >= 1 gives the same rows.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import __version__, kernels, planar, semifields, surfaces
from .fields import BudgetError, hex_bits, tower
from .planar import DOPoly, FamilyParams

# check and surface run the 4^n definition oracle only up to this degree
# (about 0.44 s for a planar input over GF(2^14)); beyond it the rank verdict decides.
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


_SEP = "\x00"  # never in the C encoder's output: ensure_ascii escapes control characters
_SCALARS = {str, int, float, bool, type(None)}
_quote = json.encoder.encode_basestring_ascii  # a key as json writes it; a non-str key raises
_LEAVES = {str: _quote, int: int.__repr__, bool: {True: "true", False: "false"}.get,
           type(None): lambda _: "null"}
_INDENTED = json.JSONEncoder(sort_keys=True, indent=2).encode


def _json(obj, pad: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for str-keyed objects, at
    the indentation that pad (a newline and spaces) gives, in the same
    bytes. With indent, json runs its pure-Python encoder, slow on a
    report's rows; here dicts are walked, and a nonempty list of scalars or
    a table (a nonempty list of nonempty lists of scalars) is one call of
    the C encoder: the table with _SEP between items, which then become
    the row boundaries "]" _SEP "[" and the cell separators. Anything else
    goes to json's indenting encoder, whose literal newlines are all
    structural."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{inner}{_quote(k)}: {_json(v, inner)}" for k, v in sorted(obj.items()))
        return "{" + ",".join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        if types <= _SCALARS:
            return f"[{inner}{json.dumps(obj, separators=(',' + inner, ': '))[1:-1]}{pad}]"
        if (types <= {list, tuple} and all(obj)
                and set(map(type, itertools.chain.from_iterable(obj))) <= _SCALARS):
            cell = inner + "  "
            body = json.dumps(obj, separators=(_SEP, ": "))[2:-2]
            body = body.replace(f"]{_SEP}[", f"{inner}],{inner}[{cell}").replace(_SEP, "," + cell)
            return f"[{inner}[{cell}{body}{inner}]{pad}]"
    return _INDENTED(obj).replace("\n", pad)


def _emit_json(args, obj: dict):
    _emit(args, _json(obj) + "\n")


def _family_poly(args, t) -> DOPoly:
    coeffs = [t.fe(int(c, 16)) for c in args.coeffs.split(",")] if args.coeffs else []
    return planar.family_coeffs(FamilyParams(args.family, tuple(coeffs), t))


def _planarity(f: DOPoly, budget: int, rank: bool = False):
    """(planar, oracle verdict, rank verdict) for check and surface: the
    oracle decides up to GF(2^CHECK_ORACLE_N_MAX) and is None beyond, where
    the rank test decides; rank=True runs the rank test in any case."""
    spec = f.spec
    if spec.order > budget:
        raise BudgetError(f"field of size 2^{spec.n} exceeds the planarity budget {budget}")
    brute = planar.is_planar_bruteforce(f) if spec.n <= CHECK_ORACLE_N_MAX else None
    linear = planar.is_planar_linearized(f) if rank or brute is None else None
    return (linear if brute is None else brute), brute, linear


def cmd_check(args) -> int:
    t = tower(args.m, args.k)
    f = DOPoly.parse(args.terms, t)
    verdict, brute, linear = _planarity(f, args.budget, rank=True)
    crit = planar.planar_by_criterion(f)
    verdicts = [v for v in (brute, linear, crit) if v is not None]
    agree = len(set(verdicts)) == 1
    report = {
        "poly": f.to_json(),
        "planar": verdict,
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
    psi = surfaces.specialize_normal(g, t)
    psi_h = psi.homogenize()
    affine = surfaces.count_points_affine(psi_h, budget=args.budget)
    lw = surfaces.langweil_check(psi_h, certified_irreducible=False, budget=args.budget)
    report = {
        "family": args.family,
        "poly": f.to_json(),
        "companion": g.to_json(),
        "orbit_has_zero": surfaces.orbit_has_zero(g, t),
        "planar": _planarity(f, args.budget)[0],
        "factors": [{"coeffs": hex_bits(form.coeffs), "multiplicity": mult}
                    for form, mult in factors],
        "remainder": remainder.to_json(),
        "specialized_affine_zeros": affine,
        "specialized_projective_zeros": lw["count"],
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
    rows = hex_bits(rep["planar"])  # formatted once, split by the candidate mask
    split = {key: list(itertools.compress(rows, mask.tolist()))
             for key, mask in (("candidates", rep["off"]), ("in_shape", ~rep["off"]))}
    _emit_json(args, {"tested": rep["tested"], "support": rep["support"], "planar": rows,
                      **split, **_meta(t, args)})
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
