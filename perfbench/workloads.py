"""The four workloads: seeded op lists, how one op runs, how its output is checked.

An op is one planar2 CLI invocation run in-process through planar2.cli.main,
with --out writing the report to a scratch file. The Dickson permutation
test has no CLI path, so its ops are two library calls instead.

Inputs come from the workload seed before anything is timed; the program
receives only the generated argv (or, for Dickson ops, the polynomial).
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from planar2 import cli, fields, linearized, planar, surfaces
from planar2.planar import FamilyParams

WORKLOADS = ("check", "converse", "sufficiency", "structure")
THREADS = {"check": 1, "converse": 2, "sufficiency": 1, "structure": 1}
_K = {"P1": 2, "P2": 3, "P3": 3, "P4a": 4, "P4b": 4, "SZ-generalized": 2}


@dataclass
class Op:
    kind: str                  # check | audit | problem27 | surface | semifield | dickson
    argv: list[str]            # CLI arguments (for dickson ops, a label)
    tower: tuple[int, int]     # (m, k) of the field the op works in
    data: dict = field(default_factory=dict)  # library inputs, expected results

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _family_instance(rng: random.Random, fam: str, t):
    """Uniform admissible parameters of fam on t, and the family polynomial."""
    width = 2 if fam == "P2" else 1
    while True:
        params = tuple(t.fe(rng.randrange(t.spec.order)) for _ in range(width))
        try:
            return params, planar.family_coeffs(FamilyParams(fam, params, t))
        except ValueError:  # the few excluded parameters (norm 1, Delta = 1)
            continue


def _hex_params(params) -> str:
    return ",".join(f"{p.bits:x}" for p in params)


# ---------------------------------------------------------------------------
# check: interactive planarity verdicts
# ---------------------------------------------------------------------------

# (m, k, family, planted, random). Planted instances are planar, so each
# makes a full pass over all a; random coefficients on the same shape are
# almost never planar and exit early. Planted GF(2^12) instances are 1/6 of
# the ops, so op_p90_s falls well inside the large-field planar verdicts;
# GF(2^8) ops are half, so op_p50_s is a small-field verdict.
_CHECK_MIX = (
    (6, 2, "P1", 6, 2), (4, 3, "P2", 3, 1), (4, 3, "P3", 3, 1),
    (3, 4, "P4a", 3, 1), (3, 4, "P4b", 3, 1),
    (5, 2, "P1", 12, 12),
    (4, 2, "P1", 12, 14), (2, 4, "P4a", 6, 7), (2, 4, "P4b", 6, 7),
)
_DICKSON_TOWERS = ((4, 2), (2, 4), (5, 2), (6, 2), (4, 3), (3, 4), (4, 2), (2, 4))


def _check_ops(rng: random.Random) -> list[Op]:
    ops = []
    for m, k, fam, planted, rand in _CHECK_MIX:
        t = fields.tower(m, k)
        base = ["--m", str(m), "--k", str(k)]
        for _ in range(planted):
            _, f = _family_instance(rng, fam, t)
            ops.append(Op("check", ["check", "--terms", f.spec_string(), *base], (m, k),
                          {"planted": True}))
        for _ in range(rand):
            terms = ";".join(f"({rng.randrange(1, t.spec.order):x},{u},{v})"
                             for u, v in planar.family_shape(fam, t))
            ops.append(Op("check", ["check", "--terms", terms, *base], (m, k),
                          {"planted": False}))
    for m, k in _DICKSON_TOWERS:
        t = fields.tower(m, k)
        coeffs = [rng.randrange(t.spec.order) for _ in range(k)]
        label = ["dickson", f"--m {m} --k {k}", ",".join(f"{c:x}" for c in coeffs)]
        ops.append(Op("dickson", label, (m, k),
                      {"poly": linearized.LinearizedPoly(t, coeffs)}))
    return ops


# ---------------------------------------------------------------------------
# converse and sufficiency: exhaustive audits
# ---------------------------------------------------------------------------

_CONVERSE = (("P1", 3), ("P1", 4), ("P3", 2), ("P2", 2))
_PROBLEM27 = (3, 3)  # (m, support)
_SUFFICIENCY = (("P1", 4), ("P2", 2), ("P3", 3), ("P4a", 2), ("P4b", 2), ("SZ-generalized", 4))


def _converse_ops() -> list[Op]:
    threads = ["--threads", str(THREADS["converse"])]
    ops = []
    for fam, m in _CONVERSE:
        t = fields.tower(m, _K[fam])
        image = {planar.family_tuple(fam, planar.family_coeffs(p), t)
                 for p in planar.family_param_space(fam, t)}
        total = t.spec.order ** len(planar.family_shape(fam, t))
        ops.append(Op("audit", ["audit", "--family", fam, "--m", str(m),
                                "--mode", "converse", *threads], (m, t.k),
                      {"total": total, "image": image}))
    m, support = _PROBLEM27
    nonzero = fields.tower(m, 2).spec.order - 1
    tested = sum(math.comb(m, s) * nonzero ** s for s in range(min(support, m) + 1))
    ops.append(Op("problem27", ["problem27", "--m", str(m), "--support", str(support),
                                *threads], (m, 2), {"tested": tested}))
    return ops


def _sufficiency_ops() -> list[Op]:
    return [Op("audit", ["audit", "--family", fam, "--m", str(m), "--mode", "sufficiency"],
               (m, _K[fam])) for fam, m in _SUFFICIENCY]


# ---------------------------------------------------------------------------
# structure: companion surfaces and semifields
# ---------------------------------------------------------------------------

# (family, m, count). The 16 P2 surfaces at m=2 are the ranks around the
# median, so op_p50_s is a surface op and not the edge between two clusters
# of op costs; P3 at m=3 is the slowest surface (a few per pass).
_SURFACES = (("P1", 2, 6), ("P1", 3, 6), ("P1", 4, 6), ("P1", 5, 8), ("P2", 2, 16),
             ("P3", 2, 8), ("P3", 3, 4), ("P4a", 2, 6), ("P4b", 2, 6))
# (family, m or, for Knuth, k, count). The GF(2^8) nuclei, 1/5 of the ops,
# hold op_p90_s.
_SEMIFIELDS = (("P1", 2, 6), ("P1", 3, 6), ("P1", 4, 12), ("P3", 2, 6), ("P4a", 2, 12),
               ("Knuth", 5, 6), ("Knuth", 7, 6))
_CONSTRUCTIONS = ("isotope", "left-division")


def _structure_ops(rng: random.Random) -> list[Op]:
    ops = []
    for fam, m, count in _SURFACES:
        t = fields.tower(m, _K[fam])
        for _ in range(count):
            params, _ = _family_instance(rng, fam, t)
            ops.append(Op("surface", ["surface", "--family", fam, "--coeffs",
                                      _hex_params(params), "--m", str(m)], (m, t.k)))
    for fam, size, count in _SEMIFIELDS:
        m, k = (1, size) if fam == "Knuth" else (size, _K[fam])
        t = fields.tower(m, k)
        for i in range(count):
            argv = ["semifield", "--family", fam, "--m", str(m), "--k", str(k),
                    "--e", f"{rng.randrange(1, t.spec.order):x}",
                    "--construction", _CONSTRUCTIONS[i % 2]]
            if fam != "Knuth":
                params, _ = _family_instance(rng, fam, t)
                argv += ["--coeffs", _hex_params(params)]
            ops.append(Op("semifield", argv, (m, k)))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The workload's fixed op list for this seed, in seeded order."""
    rng = random.Random(seed)
    if workload == "check":
        ops = _check_ops(rng)
    elif workload == "converse":
        ops = _converse_ops()
    elif workload == "sufficiency":
        ops = _sufficiency_ops()
    elif workload == "structure":
        ops = _structure_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def towers(ops: list[Op]) -> list[tuple[int, int]]:
    return sorted({op.tower for op in ops})


# ---------------------------------------------------------------------------
# running and checking one op
# ---------------------------------------------------------------------------

def execute(op: Op, scratch: Path):
    """Run op once. Returns (seconds, outcome): the CLI exit code, or for a
    Dickson op the permutation verdict and the inverse (None if singular)."""
    for stale in scratch.iterdir():
        stale.unlink()
    if op.kind == "dickson":
        poly = op.data["poly"]
        start = time.perf_counter()
        perm = linearized.is_permutation(poly)
        inverse = linearized.inverse_map(poly) if perm else None
        return time.perf_counter() - start, (perm, inverse)
    argv = [*op.argv, "--out", str(scratch / "report.json")]
    if op.kind == "semifield":
        argv += ["--dump-table", str(scratch / "table.bin")]
    start = time.perf_counter()
    code = cli.main(argv)
    return time.perf_counter() - start, code


def verify(op: Op, outcome, scratch: Path) -> str | None:
    """None if the op's output is correct, else what is wrong with it."""
    if op.kind == "dickson":
        return _verify_dickson(op, *outcome)
    if outcome != 0:
        return f"exit code {outcome}"
    report = json.loads((scratch / "report.json").read_text())
    return _VERIFY[op.kind](op, report, scratch)


def _verify_check(op, report, scratch):
    if report["agree"] is not True:
        return "the planarity criteria disagree"
    if op.data["planted"] and report["planar"] is not True:
        return "a planted family instance reads non-planar"
    return None


def _tuples(rows) -> set[tuple[int, ...]]:
    return {tuple(int(c, 16) for c in row) for row in rows}


def _verify_audit(op, report, scratch):
    if report["mode"] == "sufficiency":
        if report["failures"]:
            return f"{len(report['failures'])} admissible parameters are not planar"
        if report["tested"] < 1 or len(report["planar"]) != report["tested"]:
            return "planar rows do not account for every tested parameter"
        return None
    if report["tested"] != op.data["total"]:
        return f"tested {report['tested']} tuples, expected {op.data['total']}"
    found = _tuples(report["planar"])
    image = op.data["image"]
    if not image <= found:
        return f"{len(image - found)} family tuples missing from the planar set"
    if _tuples(report["extras"]) != found - image:
        return "extras are not the planar tuples outside the family image"
    return None


def _verify_problem27(op, report, scratch):
    if report["tested"] != op.data["tested"]:
        return f"tested {report['tested']} vectors, expected {op.data['tested']}"
    if _tuples(report["planar"]) != _tuples(report["candidates"]) | _tuples(report["in_shape"]):
        return "candidates and in-shape vectors do not partition the planar set"
    return None


def _mvpoly(data: dict, spec) -> surfaces.MvPoly:
    return surfaces.MvPoly(spec, data["nvars"],
                           {tuple(t["exp"]): int(t["coeff"], 16) for t in data["terms"]})


def _verify_surface(op, report, scratch):
    spec = fields.field(report["companion"]["spec"]["n"])
    rebuilt = _mvpoly(report["remainder"], spec)
    for factor in report["factors"]:
        form = surfaces.LinearForm(spec, [int(c, 16) for c in factor["coeffs"]])
        rebuilt = rebuilt * form.to_mvpoly() ** factor["multiplicity"]
    if rebuilt != _mvpoly(report["companion"], spec):
        return "factors times remainder do not rebuild G"
    if report["orbit_has_zero"] == report["planar"]:
        return "orbit_has_zero disagrees with the planarity verdict"
    if report["planar"] is not True:
        return "a family instance reads non-planar"
    return None


def _verify_semifield(op, report, scratch):
    order = report["order"]
    table = np.fromfile(scratch / "table.bin", dtype="<u2").astype(np.int64)
    if table.size != order * order:
        return "dumped table has the wrong size"
    table = table.reshape(order, order)
    xs = np.arange(order)
    units = np.nonzero((table == xs).all(axis=1) & (table == xs[:, None]).all(axis=0))[0]
    if units.size != 1:
        return "the semifield is not unital"
    if not np.array_equal(table, table.T):
        return "the semifield is not commutative"
    if report["left"] != report["right"]:
        return "left and right nuclei differ"
    unit = f"{units[0]:x}"
    if any(unit not in report[side] for side in ("left", "middle", "right")):
        return "the identity lies outside a nucleus"
    if report["is_field"] != (report["left_size"] == order):
        return "is_field contradicts the left nucleus"
    return None


def _verify_dickson(op, perm, inverse):
    values = op.data["poly"].value_table()
    if perm != (np.unique(values).size == values.size):
        return "the Dickson test disagrees with the value table"
    if perm and not np.array_equal(inverse.value_table()[values], np.arange(values.size)):
        return "inverse_map composed with L is not the identity"
    return None


_VERIFY = {"check": _verify_check, "audit": _verify_audit, "problem27": _verify_problem27,
           "surface": _verify_surface, "semifield": _verify_semifield}
