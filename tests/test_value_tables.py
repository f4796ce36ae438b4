"""Golden digests of the vectorized value tables: the criterion tables, the
linearized and Dembowski-Ostrom value tables, and the tower norm and trace
columns. Each digest is the sha256 of the int64 bytes of every table of
its kind, concatenated over the towers and inputs below in order. They
were recorded at 0.19.0, when each table summed c * x^e its own way, so
they pin the tables of the one log-domain evaluator (fields.vec_eval)
to the old bytes."""

import hashlib
import random

import numpy as np
import pytest

import planar2 as p2
from planar2.linearized import LinearizedPoly
from planar2.planar import (REGISTRY, DOPoly, criterion_table_k2, criterion_table_k3,
                            criterion_table_k4)

# every registry tower degree, each m up to GF(2^12)
TOWERS = [(m, k) for k in sorted({rec.k for rec in REGISTRY.values()} - {None})
          for m in range(1, 12 // k + 1)]


def _coefficient_vectors(rng: random.Random, length: int, order: int) -> list[list[int]]:
    """Random nonzero, random with zeros, one value repeated at every
    position, only position 0 (the shift that wraps to x^(2^0) for k = 3, 4),
    only the last position, and all zero. Within one linearized sum of a
    criterion the shifts j = offset - i mod n of the coefficients cover
    each j at most once, for every block length, so no vector puts two
    coefficients on one x^(2^j); the repeated value is the closest case."""
    c = rng.randrange(1, order)
    return [[rng.randrange(1, order) for _ in range(length)],
            [rng.randrange(order) if rng.random() < 0.5 else 0 for _ in range(length)],
            [c] * length,
            [c] + [0] * (length - 1),
            [0] * (length - 1) + [c],
            [0] * length]


def _criterion_tables():
    rng = random.Random(2021)
    for m, k in TOWERS:
        t = p2.tower(m, k)
        blocks = [(k - j) * m for j in range(1, k)]
        vectors = [_coefficient_vectors(rng, size, t.spec.order) for size in blocks]
        table = {2: criterion_table_k2, 3: criterion_table_k3, 4: criterion_table_k4}[k]
        for lists in zip(*vectors):
            yield f"k{k}", table(*lists, t)
        for _ in range(3):  # the blocks mixed independently
            yield f"k{k}", table(*(rng.choice(v) for v in vectors), t)


def _linearized_tables():
    rng = random.Random(2022)
    for m, k in TOWERS:
        t = p2.tower(m, k)
        for coeffs in _coefficient_vectors(rng, k, t.spec.order):
            yield "linearized", LinearizedPoly(t, coeffs).value_table()


def _do_tables():
    rng = random.Random(2023)
    for n in range(1, 13):
        t = p2.tower(n, 1)
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        yield "do", DOPoly(t, []).value_table()
        yield "do", DOPoly(t, [(1, u, v) for u, v in pairs]).value_table()
        for _ in range(3):
            terms = [(rng.randrange(t.spec.order), *rng.choice(pairs))
                     for _ in range(rng.randrange(1, 6))]
            yield "do", DOPoly(t, terms).value_table()


def _tower_columns():
    for m, k in TOWERS:
        t = p2.tower(m, k)
        xs = np.arange(t.spec.order, dtype=np.int64)
        yield "rel_norm", t.vec_rel_norm(xs)
        yield "abs_trace_base", t.vec_abs_trace_base(xs)
        yield "abs_trace_base", t.vec_abs_trace_base(t.subfield_bits())


GOLDEN = {
    "k2": "60498bcd0698df4ee27e29044d0a3efbd3f1ee9b48fa5be0328e9f310121c256",
    "k3": "683bf913349171e9a149e0f6823cf684dd44a23f3ac4f7a9980762b1d10138ef",
    "k4": "e64acd5a9c5ff078580594d02ecd2db8e746d018bafd248ff32fc9a4bb29df02",
    "linearized": "0e938872e02a58285234be195f7f34aa15b144d361bb30916e6cff29b6c855f8",
    "do": "efe365b0ed460562de80d9820d1cd4cd41a26bf10e4dbbd105eb3c5817f5076f",
    "rel_norm": "33a3680f383c4f725977fbc451e30fae151f3d41eb95d59f3540583243eaee71",
    "abs_trace_base": "2b08d18f7014b594544636dd70a13d600dec2e70352f69e818a556b3802a654c",
}


def _digests() -> dict[str, str]:
    hashes = {kind: hashlib.sha256() for kind in GOLDEN}
    for source in (_criterion_tables, _linearized_tables, _do_tables, _tower_columns):
        for kind, table in source():
            assert table.dtype == np.int64, kind
            hashes[kind].update(table.tobytes())
    return {kind: h.hexdigest() for kind, h in hashes.items()}


@pytest.fixture(scope="module")
def digests():
    return _digests()


@pytest.mark.parametrize("kind", list(GOLDEN))
def test_value_tables_match_the_recorded_digest(digests, kind):
    assert digests[kind] == GOLDEN[kind]
