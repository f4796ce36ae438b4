"""The rank kernel must agree with the definition oracle on identical inputs."""

import numpy as np
import pytest

import planar2 as p2
from planar2 import kernels


def _planar_reference(spec, fvals) -> bool:
    # independent set-based oracle, no shared code with the kernels
    for a in range(1, spec.order):
        seen = set()
        for x in range(spec.order):
            v = int(fvals[x ^ a]) ^ int(fvals[x]) ^ spec.mul(a, x)
            if v in seen:
                return False
            seen.add(v)
    return True


def _table(spec, exps, row) -> np.ndarray:
    fv = np.zeros(spec.order, dtype=np.int64)
    for e, c in zip(exps, row):
        fv ^= np.array([spec.mul(int(c), spec.pow(x, e)) for x in range(spec.order)])
    return fv


def test_check_agrees_with_reference_oracle():
    spec = p2.field(4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        fv = rng.integers(0, 16, 16).astype(np.int64)
        assert kernels.planar_check_table(spec, fv) == _planar_reference(spec, fv)


def test_rank_kernel_agrees_with_oracle_on_random_do_polys():
    spec = p2.field(6)
    rng = np.random.default_rng(1)
    for _ in range(80):
        nterms = int(rng.integers(1, 4))
        exps = [(1 << int(u)) + (1 << int(v)) for u, v in rng.integers(0, 6, (nterms, 2))]
        row = rng.integers(0, 64, nterms)
        got = kernels.planar_sweep(spec, exps, row[None, :])[0]
        assert got == kernels.planar_check_table(spec, _table(spec, exps, row))


def test_sweep_agrees_with_oracle_on_batched_rows():
    spec = p2.field(6)
    rng = np.random.default_rng(2)
    exps = [0b101, 0b10100, 0b10001]
    coeffs = rng.integers(0, 64, (400, 3)).astype(np.int64)
    coeffs[::7, 1:] = 0  # c*x^5 alone: planar for some c, so both verdicts occur
    mask = kernels.planar_sweep(spec, exps, coeffs)
    want = [kernels.planar_check_table(spec, _table(spec, exps, row)) for row in coeffs]
    assert mask.tolist() == want
    assert 0 < mask.sum() < len(mask)


def test_sweep_matches_per_table_checks():
    spec = p2.field(4)
    rng = np.random.default_rng(3)
    exps = [3, 5]
    coeffs = rng.integers(0, 16, (100, 2)).astype(np.int64)
    mask = kernels.planar_sweep(spec, exps, coeffs)
    for row, ok in zip(coeffs, mask):
        assert kernels.planar_check_table(spec, _table(spec, exps, row)) == ok


def test_known_planar_tables_pass_both_backends():
    # the oracle on value tables and the rank kernel on coefficient rows
    t = p2.tower(3, 2)
    spec = t.spec
    cs = sorted(x.bits for x in p2.norm_trace_zero_set(t))
    for c in cs:
        assert kernels.planar_check_table(spec, p2.DOPoly(t, [(c, 0, 3)]).value_table())
    assert kernels.planar_sweep(spec, [1 + 8], np.array(cs)[:, None]).all()


def test_sweep_rejects_exponents_outside_do_form():
    with pytest.raises(ValueError, match="Dembowski-Ostrom"):
        kernels.planar_sweep(p2.field(4), [7], np.ones((1, 1), dtype=np.int64))


def test_sweep_handles_no_rows_and_no_terms():
    spec = p2.field(5)
    assert kernels.planar_sweep(spec, [3], np.zeros((0, 1), dtype=np.int64)).shape == (0,)
    # f = 0 leaves x -> a*x, a bijection for every a != 0
    assert kernels.planar_sweep(spec, [], np.zeros((3, 0), dtype=np.int64)).all()


def test_backend_report():
    assert kernels.backend() == "numpy"
