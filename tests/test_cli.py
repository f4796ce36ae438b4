"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import random
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from planar2 import cli, kernels, planar, semifields, surfaces
from planar2.cli import main
from planar2.fields import tower
from planar2.planar import FAMILIES, REGISTRY


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check_zero_poly_planar(capsys):
    code, out = run(capsys, "check", "--terms", "", "--m", "2", "--k", "2")
    rep = json.loads(out)
    assert code == 0 and rep["planar"] is True and rep["agree"] is True


def test_check_p3_instance_planar(capsys):
    # a=1: terms x^(2(q+1)) + x^(2(q^2+1)) at m=2
    code, out = run(capsys, "check", "--terms", "(1,1,3);(1,1,5)", "--m", "2", "--k", "3")
    rep = json.loads(out)
    assert code == 0 and rep["planar"] is True
    assert rep["criteria"]["coefficient_criterion"] is True


def test_check_cube_not_planar(capsys):
    code, out = run(capsys, "check", "--terms", "(1,0,1)", "--m", "1", "--k", "2")
    rep = json.loads(out)
    assert code == 0 and rep["planar"] is False and rep["agree"] is True


def test_check_parse_error_exit1(capsys):
    assert main(["check", "--terms", "garbage", "--m", "2", "--k", "2"]) == 1


@pytest.mark.parametrize("terms", ["(-1,0,1)", "(10,0,1)"])
def test_check_rejects_a_coefficient_outside_the_field(capsys, terms):
    # -1 would index the tables from the end, 0x10 past them, over GF(2^4)
    assert main(["check", "--terms", terms, "--m", "2", "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "out of range" in captured.err
    assert "Traceback" not in captured.err


def test_check_budget_below_the_field_size_exit3(capsys):
    # GF(2^4) has 16 elements: a budget of 8 refuses the planarity test
    assert main(["check", "--terms", "(1,0,2)", "--m", "2", "--k", "2", "--budget", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exceeded" in captured.err


def test_check_beyond_the_oracle_bound_takes_the_rank_verdict(capsys, monkeypatch):
    # planted P1 over GF(2^16): the 4^n oracle must not run there
    def no_oracle(*args):
        raise AssertionError("the definition oracle ran beyond CHECK_ORACLE_N_MAX")

    monkeypatch.setattr(kernels, "planar_check_table", no_oracle)
    assert cli.CHECK_ORACLE_N_MAX < 16
    code, out = run(capsys, "check", "--terms", "(d59d,0,8)", "--m", "8", "--k", "2")
    rep = json.loads(out)
    assert code == 0 and rep["n"] == 16
    assert rep["criteria"] == {"bruteforce": None, "linearized_rank": True,
                               "coefficient_criterion": True}
    assert rep["planar"] is True and rep["agree"] is True
    code, out = run(capsys, "check", "--terms", "(1,0,1)", "--m", "8", "--k", "2")
    rep = json.loads(out)
    assert code == 0 and rep["planar"] is False and rep["criteria"]["bruteforce"] is None
    assert main(["check", "--terms", "(1,0,1)", "--m", "8", "--k", "2",
                 "--budget", str(1 << 15)]) == 3


@pytest.mark.parametrize("family, coeffs",
                         [("P1", "2"), ("P2", "1f,3d"), ("P3", "b"), ("P4a", "89"), ("P4b", "8e")])
def test_surface_takes_the_rank_verdict_beyond_the_oracle_bound(capsys, monkeypatch,
                                                                family, coeffs):
    # surface never runs the definition oracle, not even below CHECK_ORACLE_N_MAX
    def no_oracle(*args):
        raise AssertionError("surface ran the definition oracle")

    monkeypatch.setattr(kernels, "planar_check_table", no_oracle)
    code, out = run(capsys, "surface", "--family", family, "--m", "2", "--coeffs", coeffs)
    rep = json.loads(out)
    assert code == 0 and rep["n"] <= cli.CHECK_ORACLE_N_MAX
    assert rep["planar"] is True and rep["orbit_has_zero"] is False


def test_check_runs_the_oracle_up_to_the_bound(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CHECK_ORACLE_N_MAX", 6)
    for m, k, brute in ((2, 3, True), (7, 1, None)):  # f = 0 over GF(2^6), GF(2^7)
        code, out = run(capsys, "check", "--terms", "", "--m", str(m), "--k", str(k))
        rep = json.loads(out)
        assert code == 0 and rep["criteria"]["bruteforce"] is brute
        assert rep["planar"] is True and rep["agree"] is True


def test_audit_deterministic_output(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["audit", "--family", "P1", "--m", "2", "--out", str(f1)]) == 0
    assert main(["audit", "--family", "P1", "--m", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    rep = json.loads(f1.read_text())
    assert rep["failures"] == [] and rep["tested"] == 11
    assert rep["modulus"] == "13" and rep["version"]
    assert rep["budget"] == 1 << 22 and rep["threads"] == 1 and "seed" not in rep


def test_audit_csv_format(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["audit", "--family", "P1", "--m", "2", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c0,c1"


def test_audit_budget_exit3(capsys):
    assert main(["audit", "--family", "P2", "--m", "2", "--mode", "converse",
                 "--budget", "10"]) == 3


@pytest.mark.parametrize("argv, tested", [
    (["audit", "--family", "P1", "--m", "2", "--mode", "converse"], 256),
    (["problem27", "--m", "3", "--support", "2"], 12_097),
])
def test_support_sweep_budget_boundary_exit3(tmp_path, capsys, argv, tested):
    out = tmp_path / "r.json"
    assert main(argv + ["--budget", str(tested), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tested"] == tested
    out.unlink()
    assert main(argv + ["--budget", str(tested - 1), "--out", str(out)]) == 3
    assert "budget exceeded" in capsys.readouterr().err and not out.exists()


def test_sufficiency_budget_stops_the_parameter_listing(tmp_path, capsys, monkeypatch):
    # P2 at m=4 has 4096^2 parameter pairs, nearly all admissible: the
    # listing stops at the first block past the 2^22 budget
    blocks = []
    listing = planar.lex_chunks

    def counted(*args):
        for block in listing(*args):
            blocks.append(len(block))
            yield block

    monkeypatch.setattr(planar, "lex_chunks", counted)
    out = tmp_path / "r.json"
    start = time.perf_counter()
    assert main(["audit", "--family", "P2", "--m", "4", "--mode", "sufficiency",
                 "--out", str(out)]) == 3
    assert time.perf_counter() - start < 10
    assert "admissible parameters exceed the audit budget 4194304" in capsys.readouterr().err
    assert not out.exists()
    assert sum(blocks) < 4096 ** 2 // 2 and sum(blocks) > 1 << 22


def _digest_without_version(tmp_path, argv) -> str:
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 0
    kept = b"".join(line for line in out.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b'  "version": '))
    return hashlib.sha256(kept).hexdigest()


# sha256 of audit report bytes without the "version" line, recorded at 0.9.0
# (one DOPoly per parameter): they pin row order and tuple format, including
# the layout of the shapeless SZ-generalized. Hu2 (shapeless, parameter-free)
# was recorded at 0.10.0, before the shapeless sweep lost its own branch.
# The P1 and P2 converse digests were recorded at 0.13.0, when converse swept
# every tuple of the coefficient space instead of one per scaling orbit.
GOLDEN_AUDITS = {
    ("P2", "2", "sufficiency"): "44e784a72410b2f7150af025ea02a769d109802d03df18cb5e7d11839600417c",
    ("P3", "3", "sufficiency"): "537195f1bae5d5248588d88697ab500feeda6da2f88df789a6ec4d3e07434122",
    ("SZ-generalized", "4", "sufficiency"):
        "fb6d400b1c524ecae326124fca6733a33eb23d480a33a582ce06e6bef689e67c",
    ("P3", "2", "converse"): "596cb23122223ab5bff159ca635f19af7f438431496ae6de6ff5eb348845c008",
    ("P1", "3", "converse"): "014a2a6feccb814f1dd77af1b2a3877bd1fb2513318df203488d4b158caaed44",
    ("P1", "4", "converse"): "da5074b8ffbc5561c2478a94c92cb531aee69dc431b78ffde5a0524f9eb8c9da",
    ("P2", "2", "converse"): "07f64466dbd36940d60d2f709489ffd14c93ba28eff6554ece53214fa4449921",
    ("Hu2", "3", "sufficiency"): "4904ee110ba46fa2785741166b1cee912450e81fb3dc9ab4ad7cece76e05213c",
    # recorded at 0.30.0, when report rows reached the writer as lists of hex strings
    ("P1", "4", "sufficiency"): "2e2eec194a64a8a621ad93a5298d47f235b93d2eae22c1bad756e6f97204e838",
    ("P4a", "2", "sufficiency"): "0001c391859f78b441a9c19a14a67d0603274e5aa7801bd7812fcc7297dce68b",
    ("P4b", "2", "sufficiency"): "a7e9c17b202dcd0389793ed65f182b5e69b57df2d60be11e8c339c84b3bc10ab",
}


@pytest.mark.parametrize("family, m, mode", list(GOLDEN_AUDITS))
def test_audit_report_bytes_match_the_recorded_digest(tmp_path, family, m, mode):
    argv = ["audit", "--family", family, "--m", m, "--mode", mode]
    assert _digest_without_version(tmp_path, argv) == GOLDEN_AUDITS[family, m, mode]


# sha256 of problem27 report bytes without the "version" line, recorded at
# 0.12.0, when each support pattern took its own sweep on its own exponents.
GOLDEN_PROBLEM27 = {
    ("2", "0"): "e86a7cd3cc6d3cc66a3991fc61e87767e2b7d5f90802747ed542a623bd05fbcf",
    ("2", "1"): "9865e51db148afc28f2a99455a48ff28b7858d902e366849a3e0149ba2610729",
    ("2", "2"): "f0d4d5a6f6d24f87a93ef5cefc318696157f24dedde91ee56bd970dca70c6645",
    ("3", "1"): "f9ececa8337f702f279cba2ec40e71e9da7617475155040eda57139c28dd95fb",
    ("3", "2"): "188ad695e33cb17e6fabed2ca21155d417bcf40ff6f73358e412d305d53b4301",
    ("3", "3"): "89980d7b3e0e404d3219164bd18456121a7f919a2f93812279606ca614535199",
    ("4", "2"): "17ab4c680a1fdcb5cc837094a7ef7de07de3c7b704f911180fc455d24a665fd9",
}


@pytest.mark.parametrize("m, support", list(GOLDEN_PROBLEM27))
def test_problem27_report_bytes_match_the_recorded_digest(tmp_path, m, support):
    argv = ["problem27", "--m", m, "--support", support]
    assert _digest_without_version(tmp_path, argv) == GOLDEN_PROBLEM27[m, support]


# sha256 of report bytes without the "version" line, recorded at 0.14.0, when
# report rows were Python tuples: a converse audit with extras (P4b m=2: 290
# planar rows, 119 of them extras), the CSV writer, and a semifield report
# with the flags it echoes. The P1 m=4 semifield report, with three
# 256-element nuclei, was recorded at 0.30.0, when nuclei reached the writer
# as lists of hex strings. The P2 m=3 converse audit and problem27 m=6 were
# recorded at 0.33.0, when the sweep took one row per scaling orbit only:
# the P2 m=3 full-support box of 7 * 511 * 511 normal forms spans seven
# kernels._ORBIT_ROWS blocks.
GOLDEN_REPORTS = {
    "audit --family P4b --m 2 --mode converse --budget 16777216":
        "ab31feba3d065cc96e9d10cdb5a8080f5d8fb615520eefef44d0b99307f7cc1c",
    "audit --family P2 --m 2 --format csv":
        "dc145c5ce93d29dfca43fa7e678fc2bd7013108a04076088ad426f5c3064ccc5",
    "semifield --family P1 --m 3 --coeffs 5":
        "c088f28c1a66b57aaa803c29e39095ba49af222cc940fef56fa2cd3f1b36c9ca",
    "semifield --family P1 --m 4 --coeffs 3":
        "9ec3aca5dc4fbd18a9fe93592d84cfe9ea19ac39fbef326d12829376d73b401d",
    "audit --family P2 --m 3 --mode converse --budget 1099511627776":
        "d297edbd5a959bbc0be16ac48f1d8acbfe75855b8219c33804171e398b2d4f0d",
    "problem27 --m 6 --support 2 --budget 1099511627776":
        "80d81a6f2bcda40496dec7ca1f68355d0e4d521c6a2e5dd0cd226acab1b06e8c",
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS))
def test_report_bytes_match_the_recorded_digest(tmp_path, argv):
    assert _digest_without_version(tmp_path, argv.split()) == GOLDEN_REPORTS[argv]


# (report, dumped table) sha256 of semifield output, the report without its
# "version" line, recorded at 0.27.0, when a presemifield's constants came
# from kernels.bilinear_form and its zero divisors from kernels.nonsingular_form.
GOLDEN_SEMIFIELDS = {
    "semifield --family P1 --m 2 --coeffs 2 --construction isotope":
        ("082833b186899d27f5a5854c796cd844818b9b3c5ffb50f591dab280a3e5c1dd",
         "53ab49afafdf4e1b526237b206190d41a68f359237c48a1ea3da0479eb379ef5"),
    "semifield --family P1 --m 2 --coeffs 2 --construction left-division":
        ("26191aab23e220f77c6fd198563a6b981bf68cccb63de0fe644de9441e7c834d",
         "811ca2ccdf8b6171628a1de07996df13c95a5db8a484d21fc3db5f295c827fc7"),
    "semifield --family P1 --m 3 --coeffs 5 --construction isotope":
        ("c088f28c1a66b57aaa803c29e39095ba49af222cc940fef56fa2cd3f1b36c9ca",
         "c4490b23c0c82d5a759d5369dc327e83ef0f012bb2578847805edfcfdefd8768"),
    "semifield --family P1 --m 3 --coeffs 5 --construction left-division":
        ("b045e958e5264bed2e741455c47e868d128cb129fdeffad1c64778dcf5964039",
         "01fd5d98bd3776f845a3b9b2ee12d226bc176da92b3a84801312f0bc59f992c6"),
    "semifield --family P3 --m 2 --coeffs 1":
        ("9816fc9340efed2ba83eed6a3382992de5e4c04da793873741484999d925cdea",
         "9fe466d2e31a28ba6169ef40c9cc9dc6cb9308106d05da10f17ceaab1eb6092d"),
    "semifield --family P4a --m 2 --coeffs 3":
        ("1604ffb04c156ca036e81e217a3a71cc204019873b54925bf7724f02b6f41e17",
         "b37359775802af543e88b0f920733bc9e5871566ea1095fe6d8d8991cf8dc96d"),
    "semifield --family Knuth --m 1 --k 5":
        ("4bc70828cd90650dc4b1fd634dc5062e236d7a3038b2f3244c5d91c0c9d59106",
         "edba74d70f0a176bb5db70809a2276c74fb5115cf83ce96a5b31981be5d06b92"),
    "semifield --family Knuth --m 1 --k 7":
        ("7f193c42115d7e50adc701fdd90692866fc5ef1fe4b3a7305c0443bc786b3e8c",
         "7bab459bf854c3ead58fbb9a545312eaa217f2ca2507cf7e5e6d92759b7389bc"),
    "semifield --family P1 --m 3 --coeffs 5 --e 2b --construction left-division":
        ("1c1438bea1428bb214094c6fee4295bb0589e9100432b60838ec01861210f82a",
         "301ea235a928cf488d2244f350bfe949f7a607b8081b1a4c6808856282756ddb"),
}


@pytest.mark.parametrize("argv", list(GOLDEN_SEMIFIELDS))
def test_semifield_report_and_table_match_the_recorded_digests(tmp_path, argv):
    dump = tmp_path / "t.bin"
    report = _digest_without_version(tmp_path, argv.split() + ["--dump-table", str(dump)])
    table = hashlib.sha256(dump.read_bytes()).hexdigest()
    assert (report, table) == GOLDEN_SEMIFIELDS[argv]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_JSON_VALUES)
def test_report_writer_matches_json_dumps(obj):
    # lists of scalars and tables take the C encoder, dicts are walked, the rest
    # goes to json's indenting encoder
    assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_report_writer_matches_json_dumps_on_tables():
    rows = [["1f", 0, None], ("a]\x00[b", True, 1.5), [float("nan")], ["\u00e9"]]
    for obj in ({"planar": rows, "extras": [], "tested": 3}, [rows, [[]], [[], [1]]]):
        assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)


# int64 tables as reports hand them to the writer: 1-D and 2-D, with zero rows
# or columns, repeated values and values up to 2^20 - 1, nested in dicts and lists
_INT_ARRAYS = hnp.arrays(
    np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
    elements=st.integers(0, 3) | st.integers(0, (1 << 20) - 1))
_ARRAY_REPORTS = st.recursive(
    _INT_ARRAYS | st.integers() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=12)


def _hex_lists(obj):
    """obj with each array replaced by the nested lists of its elements' hex strings."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1:
            return [f"{c:x}" for c in obj.tolist()]
        return [[f"{c:x}" for c in row] for row in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _hex_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_hex_lists(v) for v in obj]
    return obj


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_ARRAY_REPORTS)
def test_report_writer_prints_an_array_as_its_hex_lists(obj):
    assert cli._json(obj) == json.dumps(_hex_lists(obj), sort_keys=True, indent=2)


# sha256 of surface report bytes without the "version" line, recorded at
# 0.10.0, when build_G still spelled out every companion term by hand. The
# m=3 entries were recorded at 0.17.0, when linear_factor_search screened
# every form of its candidate space: coordinate factors (P3), three
# full-support forms on one pivot (P2 1f,3d), two-term forms on three pivots
# (P2 7b,0) and quartic two-term forms (P4b).
GOLDEN_SURFACES = {
    ("P1", "3", "5"): "bbfe1daffe09ae0390053186cf12b10319378e6c1b564d080ae45aa9462cea65",
    ("P2", "2", "1f,3d"): "e79d05fe3015cbf0c0b81926138504a0e2a2114a89ad3d290aec838616e75232",
    ("P3", "2", "b"): "3cd82e508a050da837af91b86d449f433bae01b097f2f7220699a5babcf5b93e",
    ("P4a", "2", "89"): "02b7abac3f17b123d8a3042270c2c847cdb721e2616a0f4adf206b752d73a6c2",
    ("P4b", "2", "8e"): "17cfe249cf84f3e0588bb262a7aae6913a61082c7c2bd73625563d6672192791",
    ("P3", "3", "5"): "86bc8186c31096b696d159e6aa3dcd1099c194e0be83d781cea2a47de62511f6",
    ("P2", "3", "1f,3d"): "e199961528e5b1fedb73154d0a63e03ed36bd58e24c5c8b092b95072a7f0908b",
    ("P2", "3", "7b,0"): "e8a3d661fc3b0d6ded2f921eae6ff8bdaa76c4d77bf8f5b5d419d9f9bec4ad85",
    ("P4b", "3", "8e"): "3156b9811af14cbdb53576a2fe16249806ada13fa491dda4005e8e3469deb2d2",
    # recorded at 0.25.0 under --budget 16777216 (the default budget stopped
    # its affine enumeration then), with the echoed budget set to the default
    ("P1", "8", "3"): "c379ca0a137ce1a244b1943168b7116f21290347f40b57d4eaed5f9b491ea83b",
}


@pytest.mark.parametrize("family, m, coeffs", list(GOLDEN_SURFACES))
def test_surface_report_bytes_match_the_recorded_digest(tmp_path, family, m, coeffs):
    argv = ["surface", "--family", family, "--m", m, "--coeffs", coeffs]
    assert _digest_without_version(tmp_path, argv) == GOLDEN_SURFACES[family, m, coeffs]


# sha256 of json.dumps(specialize_normal(build_G(f), t).to_json(),
# sort_keys=True) for the GOLDEN_SURFACES instances, recorded at 0.16.0,
# before the polynomial algebra merged terms in its constructor alone.
# Surface reports carry only point counts of the specialization, so these
# pin its coefficients.
GOLDEN_SPECIALIZED = {
    ("P1", "3", "5"): "b521152ae5f8b3604c422940a2864c6719fec6e1cceaf406d2de0d0ae97ae859",
    ("P2", "2", "1f,3d"): "be52987102c60ff1865c28bcb2642a4dbac60cc5fcd62a8e63800863c8820266",
    ("P3", "2", "b"): "24402ae166213236a3a1f58d3c42a8a7b7c57f19a0343888c02db8f8cb4adef8",
    ("P4a", "2", "89"): "782d4d2fb69e1d0d025d97c7df0f0007294e869d232376fe54f37555dec33776",
    ("P4b", "2", "8e"): "c8d24ed88b600b553b7d0cb0872a428d95a2ebdb1f860eadb07ecf2e32d435f1",
}


@pytest.mark.parametrize("family, m, coeffs", list(GOLDEN_SPECIALIZED))
def test_specialized_companion_matches_the_recorded_digest(family, m, coeffs):
    t = tower(int(m), REGISTRY[family].k)
    params = tuple(t.fe(int(c, 16)) for c in coeffs.split(","))
    f = planar.family_coeffs(planar.FamilyParams(family, params, t))
    psi = surfaces.specialize_normal(surfaces.build_G(f, t, shape=family), t)
    digest = hashlib.sha256(json.dumps(psi.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_SPECIALIZED[family, m, coeffs]


@pytest.mark.parametrize("family, m", [("P1", 2), ("P1", 3), ("P1", 4), ("P1", 5),
                                       ("P2", 2), ("P2", 3), ("P3", 2), ("P3", 3),
                                       ("P4a", 2), ("P4a", 3), ("P4b", 2), ("P4b", 3)])
def test_surface_affine_zeros_are_the_cone_over_the_projective_zeros(capsys, family, m):
    # the report derives the affine count from the projective one; the
    # affine enumeration over every point is the reference
    t = tower(m, REGISTRY[family].k)
    rng = random.Random(f"{family}-{m}")
    while True:
        params = tuple(t.fe(rng.randrange(t.spec.order)) for _ in range(REGISTRY[family].arity))
        try:
            f = planar.family_coeffs(planar.FamilyParams(family, params, t))
            break
        except ValueError:  # an excluded parameter
            continue
    coeffs = ",".join(f"{p.bits:x}" for p in params)
    code, out = run(capsys, "surface", "--family", family, "--m", str(m), "--coeffs", coeffs)
    assert code == 0
    psi_h = surfaces.specialize_normal(surfaces.build_G(f, t, shape=family), t).homogenize()
    assert json.loads(out)["specialized_affine_zeros"] == surfaces.count_points_affine(psi_h)


def test_surface_factor_search_budget_counts_the_whole_candidate_space(tmp_path, capsys):
    # P3 over GF(2^12) has 16,781,313 normalized candidate forms: past the
    # default --budget 2^22, within 2^25, however few the search tries
    argv = ["surface", "--family", "P3", "--m", "4", "--coeffs", "5",
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 3
    assert "factor-search budget" in capsys.readouterr().err
    assert main(argv + ["--budget", "33554432"]) == 0


def test_surface_point_count_budget_boundary(tmp_path, capsys):
    # P1 at m=2 counts psi_h over P^2(GF(4)): 16 + 4 + 1 = 21 points, while
    # its factor search needs only 5 candidate forms
    argv = ["surface", "--family", "P1", "--m", "2", "--coeffs", "2",
            "--out", str(tmp_path / "r.json")]
    assert main(argv + ["--budget", "20"]) == 3
    assert ("budget exceeded: projective enumeration of 21 points exceeds the budget"
            in capsys.readouterr().err)
    assert not (tmp_path / "r.json").exists()
    assert main(argv + ["--budget", "21"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["specialized_projective_zeros"] == 1


def test_surface_reads_its_counts_off_one_orbit_table(tmp_path, monkeypatch):
    # the expanded specialization and its enumeration stay in the library as
    # the reference; surface reaches neither, and a homogeneous companion
    # (as every family instance's is) needs one orbit table
    def not_on_the_surface_path(*args, **kwargs):
        raise RuntimeError("surface expanded or enumerated psi_h")

    for name in ("specialize_normal", "count_points_projective", "langweil_check",
                 "orbit_has_zero"):
        monkeypatch.setattr(surfaces, name, not_on_the_surface_path)
    tables = []
    table = surfaces.orbit_value_table
    monkeypatch.setattr(surfaces, "orbit_value_table",
                        lambda G, t: tables.append(G.is_homogeneous()) or table(G, t))
    argv = ["surface", "--family", "P3", "--m", "2", "--coeffs", "b"]
    assert _digest_without_version(tmp_path, argv) == GOLDEN_SURFACES["P3", "2", "b"]
    assert tables == [True]


def test_surface_p1_factor_recovery(capsys):
    code, out = run(capsys, "surface", "--family", "P1", "--coeffs", "2", "--m", "2")
    rep = json.loads(out)
    assert code == 0 and rep["planar"] is True and rep["orbit_has_zero"] is False
    # two conjugate linear factors, remainder constant
    assert len(rep["factors"]) == 2
    assert all(mu["multiplicity"] == 1 for mu in rep["factors"])
    assert rep["remainder"]["terms"][0]["exp"] == [0, 0]


def test_semifield_p3_nuclei(capsys):
    code, out = run(capsys, "semifield", "--family", "P3", "--coeffs", "1", "--m", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["left_size"] == 2 and rep["middle_size"] == 4
    assert rep["is_field"] is False


def test_semifield_at_n10_is_a_field(capsys):
    code, out = run(capsys, "semifield", "--family", "P1", "--m", "5", "--coeffs", "3")
    rep = json.loads(out)
    assert code == 0 and rep["order"] == 1024
    assert rep["is_field"] is True and rep["left_size"] == 1024


def test_semifield_runs_no_definition_oracle(capsys, monkeypatch):
    # the presemifield's exact rank test already rejects zero divisors
    def no_oracle(*args):
        raise AssertionError("semifield ran the definition oracle")

    monkeypatch.setattr(kernels, "planar_check_table", no_oracle)
    code, out = run(capsys, "semifield", "--family", "P1", "--m", "3", "--coeffs", "3")
    assert code == 0 and json.loads(out)["is_field"] is True


def test_semifield_beyond_the_table_limit(tmp_path, capsys):
    argv = ["semifield", "--family", "P1", "--m", "7", "--coeffs", "3"]
    code, out = run(capsys, *argv)
    rep = json.loads(out)
    assert code == 0 and rep["order"] == 1 << 14 and rep["is_field"] is True
    report, dump = tmp_path / "r.json", tmp_path / "t.bin"
    assert main(argv + ["--dump-table", str(dump), "--out", str(report)]) == 3
    assert not report.exists() and not dump.exists()
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--terms", "(1,0,1)", "--m", "7", "--k", "3"],
    ["audit", "--family", "Hu2", "--m", "7"],
    ["surface", "--family", "P1", "--coeffs", "3", "--m", "11"],
    ["semifield", "--family", "P1", "--coeffs", "3", "--m", "11"],
    ["problem27", "--m", "11"],
])
def test_fields_beyond_the_ceiling_exit3(tmp_path, capsys, argv):
    # GF(2^21) and GF(2^22): the field itself is refused, before any report
    out = tmp_path / "r.json"
    assert main(argv + ["--out", str(out)]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("module, name, argv", [
    (semifields, "to_semifield", ["semifield", "--family", "P1", "--coeffs", "2", "--m", "2"]),
    (surfaces, "companion_zeros", ["surface", "--family", "P1", "--coeffs", "2", "--m", "2"]),
    (surfaces, "langweil_bound", ["surface", "--family", "P1", "--coeffs", "2", "--m", "2"]),
])
@pytest.mark.parametrize("error", [RuntimeError, AssertionError])
def test_internal_invariant_failure_exits_4(monkeypatch, capsys, module, name, argv, error):
    def broken(*args, **kwargs):
        raise error("planted invariant failure")

    monkeypatch.setattr(module, name, broken)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal invariant failed: planted invariant failure" in captured.err


def test_audit_threads_do_not_change_the_report(tmp_path, monkeypatch):
    def no_thread(self):
        raise AssertionError("a sweep started a thread")

    # --threads N allows at most N worker threads; the sweep runs on the calling one
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for argv, tested in [
            (["audit", "--family", "P1", "--m", "3", "--mode", "converse"], 4096),
            (["audit", "--family", "P3", "--m", "2", "--mode", "converse"], 64 ** 3),
            (["problem27", "--m", "3", "--support", "3"], 64 ** 3)]:
        outs = []
        for threads in ("1", "2"):
            path = tmp_path / f"t{threads}.json"
            assert main(argv + ["--threads", threads, "--out", str(path)]) == 0
            lines = path.read_bytes().splitlines(keepends=True)
            outs.append(b"".join(line for line in lines
                                 if not line.lstrip().startswith(b'"threads"')))
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["tested"] == tested


def test_semifield_table_dump(tmp_path, capsys):
    dump = tmp_path / "t.bin"
    code, _ = run(capsys, "semifield", "--family", "P1", "--coeffs", "2", "--m", "2",
                  "--dump-table", str(dump))
    assert code == 0
    assert dump.stat().st_size == 16 * 16 * 2


def test_semifield_table_dump_at_n11(tmp_path, capsys):
    dump = tmp_path / "t.bin"
    code, _ = run(capsys, "semifield", "--family", "Knuth", "--m", "1", "--k", "11",
                  "--dump-table", str(dump))
    assert code == 0
    data = np.fromfile(dump, dtype="<u2").reshape(2048, 2048)
    want = semifields.to_semifield(semifields.knuth_presemifield(11)).table()
    assert np.array_equal(data, want)


def test_problem27_report(capsys):
    code, out = run(capsys, "problem27", "--m", "2", "--support", "2")
    rep = json.loads(out)
    assert code == 0
    assert rep["tested"] == 256
    assert rep["candidates"] == []
    assert ["0", "0"] in rep["in_shape"]


def test_fields_table(capsys):
    code, out = run(capsys, "fields", "--max-n", "4")
    rep = json.loads(out)
    assert code == 0
    assert rep["moduli"] == [{"n": 1, "modulus": "3"}, {"n": 2, "modulus": "7"},
                             {"n": 3, "modulus": "b"}, {"n": 4, "modulus": "13"}]


def test_fields_rejects_a_negative_max_n(capsys):
    assert main(["fields", "--max-n", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-n must be at least 0\n"


def test_knuth_family_needs_explicit_k():
    assert main(["semifield", "--family", "Knuth", "--m", "1"]) == 1


@pytest.mark.parametrize("command", ["audit", "semifield"])
def test_knuth_family_rejects_degree_one(capsys, command):
    # over GF(2) both Knuth terms fold onto one exponent and cancel: the zero function
    assert main([command, "--family", "Knuth", "--m", "1", "--k", "1"]) == 1
    assert "odd degree k >= 3" in capsys.readouterr().err


def test_knuth_family_with_explicit_k(capsys):
    code, out = run(capsys, "semifield", "--family", "Knuth", "--m", "1", "--k", "5")
    rep = json.loads(out)
    assert code == 0 and rep["is_field"] is False  # proper nuclei at degree 5


def test_meta_lists_only_the_flags_the_subcommand_takes(capsys):
    _, out = run(capsys, "semifield", "--family", "P1", "--coeffs", "2", "--m", "2")
    rep = json.loads(out)
    assert not {"budget", "threads", "seed"} & set(rep)
    _, out = run(capsys, "check", "--terms", "(1,0,1)", "--m", "1", "--k", "2")
    rep = json.loads(out)
    assert "budget" in rep and not {"threads", "seed"} & set(rep)


def test_flags_a_subcommand_does_not_use_are_rejected():
    assert main(["check", "--terms", "(1,0,1)", "--m", "1", "--k", "2",
                 "--format", "csv"]) == 1
    assert main(["surface", "--family", "P1", "--coeffs", "2", "--m", "2",
                 "--threads", "2"]) == 1
    assert main(["audit", "--family", "P1", "--m", "2", "--seed", "1"]) == 1
    assert main(["semifield", "--family", "P1", "--coeffs", "2", "--m", "2",
                 "--budget", "10"]) == 1
    # out-of-range counts
    assert main(["problem27", "--m", "3", "--support", "-1"]) == 1
    assert main(["problem27", "--m", "2", "--threads", "0"]) == 1
    assert main(["audit", "--family", "P1", "--m", "2", "--threads", "-4"]) == 1
    assert main(["audit", "--family", "P1", "--m", "2", "--threads", "0"]) == 1
    assert main(["audit", "--family", "P1", "--m", "2", "--budget", "-5"]) == 1
    assert main(["check", "--terms", "(1,0,1)", "--m", "1", "--k", "2", "--budget", "-1"]) == 1
    assert main(["surface", "--family", "P1", "--coeffs", "2", "--m", "2",
                 "--budget", "-5"]) == 1


def test_the_parser_is_built_once(tmp_path):
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["fields", "--max-n", "2", "--out", str(tmp_path / "f.json")]) == 0
    assert cli._parser.cache_info().misses == 1


def test_choices_and_default_k_come_from_the_registry(monkeypatch):
    sub = cli.build_parser()._subparsers._group_actions[0].choices
    family = {name: next(a for a in sub[name]._actions if a.dest == "family")
              for name in ("audit", "surface", "semifield")}
    assert tuple(family["audit"].choices) == FAMILIES
    assert tuple(family["semifield"].choices) == FAMILIES
    assert list(family["surface"].choices) == [
        tag for tag, rec in REGISTRY.items() if rec.companion is not None]
    seen = []
    monkeypatch.setattr(cli, "cmd_audit", lambda args: seen.append(args.k) or 0)
    for tag, rec in REGISTRY.items():
        code = main(["audit", "--family", tag, "--m", "1"])
        assert code == (0 if rec.k is not None else 1)
    assert seen == [rec.k for rec in REGISTRY.values() if rec.k is not None]


def test_audit_p3_at_m1(capsys):
    code, out = run(capsys, "audit", "--family", "P3", "--m", "1")
    rep = json.loads(out)
    assert code == 0 and rep["k"] == 3
    assert rep["tested"] == 8 and len(rep["planar"]) == 8 and rep["failures"] == []


def test_audit_p1_at_m1_rejects_the_collapsed_shape(capsys):
    assert main(["audit", "--family", "P1", "--m", "1", "--mode", "converse"]) == 1
