import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import time

import pytest

from commclass import acceptance, cli
from commclass.catalog import catalog_group, catalog_groups
from commclass.cocycles import clutch
from commclass.errors import Budget
from commclass.fileio import parse_cocycle
from commclass.groupring import coinvariants, moore_h2
from commclass.groups import abelianization


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")
SPEC_DIR = os.path.join(REPO_ROOT, "specs")


def test_moore_h2_text(capsys):
    code, out, err = run(capsys, "moore-h2", "--group", "Z3")
    assert code == 0
    assert "Z/3" in out


def test_homology_machine_shape_and_determinism(capsys):
    argv = ("homology-e2g", "--group", "S3", "--output", "machine")
    code, out, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code == code2 == 0
    assert out == out2  # byte-for-byte deterministic
    doc = json.loads(out)
    assert doc["version"] == 1
    assert doc["command"] == "homology-e2g"
    assert doc["inputs"]["group"] == "S3"
    rows = {r["name"]: r for r in doc["results"]}
    assert rows["H1"]["value"] == {"free_rank": 8, "invariant_factors": []}
    assert rows["level-sizes"]["value"] == [6, 36, 108, 288]
    for r in doc["results"]:
        assert set(r) == {"name", "value", "ref"}


def test_homology_b2g_text(capsys):
    code, out, _ = run(capsys, "homology-b2g", "--group", "Z2", "--max-dim", "3")
    assert code == 0
    assert "H1" in out and "Z/2" in out
    assert "H3" in out


def test_coinvariants_and_pi2(capsys):
    code, out, _ = run(capsys, "coinvariants", "--group", "Q8")
    assert code == 0
    assert "Z/2 + Z/2" in out
    code, out, _ = run(capsys, "pi2-e2", "--pi1", "2,4", "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    rows = {r["name"]: r["value"] for r in doc["results"]}
    assert rows["pi2"] == {"free_rank": 0, "invariant_factors": [2, 4]}


def test_torus_analyze_text(capsys):
    code, out, _ = run(capsys, "torus-analyze", "--ext", "o2")
    assert code == 0
    assert "psi[1]" in out
    assert "span{(2)}" in out


def test_single_comm(capsys):
    code, out, _ = run(capsys, "single-comm", "--ext", "o2", "--denominator", "4", "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    rows = {r["name"]: r["value"] for r in doc["results"]}
    assert rows["covered"] is True
    assert rows["search-denominator"] == 8
    # an honest failure still exits 0; covered is simply false
    code, out, _ = run(
        capsys,
        "single-comm",
        "--ext",
        "su2_normalizer",
        "--denominator",
        "2",
        "--search-denominator",
        "1",
        "--output",
        "machine",
    )
    assert code == 0
    doc = json.loads(out)
    rows = {r["name"]: r["value"] for r in doc["results"]}
    assert rows["covered"] is False


def test_clutch_reports_a_fractional_winding_exactly(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    spec = "specs/o2_half_loop.cocycle.json"
    winding = clutch(parse_cocycle(spec)[1]).winding
    assert any(winding)
    with open(os.path.join(FIXTURE_DIR, "clutch_o2_half_loop.json")) as fh:
        pinned = {r["name"]: r["value"] for r in json.load(fh)["results"]}
    assert pinned["winding"] == [str(x) for x in winding] == ["1/2"]
    code, out, _ = run(capsys, "clutch", "--cocycle", spec)
    assert code == 0
    assert ["winding", "[1/2]"] in [line.split() for line in out.splitlines()]


def test_clutch_and_invert(capsys):
    spec = os.path.join(SPEC_DIR, "o2_alpha.cocycle.json")
    code, out, _ = run(capsys, "clutch", "--cocycle", spec, "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    rows = {r["name"]: r["value"] for r in doc["results"]}
    assert rows["winding"] == [0]
    assert rows["marker"] is None
    code, out, _ = run(capsys, "clutch", "--cocycle", spec, "--invert", "--output", "machine")
    assert code == 0
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert rows["winding"] == [2]


def test_coset_poset(capsys):
    code, out, _ = run(capsys, "coset-poset", "--group", "S3", "--output", "machine")
    assert code == 0
    rows = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert rows["vertices"] == 17
    assert rows["edges"] == 24
    assert rows["H~1"] == {"free_rank": 8, "invariant_factors": []}


def test_coset_poset_charges_its_degrees(capsys):
    # every reported degree is a row of the document, so a huge --max-dim is refused at once
    code, out, err = run(capsys, "coset-poset", "--group", "S4", "--max-dim", "100000000000")
    assert code == 3
    assert "100000000001" in err and out == ""
    # within the budget the 100001-degree document is the pinned one
    code, out, _ = run(
        capsys, "coset-poset", "--group", "S4", "--max-dim", "100000", "--output", "machine"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "82e1a9d05b9625ea9e539aea8841b3546c44df809887bffcf2cc494542caa93f"
    )


def test_coset_poset_builds_no_boundary_past_its_dimension(capsys, monkeypatch):
    # the S3 order complex has 1-simplices and nothing above them
    from commclass import cosetposet

    calls = []
    real = cosetposet.face_boundary

    def counted(*a, **kw):
        calls.append(len(a[0]))
        return real(*a, **kw)

    monkeypatch.setattr(cosetposet, "face_boundary", counted)
    counts = []
    for max_dim in ("1", "2", "3", "50"):
        calls.clear()
        code, out, _ = run(capsys, "coset-poset", "--group", "S3", "--max-dim", max_dim)
        assert code == 0 and f"H~{max_dim}" in out
        counts.append(list(calls))
    assert counts == [[24, 0]] * 4


# spec or fixtures contents that JSON refuses without a JSONDecodeError
MALFORMED = {
    "not-utf8": b"\xff\xfe",
    "nested": b"[" * 200_000,
    "long-int": b'{"n": ' + b"9" * 5000 + b"}",
}


def test_parse_error_exit_code(capsys, tmp_path):
    code, out, err = run(capsys, "moore-h2", "--group", "Nope")
    assert code == 2
    assert "Nope" in err
    assert out == ""
    for name, content in MALFORMED.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(content)
        for command, flag in (("moore-h2", "--group"), ("torus-analyze", "--ext"), ("clutch", "--cocycle")):
            code, out, err = run(capsys, command, flag, str(path))
            assert (code, out) == (2, ""), (name, flag)
            assert str(path) in err and "Traceback" not in err


def test_budget_exit_code(capsys):
    code, out, err = run(capsys, "homology-e2g", "--group", "S4", "--budget", "100")
    assert code == 3
    assert "budget" in err.lower()
    # one meter for the run: S4's 14 lattice sets and 14 counts, the 578
    # chains of its closure-reduced coset poset through dimension 1, the
    # degree, the elimination's pivots and the 3 level-size terms, 1401 in all
    e2g = ("homology-e2g", "--group", "S4", "--max-dim", "0")
    code, out, err = run(capsys, *e2g, "--budget", "1400")
    assert code == 3
    assert "brings the total to 1401, which exceeds budget 1400" in err and out == ""
    assert run(capsys, *e2g, "--budget", "1401")[0] == 0
    # pi2-e2 charges the |A|^2 entries of A's Cayley table before building A
    code, out, err = run(capsys, "pi2-e2", "--pi1", "400", "--budget", "1000")
    assert code == 3
    assert "160000" in err and out == ""
    assert run(capsys, "pi2-e2", "--pi1", "2,4", "--budget", "128")[0] == 3
    assert run(capsys, "pi2-e2", "--pi1", "2,4", "--budget", "129")[0] == 0
    # the group-ring commands charge the columns they build, one per element
    # and generator, 3·23 for coinvariants of S4, before building them
    code, out, err = run(capsys, "coinvariants", "--group", "S4", "--budget", "68")
    assert code == 3
    assert "charging 69 brings the total to 69" in err and out == ""
    # the command also eliminates S4's abelianization, whose quotient Z2 is
    # one non-unit pivot of Markowitz cost 0, so it spends what coinvariants does
    for command, total in (("coinvariants", 367), ("moore-h2", 898)):
        code, out, err = run(capsys, command, "--group", "S4", "--budget", str(total - 1))
        assert code == 3 and out == ""
        assert run(capsys, command, "--group", "S4", "--budget", str(total))[0] == 0


@pytest.mark.parametrize(
    "argv, spent",
    [
        (("homology-b2g", "--group", "S4", "--max-dim", "3"), 9447),
        (("homology-b2g", "--group", "Q16", "--max-dim", "3"), 2373),
        (("homology-b2g", "--group", "Z16", "--max-dim", "3"), 498),
        (("homology-e2g", "--group", "A4", "--max-dim", "2"), 212),
        (("coset-poset", "--group", "D12", "--max-dim", "2"), 824),
    ],
)
def test_one_run_spends_exactly_its_pinned_work(capsys, monkeypatch, argv, spent):
    # the work charged by the critical cells, the matched cells the gradient
    # flow meets and every pivot of the elimination, pinned to the unit
    meters = []

    class Recording(Budget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            meters.append(self)

    monkeypatch.setattr(cli, "Budget", Recording)
    assert run(capsys, *argv)[0] == 0
    assert [m.spent for m in meters] == [spent]


def test_coinvariants_charges_the_abelianization_to_the_run(capsys):
    # the command eliminates the abelianization's presentation on the run's
    # meter: Q8's costs 6 on top of the 35 charged by coinvariants
    Q8, meter = catalog_group("Q8"), Budget()
    coinvariants(Q8, meter)
    assert meter.spent == 35
    assert abelianization(Q8, meter) == [2, 2] and meter.spent == 41
    code, out, err = run(capsys, "coinvariants", "--group", "Q8", "--budget", "40")
    assert code == 3 and out == "" and "elimination" in err and "exceeds budget 40" in err
    assert run(capsys, "coinvariants", "--group", "Q8", "--budget", "41")[0] == 0

def test_one_run_spends_one_budget(capsys):
    # moore-h2 runs moore_h2 and coinvariants on one meter: a budget that
    # covers either call alone refuses the command, one that covers both runs it
    S4 = catalog_group("S4")
    spent = []
    for fn in (moore_h2, coinvariants):
        meter = Budget()
        fn(S4, meter)
        spent.append(meter.spent)
    assert spent == [531, 367]
    code, out, err = run(capsys, "moore-h2", "--group", "S4", "--budget", str(max(spent)))
    assert code == 3 and out == "" and "exceeds budget 531" in err
    assert run(capsys, "moore-h2", "--group", "S4", "--budget", str(sum(spent)))[0] == 0


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("homology-e2g", "--group", "Z4xZ4", "--max-dim", "4"),
            "98a8cdf181f75065681b53c003806d8f8be8dcfbbf82417ac366b4dcc6c664f3",
        ),
        (
            ("homology-e2g", "--group", "S3", "--max-dim", "1000"),
            "3fe37b7629243ee75e57fab743bdca6e2d2d283ca25c37bdd305d7e6bb3e8395",
        ),
    ],
)
def test_homology_answers_what_it_builds_under_the_default_budget(capsys, argv, digest):
    # neither command builds the |G|^(N+1) tuples of its model, so neither is
    # charged them; the documents are those of the build that charged them,
    # run under a budget raised past them
    code, out, err = run(capsys, *argv, "--output", "machine")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("homology-b2g", "--group", "Q8", "--max-dim", "1000000000"),
        ("homology-e2g", "--group", "Q8", "--max-dim", "1000000000"),
        ("homology-b2g", "--group", "S4", "--budget", "100"),
        ("torus-analyze", "--ext", "su2_normalizer", "--budget", "0"),
    ],
)
def test_refusals_come_before_the_bulk_of_the_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and "exceeds budget" in err


def test_homology_e2g_walks_the_centraliser_lattice_once(capsys, monkeypatch):
    calls = []
    walk = cli.continuation_counts

    def counting(G, n, budget):
        calls.append(n)
        return walk(G, n, budget)

    monkeypatch.setattr(cli, "continuation_counts", counting)
    code, _, _ = run(capsys, "homology-e2g", "--group", "S4", "--max-dim", "2")
    assert code == 0 and calls == [3]


def test_elimination_is_charged_to_the_budget(capsys, tmp_path):
    # A6's closure-reduced coset poset has 84,060 chains of dimension 1: the
    # unit pivots of its elimination run past the default budget, which
    # refuses them long before the non-unit finish
    path = tmp_path / "a6.json"
    generators = [[1, 2, 0, 3, 4, 5], [0, 2, 3, 4, 5, 1]]
    path.write_text(json.dumps({"format": "perm", "degree": 6, "generators": generators}))
    start = time.perf_counter()
    code, out, err = run(capsys, "homology-e2g", "--group", str(path), "--max-dim", "1")
    assert time.perf_counter() - start < 30
    assert code == 3 and out == "" and "elimination: unit pivot" in err


def _symmetric_spec(degree):
    # a transposition and a full cycle generate the symmetric group
    swap = [1, 0] + list(range(2, degree))
    cycle = list(range(1, degree)) + [0]
    return {"format": "perm", "degree": degree, "generators": [swap, cycle]}


_TRIVIAL = {"format": "catalog", "name": "Z1"}
_WIDE_TORUS = {"rank": 20000, "finite": _TRIVIAL, "action": {}}
_LONG_QUOTIENT = {
    "rank": 1,
    "finite": _TRIVIAL,
    "action": {},
    "central_quotient": [{"t": ["1/1000000000"], "f": 0}],
}


@pytest.mark.parametrize(
    "command, flag, spec, budget",
    [
        # S8's closure and its 40320^2 Cayley table
        ("homology-b2g", "--group", _symmetric_spec(8), ["--budget", "100"]),
        # S10 asks for 10^13 table entries, past the default budget
        ("homology-b2g", "--group", _symmetric_spec(10), []),
        # 20000^2 action entries
        ("torus-analyze", "--ext", _WIDE_TORUS, ["--budget", "100"]),
        # a central quotient of 10^9 elements
        ("torus-analyze", "--ext", _LONG_QUOTIENT, ["--budget", "100"]),
        # a cocycle reads its inline extension under the same budget
        ("clutch", "--cocycle", {"extension": _WIDE_TORUS, "arcs": {}}, ["--budget", "100"]),
    ],
)
def test_spec_parsing_is_charged_against_the_budget(capsys, tmp_path, command, flag, spec, budget):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, out, err = run(capsys, command, flag, str(path), *budget)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert "exceeds budget" in err and "Traceback" not in err


def test_validation_error_exit_code(capsys):
    code, out, err = run(capsys, "pi2-e2", "--pi1", "3,2")
    assert code == 2
    assert "divisibility" in err


@pytest.mark.parametrize("command", ["homology-b2g", "homology-e2g"])
def test_broken_boundary_exit_code(capsys, monkeypatch, command):
    from commclass import cosetposet, simplicial
    from commclass.intlinalg import IntMatrix

    flipped = []
    build = simplicial._bar_chain

    def flip_one_sign(G, t):
        # one coefficient of the Morse complex's top boundary d_3, checked
        # against d_2; S3 keeps every cell critical, so the chain is a
        # column of d_3 itself
        chain = build(G, t)
        if chain and len(t) == 3 and not flipped:
            face = next(iter(chain))
            chain[face] = -chain[face]
            flipped.append(face)
        return chain

    boundary = cosetposet._chain_boundary

    def flip_one_entry(levels, d):
        # one coefficient of the poset's d_1, the only nonzero boundary of
        # S3's order complex, checked against the augmentation
        if d != 1:
            return boundary(levels, d)
        columns = boundary(levels, d).column_dicts()
        col = columns[0]
        row = next(iter(col))
        col[row] = -col[row]
        flipped.append((d, row))
        return IntMatrix.from_column_dicts(columns, len(levels[d - 1]))

    if command == "homology-b2g":
        monkeypatch.setattr(simplicial, "_bar_chain", flip_one_sign)
    else:
        monkeypatch.setattr(cosetposet, "_chain_boundary", flip_one_entry)
    code, out, err = run(capsys, command, "--group", "S3", "--max-dim", "2")
    assert flipped and code == 4
    assert "is nonzero" in err and out == ""


def test_fixtures_pin_match_drift(capsys, tmp_path):
    fix = tmp_path / "fix.json"
    argv = ("moore-h2", "--group", "Z3", "--output", "machine", "--fixtures", str(fix))
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "fixtures: pinned" in err
    assert fix.exists()
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "fixtures: match" in err
    # tamper with the pinned value to force a drift report
    doc = json.loads(fix.read_text())
    changed = 0
    for row in doc["results"]:
        if row["name"] == "moore-h2":
            row["value"] = {"free_rank": 1, "invariant_factors": []}
            changed += 1
    assert changed == 1
    fix.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert "drift" in err and "moore-h2" in err


def test_verify_all_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance,
        "run_all",
        lambda budget: [(1, "stub check", False, "forced failure")],
    )
    code, out, err = run(capsys, "verify-all")
    assert code == 4
    assert "FAIL" in out


def test_verify_all_refused_by_the_budget_exits_3(capsys):
    code, out, err = run(capsys, "verify-all", "--budget", "1000")
    assert code == 3
    assert out == ""
    # criterion 4 builds S3's homogeneous model, 1,554 translate entries on
    # top of the depth and the walk
    assert err == "error: G-translates: charging 1554 brings the total to 1760, which exceeds budget 1000\n"


@pytest.mark.parametrize("invert", [False, True])
def test_clutch_of_arcs_that_are_not_a_cocycle_exits_2(capsys, tmp_path, invert):
    # a13 moved off a12*a23 at the back triple point: the loop cannot close
    with open(os.path.join(SPEC_DIR, "o2_alpha.cocycle.json")) as fh:
        doc = json.load(fh)
    doc["extension"] = os.path.abspath(os.path.join(SPEC_DIR, doc["extension"]))
    doc["arcs"]["a13"][1]["t"] = ["1/2"]
    spec = tmp_path / "broken.cocycle.json"
    spec.write_text(json.dumps(doc))
    argv = ("clutch", "--cocycle", str(spec)) + (("--invert",) if invert else ())
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "cocycle-equation fails at back: a12*a23 = " in err
    assert "Traceback" not in err


def test_clutch_exits_4_when_the_product_arc_misses_a13(capsys, monkeypatch):
    from test_cocycles import shift_last_lift

    shift_last_lift(monkeypatch)
    spec = os.path.join(SPEC_DIR, "o2_alpha.cocycle.json")
    code, out, err = run(capsys, "clutch", "--cocycle", spec)
    assert code == 4
    assert out == ""
    assert "misses a13" in err
    assert "Traceback" not in err


def test_verify_all_success_stub(capsys, monkeypatch):
    monkeypatch.setattr(
        acceptance,
        "run_all",
        lambda budget: [(1, "stub check", True, "ok")],
    )
    code, out, err = run(capsys, "verify-all", "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    rows = {r["name"]: r["value"] for r in doc["results"]}
    assert rows["all-passed"] is True
    assert rows["criterion-01"]["passed"] is True


FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize(
    "name, argv",
    [
        ("homology-e2g_S3", ("homology-e2g", "--group", "S3", "--max-dim", "2")),
        ("homology-e2g_D8", ("homology-e2g", "--group", "D8", "--max-dim", "2")),
        ("homology-e2g_Z2xZ2", ("homology-e2g", "--group", "Z2xZ2", "--max-dim", "2")),
        ("homology-b2g_Q8", ("homology-b2g", "--group", "Q8", "--max-dim", "3")),
        ("homology-b2g_Z2xZ2", ("homology-b2g", "--group", "Z2xZ2", "--max-dim", "3")),
        ("coset-poset_S3", ("coset-poset", "--group", "S3")),
        ("coset-poset_Q8", ("coset-poset", "--group", "Q8")),
        ("moore-h2_Z4", ("moore-h2", "--group", "Z4")),
        ("coinvariants_Z4", ("coinvariants", "--group", "Z4")),
        ("homology-b2g_Z2xZ4", ("homology-b2g", "--group", "Z2xZ4", "--max-dim", "3")),
        ("torus-analyze_su2_normalizer", ("torus-analyze", "--ext", "su2_normalizer")),
        ("torus-analyze_o2_half", ("torus-analyze", "--ext", "o2_half")),
        ("torus-analyze_perm_s3", ("torus-analyze", "--ext", "perm_s3")),
        ("single-comm_d8_square_2", ("single-comm", "--ext", "d8_square", "--denominator", "2")),
        (
            "single-comm_su2_normalizer_12",
            ("single-comm", "--ext", "su2_normalizer", "--denominator", "12"),
        ),
        ("clutch_o2_alpha", ("clutch", "--cocycle", "specs/o2_alpha.cocycle.json")),
        (
            "clutch_o2_alpha_invert",
            ("clutch", "--cocycle", "specs/o2_alpha.cocycle.json", "--invert"),
        ),
        ("homology-e2g_Z12", ("homology-e2g", "--group", "Z12", "--max-dim", "2")),
        ("homology-e2g_A4", ("homology-e2g", "--group", "A4", "--max-dim", "2")),
        ("homology-e2g_D12", ("homology-e2g", "--group", "D12", "--max-dim", "2")),
        ("homology-e2g_Q16", ("homology-e2g", "--group", "Q16", "--max-dim", "2")),
        ("homology-e2g_Q8oZ4", ("homology-e2g", "--group", "Q8oZ4", "--max-dim", "2")),
        # wide top boundaries with torsion: the short-side elimination order
        ("homology-b2g_Z3xZ3", ("homology-b2g", "--group", "Z3xZ3", "--max-dim", "3")),
        ("homology-b2g_Q8oZ4", ("homology-b2g", "--group", "Q8oZ4", "--max-dim", "3")),
        ("homology-b2g_Z2xZ6", ("homology-b2g", "--group", "Z2xZ6", "--max-dim", "3")),
        # degree 3 of the homogeneous model: an abelian and a nonabelian group of order 16
        ("homology-e2g_Z4xZ4_3", ("homology-e2g", "--group", "Z4xZ4", "--max-dim", "3")),
        ("homology-e2g_Q8oZ4_3", ("homology-e2g", "--group", "Q8oZ4", "--max-dim", "3")),
        # the rest of the extension catalog
        ("torus-analyze_o2", ("torus-analyze", "--ext", "o2")),
        ("torus-analyze_trivial_z3", ("torus-analyze", "--ext", "trivial_z3")),
        ("torus-analyze_swap2", ("torus-analyze", "--ext", "swap2")),
        ("torus-analyze_reflect2", ("torus-analyze", "--ext", "reflect2")),
        ("torus-analyze_rot4", ("torus-analyze", "--ext", "rot4")),
        ("torus-analyze_rot3", ("torus-analyze", "--ext", "rot3")),
        ("torus-analyze_rot6", ("torus-analyze", "--ext", "rot6")),
        ("torus-analyze_antipodal3", ("torus-analyze", "--ext", "antipodal3")),
        ("torus-analyze_d8_square", ("torus-analyze", "--ext", "d8_square")),
        ("torus-analyze_q8_sign", ("torus-analyze", "--ext", "q8_sign")),
        # the commuting-tuple model to degree 3: cyclic, abelian of rank 2,
        # nonabelian with a centre, and centreless
        ("homology-b2g_Z8", ("homology-b2g", "--group", "Z8", "--max-dim", "3")),
        ("homology-b2g_Z9", ("homology-b2g", "--group", "Z9", "--max-dim", "3")),
        ("homology-b2g_Z16", ("homology-b2g", "--group", "Z16", "--max-dim", "3")),
        ("homology-b2g_Z2xZ8", ("homology-b2g", "--group", "Z2xZ8", "--max-dim", "3")),
        ("homology-b2g_Z4xZ4", ("homology-b2g", "--group", "Z4xZ4", "--max-dim", "3")),
        ("homology-b2g_D16", ("homology-b2g", "--group", "D16", "--max-dim", "3")),
        ("homology-b2g_Q16", ("homology-b2g", "--group", "Q16", "--max-dim", "3")),
        ("homology-b2g_S4", ("homology-b2g", "--group", "S4", "--max-dim", "3")),
        # the homogeneous model to high degree, pinned by the build that
        # enumerated every commuting tuple, degenerate ones included
        ("homology-e2g_Z2_18", ("homology-e2g", "--group", "Z2", "--max-dim", "18")),
        ("homology-e2g_Z3_11", ("homology-e2g", "--group", "Z3", "--max-dim", "11")),
        # the cover of a group with a centre to degree 4, pinned by the
        # cone-matching build (36 s and 1.5 GB on a 2-core machine)
        (
            "homology-e2g_Q8oZ4_4",
            ("homology-e2g", "--group", "Q8oZ4", "--max-dim", "4", "--budget", "100000000"),
        ),
        # the commuting-tuple model to degree 10, pinned by the build that
        # listed and classified every nondegenerate commuting tuple
        ("homology-b2g_Z4_10", ("homology-b2g", "--group", "Z4", "--max-dim", "10")),
        ("homology-b2g_Z2xZ2_10", ("homology-b2g", "--group", "Z2xZ2", "--max-dim", "10")),
        # a centreless group of order 24, pinned by the Morse cover of
        # build_e, which kept every nondegenerate cell critical
        ("homology-e2g_S4_3", ("homology-e2g", "--group", "S4", "--max-dim", "3")),
        # the group-ring commands on two groups of three generators each and
        # on Z2xZ4, pinned by the builds with a column per pair of G x G
        ("coinvariants_S4", ("coinvariants", "--group", "S4")),
        ("moore-h2_Q8oZ4", ("moore-h2", "--group", "Q8oZ4")),
        ("pi2-e2_2_4", ("pi2-e2", "--pi1", "2,4")),
        # the cover charged by the rows it scans, vouched for by the
        # brute-force scan of test_torus
        ("single-comm_perm_s3_2", ("single-comm", "--ext", "perm_s3", "--denominator", "2")),
        # pinned under a budget raised past the |G|^9 tuples the build was
        # charged for, none of which it lists
        ("homology-b2g_Q8_8", ("homology-b2g", "--group", "Q8", "--max-dim", "8")),
        # a loop in the central quotient of o2_half: half a turn, pinned by
        # the build that writes non-integral windings as "p/q"
        ("clutch_o2_half_loop", ("clutch", "--cocycle", "specs/o2_half_loop.cocycle.json")),
    ],
)
def test_machine_documents_match_pinned_fixtures(capsys, monkeypatch, name, argv):
    path = os.path.abspath(os.path.join(FIXTURE_DIR, name + ".json"))
    assert os.path.exists(path)
    # the clutch documents record the spec path as given, relative to the repository root
    monkeypatch.chdir(REPO_ROOT)
    code, _, err = run(capsys, *argv, "--fixtures", path)
    assert code == 0
    assert "fixtures: match" in err


def test_homology_b2g_gradient_flow_needs_no_recursion(capsys):
    # Z16's longest gradient path at depth 4 has 42 cells.  The command
    # needs about 16 frames above this one, so a flow that recursed along
    # the path would overrun a limit 35 frames above it.
    path = os.path.join(FIXTURE_DIR, "homology-b2g_Z16.json")
    argv = ("homology-b2g", "--group", "Z16", "--max-dim", "3", "--output", "machine")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 35)
    try:
        code, _, err = run(capsys, *argv, "--fixtures", path)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert "fixtures: match" in err


def _results(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--output", "machine")
    assert code == 0
    return {r["name"]: r["value"] for r in json.loads(out)["results"]}


@pytest.mark.parametrize("name", [name for name, _ in catalog_groups(16)])
def test_homology_e2g_matches_the_coset_poset_through_degree_3(capsys, name):
    # the coset poset of abelian subgroups is an independent model of E(2,G)
    e2g = _results(capsys, "homology-e2g", "--group", name, "--max-dim", "3")
    poset = _results(capsys, "coset-poset", "--group", name, "--max-dim", "3")
    assert [e2g["H~0"]] + [e2g[f"H{k}"] for k in (1, 2, 3)] == [poset[f"H~{k}"] for k in range(4)]


def test_negative_max_dim_exits_2(capsys):
    code, _, _ = run(capsys, "homology-e2g", "--group", "Z2", "--max-dim", "-1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("homology-b2g", "--group", "Z2", "--max-dim", "0"),
        ("homology-e2g", "--group", "Z2", "--max-dim", "0"),
        ("coinvariants", "--group", "Z2"),
        ("moore-h2", "--group", "Z1"),
        ("pi2-e2", "--pi1", "2"),
        ("coset-poset", "--group", "Z2", "--max-dim", "0"),
        ("torus-analyze", "--ext", "o2"),
        ("single-comm", "--ext", "o2", "--denominator", "2"),
        ("clutch", "--cocycle", "specs/o2_alpha.cocycle.json"),
        ("verify-all",),
    ],
)
def test_negative_budget_is_a_usage_error_on_every_command(capsys, monkeypatch, argv):
    monkeypatch.chdir(REPO_ROOT)
    for budget in ("-1", "-5"):
        assert run(capsys, *argv, "--budget", budget) == (
            2,
            "",
            "error: --budget must be nonnegative\n",
        )
    # a zero budget is a budget: the command runs or is refused by it
    code, _, err = run(capsys, *argv, "--budget", "0")
    assert code in (0, 3) and "must be nonnegative" not in err


@pytest.mark.parametrize(
    "argv, top_degree",
    [
        (("homology-e2g", "--group", "Z4", "--max-dim", "2"), 3),
        (("homology-b2g", "--group", "Q8", "--max-dim", "3"), 4),
        (("homology-e2g", "--group", "S3", "--max-dim", "2"), 3),
    ],
)
def test_homology_builds_and_reduces_each_boundary_once(capsys, monkeypatch, argv, top_degree):
    # top_degree is the top level of the model, max_dim + 1
    from commclass import cosetposet, intlinalg, simplicial

    built = {}
    truncations = []
    morse = []
    poset = []
    reduced = []
    products = []
    build = simplicial.SimplicialTruncation.boundary_matrix
    init = simplicial.SimplicialTruncation.__init__
    morse_complex = simplicial.morse_complex
    chain_boundary = cosetposet._chain_boundary
    snf = intlinalg.snf_diagonal
    matmul = intlinalg.IntMatrix.__matmul__

    def counting_build(S, k):
        M = build(S, k)
        built.setdefault(k, []).append(M)
        return M

    def counting_init(S, *args, **kwargs):
        truncations.append(S)
        init(S, *args, **kwargs)

    def counting_morse(*args, **kwargs):
        morse.append(args)
        return morse_complex(*args, **kwargs)

    def counting_chain_boundary(levels, d):
        M = chain_boundary(levels, d)
        poset.append((d, M))
        return M

    def counting_snf(M, budget):
        reduced.append(M)
        return snf(M, budget)

    def recording_matmul(A, B):
        products.append((A, B))
        return matmul(A, B)

    monkeypatch.setattr(simplicial.SimplicialTruncation, "boundary_matrix", counting_build)
    monkeypatch.setattr(simplicial.SimplicialTruncation, "__init__", counting_init)
    monkeypatch.setattr(cli, "morse_complex", counting_morse)
    monkeypatch.setattr(cosetposet, "_chain_boundary", counting_chain_boundary)
    monkeypatch.setattr(intlinalg, "snf_diagonal", counting_snf)
    monkeypatch.setattr(intlinalg.IntMatrix, "__matmul__", recording_matmul)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    # neither command builds its model: no truncation, no full boundary
    assert truncations == [] and built == {}
    if argv[0] == "homology-b2g":
        # the critical cells of the collapsing scheme, whose Morse homology
        # test_simplicial checks: Q8 has a centre to match through
        assert len(morse) == 1 and poset == []
        critical = [1, 4, 7, 10, 13]
        assert len(reduced) == top_degree
        for k, M in enumerate(reduced, start=1):
            assert (M.rows, M.cols) == (critical[k - 1], critical[k])
    else:
        # the order complex of the closure-reduced coset poset, up to its
        # first empty level: Z4 is abelian and its poset a point, S3 has
        # 17 cosets and 24 inclusions and no chain of three; each boundary
        # is built once and reduced once, and no Morse complex is built
        assert morse == []
        shapes = {"Z4": [(1, 0)], "S3": [(17, 24), (24, 0)]}[argv[2]]
        assert [d for d, _ in poset] == list(range(1, len(shapes) + 1))
        assert [(M.rows, M.cols) for _, M in poset] == shapes
        assert len(reduced) == len(poset) <= top_degree
        assert all(M is B for M, (_, B) in zip(reduced, poset))
    # d_k o d_{k+1} = 0 is checked on the boundaries reduced
    for k in range(1, len(reduced)):
        if reduced[k - 1].rows and reduced[k].cols:
            assert any(A is reduced[k - 1] and B is reduced[k] for A, B in products)
    # and those checks are the only products: neither path multiplies other matrices
    checks = list(zip(reduced, reduced[1:]))
    assert all(any(A is d and B is e for d, e in checks) for A, B in products)


def _options(parser) -> list:
    """Each argument of parser in order, as _opt writes it."""
    return [
        _opt(
            a.option_strings,
            a.dest,
            type=getattr(a.type, "__name__", a.type),
            default=a.default,
            required=a.required,
            choices=tuple(a.choices) if a.choices else None,
            metavar=a.metavar,
            action=type(a).__name__,
            help=a.help,
        )
        for a in parser._actions
    ]


# the fields an _opt call does not name
_UNNAMED = {
    "type": None,
    "default": None,
    "required": False,
    "choices": None,
    "metavar": None,
    "action": "_StoreAction",
    "help": None,
}


def _opt(strings, dest, **fields) -> dict:
    return {"strings": strings, "dest": dest, **_UNNAMED, **fields}


_HELP = _opt(
    ["-h", "--help"],
    "help",
    default="==SUPPRESS==",
    action="_HelpAction",
    help="show this help message and exit",
)
_SHARED = [
    _opt(["--output"], "output", default="text", choices=("text", "machine")),
    _opt(["--fixtures"], "fixtures", metavar="PATH"),
    _opt(["--budget"], "budget", type="int", default=10_000_000),
]
_SPEC_HELP = "catalog name or spec file"
_GROUP = _opt(["--group"], "group", required=True, help=_SPEC_HELP)
_MAX_DIM = _opt(["--max-dim"], "max_dim", type="int", default=2)
_EXT = _opt(["--ext"], "ext", required=True, help=_SPEC_HELP)

# each subcommand in order: its help, then the arguments it takes between -h and _SHARED
_SURFACE = {
    "homology-b2g": ("homology of the commuting-tuple simplicial space", [_GROUP, _MAX_DIM]),
    "homology-e2g": ("homology of the homogeneous total-space model", [_GROUP, _MAX_DIM]),
    "coinvariants": ("augmentation-ideal coinvariants", [_GROUP]),
    "moore-h2": ("middle homology of the Moore complex", [_GROUP]),
    "coset-poset": ("reduced homology of the coset poset of abelian subgroups", [_GROUP, _MAX_DIM]),
    "pi2-e2": (
        "pi2 of the connected total-space model",
        [_opt(["--pi1"], "pi1", required=True, help="invariant factors, e.g. 2,2")],
    ),
    "torus-analyze": ("commutator lattice analysis of a torus extension", [_EXT]),
    "single-comm": (
        "single-commutator coverage of the commutator subtorus",
        [
            _EXT,
            _opt(["--denominator"], "denominator", type="int", required=True),
            _opt(["--search-denominator"], "search_denominator", type="int"),
        ],
    ),
    "clutch": (
        "clutching winding of a patch cocycle",
        [
            _opt(["--cocycle"], "cocycle", required=True, help="cocycle spec file"),
            _opt(
                ["--invert"], "invert", default=False, action="_StoreTrueAction",
                help="invert pointwise before clutching",
            ),
        ],
    ),
    "verify-all": ("run the full acceptance suite", []),
}


def test_cli_surface_is_pinned():
    top = cli._parser()
    assert top.prog == "commclass"
    assert top.description == (
        "Homology of commuting-tuple spaces, torus-extension commutator lattices, "
        "and clutching windings of commutative cocycles."
    )
    sub = top._actions[1]
    assert _options(top) == [
        _HELP,
        _opt([], "command", required=True, choices=tuple(_SURFACE), action="_SubParsersAction"),
    ]
    assert [(c.dest, c.help) for c in sub._choices_actions] == [(k, v[0]) for k, v in _SURFACE.items()]
    for name, (_, own) in _SURFACE.items():
        assert _options(sub.choices[name]) == [_HELP, *own, *_SHARED], name


def test_text_run_encodes_no_machine_document(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a text run encoded a machine document")

    monkeypatch.setattr(cli, "_machine_doc", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.chdir(REPO_ROOT)
    for argv in (
        ("moore-h2", "--group", "Z3"),
        ("torus-analyze", "--ext", "o2_half"),
        ("clutch", "--cocycle", "specs/o2_alpha.cocycle.json", "--output", "text"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    make = cli._parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_parser", lambda: built.append(1) or make())
    monkeypatch.chdir(REPO_ROOT)

    def pinned(name):
        with open(os.path.join(FIXTURE_DIR, name + ".json")) as fh:
            return fh.read()

    cocycle = ("clutch", "--cocycle", "specs/o2_alpha.cocycle.json", "--output", "machine")
    # a flag given once must not stick to the next command
    assert run(capsys, *cocycle, "--invert") == (0, pinned("clutch_o2_alpha_invert"), "")
    assert run(capsys, *cocycle) == (0, pinned("clutch_o2_alpha"), "")
    with pytest.raises(SystemExit) as rejected:
        cli.main(["homology-e2g", "--group", "S3", "--max-dim", "x"])
    assert rejected.value.code == 2
    assert "--max-dim" in capsys.readouterr().err
    e2g = ("homology-e2g", "--group", "S3", "--max-dim", "2", "--output", "machine")
    assert run(capsys, *e2g) == (0, pinned("homology-e2g_S3"), "")
    code, out, _ = run(capsys, "moore-h2", "--group", "Z3")
    assert code == 0 and "Z/3" in out
    assert run(capsys, "homology-e2g", "--group", "S4", "--budget", "100")[0] == 3
    assert run(capsys, "moore-h2", "--group", "Z4", "--output", "machine") == (
        0,
        pinned("moore-h2_Z4"),
        "",
    )
    assert len(built) == 1


def test_single_degree_homology_builds_and_reduces_two_boundaries(monkeypatch):
    from commclass import intlinalg, simplicial
    S = simplicial.build_c(catalog_group("Q8"), 4)
    built = []
    reduced = []
    build = simplicial.SimplicialTruncation.boundary_matrix
    snf = intlinalg.snf_diagonal

    def counting_build(S, k):
        built.append(k)
        return build(S, k)

    def counting_snf(M, budget):
        reduced.append(M)
        return snf(M, budget)

    monkeypatch.setattr(simplicial.SimplicialTruncation, "boundary_matrix", counting_build)
    monkeypatch.setattr(intlinalg, "snf_diagonal", counting_snf)
    for k, degrees in [(3, [3, 4]), (1, [1, 2]), (0, [1])]:
        built.clear()
        reduced.clear()
        simplicial.homology(S, k)
        assert built == degrees
        assert len(reduced) == len(degrees)


def test_coset_poset_enumerates_subgroups_once(capsys, monkeypatch):
    from commclass import cosetposet

    calls = []
    enumerate_subgroups = cosetposet.abelian_subgroups

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_subgroups(*args, **kwargs)

    monkeypatch.setattr(cosetposet, "abelian_subgroups", counting)
    monkeypatch.setattr(cli, "abelian_subgroups", counting, raising=False)
    code, _, _ = run(capsys, "coset-poset", "--group", "S3")
    assert code == 0
    assert len(calls) == 1


def test_homology_e2g_never_enumerates_the_abelian_subgroups(capsys, monkeypatch):
    # the closed family comes from the centraliser lattice, on an abelian
    # group, groups with a centre and centreless ones
    from commclass import cosetposet

    calls = []
    enumerate_subgroups = cosetposet.abelian_subgroups

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_subgroups(*args, **kwargs)

    monkeypatch.setattr(cosetposet, "abelian_subgroups", counting)
    for name in ("Z4xZ4", "Q8", "Q8oZ4", "S3", "S4"):
        code, _, _ = run(capsys, "homology-e2g", "--group", name, "--max-dim", "2")
        assert code == 0
    assert calls == []


def test_torus_analyze_charges_a_catalog_extension(capsys):
    # a catalog extension pays the |F|·rank^2 action entries a spec file
    # pays: perm_s3 has 6 elements acting on rank 3
    code, out, err = run(capsys, "torus-analyze", "--ext", "su2_normalizer", "--budget", "0")
    assert code == 3 and out == ""
    assert "action of 4 elements on rank 1" in err
    code, out, err = run(capsys, "torus-analyze", "--ext", "perm_s3", "--budget", "53")
    assert code == 3 and "charging 54 brings the total to 54, which exceeds budget 53" in err
    with open(os.path.join(FIXTURE_DIR, "torus-analyze_perm_s3.json")) as fh:
        pinned = fh.read()
    argv = ("torus-analyze", "--ext", "perm_s3", "--budget", "54", "--output", "machine")
    assert run(capsys, *argv) == (0, pinned, "")


def test_torus_analyze_builds_each_lattice_once(capsys, monkeypatch):
    import commclass
    from commclass import intlinalg, torus

    calls = {"commutator_lattices": 0, "saturate": 0, "row_hnf": 0}
    for name in calls:
        original = getattr(intlinalg, name, None) or getattr(torus, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # patch every module that binds the name, so internal calls count too
        for module in (commclass, intlinalg, torus, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    code, _, _ = run(capsys, "torus-analyze", "--ext", "perm_s3")
    assert code == 0
    assert calls["commutator_lattices"] == 1
    assert calls["saturate"] == 1
    assert calls["row_hnf"] < 27


@pytest.mark.parametrize(
    "content",
    ["not json\n", '{"results": 5}\n', None] + [pytest.param(c, id=k) for k, c in MALFORMED.items()],
)
def test_unreadable_fixtures_exit_2(capsys, tmp_path, content):
    path = tmp_path / "fixture"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, _, err = run(capsys, "moore-h2", "--group", "Z3", "--fixtures", str(path))
    assert code == 2
    assert str(path) in err
    assert "Traceback" not in err


def test_fixtures_pin_leaves_no_temporary_file(capsys, tmp_path):
    path = tmp_path / "fix.json"
    code, out, err = run(capsys, "moore-h2", "--group", "Z3", "--output", "machine", "--fixtures", str(path))
    assert code == 0 and "fixtures: pinned" in err
    assert path.read_text() == out
    assert os.listdir(tmp_path) == ["fix.json"]


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "commclass", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "torus-analyze" in proc.stdout


_FUZZ_SPECS = [
    {"format": "catalog", "name": "Z2"},
    {"format": "catalog", "name": "Z1"},
    {"format": "table", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "names": ["e", "a", "b"]},
    {"format": "table", "table": [[0]]},
    {"format": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]], "label": "S3"},
]
_FUZZ_JUNK = [None, True, False, 0, -1, 3, 2**70, 1.5, "", "x", "Z3", [], [[]], [0, 1], [[0, 1]], {}]
_FUZZ_KEYS = ["format", "name", "table", "names", "degree", "generators", "label"]


def _fuzz_spec(rng):
    doc = json.loads(json.dumps(rng.choice(_FUZZ_SPECS)))
    for _ in range(rng.randint(1, 3)):
        lists = [v for v in doc.values() if isinstance(v, list) and v]
        if lists and rng.random() < 0.6:
            # table rows, generators, names: change, drop or repeat one entry
            value = rng.choice(lists)
            i = rng.randrange(len(value))
            if isinstance(value[i], list) and value[i] and rng.random() < 0.8:
                junk = rng.randint(-2, 4) if rng.random() < 0.7 else rng.choice(_FUZZ_JUNK)
                value[i][rng.randrange(len(value[i]))] = junk
            elif rng.random() < 0.5:
                del value[i]
            else:
                value.append(json.loads(json.dumps(value[i])))
        elif rng.random() < 0.3:
            doc.pop(rng.choice(_FUZZ_KEYS), None)
        else:
            doc[rng.choice(_FUZZ_KEYS)] = rng.choice(_FUZZ_JUNK)
    text = json.dumps(doc)
    if rng.random() < 0.15:
        text = text[: rng.randrange(len(text))]
    return text


def test_fuzz_homology_commands_exit_with_documented_codes(capsys, tmp_path):
    rng = random.Random(20261018)
    max_dims = ["-7", "-1", "0", "1", "2", "x", "", "2.5", "1e2", "40", "1000000", str(10**20)]
    budgets = ["-5", "0", "1", "30", "10000000", "abc", "", "3.0"]
    seen = set()
    for case in range(160):
        if rng.random() < 0.5:
            group = str(tmp_path / f"g{case}.json")
            with open(group, "w") as fh:
                fh.write(_fuzz_spec(rng))
        else:
            group = rng.choice(["Z1", "Z2", "S3", "Nope", "", str(tmp_path)])
        argv = [rng.choice(["homology-e2g", "homology-b2g"]), "--group", group]
        if rng.random() < 0.8:
            argv += ["--max-dim", rng.choice(max_dims)]
        if rng.random() < 0.5:
            argv += ["--budget", rng.choice(budgets)]
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects a malformed flag with exit 2
            code = e.code
        capsys.readouterr()
        assert code in (0, 2, 3, 4), argv
        seen.add(code)
    assert {0, 2, 3} <= seen


_FUZZ_EXTENSIONS = [
    {
        "rank": 1,
        "finite": {"format": "catalog", "name": "Z4"},
        "action": {"1": [[-1]]},
        "central_quotient": [{"t": ["1/2"], "f": "2"}],
    },
    {
        "rank": 2,
        "finite": {"format": "table", "table": [[0, 1], [1, 0]], "names": ["1", "s"]},
        "action": {"s": [[0, 1], [1, 0]]},
        "central_quotient": [{"t": ["1/2", "1/2"], "f": "1"}],
        "label": "swap",
    },
]
_FUZZ_COCYCLE = {
    "extension": {
        "rank": 1,
        "finite": {"format": "table", "table": [[0, 1], [1, 0]], "names": ["1", "tau"]},
        "action": {"tau": [[-1]]},
    },
    "arcs": {
        "a12": [{"time": "0", "t": ["0"], "f": "tau"}, {"time": "1", "t": ["1"], "f": "tau"}],
        "a13": [{"time": "0", "t": ["0"], "f": "1"}, {"time": "1", "t": ["1"], "f": "1"}],
        "a23": [{"time": "0", "t": ["0"], "f": "tau"}, {"time": "1", "t": ["0"], "f": "tau"}],
    },
}
_FUZZ_VALUES = _FUZZ_JUNK + ["1/2", "-1/3", "1/0", "tau", "2", {"t": ["0"], "f": "1"}]


def _fuzz_document(rng, doc):
    """Replace, drop or repeat one value at a random depth of a JSON document."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
            parent = node
            key = rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))
            node = node[key]
        if parent is None:
            return json.dumps(rng.choice(_FUZZ_VALUES))
        r = rng.random()
        if r < 0.6:
            # a copy, so later edits of this document leave _FUZZ_VALUES alone
            junk = rng.randint(-2, 4) if rng.random() < 0.3 else rng.choice(_FUZZ_VALUES)
            parent[key] = json.loads(json.dumps(junk))
        elif r < 0.85:
            del parent[key]
        elif isinstance(parent, list):
            parent.append(json.loads(json.dumps(node)))
        else:
            parent[key] = [node]
    text = json.dumps(doc)
    if rng.random() < 0.1:
        text = text[: rng.randrange(len(text))]
    return text


def test_fuzz_spec_file_commands_exit_with_documented_codes(capsys, tmp_path):
    rng = random.Random(20261019)
    seen = set()
    for case in range(240):
        path = str(tmp_path / f"spec{case}.json")
        command = rng.choice(["torus-analyze", "single-comm", "clutch", "coset-poset"])
        if command == "clutch":
            text = _fuzz_document(rng, _FUZZ_COCYCLE)
            argv = [command, "--cocycle", path] + (["--invert"] if rng.random() < 0.3 else [])
        elif command == "coset-poset":
            text = _fuzz_spec(rng)
            argv = [command, "--group", path, "--max-dim", rng.choice(["-1", "0", "1", "2"])]
        else:
            text = _fuzz_document(rng, rng.choice(_FUZZ_EXTENSIONS))
            argv = [command, "--ext", path]
            if command == "single-comm":
                argv += ["--denominator", rng.choice(["-1", "0", "1", "2", "4"])]
        with open(path, "w") as fh:
            fh.write(text)
        code = cli.main(argv)
        capsys.readouterr()
        assert code in (0, 2, 3, 4), (argv, text)
        seen.add(code)
    assert {0, 2} <= seen
