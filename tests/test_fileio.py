import json
from fractions import Fraction

import pytest

from commclass.errors import ParseError
from commclass.fileio import (
    group_from_spec,
    load_json,
    parse_cocycle,
    parse_extension,
    parse_group,
    parse_rational,
)
from commclass.intlinalg import IntMatrix
from commclass.torus import CATALOG_SPECS, catalog_extension


# file contents the JSON reader refuses without a JSONDecodeError
MALFORMED_CONTENTS = (b"\xff\xfe", b"[" * 200_000, b'{"n": ' + b"9" * 5000 + b"}")


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_rational_round_trip():
    assert parse_rational(3, "x") == Fraction(3)
    assert parse_rational("3/4", "x") == Fraction(3, 4)
    assert parse_rational("-1/2", "x") == Fraction(-1, 2)
    for bad in (True, 1.5, "x/y", "1/0", None):
        with pytest.raises(ParseError) as e:
            parse_rational(bad, "spot")
        assert "spot" in str(e.value)


def test_load_json_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(ParseError) as e:
        load_json(str(p))
    assert str(p) + ":2:3:" in str(e.value)
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
    # not UTF-8, nested past the parser's stack, an integer too long to convert
    for content in MALFORMED_CONTENTS:
        p.write_bytes(content)
        with pytest.raises(ParseError) as e:
            load_json(str(p))
        assert str(p) in str(e.value)


def test_parse_group_catalog_and_files(tmp_path):
    assert parse_group("S3").order == 6
    path = write(tmp_path, "g.json", {"format": "catalog", "name": "Q8"})
    assert parse_group(path).order == 8
    table = write(
        tmp_path,
        "t.json",
        {"format": "table", "table": [[0, 1], [1, 0]], "names": ["1", "tau"], "label": "Z2"},
    )
    G = parse_group(table)
    assert G.order == 2 and G.names == ("1", "tau")
    perm = write(
        tmp_path,
        "p.json",
        {"format": "perm", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
    )
    assert parse_group(perm).order == 6
    with pytest.raises(ParseError) as e:
        parse_group("Nope")
    assert "neither a catalog group nor a readable file" in str(e.value)


def test_group_spec_errors():
    with pytest.raises(ParseError) as e:
        group_from_spec({"format": "catalog", "name": "Nope"}, where="g")
    assert "g.name" in str(e.value)
    with pytest.raises(ParseError):
        group_from_spec({"format": "weird"}, where="g")
    with pytest.raises(ParseError) as e:
        group_from_spec({"format": "perm", "degree": 3, "generators": [[0, 1]]}, where="g")
    assert "images of 0..2" in str(e.value)
    with pytest.raises(ParseError) as e:
        group_from_spec({"name": "S3"}, where="g")
    assert "missing field 'format'" in str(e.value)
    for doc, field in [
        ({"format": "table", "table": [[0, 1.0], [1.0, 0]]}, "g.table[0]"),
        ({"format": "table", "table": [[False, True], [True, False]]}, "g.table[0]"),
        ({"format": "table", "table": [[0, 1], 5]}, "g.table[1]"),
        ({"format": "table", "table": [[0, 1], [1, 0]], "names": 5}, "g.names"),
        ({"format": "perm", "degree": 2, "generators": [[0, "x"]]}, "g.generators[0]"),
        ({"format": "perm", "degree": 2, "generators": [[1.0, 0]]}, "g.generators[0]"),
        ({"format": "perm", "degree": 2, "generators": [5]}, "g.generators[0]"),
        ({"format": "perm", "degree": True, "generators": [[0]]}, "g.degree"),
    ]:
        with pytest.raises(ParseError) as e:
            group_from_spec(doc, where="g")
        assert field in str(e.value)


def test_parse_extension_inline_and_catalog(tmp_path):
    assert parse_extension("o2").rank == 1
    doc = {
        "rank": 1,
        "finite": {"format": "catalog", "name": "Z4"},
        "action": {"1": [[-1]]},
        "central_quotient": [{"t": ["1/2"], "f": "2"}],
        "label": "pin2",
    }
    E = parse_extension(write(tmp_path, "e.json", doc))
    ref = catalog_extension("su2_normalizer")
    assert E.rank == ref.rank
    assert E.rho == ref.rho
    assert E.z_elements == ref.z_elements
    assert not E.is_split


@pytest.mark.parametrize("name", list(CATALOG_SPECS))
def test_catalog_specs_read_back_from_files(tmp_path, name):
    # a catalog extension is an --ext document: the same file read as a path agrees
    E = parse_extension(write(tmp_path, name + ".json", CATALOG_SPECS[name]))
    ref = catalog_extension(name)
    assert E.rho == ref.rho
    assert E.z_elements == ref.z_elements
    assert E.F.table == ref.F.table


def test_extension_spec_errors(tmp_path):
    base = {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {"1": [[0, 1], [1, 0]]},
    }
    bad = dict(base, action={"1": [[0, 1]]})
    with pytest.raises(ParseError) as e:
        parse_extension(write(tmp_path, "a.json", bad))
    assert "expected a 2x2 integer matrix" in str(e.value)
    bad = dict(base, action={"1": [[0, 1], [1, 0.5]]})
    with pytest.raises(ParseError) as e:
        parse_extension(write(tmp_path, "b.json", bad))
    assert "entries must be integers" in str(e.value)
    bad = dict(base, action={"tau": [[0, 1], [1, 0]]})
    with pytest.raises(ParseError) as e:
        parse_extension(write(tmp_path, "c.json", bad))
    assert "unknown element name 'tau'" in str(e.value)
    bad = dict(base, central_quotient=[{"t": ["1/2"], "f": 0}])
    with pytest.raises(ParseError) as e:
        parse_extension(write(tmp_path, "d.json", bad))
    assert "central_quotient[0].t: expected 2 coordinates" in str(e.value)
    bad = dict(base, rank=True, action={"1": [[-1]]})
    with pytest.raises(ParseError) as e:
        parse_extension(write(tmp_path, "e.json", bad))
    assert "rank: wrong type bool" in str(e.value)


def test_parse_cocycle_with_sibling_extension(tmp_path):
    ext_doc = {
        "rank": 1,
        "finite": {
            "format": "table",
            "table": [[0, 1], [1, 0]],
            "names": ["1", "tau"],
        },
        "action": {"tau": [[-1]]},
    }
    write(tmp_path, "ext.json", ext_doc)
    cocycle_doc = {
        "extension": "ext.json",
        "arcs": {
            "a12": [
                {"time": 0, "t": [0], "f": "tau"},
                {"time": 1, "t": [1], "f": "tau"},
            ],
            "a13": [
                {"time": 0, "t": [0], "f": "1"},
                {"time": 1, "t": [1], "f": "1"},
            ],
            "a23": [
                {"time": 0, "t": [0], "f": "tau"},
                {"time": 1, "t": [0], "f": "tau"},
            ],
        },
    }
    path = write(tmp_path, "c.json", cocycle_doc)
    E, c = parse_cocycle(path)
    assert E.rank == 1
    assert c.is_valid
    assert c.a12.f == 1 and c.a13.f == 0


def test_cocycle_extension_resolves_beside_the_file_first(tmp_path, monkeypatch):
    import os

    specs = os.path.join(os.path.dirname(__file__), "..", "specs")
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for name in ("o2.ext.json", "o2_alpha.cocycle.json"):
        with open(os.path.join(specs, name)) as fh:
            (bundle / name).write_text(fh.read())
    # a decoy of the same relative name in the working directory, of rank 2
    decoy = {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {"1": [[0, 1], [1, 0]]},
    }
    write(tmp_path, "o2.ext.json", decoy)
    monkeypatch.chdir(tmp_path)
    E, c = parse_cocycle(os.path.join("bundle", "o2_alpha.cocycle.json"))
    assert E.rank == 1
    assert c.is_valid
    # with no sibling file, the path as given resolves, here to the decoy
    (bundle / "o2.ext.json").unlink()
    with pytest.raises(ParseError, match="expected 2 coordinates"):
        parse_cocycle(os.path.join("bundle", "o2_alpha.cocycle.json"))


def test_cocycle_spec_errors(tmp_path):
    arc = [{"time": 0, "t": [0], "f": 0}, {"time": 1, "t": [0], "f": 0}]
    doc = {"extension": "o2", "arcs": {"a12": arc, "a13": arc}}
    with pytest.raises(ParseError) as e:
        parse_cocycle(write(tmp_path, "m.json", doc))
    assert "missing field 'a23'" in str(e.value)
    mixed = [{"time": 0, "t": [0], "f": 0}, {"time": 1, "t": [0], "f": 1}]
    doc = {"extension": "o2", "arcs": {"a12": mixed, "a13": arc, "a23": arc}}
    with pytest.raises(ParseError) as e:
        parse_cocycle(write(tmp_path, "n.json", doc))
    assert "the finite part must be constant along an arc" in str(e.value)
    assert ".arcs.a12" in str(e.value)
    doc = {
        "extension": "o2",
        "arcs": {
            "a12": [{"time": 0, "t": [0], "f": 0}, {"time": 1, "t": ["x"], "f": 0}],
            "a13": arc,
            "a23": arc,
        },
    }
    with pytest.raises(ParseError) as e:
        parse_cocycle(write(tmp_path, "o.json", doc))
    assert "'x' is not a p/q rational" in str(e.value)


def test_bundled_demo_specs():
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "specs")
    assert parse_group(os.path.join(root, "s3.group.json")).order == 6
    assert parse_extension(os.path.join(root, "o2.ext.json")).rank == 1
    E = parse_extension(os.path.join(root, "su2_normalizer.ext.json"))
    assert not E.is_split
    _, c = parse_cocycle(os.path.join(root, "o2_alpha.cocycle.json"))
    assert c.is_valid


def test_matrix_from_parsed_action(tmp_path):
    doc = {
        "rank": 2,
        "finite": {"format": "catalog", "name": "Z2"},
        "action": {1: [[0, 1], [1, 0]]},
    }
    # JSON object keys are strings; integer-like strings resolve by index
    path = write(tmp_path, "k.json", doc)
    E = parse_extension(path)
    assert E.rho[1] == IntMatrix.from_rows([[0, 1], [1, 0]])
