import json

import pytest

from algen.varfile import VarFileError, dump_variety, load_variety, loads_variety
from factories import renamed_op

SHIPPED = {
    "varieties/boolean.var": ("boolean", [2]),
    "varieties/kleene.var": ("kleene", [3]),
    "varieties/godel3.var": ("godel3", [3]),
    "varieties/n3.var": ("n3", [4]),
    "varieties/semilattice.var": ("semilattice", [2]),
    "varieties/lattice.var": ("lattice", [2]),
}


@pytest.mark.parametrize("path,expect", SHIPPED.items())
def test_load_shipped_files(path, expect):
    name, sizes = expect
    spec = load_variety(path)
    assert spec.name == name
    assert [a.size for a in spec.generators] == sizes


def test_dump_roundtrip():
    spec = load_variety("varieties/kleene.var")
    text = dump_variety(spec)
    spec2 = loads_variety(text)
    assert dump_variety(spec2) == text
    assert [(g.labels, g.tables) for g in spec2.generators] == \
        [(g.labels, g.tables) for g in spec.generators]


def base_doc():
    return {
        "name": "tiny",
        "signature": [["or", 2]],
        "algebras": [{
            "name": "S2",
            "universe": ["0", "1"],
            "ops": {"or": [["0", "1"], ["1", "1"]]},
        }],
    }


def loads_doc(doc):
    return loads_variety(json.dumps(doc))


def test_loads_minimal():
    spec = loads_doc(base_doc())
    assert spec.generators[0].tables["or"] == [[0, 1], [1, 1]]


def test_error_not_json():
    with pytest.raises(VarFileError, match="not valid JSON"):
        loads_variety("{nope")


def test_error_missing_table():
    doc = base_doc()
    del doc["algebras"][0]["ops"]["or"]
    with pytest.raises(VarFileError, match=r"algebras\[0\].ops"):
        loads_doc(doc)


def test_error_unknown_label():
    doc = base_doc()
    doc["algebras"][0]["ops"]["or"][1][1] = "2"
    with pytest.raises(VarFileError, match=r"ops.or\[1\]\[1\]"):
        loads_doc(doc)


def test_error_wrong_row_count():
    doc = base_doc()
    doc["algebras"][0]["ops"]["or"] = [["0", "1"]]
    with pytest.raises(VarFileError, match="expected 2 rows"):
        loads_doc(doc)


def test_error_duplicate_labels():
    doc = base_doc()
    doc["algebras"][0]["universe"] = ["0", "0"]
    with pytest.raises(VarFileError, match="unique"):
        loads_doc(doc)


def test_error_extra_op_table():
    doc = base_doc()
    doc["algebras"][0]["ops"]["xor"] = [["0", "1"], ["1", "0"]]
    with pytest.raises(VarFileError, match="unknown operations"):
        loads_doc(doc)


def test_error_no_algebras():
    doc = base_doc()
    doc["algebras"] = []
    with pytest.raises(VarFileError, match="at least one"):
        loads_doc(doc)


def test_error_bad_signature():
    doc = base_doc()
    doc["signature"] = [["or", 2], ["or", 1]]
    with pytest.raises(VarFileError, match="duplicate"):
        loads_doc(doc)


@pytest.mark.parametrize("name", ["x1", "x2", "z", "z3", "g1", "g10"])
def test_error_operation_named_like_a_minted_variable(name):
    # F(n)'s generators print as x1, x2, ..., generalizers' variables as z
    # and z1, z2, ... and lgg's as g1, g2, ...
    with open("varieties/boolean.var") as f:
        doc = renamed_op(json.load(f), "0", name)
    with pytest.raises(VarFileError, match=f"^signature: operation name "
                                           f"'{name}' is reserved for variables$"):
        loads_doc(doc)


@pytest.mark.parametrize("name", ["x", "g", "zz", "x1a", "y1"])
def test_operation_names_near_the_reserved_ones_load(name):
    with open("varieties/boolean.var") as f:
        doc = renamed_op(json.load(f), "0", name)
    assert loads_doc(doc).sig.has_op(name)


@pytest.mark.parametrize("arity", [True, False], ids=["true", "false"])
def test_error_boolean_arity(arity):
    doc = base_doc()
    doc["signature"] = [["or", arity]]
    with pytest.raises(VarFileError,
                       match=r"signature\[0\]: arity must be a non-negative integer"):
        loads_doc(doc)


def test_error_missing_file():
    with pytest.raises(VarFileError, match="cannot read"):
        load_variety("varieties/definitely-not-there.var")


@pytest.mark.parametrize("name", [7, ["x"], ""], ids=["int", "list", "empty"])
def test_error_algebra_name_not_a_nonempty_string(name):
    doc = base_doc()
    doc["algebras"][0]["name"] = name
    with pytest.raises(VarFileError,
                       match=r"^algebras\[0\]\.name: must be a nonempty string$"):
        loads_doc(doc)


def test_algebra_name_defaults_when_absent():
    doc = base_doc()
    del doc["algebras"][0]["name"]
    assert loads_doc(doc).generators[0].name == "A0"


def test_error_default_name_collides_with_explicit_one():
    doc = base_doc()
    second = dict(doc["algebras"][0], name="A0")
    del doc["algebras"][0]["name"]
    doc["algebras"].append(second)
    with pytest.raises(VarFileError,
                       match=r"^algebras\[1\]\.name: duplicate algebra name 'A0'$"):
        loads_doc(doc)
