import json
from fractions import Fraction

import pytest

from jordanmaps import (
    CanonicalForm,
    JordanMap,
    Mat,
    RingEndo,
    Scalar,
    UnsupportedInput,
    certify_identity,
    mat_identity,
    mat_unit,
    preset_field,
    rational_field,
    replay,
)
from jordanmaps.serialization import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    endo_from_json,
    field_from_json,
    field_to_json,
    form_from_json,
    form_to_json,
    map_from_json,
    mat_from_json,
    mat_to_json,
    scalar_from_json,
    scalar_to_json,
    table_to_json,
)

Q = rational_field()
F3 = preset_field("F3")
F5 = preset_field("F5")
F9 = preset_field("F9")


@pytest.mark.parametrize("field", [Q, F3, F5, F9, preset_field("F25")], ids=lambda f: f.name())
def test_field_roundtrip(field):
    assert field_from_json(field_to_json(field)) == field


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "prime", "p": 4},
        {"kind": "galois", "p": 3, "k": 2, "modulus": [2, 0, 1]},
        {"kind": "galois", "p": 3, "k": 2, "modulus": ["a", 0, 1]},
        {"kind": "galois", "p": 3, "k": 2, "modulus": 5},
        {"kind": "galois", "p": 3, "k": 2, "modulus": [True, 0, 1]},
    ],
    ids=["composite_p", "reducible", "string_coefficient", "scalar_modulus", "bool_coefficient"],
)
def test_bad_field_is_unsupported(obj):
    with pytest.raises(UnsupportedInput):
        field_from_json(obj)


def test_scalar_roundtrip_rational():
    s = Q.scalar(2) / Q.scalar(3)
    blob = scalar_to_json(s)
    assert blob == "2/3"
    assert scalar_from_json(Q, blob) == s
    assert scalar_from_json(Q, "-7") == Q.scalar(-7)


def test_scalar_roundtrip_galois():
    s = Scalar(F9, 6)
    blob = scalar_to_json(s)
    assert blob == [0, 2]  # ascending coefficients
    assert scalar_from_json(F9, blob) == s


def test_scalar_rejects_garbage():
    with pytest.raises(UnsupportedInput):
        scalar_from_json(F5, "socks")
    with pytest.raises(UnsupportedInput):
        scalar_from_json(F9, [0, 1, 2, 3])


REFUSED = None
# each entry's raw value over F5, Q and F9, or REFUSED. Integers and their
# strings embed through the prime subfield, so "3" is 0 in F9 = F_3[x]/(x^2+1).
DECODED = [
    ("3", 3, Fraction(3), 0),
    (" 3", 3, Fraction(3), 0),
    ("+3", 3, Fraction(3), 0),
    ("-1", 4, Fraction(-1), 2),
    ("1_0", 0, Fraction(10), 1),
    ("7/2", REFUSED, Fraction(7, 2), REFUSED),
    ("1/0", REFUSED, REFUSED, REFUSED),
    ("socks", REFUSED, REFUSED, REFUSED),
    ("", REFUSED, REFUSED, REFUSED),
    (3, 3, Fraction(3), 0),
    (-8, 2, Fraction(-8), 1),
    (2.0, REFUSED, REFUSED, REFUSED),
    (None, REFUSED, REFUSED, REFUSED),
    ([0, 1], REFUSED, REFUSED, 3),
    ([1, 2, 0], REFUSED, REFUSED, REFUSED),
    ([], REFUSED, REFUSED, 0),
    ({}, REFUSED, REFUSED, REFUSED),
    (True, REFUSED, REFUSED, REFUSED),
    (False, REFUSED, REFUSED, REFUSED),
    ([True, 0], REFUSED, REFUSED, REFUSED),
]


@pytest.mark.parametrize("column, field", [(1, F5), (2, Q), (3, F9)], ids=["F5", "Q", "F9"])
@pytest.mark.parametrize("row", DECODED, ids=[repr(row[0]) for row in DECODED])
def test_entry_decoding(row, column, field):
    entry, raw = row[0], row[column]
    blob = {"n": 1, "m": 1, "entries": [entry]}
    if raw is REFUSED:
        with pytest.raises(UnsupportedInput, match="bad (galois )?scalar encoding"):
            mat_from_json(field, blob)
        with pytest.raises(UnsupportedInput, match="bad (galois )?scalar encoding"):
            scalar_from_json(field, entry)
    else:
        assert mat_from_json(field, blob).rows == ((raw,),)
        assert scalar_from_json(field, entry) == Scalar(field, raw)


def _respell(entry, i):
    """The i-th of several encodings of one scalar, so that a table repeats
    each value under different spellings: "2" may read "2", 2, " 2" or "+2"."""
    if isinstance(entry, list):
        return entry if i % 2 else [str(c) for c in entry]
    return [entry, int(entry), " " + entry, "+" + entry][i % 4]


def _decoded_one_by_one(field, blob):
    scalars = [scalar_from_json(field, e) for e in blob["entries"]]
    m = blob["m"]
    return Mat(field, [scalars[i * m : (i + 1) * m] for i in range(blob["n"])])


@pytest.mark.parametrize(
    "field, domain", [(F3, "full"), (F5, "upper_triangular"), (F9, "upper_triangular")],
    ids=["M2F3", "T2F5", "T2F9"],
)
def test_map_from_json_matches_entrywise_decoding(field, domain):
    t = Mat(field, [[1, 1], [0, 2]])
    xs = JordanMap.from_oracle(field, 2, None, domain=domain).domain_iter()
    blob = table_to_json(JordanMap.from_table(field, 2, {x: t @ x for x in xs}, domain=domain))
    count = 0
    for entry in blob["entries"]:
        for mat in entry.values():
            for k, e in enumerate(mat["entries"]):
                mat["entries"][k] = _respell(e, count)
                count += 1
    expected = {
        _decoded_one_by_one(field, e["x"]): _decoded_one_by_one(field, e["fx"])
        for e in blob["entries"]
    }
    back = map_from_json(blob)
    assert {x: back(x) for x in back.domain_iter()} == expected


@pytest.mark.parametrize("late", [True, 1.0])
def test_map_from_json_keeps_encodings_of_one_value_apart(late):
    # 1 is read first; a later true or 1.0, equal to 1 in Python, is still
    # refused, not answered from what 1 decoded to
    zero = JordanMap.zero(F3, 2)
    blob = table_to_json(JordanMap.from_table(F3, 2, {x: zero(x) for x in zero.domain_iter()}))
    blob["entries"][0]["fx"]["entries"][0] = 1
    blob["entries"][-1]["fx"]["entries"][0] = late
    with pytest.raises(UnsupportedInput, match="bad scalar encoding"):
        map_from_json(blob)


@pytest.mark.parametrize(
    "field,rows",
    [
        (F5, [[1, 2], [3, 4]]),
        (Q, [[Fraction(1, 2), 3], [0, Fraction(-7, 5)]]),
        (F9, [[Scalar(F9, 3), 1], [2, Scalar(F9, 7)]]),
    ],
    ids=["F5", "Q", "F9"],
)
def test_mat_roundtrip(field, rows):
    m = Mat(field, rows)
    blob = mat_to_json(m)
    assert blob["n"] == 2 and blob["m"] == 2
    assert mat_from_json(field, blob) == m


def test_mat_entries_are_row_major():
    blob = mat_to_json(Mat(F5, [[1, 2], [3, 4]]))
    assert blob["entries"] == ["1", "2", "3", "4"]


def test_mat_shape_validation():
    with pytest.raises(UnsupportedInput):
        mat_from_json(F5, {"n": 2, "m": 2, "entries": ["1", "2", "3"]})
    with pytest.raises(UnsupportedInput):
        mat_from_json(F5, {"n": 2, "entries": ["1", "2", "3", "4"]})


def test_certificate_roundtrip():
    cert = certify_identity(Mat(F5, [[1, 2], [3, 4]]))
    blob = certificate_to_json(cert)
    assert blob["schema"] == "1"
    back = certificate_from_json(blob)
    assert back == cert
    assert bool(replay(back))


def test_certificate_schema_enforced():
    cert = certify_identity(Mat(F5, [[1, 2], [3, 4]]))
    blob = certificate_to_json(cert)
    blob["schema"] = "99"
    with pytest.raises(UnsupportedInput):
        certificate_from_json(blob)
    blob = certificate_to_json(cert)
    del blob["field"]
    with pytest.raises(UnsupportedInput):
        certificate_from_json(blob)


def test_table_map_roundtrip():
    base = JordanMap.conjugation(Mat(F3, [[1, 1], [0, 1]]), transpose=True)
    phi = JordanMap.from_table(F3, 2, {x: base(x) for x in base.domain_iter()})
    blob = table_to_json(phi)
    back = map_from_json(blob)
    assert back.n == phi.n and back.m == phi.m and back.mode == phi.mode
    for x in phi.domain_iter():
        assert back(x) == phi(x)


def test_table_map_roundtrip_triangular_domain():
    from jordanmaps import triangular_example

    phi = triangular_example(F5).map
    table = JordanMap.from_table(
        F5, 2, {x: phi(x) for x in phi.domain_iter()}, domain="upper_triangular"
    )
    blob = table_to_json(table)
    assert blob["domain"] == "upper_triangular"
    back = map_from_json(blob)
    assert back.domain == "upper_triangular"
    assert back.domain_size == 125


@pytest.mark.parametrize(
    "n, domain, count, detail",
    [
        (3, "full", 20_000, "domain has 19683 matrices; tables are capped at 10000"),
        (2, "lower", 81, "unknown domain 'lower'"),
        (2, "full", 3, "table lists 3 entries for 81 domain matrices"),
        (10**9, "full", 0, "map tables need 1 <= n < 14, got 1000000000"),
    ],
    ids=["oversized", "unknown_domain", "short", "huge_n"],
)
def test_table_shape_checked_before_decoding(n, domain, count, detail):
    # the entries are not matrices: a loader that decoded them first would
    # fail on the first one with a different message
    blob = {"schema": "1", "field": {"kind": "prime", "p": 3}, "n": n, "mode": "circ",
            "domain": domain, "entries": [None] * count}
    with pytest.raises(UnsupportedInput) as exc:
        map_from_json(blob)
    assert str(exc.value) == detail


def test_table_to_json_requires_table_body():
    with pytest.raises(UnsupportedInput):
        table_to_json(JordanMap.conjugation(mat_identity(F5, 2)))


@pytest.mark.parametrize(
    "endo", [None, RingEndo(F9, 0), RingEndo(F9, 1)], ids=["none", "id", "frob"]
)
def test_endo_roundtrip(endo):
    # a form built without omega stores the identity
    form = CanonicalForm.conjugation_form(mat_identity(F9, 2), omega=endo)
    back = endo_from_json(F9, form_to_json(form)["omega"])
    assert back == form.omega
    assert back.is_identity == (endo is None or endo.is_identity)


def test_form_roundtrips():
    forms = [
        CanonicalForm.zero_form(F5, 2),
        CanonicalForm.constant_form(mat_unit(F5, 2, 1, 1), 2),
        CanonicalForm.conjugation_form(
            Mat(F9, [[1, 2], [1, 1]]), omega=RingEndo(F9, 1), transpose=True
        ),
        CanonicalForm.conjugation_form(Mat(Q, [[1, 2], [0, 1]])),
    ]
    for form in forms:
        back = form_from_json(form_to_json(form))
        assert back.variant == form.variant
        assert back.field == form.field
        assert back.transpose == form.transpose
        x = mat_identity(form.field, form.n) + mat_unit(form.field, form.n, 1, 2)
        assert back.evaluate(x) == form.evaluate(x)


@pytest.mark.parametrize("m", [0, -1, 3])
def test_zero_form_size_checked(m):
    blob = form_to_json(CanonicalForm.zero_form(F5, 2))
    blob["m"] = m
    with pytest.raises(UnsupportedInput, match="zero form needs 1 <= m <= n"):
        form_from_json(blob)


@pytest.mark.parametrize("flag", ["false", "no", 1, 0, None])
def test_form_transpose_must_be_a_boolean(flag):
    blob = form_to_json(CanonicalForm.conjugation_form(Mat(F5, [[1, 2], [0, 1]])))
    blob["transpose"] = flag
    with pytest.raises(UnsupportedInput, match="key 'transpose' has unexpected type"):
        form_from_json(blob)


def test_form_with_singular_t_rejected():
    blob = form_to_json(CanonicalForm.conjugation_form(Mat(F5, [[1, 2], [0, 1]])))
    blob["T"]["entries"] = ["1", "2", "2", "4"]
    with pytest.raises(UnsupportedInput):
        form_from_json(blob)


def test_dumps_is_canonical():
    blob = {"b": 1, "a": [2, 3]}
    assert dumps(blob) == dumps(dict(reversed(list(blob.items()))))
    assert json.loads(dumps(blob)) == blob


def test_malformed_top_level():
    for broken in [None, [], "hi", {"schema": "1"}]:
        with pytest.raises(UnsupportedInput):
            certificate_from_json(broken)
