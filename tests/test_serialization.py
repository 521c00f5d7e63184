import json
from fractions import Fraction

import pytest

from jordanmaps import serialization
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
from jordanmaps.maps import _domain
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
    scalar_to_json,
    table_to_json,
)

Q = rational_field()
F3 = preset_field("F3")
F5 = preset_field("F5")
F9 = preset_field("F9")


def transpose(x):
    return Mat._from_raw(x.field, tuple(zip(*x.rows)))


def scalar_of(field, entry):
    """One scalar encoding decoded alone, as the entry of a 1x1 matrix."""
    return mat_from_json(field, {"n": 1, "m": 1, "entries": [entry]}).entry(1, 1)


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
        {"kind": "real"},
    ],
    ids=["composite_p", "reducible", "string_coefficient", "scalar_modulus", "bool_coefficient",
         "unknown_kind"],
)
def test_bad_field_is_unsupported(obj):
    with pytest.raises(UnsupportedInput):
        field_from_json(obj)


def test_scalar_roundtrip_rational():
    s = Q.scalar(Fraction(2, 3))
    blob = scalar_to_json(s)
    assert blob == "2/3"
    assert scalar_of(Q, blob) == s
    assert scalar_of(Q, "-7") == Q.scalar(-7)


def test_scalar_roundtrip_galois():
    s = Scalar(F9, 6)
    blob = scalar_to_json(s)
    assert blob == [0, 2]  # ascending coefficients
    assert scalar_of(F9, blob) == s


def test_scalar_rejects_garbage():
    with pytest.raises(UnsupportedInput):
        scalar_of(F5, "socks")
    with pytest.raises(UnsupportedInput):
        scalar_of(F9, [0, 1, 2, 3])


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
    ("0.5", REFUSED, Fraction(1, 2), REFUSED),
    ("1e3", REFUSED, Fraction(1000), REFUSED),
    # Q keeps what str() writes back: at most 4300 digits above and below
    ("1e4299", REFUSED, Fraction(10 ** 4299), REFUSED),
    ("-1e-4299", REFUSED, Fraction(-1, 10 ** 4299), REFUSED),
    ("1e4300", REFUSED, REFUSED, REFUSED),
    ("1e-4300", REFUSED, REFUSED, REFUSED),
    ("1e300000", REFUSED, REFUSED, REFUSED),
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
    else:
        assert mat_from_json(field, blob).rows == ((raw,),)


def _respell(entry, i):
    """The i-th of several encodings of one scalar, so that a table repeats
    each value under different spellings: "2" may read "2", 2, " 2" or "+2"."""
    if isinstance(entry, list):
        return entry if i % 2 else [str(c) for c in entry]
    return [entry, int(entry), " " + entry, "+" + entry][i % 4]


def _decoded_one_by_one(field, blob):
    scalars = [scalar_of(field, e) for e in blob["entries"]]
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


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
def test_decoded_field_is_the_domain_field(field):
    # a decoded map and the cached domain matrices share one Field object
    xs = JordanMap.from_oracle(field, 2, None).domain_iter()
    blob = table_to_json(JordanMap.from_table(field, 2, {x: x for x in xs}))
    back = map_from_json(json.loads(dumps(blob)))
    assert back.field is field_from_json(field_to_json(field)) is field
    assert back.field is _domain(field, 2, "full")[0][0].field


def _counting_decodes(monkeypatch):
    decoded = []
    parse = serialization._decode_raw
    monkeypatch.setattr(serialization, "_decode_raw",
                        lambda field, obj: decoded.append(obj) or parse(field, obj))
    return decoded


@pytest.mark.parametrize(
    "field, domain",
    [(F3, "full"), (F5, "upper_triangular"), (preset_field("F7"), "upper_triangular")],
    ids=["M2F3", "T2F5", "T2F7"],
)
def test_map_from_json_looks_up_its_own_encodings(monkeypatch, field, domain):
    # every key and every value inside the domain, as table_to_json writes
    # them, is looked up and never parsed; another spelling is parsed
    xs = list(JordanMap.from_oracle(field, 2, None, domain=domain).domain_iter())
    t = Mat(field, [[1, 1], [0, 2]])
    blob = json.loads(dumps(table_to_json(
        JordanMap.from_table(field, 2, {x: t @ x for x in xs}, domain=domain))))
    decoded = _counting_decodes(monkeypatch)
    back = map_from_json(blob)
    assert decoded == []
    assert [back(x) for x in xs] == [t @ x for x in xs]
    respelled = blob["entries"][-1]["fx"]["entries"]
    respelled[0] = int(respelled[0])
    assert map_from_json(blob)._table == back._table
    assert decoded[0] == respelled[0] and len(decoded) <= 4


def test_map_from_json_looks_up_a_table_written_by_hand(monkeypatch):
    # string entries and keys in domain order, as a script writes a table
    # without the library's encoder: the k-th key carries the base-3 digits
    # of k, row-major, least significant first; the value is the transpose
    def digits(k):
        return [k // 3 ** i % 3 for i in range(4)]

    def mat(entries):
        return {"n": 2, "m": 2, "entries": [str(e) for e in entries]}

    entries = [{"x": mat(digits(k)), "fx": mat(digits(k)[::2] + digits(k)[1::2])}
               for k in range(81)]
    text = json.dumps({"schema": "1", "field": {"kind": "prime", "p": 3}, "n": 2,
                       "mode": "circ", "entries": entries})
    decoded = _counting_decodes(monkeypatch)
    back = map_from_json(json.loads(text))
    assert decoded == []
    assert all(back(x) == transpose(x) for x in back.domain_iter())
    # an integer is no string: the same table spelled with one 1 is parsed there
    entries[5]["x"]["entries"][1] = 1
    again = map_from_json(json.loads(json.dumps({**json.loads(text), "entries": entries})))
    assert decoded == ["2", 1, "0"]  # key 5, each distinct spelling once
    assert again._table == back._table


@pytest.mark.parametrize("part, key", [("x", "n"), ("x", "m"), ("fx", "n"), ("fx", "m")])
def test_map_from_json_refuses_a_boolean_size_of_its_own_spelling(part, key):
    # on M_1(F_3), true == 1 == n: a key or value whose entries are the
    # library's own is still refused for a boolean size, as the parser does
    blob = table_to_json(JordanMap.from_table(F3, 1, {x: x for x in _domain(F3, 1, "full")[0]}))
    blob["entries"][1][part][key] = True
    with pytest.raises(UnsupportedInput) as exc:
        map_from_json(blob)
    assert str(exc.value) == f"key {key!r} has unexpected type bool"


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


def _valid_table(case):
    # M_2(F_3) under a transposed conjugation, T_2(F_5) under transposition
    # (its values leave the triangular domain, which a value may)
    if case == "M2F3":
        base = JordanMap.conjugation(Mat(F3, [[1, 1], [2, 0]]), transpose=True)
        return table_to_json(JordanMap.from_table(F3, 2, {x: base(x) for x in base.domain_iter()}))
    xs = JordanMap.from_oracle(F5, 2, None, domain="upper_triangular").domain_iter()
    return table_to_json(
        JordanMap.from_table(F5, 2, {x: transpose(x) for x in xs}, domain="upper_triangular")
    )


def _set(part, key, value):
    def fault(blob, k):
        blob["entries"][k][part][key] = value
    return fault


def _pop(key, part=None):
    def fault(blob, k):
        (blob["entries"][k][part] if part else blob["entries"][k]).pop(key)
    return fault


def _fx_entry(i, value):
    def fault(blob, k):
        blob["entries"][k]["fx"]["entries"][i] = value
    return fault


def _x_entry(i, value):
    def fault(blob, k):
        blob["entries"][k]["x"]["entries"][i] = value
    return fault


def _duplicate(blob, k):
    # entry k repeats the key of its neighbour
    entries = blob["entries"]
    entries[k]["x"] = json.loads(json.dumps(entries[k + 1 if k == 0 else k - 1]["x"]))


def _short(part):
    def fault(blob, k):
        blob["entries"][k][part]["entries"].pop()
    return fault


def _resized(part, n, m):
    def fault(blob, k):
        blob["entries"][k][part] = {"n": n, "m": m, "entries": ["0"] * (n * m)}
    return fault


def _lower_key(blob, k):
    # a nonzero entry below the diagonal of a T_2 key
    blob["entries"][k]["x"]["entries"][2] = "1"


_REFUSALS = {
    "missing_x": (_pop("x"), "missing key 'x' in JSON object"),
    "missing_fx": (_pop("fx"), "missing key 'fx' in JSON object"),
    "entry_not_an_object": (
        lambda blob, k: blob["entries"].__setitem__(k, ["x", "fx"]),
        "missing key 'x' in JSON object",
    ),
    "missing_n": (_pop("n", "x"), "missing key 'n' in JSON object"),
    "missing_m": (_pop("m", "fx"), "missing key 'm' in JSON object"),
    "missing_entries": (_pop("entries", "x"), "missing key 'entries' in JSON object"),
    "boolean_size": (_set("fx", "n", True), "key 'n' has unexpected type bool"),
    "matrix_claims": (_short("x"), "matrix claims 2x2 but carries 3 entries"),
    "bad_scalar": (
        _fx_entry(1, "z"), "bad scalar encoding 'z': invalid literal for int() with base 10: 'z'"
    ),
    "key_size": (_resized("x", 1, 1), "table key outside the declared domain"),
    "non_square_value": (
        _resized("fx", 1, 4), "table value must be a square matrix over the same field"
    ),
    "inconsistent_values": (_resized("fx", 3, 3), "table values have inconsistent sizes"),
    "duplicate_key": (_duplicate, "duplicate table key"),
    "unhashable_key_entry": (_x_entry(0, ["1"]), "bad scalar encoding ['1']"),
    "unhashable_value_entry": (_fx_entry(3, ["1"]), "bad scalar encoding ['1']"),
    "boolean_in_key": (_x_entry(1, True), "bad scalar encoding True"),
}


@pytest.mark.parametrize("at", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "case, fault",
    [("M2F3", name) for name in _REFUSALS]
    + [("T2F5", name) for name in _REFUSALS]
    + [("T2F5", "non_triangular_key")],
)
def test_map_from_json_refusals(case, fault, at):
    blob = _valid_table(case)
    size = len(blob["entries"])
    k = {"first": 0, "middle": size // 2, "last": size - 1}[at]
    inject, detail = _REFUSALS.get(fault) or (_lower_key, "table key outside the declared domain")
    inject(blob, k)
    with pytest.raises(UnsupportedInput) as exc:
        map_from_json(blob)
    assert str(exc.value) == detail


# two faults, at entries given 1-based: every decoding refusal of any entry
# comes before every refusal of a decoded table, each kind in entry order,
# the key before the value, and within one matrix n, m, entries, then scalars
_PRECEDENCE = [
    ((_duplicate, 2), (_fx_entry(0, "z"), 80),
     "bad scalar encoding 'z': invalid literal for int() with base 10: 'z'"),
    ((_resized("fx", 1, 4), 1), (_pop("fx"), 81), "missing key 'fx' in JSON object"),
    ((_resized("x", 1, 1), 5), (_duplicate, 3), "duplicate table key"),
    ((_resized("fx", 1, 4), 3), (_resized("x", 3, 3), 3), "table key outside the declared domain"),
    ((_resized("fx", 3, 3), 4), (_duplicate, 4), "table values have inconsistent sizes"),
    ((_resized("fx", 1, 4), 40), (_resized("fx", 3, 3), 41),
     "table value must be a square matrix over the same field"),
    ((_pop("n", "fx"), 1), (_short("x"), 1), "matrix claims 2x2 but carries 3 entries"),
    ((_fx_entry(3, "y"), 40), (_set("x", "entries", ["0", "0", "0", "w"]), 40),
     "bad scalar encoding 'w': invalid literal for int() with base 10: 'w'"),
    ((_set("fx", "n", True), 7), (_pop("entries", "fx"), 7), "key 'n' has unexpected type bool"),
    ((_pop("m", "x"), 9), (_set("x", "n", 0), 9), "missing key 'm' in JSON object"),
    ((_fx_entry(2, ["1"]), 6), (_x_entry(1, True), 6), "bad scalar encoding True"),
    ((_x_entry(0, ["1"]), 30), (_fx_entry(1, True), 31), "bad scalar encoding ['1']"),
    ((_duplicate, 2), (_x_entry(3, True), 80), "bad scalar encoding True"),
]


@pytest.mark.parametrize("first, second, detail", _PRECEDENCE, ids=[
    "duplicate_then_bad_scalar", "non_square_then_missing_fx", "outside_then_earlier_duplicate",
    "key_before_value", "size_before_duplicate", "non_square_then_inconsistent",
    "x_before_fx", "x_scalar_before_fx_scalar", "n_before_entries", "m_before_claims",
    "boolean_key_before_unhashable_value", "unhashable_key_then_boolean_value",
    "duplicate_then_boolean_key",
])
def test_map_from_json_refusal_precedence(first, second, detail):
    blob = _valid_table("M2F3")
    for inject, entry in (first, second):
        inject(blob, entry - 1)
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
        assert back == form
        assert back.variant == form.variant
        assert back.field == form.field
        assert back.transpose == form.transpose
        x = mat_identity(form.field, form.n) + mat_unit(form.field, form.n, 1, 2)
        assert back.evaluate(x) == form.evaluate(x)


def test_form_loads_with_a_normalized_t():
    # a stored 2T loads as the form of T and is written back normalized
    t = Mat(F5, [[1, 2], [1, 1]])
    form = CanonicalForm.conjugation_form(t, transpose=True)
    blob = form_to_json(form)
    blob["T"] = mat_to_json(t.scale(2))
    back = form_from_json(blob)
    assert back == form
    assert back.t == t
    assert form_to_json(back) == form_to_json(form)
    assert form_to_json(back)["T"] == mat_to_json(t)


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


def _edited(blob, **changes):
    return {**blob, **changes}


_IDENTITY_TABLE = table_to_json(
    JordanMap.from_table(F3, 1, {x: x for x in _domain(F3, 1, "full")[0]}))
_ZERO_FORM = form_to_json(CanonicalForm.zero_form(F5, 2))


@pytest.mark.parametrize("load, blob, detail", [
    (map_from_json, _edited(_IDENTITY_TABLE, mode="jordan"), "unknown product mode 'jordan'"),
    (form_from_json, _edited(_ZERO_FORM, mode="jordan"), "unknown product mode 'jordan'"),
    (form_from_json, _edited(_ZERO_FORM, variant="affine"), "unknown form variant 'affine'"),
    (form_from_json,
     _edited(form_to_json(CanonicalForm.conjugation_form(mat_identity(F9, 2))),
             omega={"kind": "galois", "e": 1}),
     "unknown endomorphism kind 'galois'"),
    (form_from_json,
     _edited(form_to_json(CanonicalForm.conjugation_form(mat_identity(Q, 2))),
             omega={"kind": "frobenius", "e": 1}),
     "frobenius endomorphisms need a finite field"),
], ids=["table_mode", "form_mode", "form_variant", "omega_kind", "frobenius_over_q"])
def test_unknown_names_are_refused(load, blob, detail):
    with pytest.raises(UnsupportedInput) as exc:
        load(blob)
    assert str(exc.value) == detail


def test_dumps_is_canonical():
    blob = {"b": 1, "a": [2, 3]}
    assert dumps(blob) == dumps(dict(reversed(list(blob.items()))))
    assert json.loads(dumps(blob)) == blob


def test_malformed_top_level():
    for broken in [None, [], "hi", {"schema": "1"}]:
        with pytest.raises(UnsupportedInput):
            certificate_from_json(broken)
