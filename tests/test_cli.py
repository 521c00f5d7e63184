import hashlib
import json
import time

import pytest

from jordanmaps import (
    Certificate,
    InvariantViolation,
    JordanMap,
    Mat,
    UnsupportedInput,
    certify_identity,
    mat_identity,
    mat_unit,
    mat_zero,
    preset_field,
)
from jordanmaps import cli, suite
from jordanmaps.serialization import (
    certificate_to_json,
    dumps,
    form_to_json,
    mat_to_json,
    table_to_json,
)

F2 = preset_field("F2")
F3 = preset_field("F3")
F5 = preset_field("F5")


def write(path, obj):
    path.write_text(dumps(obj), encoding="utf-8")
    return str(path)


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def conjugation_table(field, t, mode="circ", corrupt=None):
    base = JordanMap.conjugation(t, mode=mode)
    table = {x: base(x) for x in base.domain_iter()}
    if corrupt is not None:
        table[corrupt] = table[corrupt] + t
    return JordanMap.from_table(field, t.nrows, table, mode=mode)


def test_certify_and_verify_roundtrip(tmp_path):
    mat = write(tmp_path / "m.json", mat_to_json(Mat(F5, [[1, 2], [3, 4]])))
    out = tmp_path / "report.json"
    assert cli.main(["certify", "--field", "F5", "--matrix", mat, "--out", str(out)]) == 0
    report = read(out)
    assert report["exit_code"] == 0
    assert report["outcome"]["status"] == "certified"
    assert report["outcome"]["steps"] <= report["outcome"]["step_bound"]

    cert = write(tmp_path / "cert.json", report["outcome"]["certificate"])
    assert cli.main(["verify", "--certificate", cert, "--out", str(out)]) == 0
    assert read(out)["outcome"]["status"] == "verified"


def test_certify_zero_matrix_is_unsupported(tmp_path, capsys):
    mat = write(tmp_path / "zero.json", mat_to_json(mat_zero(F5, 2)))
    assert cli.main(["certify", "--field", "F5", "--matrix", mat]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 4
    assert report["outcome"]["status"] == "unsupported"


def test_certify_random_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = cli.main(
            ["certify", "--field", "F7", "--n", "3", "--random", "--seed", "11", "--out", str(out)]
        )
        assert code == 0
    ra, rb = read(a), read(b)
    ra.pop("timing_ms"), rb.pop("timing_ms")
    assert ra == rb


def test_verify_tampered_certificate(tmp_path):
    blob = certificate_to_json(certify_identity(Mat(F5, [[1, 2], [3, 4]])))
    blob["steps"][1]["result"]["entries"][0] = "4"
    cert = write(tmp_path / "cert.json", blob)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--certificate", cert, "--out", str(out)]) == 3
    outcome = read(out)["outcome"]
    assert outcome["status"] == "invalid_certificate"
    assert outcome["failed_step"] == 2


def test_verify_certificate_with_non_square_start(tmp_path):
    blob = certificate_to_json(certify_identity(Mat(F5, [[1, 2], [3, 4]])))
    blob["start"] = mat_to_json(Mat(F5, [[1, 2, 0], [3, 4, 0]]))
    blob["steps"] = blob["steps"][:1]
    cert = write(tmp_path / "cert.json", blob)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--certificate", cert, "--out", str(out)]) == 3
    outcome = read(out)["outcome"]
    assert outcome == {
        "status": "invalid_certificate",
        "failed_step": 1,
        "reason": "multiplier shape/field mismatch",
    }


@pytest.mark.parametrize("start, steps", [("identity", 0), ("unit", 0), ("unit", 1)])
def test_verify_char2_certificate_is_refused(tmp_path, start, steps):
    # refused before any step is replayed, however long the chain
    x = mat_identity(F2, 2) if start == "identity" else mat_unit(F2, 2, 1, 1)
    blob = certificate_to_json(Certificate(start=x, steps=((x, x),) * steps))
    cert = write(tmp_path / "cert.json", blob)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--certificate", cert, "--out", str(out)]) == 4
    with pytest.raises(UnsupportedInput) as refused:
        certify_identity(x)
    assert read(out)["outcome"] == {"status": "unsupported", "detail": str(refused.value)}


def test_classify_random_conjugation_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(
        ["classify", "--random", "--field", "F9", "--n", "2", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    report = read(out)
    assert report["outcome"]["form"]["variant"] == "conjugation"
    assert report["outcome"]["roundtrip"] is True


def test_classify_table_map(tmp_path):
    phi = conjugation_table(F3, Mat(F3, [[1, 1], [0, 1]]))
    mp = write(tmp_path / "map.json", table_to_json(phi))
    out = tmp_path / "r.json"
    assert cli.main(["classify", "--map", mp, "--verify", "exhaustive", "--out", str(out)]) == 0
    form = read(out)["outcome"]["form"]
    assert form["variant"] == "conjugation"
    assert form["transpose"] is False


@pytest.mark.parametrize("value, variant", [(1, "constant_idempotent"), (0, "zero")])
def test_classify_rectangular_table(tmp_path, value, variant):
    base = JordanMap.zero(F3, 2)
    phi = JordanMap.from_table(F3, 2, {x: Mat(F3, [[value]]) for x in base.domain_iter()})
    mp = write(tmp_path / "map.json", table_to_json(phi))
    out = tmp_path / "r.json"
    assert cli.main(["classify", "--map", mp, "--out", str(out)]) == 0
    outcome = read(out)["outcome"]
    assert (outcome["form"]["variant"], outcome["form"]["m"]) == (variant, 1)
    assert outcome["report"] == {
        "mode": "circ", "strategy": "exhaustive", "pairs_checked": 81 * 81,
        "stages": ["precheck", "constant" if value else "zero"], "variant": variant,
    }


def test_classify_corrupted_map_exits_2(tmp_path):
    phi = conjugation_table(
        F3, Mat(F3, [[1, 1], [0, 1]]), corrupt=Mat(F3, [[1, 0], [0, 2]])
    )
    mp = write(tmp_path / "map.json", table_to_json(phi))
    out = tmp_path / "r.json"
    assert cli.main(["classify", "--map", mp, "--verify", "exhaustive", "--out", str(out)]) == 2
    outcome = read(out)["outcome"]
    assert outcome["status"] == "not_jordan_multiplicative"
    assert len(outcome["witness"]) == 2


def test_invariant_violation_exits_3(monkeypatch, capsys):
    culprit = Mat(F5, [[1, 2], [0, 1]])

    def broken(phi, strategy=None):
        raise InvariantViolation("orientation", "a structural fault", witness=culprit)

    monkeypatch.setattr(cli, "classify_with_report", broken)
    assert cli.main(["classify", "--random", "--field", "F5"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 3
    assert report["outcome"] == {
        "status": "invariant_violation",
        "stage": "orientation",
        "detail": "a structural fault",
        "culprit": mat_to_json(culprit),
    }


def test_classify_char2_diamond_is_unsupported(tmp_path):
    phi = JordanMap.from_table(
        F2,
        2,
        {x: x for x in JordanMap.from_oracle(F2, 2, lambda x: x).domain_iter()},
        mode="diamond",
    )
    mp = write(tmp_path / "map.json", table_to_json(phi))
    assert cli.main(["classify", "--map", mp, "--out", str(tmp_path / "r.json")]) == 4


def test_bad_strategy_string(tmp_path):
    assert (
        cli.main(["classify", "--random", "--field", "F3", "--verify", "psychic"]) == 4
    )


def test_missing_map_file(tmp_path):
    assert cli.main(["classify", "--map", str(tmp_path / "nope.json")]) == 4


def test_verify_form_against_map(tmp_path):
    t = Mat(F3, [[1, 1], [0, 1]])
    phi = conjugation_table(F3, t)
    mp = write(tmp_path / "map.json", table_to_json(phi))
    from jordanmaps import CanonicalForm

    good = write(tmp_path / "good.json", form_to_json(CanonicalForm.conjugation_form(t)))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--form", good, "--map", mp, "--out", str(out)]) == 0
    assert read(out)["outcome"]["status"] == "verified"

    bad = write(
        tmp_path / "bad.json",
        form_to_json(CanonicalForm.conjugation_form(t, transpose=True)),
    )
    assert cli.main(["verify", "--form", bad, "--map", mp, "--out", str(out)]) == 3
    assert read(out)["outcome"]["status"] == "mismatch"


def test_verify_form_with_a_scaled_t(tmp_path):
    # the loader normalizes T, so a form stored with 2T verifies as the form of T
    from jordanmaps import CanonicalForm

    t = Mat(F5, [[1, 2], [1, 1]])
    mp = write(tmp_path / "map.json", table_to_json(conjugation_table(F5, t)))
    blob = form_to_json(CanonicalForm.conjugation_form(t))
    out = tmp_path / "r.json"
    outcomes = []
    for scale in (1, 2):
        blob["T"] = mat_to_json(t.scale(scale))
        form = write(tmp_path / f"form{scale}.json", blob)
        assert cli.main(["verify", "--form", form, "--map", mp, "--out", str(out)]) == 0
        outcomes.append(read(out)["outcome"])
    assert outcomes[0] == outcomes[1] == {"status": "verified", "points": 625}


def test_sampled_verify_of_an_upper_triangular_table(tmp_path):
    # the sampled points stay inside the map's domain: the units E_11, E_12,
    # E_22, then 0, I and the draws
    from jordanmaps import CanonicalForm

    tri = JordanMap.from_oracle(F5, 2, lambda x: x, domain="upper_triangular")
    table = JordanMap.from_table(F5, 2, {x: x for x in tri.domain_iter()},
                                 domain="upper_triangular")
    mp = write(tmp_path / "map.json", table_to_json(table))
    ident = mat_identity(F5, 2)
    good = write(tmp_path / "good.json", form_to_json(CanonicalForm.conjugation_form(ident)))
    out = tmp_path / "r.json"
    for verify, points in (("exhaustive", 125), ("sampled:5:1", 10)):
        args = ["verify", "--form", good, "--map", mp, "--verify", verify, "--out", str(out)]
        assert cli.main(args) == 0
        assert read(out)["outcome"] == {"status": "verified", "points": points}

    bad = write(tmp_path / "bad.json",
                form_to_json(CanonicalForm.conjugation_form(ident, transpose=True)))
    args = ["verify", "--form", bad, "--map", mp, "--verify", "sampled:5:1", "--out", str(out)]
    assert cli.main(args) == 3
    assert read(out)["outcome"] == {
        "status": "mismatch", "at": mat_to_json(mat_unit(F5, 2, 1, 2)), "points": 2,
    }


def test_verify_form_with_a_string_transpose_flag_exits_4(tmp_path, capsys):
    from jordanmaps import CanonicalForm

    # "false" is a string, not JSON false: the form is malformed, not a mismatch
    t = Mat(F3, [[1, 1], [0, 1]])
    mp = write(tmp_path / "map.json", table_to_json(conjugation_table(F3, t)))
    blob = form_to_json(CanonicalForm.conjugation_form(t))
    blob["transpose"] = "false"
    form = write(tmp_path / "form.json", blob)
    assert cli.main(["verify", "--form", form, "--map", mp]) == 4
    assert json.loads(capsys.readouterr().out)["outcome"] == {
        "status": "unsupported", "detail": "key 'transpose' has unexpected type str"}


@pytest.mark.parametrize("variant, detail", [
    ("conjugation", "conjugation form rejected: singular matrix"),
    ("constant_idempotent", "constant forms require an idempotent value"),
])
def test_verify_form_with_a_bad_matrix_exits_4(variant, detail, tmp_path, capsys):
    from jordanmaps import CanonicalForm

    # an all-zero T is left as it is by normalizing, then has no inverse;
    # E_12 is no idempotent
    t = Mat(F3, [[1, 1], [0, 1]])
    mp = write(tmp_path / "map.json", table_to_json(conjugation_table(F3, t)))
    if variant == "conjugation":
        blob = form_to_json(CanonicalForm.conjugation_form(t))
        blob["T"] = mat_to_json(mat_zero(F3, 2))
    else:
        blob = form_to_json(CanonicalForm.constant_form(mat_unit(F3, 2, 1, 1), 2))
        blob["idempotent"] = mat_to_json(mat_unit(F3, 2, 1, 2))
    form = write(tmp_path / "form.json", blob)
    assert cli.main(["verify", "--form", form, "--map", mp]) == 4
    assert json.loads(capsys.readouterr().out)["outcome"] == {
        "status": "unsupported", "detail": detail}


def test_verify_zero_form_with_bad_size_exits_4(tmp_path, capsys):
    from jordanmaps import CanonicalForm

    phi = conjugation_table(F3, Mat(F3, [[1, 1], [0, 1]]))
    mp = write(tmp_path / "map.json", table_to_json(phi))
    blob = form_to_json(CanonicalForm.zero_form(F3, 2))
    blob["m"] = 0
    form = write(tmp_path / "form.json", blob)
    assert cli.main(["verify", "--form", form, "--map", mp]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"]["status"] == "unsupported"


@pytest.mark.parametrize(
    "variant, n, size, detail",
    [
        ("conjugation", 5, 2, "conjugation form needs an n x n T, got 2x2, n=5"),
        ("constant_idempotent", 0, 3, "constant form needs 1 <= m <= n, got m=3, n=0"),
        ("constant_idempotent", 2, 3, "constant form needs 1 <= m <= n, got m=3, n=2"),
    ],
)
def test_verify_form_whose_size_disagrees_with_n_exits_4(variant, n, size, detail, tmp_path,
                                                         capsys):
    from jordanmaps import CanonicalForm

    # the map matches the form's matrix, so only the declared n is wrong
    if variant == "conjugation":
        t = Mat(F3, [[1, 1], [0, 1]])
        form = CanonicalForm.conjugation_form(t)
        phi = conjugation_table(F3, t)
    else:
        value = mat_unit(F3, size, 1, 1)
        form = CanonicalForm.constant_form(value, 2)
        phi = JordanMap.from_table(F3, 2, {x: value for x in JordanMap.zero(F3, 2).domain_iter()})
    blob = form_to_json(form)
    blob["n"] = n
    form_path = write(tmp_path / "form.json", blob)
    mp = write(tmp_path / "map.json", table_to_json(phi))
    assert cli.main(["verify", "--form", form_path, "--map", mp]) == 4
    assert json.loads(capsys.readouterr().out)["outcome"] == {
        "status": "unsupported", "detail": detail}


def test_verify_diamond_constant_over_char2_is_refused_at_decode(tmp_path, capsys):
    from jordanmaps import CanonicalForm

    blob = form_to_json(CanonicalForm.constant_form(mat_unit(F2, 2, 1, 1), 2))
    blob["mode"] = "diamond"
    form = write(tmp_path / "form.json", blob)
    assert cli.main(["verify", "--form", form, "--map", str(tmp_path / "unread.json")]) == 4
    report = json.loads(capsys.readouterr().out)
    assert [i["path"] for i in report["inputs"]] == [form]
    assert report["outcome"] == {
        "status": "unsupported", "detail": "halving is undefined in characteristic 2"}


def test_verify_form_and_map_into_different_sizes_exits_4(tmp_path, capsys):
    from jordanmaps import CanonicalForm

    # the constant [1] maps M_2(F_3) into M_1; the tables below map into M_1 and M_2
    form = write(tmp_path / "form.json",
                 form_to_json(CanonicalForm.constant_form(Mat(F3, [[1]]), 2)))
    domain = JordanMap.zero(F3, 2).domain_iter()
    into_m1 = JordanMap.from_table(F3, 2, {x: Mat(F3, [[1]]) for x in domain})
    mp = write(tmp_path / "m1.json", table_to_json(into_m1))
    assert cli.main(["verify", "--form", form, "--map", mp]) == 0
    assert json.loads(capsys.readouterr().out)["outcome"]["status"] == "verified"

    into_m2 = conjugation_table(F3, Mat(F3, [[1, 1], [0, 1]]))
    mp = write(tmp_path / "m2.json", table_to_json(into_m2))
    assert cli.main(["verify", "--form", form, "--map", mp]) == 4
    assert json.loads(capsys.readouterr().out)["outcome"] == {
        "status": "unsupported", "detail": "form and map disagree on field, size, or mode"}


@pytest.mark.parametrize(
    "where, detail",
    [("n", "key 'n' has unexpected type bool"), ("entry", "bad scalar encoding True")],
)
def test_json_booleans_are_not_numbers(where, detail, tmp_path, capsys):
    blob = table_to_json(conjugation_table(F3, Mat(F3, [[1, 1], [0, 1]])))
    if where == "n":
        blob["n"] = True
    else:  # the image of E_11 reads true where it read "1"
        blob["entries"][1]["fx"]["entries"][0] = True
    mp = write(tmp_path / "map.json", blob)
    assert cli.main(["classify", "--map", mp]) == 4
    assert json.loads(capsys.readouterr().out)["outcome"] == {
        "status": "unsupported", "detail": detail}


@pytest.mark.parametrize("name", ["triangular", "char2", "block_embedding"])
def test_counterexample_bundles(tmp_path, name):
    out = tmp_path / "r.json"
    assert cli.main(["counterexample", "--name", name, "--out", str(out)]) == 0
    outcome = read(out)["outcome"]
    assert outcome["name"] == name
    assert outcome["status"] == "verified"
    assert outcome["evidence"]["ok"] is True


# sha256 of the reports of each group of `frozen_runs`, `timing_ms` dropped
REPORT_DIGESTS = {
    "classify_map": "f0c2e21d8c7f644e621758dd59a1809a2ae9387eb574faa5dcf361e05cb4d2d9",
    "classify_random": "82e88b3966bb485c04eb291792506d6628b8383aab0d9af839dd8f8b8507a6dc",
    "counterexample": "cbdf92dc0bf68cb5136938b70ae6a2c883feffe19fd441d508d917609d42a0c3",
}


def frozen_runs(group, tmp_path):
    """The CLI argument lists of one group of pinned runs. Map tables are
    written into tmp_path and named relative to it, so the reports do not
    depend on where it lies."""
    if group == "counterexample":
        for name in ("triangular", "char2", "block_embedding"):
            for field in ("F3", "F5", "Q"):
                yield ["counterexample", "--name", name, "--field", field]
        yield ["counterexample", "--name", "char2", "--n", "3"]
    elif group == "classify_random":
        for field in ("F5", "F9", "Q"):
            for n in ("2", "3"):
                for mode in ("circ", "diamond"):
                    for verify in ([], ["--verify", "sampled:40:3"]):
                        yield ["classify", "--random", "--field", field, "--n", n,
                               "--mode", mode, *verify]
    else:
        t = Mat(F3, [[1, 1], [0, 1]])
        domain = list(JordanMap.zero(F3, 2).domain_iter())
        for mode in ("circ", "diamond"):
            # the constant at E_11, which for the diamond product is E_11 / 2 = 2 E_11
            value = mat_unit(F3, 2, 1, 1, 1 if mode == "circ" else 2)
            tables = {
                "conjugation": conjugation_table(F3, t, mode),
                "constant": JordanMap.from_table(F3, 2, {x: value for x in domain}, mode=mode),
                "zero": JordanMap.from_table(F3, 2, {x: mat_zero(F3, 2) for x in domain},
                                             mode=mode),
                "mutated": conjugation_table(F3, t, mode, corrupt=Mat(F3, [[1, 0], [0, 2]])),
            }
            for kind, phi in tables.items():
                name = f"{kind}-{mode}.json"
                write(tmp_path / name, table_to_json(phi))
                yield ["classify", "--map", name]


@pytest.mark.parametrize("group", sorted(REPORT_DIGESTS))
def test_reports_are_frozen(group, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for argv in frozen_runs(group, tmp_path):
        cli.main(argv + ["--out", "report.json"])
        report = read(tmp_path / "report.json")
        del report["timing_ms"]
        digest.update(dumps(report).encode())
    assert digest.hexdigest() == REPORT_DIGESTS[group]


def test_failed_write_leaves_no_file(tmp_path, monkeypatch):
    # the report goes to a temp file first; if it cannot take the target's
    # name, the error propagates and the temp file is removed
    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    target = tmp_path / "report.json"
    argv = ["certify", "--field", "F5", "--n", "2", "--random", "--out", str(target)]
    with pytest.raises(OSError, match="replace refused"):
        cli.main(argv)
    assert not target.exists()
    assert list(tmp_path.glob(".tmp-*.json")) == []


def test_stdout_when_no_out_flag(capsys):
    assert cli.main(["certify", "--field", "F5", "--n", "2", "--random", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"]["status"] == "certified"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--random", "--n", "0"],
        ["certify", "--random", "--n", "-2"],
        ["classify", "--random", "--n", "0"],
        ["certify", "--random", "--field", "gf:3:8"],
    ],
)
def test_bad_size_exits_4_with_report(argv, capsys):
    assert cli.main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 4
    assert report["outcome"]["status"] == "unsupported"


@pytest.mark.parametrize(
    "command",
    [
        ["certify", "--random", "--field", "Q"],
        ["classify", "--random", "--field", "Q"],
        ["counterexample", "--name", "triangular", "--field", "Q"],
        ["counterexample", "--name", "block_embedding", "--field", "Q"],
        ["counterexample", "--name", "char2"],
    ],
)
def test_n_above_cap_exits_4_at_once(command, capsys):
    start = time.monotonic()
    assert cli.main(command + ["--n", str(cli._MAX_N + 1)]) == 4
    assert time.monotonic() - start < 1
    outcome = json.loads(capsys.readouterr().out)["outcome"]
    assert outcome == {"status": "unsupported",
                       "detail": f"--n {cli._MAX_N + 1} exceeds the cap of {cli._MAX_N}"}


def _table_over(field):
    return {"schema": "1", "field": field, "n": 2, "mode": "circ", "entries": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--random", "--field", "F4x"],
        ["certify", "--random", "--field", "p:4"],
        ["certify", "--random", "--field", "p:318665857834031151167461"],
        ["certify", "--random", "--field", "p:3317044064679887385961981"],
        ["certify", "--random", "--field", "p:abc"],
        ["certify", "--random", "--field", "gf:3"],
        ["certify", "--random", "--field", "gf:4:2"],
        ["certify", "--random", "--field", "gf:3:1"],
        ["classify", "--map", {"kind": "prime", "p": 4}],
        ["classify", "--map", {"kind": "galois", "p": 3, "k": 2, "modulus": [1, 1]}],
        ["classify", "--map", {"kind": "galois", "p": 3, "k": 2, "modulus": [1, 0, 2]}],
        ["counterexample", "--name", "triangular", "--n", "0"],
        ["counterexample", "--name", "char2", "--n", "0"],
        ["counterexample", "--name", "char2", "--n", "1"],
        ["counterexample", "--name", "char2", "--n", "5"],
        ["counterexample", "--name", "block_embedding", "--n", "0"],
    ],
)
def test_bad_input_exits_4_with_report(argv, tmp_path, capsys):
    # a dict stands for a map table over that field, written to a file
    argv = [write(tmp_path / "map.json", _table_over(a)) if isinstance(a, dict) else a
            for a in argv]
    assert cli.main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 4
    assert report["outcome"]["status"] == "unsupported"


_NO_INPUT = "verify needs --certificate FILE, or --form FILE with --map FILE"


@pytest.mark.parametrize("argv, detail", [
    (["certify", "--field", "F5", "--matrix", {"n": 2, "m": 3, "entries": ["1"] * 6}],
     "certificates need a square matrix"),
    (["certify", "--field", "F5"], "certify needs --matrix FILE or --random"),
    (["classify"], "classify needs --map FILE or --random"),
    (["verify"], _NO_INPUT),
    (["verify", "--form", {"variant": "zero"}], _NO_INPUT),
    (["classify", "--random", "--field", "F2"], "random structured maps need characteristic != 2"),
    (["classify", "--random", "--verify", "sampled:0:3"], "sampled strategy needs count >= 1"),
    (["classify", "--random", "--verify", "sampled:x:3"],
     "cannot parse verification strategy 'sampled:x:3'"),
], ids=["non_square_matrix", "certify", "classify", "verify", "verify_form_alone", "random_f2",
        "sampled_count_0", "sampled_count_x"])
def test_refusals_exit_4_with_their_detail(argv, detail, tmp_path, capsys):
    # a dict stands for a JSON file, which is read (and listed in the
    # report's inputs) only where the subcommand reads it
    files = [tmp_path / f"input{k}.json" for k in range(len(argv))]
    argv = [write(path, a) if isinstance(a, dict) else a for path, a in zip(files, argv)]
    assert cli.main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 4
    assert report["outcome"] == {"status": "unsupported", "detail": detail}
    read = [] if argv[0] == "verify" else [path for path in files if path.exists()]
    assert report["inputs"] == [
        {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
        for path in read]


@pytest.mark.parametrize(
    "entry, detail",
    [
        ("1" * 5000, "is not valid JSON: Exceeds the limit (4300 digits)"),
        ('"1e300000"', "bad scalar encoding '1e300000': exponent beyond 12900"),
        ('"1e-300000"', "bad scalar encoding '1e-300000': exponent beyond 12900"),
        ('"1e10000000"', "bad scalar encoding '1e10000000': exponent beyond 12900"),
        ('"1e4300"', "bad scalar encoding '1e4300': numerator or denominator beyond 4300"),
    ],
    ids=["5000_digit_literal", "1e300000", "1e-300000", "1e10000000", "1e4300"],
)
def test_oversized_rational_exits_4_at_once(entry, detail, tmp_path, capsys):
    # each would need more digits than str() writes back into the report
    path = tmp_path / "matrix.json"
    path.write_text('{"n": 1, "m": 1, "entries": [%s]}' % entry, encoding="utf-8")
    start = time.monotonic()
    assert cli.main(["certify", "--field", "Q", "--matrix", str(path)]) == 4
    assert time.monotonic() - start < 1
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 4
    assert report["outcome"]["status"] == "unsupported"
    assert detail in report["outcome"]["detail"]


def test_internal_value_error_is_not_unsupported(monkeypatch):
    def broken(phi, strategy=None):
        raise ValueError("singular matrix")

    monkeypatch.setattr(cli, "classify_with_report", broken)
    with pytest.raises(ValueError, match="singular matrix"):
        cli.main(["classify", "--random", "--field", "F5"])


def test_suite_report_on_stdout_and_ledger_on_stderr(tmp_path, monkeypatch, capsys):
    fake = [
        suite.CriterionResult("first", True, "fine", 0.25, 1.0),
        suite.CriterionResult("second", False, "broken", 0.5, 2.0),
    ]
    monkeypatch.setattr(suite, "run_all", lambda seed=0: fake)
    assert cli.main(["suite", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == "suite"
    assert report["seed"] == 3
    assert report["exit_code"] == 1
    assert report["outcome"]["status"] == "failed"
    assert [c["name"] for c in report["outcome"]["criteria"]] == ["first", "second"]
    assert captured.err.splitlines() == [res.line() for res in fake]

    out = tmp_path / "suite.json"
    assert cli.main(["suite", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert read(out)["outcome"]["criteria"][1]["detail"] == "broken"
    assert captured.err.splitlines() == [res.line() for res in fake]


@pytest.mark.parametrize("argv", [
    ["transmogrify"],
    ["classify", "--mode", "bogus"],
    ["counterexample", "--name", "nope"],
    ["certify", "--n", "x"],
    ["verify", "--certificate", "c.json", "--seed", "1"],
    ["counterexample", "--name", "char2", "--seed", "1"],
    [],
], ids=["subcommand", "mode", "name", "n", "verify-seed", "counterexample-seed", "bare"])
def test_unknown_subcommand_errors(argv, capsys):
    # a usage error exits 4, never the 2 of a map that is not Jordan multiplicative
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: jordanmaps" in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage: jordanmaps" in capsys.readouterr().out
