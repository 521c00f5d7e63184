import json

import pytest

from jordanmaps import (
    JordanMap,
    Mat,
    certify_identity,
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


@pytest.mark.parametrize("name", ["triangular", "char2", "block_embedding"])
def test_counterexample_bundles(tmp_path, name):
    out = tmp_path / "r.json"
    assert cli.main(["counterexample", "--name", name, "--out", str(out)]) == 0
    outcome = read(out)["outcome"]
    assert outcome["name"] == name
    assert outcome["status"] == "verified"
    assert outcome["evidence"]["ok"] is True


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
    ],
)
def test_bad_size_exits_4_with_report(argv, capsys):
    assert cli.main(argv) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 4
    assert report["outcome"]["status"] == "unsupported"


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


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit):
        cli.main(["transmogrify"])
