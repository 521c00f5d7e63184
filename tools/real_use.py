"""Use the package the way its users do, with no test: the CLI commands
(`suite`, `certify`, `classify`, `verify`, `counterexample`), the demos, and
a short run of each perfbench workload. Run from the root of a checkout,
under tools/linecov.py, to list the code that only the tests run:

    PYTHONPATH=src python3 tools/linecov.py --out real.txt -- tools/real_use.py
    PYTHONPATH=src python3 tools/linecov.py --out tests.txt -- -m pytest -q
    comm -23 real.txt tests.txt     # lines only the tests ran

Exit codes are printed, one line per command, and are not checked: the
refusals and rejections among them are use too.
"""

import contextlib
import io
import itertools
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from jordanmaps import JordanMap, Mat, preset_field  # noqa: E402
from jordanmaps.cli import main as cli  # noqa: E402
from jordanmaps.serialization import SCHEMA, dumps, field_to_json, mat_to_json  # noqa: E402


def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli(list(argv))
    print(code, *argv)


def write_table(path, phi, mutate=False):
    """A map table of `phi` on M_2(F_3), written entry by entry as the
    README's encoding says; `mutate` changes the image of the last key."""
    f = phi.field
    entries = []
    for raw in itertools.product(range(f.order), repeat=4):
        x = Mat(f, [raw[:2], raw[2:]])
        entries.append({"x": mat_to_json(x), "fx": mat_to_json(phi(x))})
    if mutate:
        entries[-1]["fx"] = entries[0]["fx"]
    table = {"schema": SCHEMA, "field": field_to_json(f), "n": 2, "mode": phi.mode,
             "entries": entries}
    path.write_text(dumps(table))


def main():
    with tempfile.TemporaryDirectory() as name:
        use_the_cli(Path(name))
    run_the_demos()
    run_perfbench()


def use_the_cli(tmp):
    f3 = preset_field("F3")
    phi = JordanMap.conjugation(Mat(f3, [[1, 1], [0, 2]]), transpose=True)
    write_table(tmp / "map.json", phi)
    write_table(tmp / "bad.json", phi, mutate=True)

    run("suite", "--seed", "0")
    for name in ("Q", "F3", "F5", "F7", "F9", "F25", "p:11", "gf:3:3"):
        run("certify", "--random", "--field", name, "--n", "3", "--seed", "1")
    run("certify", "--random", "--field", "F5", "--n", "3", "--out", str(tmp / "cert.json"))
    (tmp / "c.json").write_text(dumps(json.loads((tmp / "cert.json").read_text())
                                      ["outcome"]["certificate"]))
    run("verify", "--certificate", str(tmp / "c.json"))
    for name in ("F3", "F5", "F7", "F9", "Q"):
        for mode in ("circ", "diamond"):
            run("classify", "--random", "--field", name, "--n", "2", "--mode", mode)
    run("classify", "--map", str(tmp / "map.json"), "--out", str(tmp / "out.json"))
    run("classify", "--map", str(tmp / "bad.json"))
    run("classify", "--map", str(tmp / "map.json"), "--verify", "sampled:30:2")
    (tmp / "form.json").write_text(dumps(json.loads((tmp / "out.json").read_text())
                                         ["outcome"]["form"]))
    for table in ("map.json", "bad.json"):
        for verify in ("exhaustive", "sampled:30:2"):
            run("verify", "--form", str(tmp / "form.json"), "--map", str(tmp / table),
                "--verify", verify)
    for name in ("triangular", "char2", "block_embedding"):
        run("counterexample", "--name", name)


def run_the_demos():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
        print("demo", demo.name)


def run_perfbench():
    # run.py re-executes itself unless the hash seed is fixed; in this
    # process the variable only keeps it from doing so
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench

    for workload in perfbench.WORKLOAD_NAMES:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = perfbench.main(["--workload", workload, "--seed", "0", "--seconds", "2",
                                   "--trace", "0"])
        print(code, "perfbench", workload)


if __name__ == "__main__":
    main()
