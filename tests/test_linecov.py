import subprocess
import sys
from pathlib import Path

LINECOV = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"


def test_lists_the_lines_a_script_never_ran(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return 2\n")
    (tmp_path / "run.py").write_text(
        "import sys\nfrom pathlib import Path\n\n"
        "sys.path.insert(0, str(Path(__file__).parent / 'pkg'))\n"
        "import mod\n\nmod.used()\nraise SystemExit(3)\n")
    proc = subprocess.run(
        [sys.executable, str(LINECOV), "--src", "pkg", "--out", "missed.txt", "--", "run.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    # the command's exit status is the tool's, and is reported
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        "pkg/mod.py: 1 of 4 never ran: 6",
        "total: 1 of 4 lines never ran; command exited 3",
    ]
    assert (tmp_path / "missed.txt").read_text() == "pkg/mod.py:6: return 2\n"
