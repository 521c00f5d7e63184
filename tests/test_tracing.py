"""The benchmark's tracer, perfbench/tracing.py, still installs over the
package: every name it wraps exists, and its hooks read what they expect
(the length of a certificate, a report's pairs_checked, the product-table
cache). It patches the package, so it runs in a subprocess of its own."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import jordanmaps as jm
import jordanmaps.serialization
import tracing

tracer = tracing.install(jm)
F5, F3 = jm.preset_field("F5"), jm.preset_field("F3")
cert = jm.certify_identity(jm.Mat(F5, [[1, 2, 0, 1], [0, 1, 3, 0], [4, 0, 1, 2], [0, 3, 0, 1]]))
assert jm.replay(cert)
base = jm.JordanMap.conjugation(jm.Mat(F3, [[1, 1], [0, 1]]))
phi = jm.JordanMap.from_table(F3, 2, {x: base(x) for x in base.domain_iter()})
assert jm.check_multiplicative(phi, jm.Strategy.exhaustive())
counts = tracer.counts
assert counts["generation.steps"] == len(cert) > 0, counts
assert counts["generation.replay"] == 1, counts
assert counts["maps.pairs_checked"] == 81 * 81, counts
assert counts["maps.table_builds"] == 1, counts
"""


def test_tracer_installs_and_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
