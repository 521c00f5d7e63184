"""The benchmark's tracer, perfbench/tracing.py, still installs over the
package: every name it wraps exists, and its hooks read what they expect
(the length of a certificate, a report's pairs_checked, the product-table
cache). It patches the package, so it runs in a subprocess of its own, and
it sets up as perfbench/run.py does: a bare `import jordanmaps`, the
product-table cache cleared, then the tracer installed. Between its set-up
reps run.py clears that cache again: the next scan rebuilds the table, one
more build, over the cached domain matrices. The classifier's form check
still draws its points through `_verification_points`, which the tracer
counts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
from array import array
from collections import Counter

import jordanmaps as jm
import tracing

table_cache = jm.maps._product_table
table_cache.cache_clear()
tracer = tracing.install(jm)
F5, F3, F7 = jm.preset_field("F5"), jm.preset_field("F3"), jm.preset_field("F7")
cert = jm.certify_identity(jm.Mat(F5, [[1, 2, 0, 1], [0, 1, 3, 0], [4, 0, 1, 2], [0, 3, 0, 1]]))
assert jm.replay(cert)
base = jm.JordanMap.conjugation(jm.Mat(F3, [[1, 1], [0, 1]]))
phi = jm.JordanMap.from_table(F3, 2, {x: base(x) for x in base.domain_iter()})
assert jm.check_multiplicative(phi, jm.Strategy.exhaustive())
tri = jm.JordanMap.from_oracle(F7, 2, lambda x: x, domain="upper_triangular")
assert jm.check_multiplicative(tri, jm.Strategy.exhaustive())
counts = tracer.counts
assert counts["generation.steps"] == len(cert) > 0, counts
assert counts["generation.replay"] == 1, counts
assert counts["maps.pairs_checked"] == 81 * 81 + 343 * 343, counts
assert counts["maps.table_builds"] == 2, counts
for key, size in (((F3, 2, "circ", "full"), 81), ((F7, 2, "circ", "upper_triangular"), 343)):
    mats, index, rows = jm.maps._product_table(*key)
    assert len(rows) == size and all(type(r) is array and r.typecode == "H" for r in rows)
assert counts["maps.table_builds"] == 2, counts
table_cache.cache_clear()
assert jm.check_multiplicative(phi, jm.Strategy.exhaustive())
assert counts["maps.table_builds"] == 3, counts
assert jm.maps._product_table(F3, 2, "circ", "full")[0] is jm.maps._domain(F3, 2, "full")[0]
# one exhaustive classify of the table draws its 81 form-check points through
# _verification_points, and reads the table's images there without evaluating it
before = Counter(counts)
jm.classify_with_report(phi)
assert counts["classifier.points_checked"] - before["classifier.points_checked"] == 81, counts
assert counts["maps.eval"] - before["maps.eval"] < 81, counts
# Field inherits object's equality and hash, and the counter wraps them: an
# == of one field counts once, a != of two consults both operands' __eq__,
# and a dict finds a field by identity without any
before = counts["exact_fields.field_eq"]
assert jm.preset_field("F5") == F5
assert F5 != F7
assert {F5: 1}[jm.prime_field(5)] == 1
assert counts["exact_fields.field_eq"] - before == 1 + 2, counts
"""


def test_tracer_installs_and_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
