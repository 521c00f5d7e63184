"""Acceptance criteria, runnable via `jordanmaps suite` or the test suite.

Each criterion is a self-contained runner returning (passed, detail); run_all
wraps them with wall-clock timing and the stated limits. All randomness is
seeded, so reruns are reproducible; timings are the only nondeterminism.
"""

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass

from . import cli
from .classifier import (
    CanonicalForm,
    classify,
    classify_rectangular,
    classify_with_report,
    preservation_suite,
)
from .counterexamples import char2_example, triangular_example
from .errors import NotJordanMultiplicative
from .exact_fields import RingEndo, endo_enumerate, preset_field, rational_field
from .generation import certify_identity, ladder, replay
from .maps import CIRC, JordanMap, Strategy, _domain
from .matrices import (
    Mat,
    conjugated_idempotent,
    is_idempotent,
    jordan_circ,
    mat_identity,
    mat_unit,
    mat_zero,
    random_invertible,
    random_mat,
)
from .serialization import certificate_from_json, dumps, mat_to_json


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float
    limit_s: float

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.name}: {self.detail} "
            f"({self.elapsed_s:.2f}s, limit {self.limit_s:g}s)"
        )


def _units(field, n, entries):
    """Sum of value * E_ij from a {(i, j): value} dict."""
    out = mat_zero(field, n)
    for (i, j), value in entries.items():
        out = out + mat_unit(field, n, i, j, value)
    return out


# -- criterion 1 ---------------------------------------------------------------


def crit_rational_walkthrough(seed):
    """CLI certification of a dense 5x5 rational matrix: milestones
    E_11, D_2, ..., D_5 = I appear in order and the rank-climb coefficients
    match their frozen displays exactly."""
    f = rational_field()
    n = 5
    rng = random.Random(seed)
    x = random_mat(f, n, rng)
    while x.is_zero:
        x = random_mat(f, n, rng)
    with tempfile.TemporaryDirectory() as tmp:
        mat_path = os.path.join(tmp, "matrix.json")
        rep_path = os.path.join(tmp, "report.json")
        with open(mat_path, "w", encoding="utf-8") as handle:
            handle.write(dumps(mat_to_json(x)))
        code = cli.main(
            ["certify", "--field", "Q", "--matrix", mat_path, "--out", rep_path]
        )
        if code != 0:
            return False, f"certify exited {code}"
        with open(rep_path, encoding="utf-8") as handle:
            report = json.load(handle)
        cert_path = os.path.join(tmp, "cert.json")
        with open(cert_path, "w", encoding="utf-8") as handle:
            handle.write(dumps(report["outcome"]["certificate"]))
        code = cli.main(["verify", "--certificate", cert_path, "--out", rep_path])
        if code != 0:
            return False, f"verify exited {code}"
        cert = certificate_from_json(report["outcome"]["certificate"])
    if not replay(cert):
        return False, "replay failed in-process"
    results = cert.results()
    milestones = [_units(f, n, {(1, 1): 1})]
    for r in range(2, n + 1):
        milestones.append(_units(f, n, {(j, j): 1 for j in range(1, r + 1)}))
    pos = -1
    for target in milestones:
        found = next((i for i in range(pos + 1, len(results)) if results[i] == target), None)
        if found is None:
            return False, "milestone sequence E_11, D_2..D_5 not reproduced"
        pos = found
    displays = {
        2: ({(1, 1): 1}, {(1, 2): -4}, {(2, 1): -1}),
        3: ({(1, 1): 1, (2, 2): 1}, {(2, 2): -1, (1, 3): 4}, {(2, 2): -1, (3, 1): 1}),
        4: (
            {(1, 1): 1, (2, 2): 1, (2, 1): -2},
            {(1, 4): 4, (2, 3): -4, (2, 4): 8},
            {(3, 2): -1, (4, 1): 1},
        ),
        5: (
            {(1, 1): 1, (2, 2): 1, (3, 3): 1, (2, 1): -2},
            {(3, 3): -1, (1, 5): 4, (2, 4): 4, (2, 5): 8},
            {(3, 3): -1, (5, 1): 1, (4, 2): 1},
        ),
    }
    for r, (ea, eb, ec) in displays.items():
        coeffs = ladder(f, n, r)
        if coeffs.a != _units(f, n, ea) or coeffs.b != _units(f, n, eb) or coeffs.c != _units(f, n, ec):
            return False, f"rank-{r} coefficients differ from their frozen display"
    return True, f"{len(cert)} steps via CLI; milestones and displays exact"


# -- criterion 2 ---------------------------------------------------------------


def crit_exhaustive_replay(seed):
    """certify + replay over every nonzero 2x2 matrix over F_3 and F_5."""
    for name, expect in (("F3", 80), ("F5", 624)):
        f = preset_field(name)
        done = 0
        for x in _domain(f, 2, "full")[0][1:]:
            cert = certify_identity(x)
            if not replay(cert):
                return False, f"replay failed over {name} at {x.rows}"
            if len(cert) > 9:
                return False, f"certificate longer than 3 + 6(n-1) over {name}"
            done += 1
        if done != expect:
            return False, f"{name}: certified {done} matrices, expected {expect}"
    return True, "80 + 624 certificates replayed (F3, F5), all <= 9 steps"


# -- criterion 3 ---------------------------------------------------------------


def crit_ladder_identity(seed):
    """(A_r o B_r) o C_r = D_r for 2 <= r <= n <= 8 over Q, F_3, F_5, F_7,
    including the characteristic-3 collapse of the climb coefficients."""
    fields = [rational_field(), preset_field("F3"), preset_field("F5"), preset_field("F7")]
    cases = 0
    for f in fields:
        for n in range(2, 9):
            for r in range(2, n + 1):
                coeffs = ladder(f, n, r)
                if jordan_circ(jordan_circ(coeffs.a, coeffs.b), coeffs.c) != coeffs.d:
                    return False, f"identity failed over {f.name()} at n={n}, r={r}"
                if f.is_finite and f.p == 3:
                    for p_val in coeffs.p_values[2:]:
                        if not p_val.is_zero:
                            return False, "char-3 collapse p_j = 0 (j >= 3) missing"
                cases += 1
    return True, f"{cases} (field, n, r) cases hold exactly"


# -- criterion 4 ---------------------------------------------------------------


def crit_roundtrip_batch(seed):
    """Classify >= 200 seeded conjugation maps across fields, sizes, both
    transpose flags, and every field endomorphism; recovered forms must be
    equivalent to the planted ones, with all-81-point equality over M_2(F_3)."""
    rng = random.Random(seed)
    jobs = []
    for fname in ("F3", "F5", "F7", "F9"):
        f = preset_field(fname)
        for n in (2, 3):
            for transpose in (False, True):
                for endo in endo_enumerate(f):
                    for _ in range(10):
                        jobs.append((f, n, transpose, endo, random_invertible(f, n, rng)[0]))

    failures = 0
    for idx, (f, n, transpose, endo, t) in enumerate(jobs):
        phi = JordanMap.conjugation(t, endo=endo, transpose=transpose, mode=CIRC)
        planted = CanonicalForm.conjugation_form(t, omega=endo, transpose=transpose, mode=CIRC)
        if f.order ** (n * n) <= 81:
            strategy = Strategy.exhaustive()
        else:
            strategy = Strategy.sampled(count=150, seed=seed + idx)
        form, report = classify_with_report(phi, strategy)
        if form != planted or (
            strategy.kind == "exhaustive" and report.get("points_checked") != 81
        ):
            failures += 1
    if failures or len(jobs) < 200:
        return False, f"{failures} failures out of {len(jobs)} maps"
    return True, f"{len(jobs)} planted maps recovered equivalently (0 failures)"


# -- criterion 5 ---------------------------------------------------------------


def crit_constant_zero(seed):
    """Every constant-at-an-idempotent map over M_2(F_3) classifies to that
    idempotent; the zero map classifies to zero; an altered constant map is
    rejected with a replayable witness pair."""
    f = preset_field("F3")
    idempotents = [x for x in _domain(f, 2, "full")[0] if is_idempotent(x)]
    if len(idempotents) != 14:
        return False, f"expected 14 idempotents in M_2(F_3), found {len(idempotents)}"
    for p in idempotents:
        form = classify(JordanMap.constant(f, 2, p))
        if p.is_zero:
            if form.variant != "zero":
                return False, "constant-at-zero map did not classify as zero"
        elif form.variant != "constant_idempotent" or form.idempotent != p:
            return False, f"constant map at {p.rows} misclassified"
    if classify(JordanMap.zero(f, 2)).variant != "zero":
        return False, "zero map misclassified"
    e11, e12 = mat_unit(f, 2, 1, 1), mat_unit(f, 2, 1, 2)

    def altered(x):
        return e12 if x == e11 else e11

    phi = JordanMap.from_oracle(f, 2, altered, mode=CIRC)
    try:
        classify(phi)
        return False, "altered constant map was not rejected"
    except NotJordanMultiplicative as exc:
        x, y = exc.witness
        if phi(jordan_circ(x, y)) == jordan_circ(phi(x), phi(y)):
            return False, "rejection witness does not replay"
    return True, "14 idempotent constants + zero classified; altered map rejected with witness"


# -- criterion 6 ---------------------------------------------------------------


_MUTATION_VALUES = {
    "a": "double_identity",
    "b": "double_identity",
    "c": "double_identity",
    "d": "zero",
    "e": "zero",
    "f": "double_identity",
    "g": "double_identity",
    "h": "shift_identity",
}


def crit_preservation_suite(seed):
    """The preservation suite passes on 100 seeded genuine maps and flags
    single-entry mutations (one input rerouted to a breaking value) in at
    least 95 of 100 seeded trials, listing any survivors."""
    rng = random.Random(seed)
    fields = [preset_field(name) for name in ("F3", "F5", "F7", "F9")]
    genuine = []
    for idx in range(100):
        f = fields[idx % len(fields)]
        n = 2 + (idx // len(fields)) % 2
        style = idx % 5
        if style == 3:
            phi = JordanMap.constant(f, n, _random_idem(f, n, rng))
        elif style == 4:
            phi = JordanMap.zero(f, n)
        else:
            endos = endo_enumerate(f)
            phi = JordanMap.conjugation(
                random_invertible(f, n, rng)[0],
                endo=endos[rng.randrange(len(endos))],
                transpose=bool(rng.getrandbits(1)),
                mode=CIRC,
            )
        genuine.append(phi)
    for idx, phi in enumerate(genuine):
        report = preservation_suite(phi, samples=6, seed=seed + idx)
        if not report.ok:
            failing = [item.item for item in report.failing()]
            return False, f"genuine map {idx} failed items {failing}"

    conjugations = [phi for phi in genuine if phi.body_kind == "conjugation"]
    survivors = []
    for trial in range(100):
        base = conjugations[trial % len(conjugations)]
        probe_seed = seed + 1000 + trial
        log = preservation_suite(base, samples=6, seed=probe_seed).probe_log
        item, role, x0 = log[rng.randrange(len(log))]
        f, n = base.field, base.n
        kind = _MUTATION_VALUES[item]
        if kind == "double_identity":
            value = mat_identity(f, n).scale(2)
        elif kind == "zero":
            value = mat_zero(f, n)
        else:
            value = base(x0) + mat_identity(f, n)

        def mutant_fn(x, base=base, x0=x0, value=value):
            return value if x == x0 else base(x)

        mutant = JordanMap.from_oracle(f, n, mutant_fn, mode=CIRC)
        report = preservation_suite(mutant, samples=6, seed=probe_seed)
        if report.ok:
            survivors.append(trial)
        elif any(it.witness is None for it in report.failing()):
            return False, f"mutation {trial} failed without a located witness"
    detected = 100 - len(survivors)
    if detected < 95:
        return False, f"only {detected}/100 mutations detected; survivors {survivors}"
    extra = f", survivors {survivors}" if survivors else ""
    return True, f"100 genuine maps clean; {detected}/100 mutations flagged{extra}"


def _random_idem(field, n, rng):
    t, t_inv = random_invertible(field, n, rng)
    return conjugated_idempotent(t, t_inv, 0, rng.randint(0, n))


# -- criteria 7 and 8 ------------------------------------------------------------


def crit_char2_bundles(seed):
    """Three distinct trace-one supports over F_2: each bundle's exhaustive
    256-pair diamond evidence passes and its non-additivity witness replays."""
    f2 = preset_field("F2")
    choices = [
        (mat_unit(f2, 2, 1, 1), mat_unit(f2, 2, 1, 2)),
        (mat_unit(f2, 2, 2, 2), mat_unit(f2, 2, 1, 1)),
        (
            mat_unit(f2, 2, 1, 1) + mat_unit(f2, 2, 2, 1),
            mat_identity(f2, 2),
        ),
    ]
    for a, b in choices:
        bundle = char2_example(n=2, a=a, b=b)
        if bundle.evidence.pairs_checked != 256:
            return False, "exhaustive 256-pair evidence missing"
        if not bundle.verify():
            return False, f"bundle with support {a.rows} failed verification"
    return True, "3 diamond bundles over F_2: 256-pair evidence + replayable witnesses"


def crit_triangular_bundle(seed):
    """Diagonal squaring on T_2(F_5): exhaustive evidence over all 15625
    ordered pairs plus a replayable non-additivity witness."""
    bundle = triangular_example(preset_field("F5"), n=2)
    if bundle.evidence.qualifier != "exhaustive" or bundle.evidence.pairs_checked != 15625:
        return False, f"expected 15625 exhaustive pairs, got {bundle.evidence.pairs_checked}"
    if not bundle.verify():
        return False, "bundle verification failed"
    return True, "15625/15625 circ pairs preserved; non-additivity witness replays"


# -- criterion 9 -----------------------------------------------------------------


def crit_rectangular(seed):
    """Tables M_2(F_3) -> M_1(F_3): constants at an idempotent (and zero) are
    accepted; a seeded non-constant table is rejected with a witness pair."""
    f = preset_field("F3")
    domain = _domain(f, 2, "full")[0]
    one_by_one = Mat(f, [[1]])
    zero_cell = Mat(f, [[0]])
    const = JordanMap.from_table(f, 2, {x: one_by_one for x in domain}, mode=CIRC)
    form = classify_rectangular(const)
    if form.variant != "constant_idempotent" or form.idempotent != one_by_one:
        return False, "constant-idempotent table misclassified"
    zeroes = JordanMap.from_table(f, 2, {x: zero_cell for x in domain}, mode=CIRC)
    if classify_rectangular(zeroes).variant != "zero":
        return False, "zero table misclassified"
    rng = random.Random(seed)
    scattered = JordanMap.from_table(
        f, 2, {x: Mat(f, [[rng.randrange(3)]]) for x in domain}, mode=CIRC
    )
    try:
        classify_rectangular(scattered)
        return False, "non-constant table was not rejected"
    except NotJordanMultiplicative as exc:
        x, y = exc.witness
        lhs = scattered(jordan_circ(x, y))
        rhs = jordan_circ(scattered(x), scattered(y))
        if lhs == rhs:
            return False, "rectangular rejection witness does not replay"
    return True, "constant/zero tables accepted; scattered table rejected with witness"


# -- criterion 10 ----------------------------------------------------------------


def crit_frobenius_recovery(seed):
    """Entrywise cubing on M_2(F_9) classifies to omega = Frobenius e=1 with
    no transpose and T = I (a form's T is normalized, so any multiple of I
    reads as I)."""
    f9 = preset_field("F9")
    phi = JordanMap.conjugation(
        mat_identity(f9, 2), endo=RingEndo(f9, 1), transpose=False, mode=CIRC
    )
    form = classify(phi)
    if form.variant != "conjugation":
        return False, f"variant {form.variant}"
    omega = form.omega.describe()
    if omega != {"kind": "frobenius", "e": 1}:
        return False, f"recovered omega {omega}"
    if form.transpose:
        return False, "transpose flag set"
    if form.t != mat_identity(f9, 2):
        return False, "T is not proportional to the identity"
    return True, "omega = frobenius e=1, no transpose, T = I recovered"


_CRITERIA = [
    ("rational_walkthrough_certificate", crit_rational_walkthrough, 1.0),
    ("exhaustive_small_field_replay", crit_exhaustive_replay, 5.0),
    ("ladder_identity_all_characteristics", crit_ladder_identity, 5.0),
    ("conjugation_roundtrip_batch", crit_roundtrip_batch, 60.0),
    ("constant_and_zero_classification", crit_constant_zero, 5.0),
    ("preservation_suite_and_mutations", crit_preservation_suite, 60.0),
    ("char2_diamond_bundles", crit_char2_bundles, 1.0),
    ("triangular_diagonal_bundle", crit_triangular_bundle, 5.0),
    ("rectangular_constancy", crit_rectangular, 1.0),
    ("frobenius_recovery", crit_frobenius_recovery, 5.0),
]


def run_one(name, seed=0):
    for cname, fn, limit in _CRITERIA:
        if cname == name:
            t0 = time.monotonic()
            passed, detail = fn(seed)
            elapsed = time.monotonic() - t0
            if passed and elapsed > limit:
                passed = False
                detail += f"; exceeded {limit:g}s limit"
            return CriterionResult(cname, passed, detail, elapsed, limit)
    raise KeyError(f"unknown criterion {name!r}")


def run_all(seed=0):
    return [run_one(name, seed=seed) for name, _, _ in _CRITERIA]
