"""The four workloads: inputs made from the seed, the operations that call
into jordanmaps, and the judgement of every output by the reference checks.

A workload builds one round of operations. Every round of a run repeats the
same operations on the same inputs, so a run's share of failed operations
does not depend on its length. Each builder takes the imported `jordanmaps`
package and calls the program only through module attributes at call time,
so that the traced run sees the wrappers it installs.
"""

import json
import random
from dataclasses import dataclass
from itertools import product

import reference as ref

CIRC, DIAMOND = "circ", "diamond"
MODES = (CIRC, DIAMOND)

# An operation that raised instead of answering; any other non-None verdict
# is the reason an answer is wrong.
FAILED = "failed"


@dataclass
class Op:
    kind: str
    run: object  # () -> output, calls into jordanmaps
    judge: object  # (output, error) -> None, FAILED or the reason the answer is wrong


def _expect_answer(jm, check):
    """Judge of an operation that must answer; `check` judges the answer."""

    def judge(out, err):
        if err is None:
            return check(out)
        if isinstance(err, jm.NotJordanMultiplicative):
            return f"a product-preserving map was rejected: {err.detail}"
        return FAILED

    return judge


def _expect_witness(jm, F, phi_ref, mode):
    """Judge of an operation on a map that breaks the product law: it must
    raise NotJordanMultiplicative with a pair that violates the law."""

    def judge(out, err):
        if err is None:
            return "a map that breaks the product law was accepted"
        if isinstance(err, jm.NotJordanMultiplicative):
            return ref.check_witness(F, phi_ref, mode, err.witness)
        return FAILED

    return judge


def _check_report(report, strategy, pairs):
    if report["strategy"] != strategy:
        return f"report names strategy {report['strategy']}, not {strategy}"
    if report["pairs_checked"] != pairs:
        return f"pre-check covered {report['pairs_checked']} pairs, not {pairs}"
    return None


def _to_program(jm, field, F, a):
    return jm.Mat(field, [[F.to_entry(v) for v in row] for row in a])


def _table_json(F, n, mode, domain, phi):
    """Schema-1 map table, written here rather than by the program's encoder."""
    return json.dumps({
        "schema": "1",
        "field": {"kind": "prime", "p": F.p},
        "n": n,
        "mode": mode,
        "entries": [{"x": ref.mat_json(F, x), "fx": ref.mat_json(F, phi(x))} for x in domain],
    })


def _half(F, a):
    return ref.scale(F, F.inv(F.of_int(2)), a)


# -- exhaustive_tables ----------------------------------------------------------

TABLE_CONJUGATIONS = 2  # planted T per round; each in both orientations and modes


def exhaustive_tables(jm, seed):
    """Map tables on M_2(F_3) classified exhaustively, as `classify --map`
    does, plus the exhaustive evidence of three sharpness examples.

    Product-table keys warmed: (F3, 2, circ), (F3, 2, diamond), (F5, 2, circ,
    upper_triangular), (F7, 2, circ, upper_triangular), (F2, 2, diamond).
    """
    rng = random.Random(seed)
    ser = jm.serialization
    f3, f5, f7 = (jm.preset_field(name) for name in ("F3", "F5", "F7"))
    R3 = ref.RefField("F3")
    domain = ref.enumerate_matrices(R3, 2)
    ops = []

    def classify_table(kind, text, check):
        def run():
            phi = ser.map_from_json(json.loads(text))
            form, report = jm.classify_with_report(phi)
            ser.dumps({"form": ser.form_to_json(form), "report": report})
            return form, report

        def check_answer(out):
            form, report = out
            return check(form) or _check_report(report, "exhaustive", len(domain) ** 2)

        ops.append(Op(kind, run, _expect_answer(jm, check_answer)))

    for _ in range(TABLE_CONJUGATIONS):
        t, t_inv = ref.random_invertible(R3, 2, rng)
        for transpose in (False, True):
            for mode in MODES:
                phi = lambda x, t=t, t_inv=t_inv, tr=transpose: ref.conjugation(R3, t, t_inv, 0, tr, x)
                check = lambda form, t=t, tr=transpose, mode=mode: ref.check_conjugation(
                    R3, form, t, 0, tr, mode)
                classify_table(f"table.conj.{mode}", _table_json(R3, 2, mode, domain, phi), check)
    idempotents = [x for x in domain if ref.matmul(R3, x, x) == x]
    for mode in MODES:
        for p in idempotents:
            value = p if mode == CIRC else _half(R3, p)
            check = lambda form, value=value, mode=mode: ref.check_constant(R3, form, value, mode)
            classify_table(f"table.const.{mode}", _table_json(R3, 2, mode, domain, lambda x, v=value: v), check)

    for mode in MODES:
        for c in (0, 1):
            value = ((R3.of_int(c),),) if mode == CIRC else _half(R3, ((R3.of_int(c),),))
            text = _table_json(R3, 2, mode, domain, lambda x, v=value: v)

            def run(text=text):
                return jm.classify_rectangular(ser.map_from_json(json.loads(text)))

            check = lambda form, value=value, mode=mode: ref.check_constant(R3, form, value, mode, m=1)
            ops.append(Op("rectangular", run, _expect_answer(jm, check)))

    for field in (f5, f7):
        def square_diagonal(x, field=field):
            a, d = x.entry(1, 1), x.entry(2, 2)
            return jm.Mat(field, [[a * a, 0], [0, d * d]])

        def run(field=field, fn=square_diagonal):
            phi = jm.JordanMap.from_oracle(field, 2, fn, domain="upper_triangular")
            return jm.check_multiplicative(phi, jm.Strategy.exhaustive())

        size = field.order ** 3
        ops.append(Op(f"triangular.{field.name()}", run,
                      _expect_answer(jm, lambda ev, size=size: ref.check_exhaustive(ev, size))))

    def check_bundle(size):
        def check(out):
            bundle, verified = out
            if not verified:
                return f"{bundle.name} bundle does not verify"
            return ref.check_exhaustive(bundle.evidence, size)

        return check

    def run_char2():
        bundle = jm.char2_example()
        return bundle, bundle.verify()

    def run_block():
        bundle = jm.block_embedding_example(f3)
        return bundle, bundle.verify()

    ops.append(Op("bundle.char2", run_char2, _expect_answer(jm, check_bundle(16))))
    ops.append(Op("bundle.block_embedding", run_block, _expect_answer(jm, check_bundle(81))))
    return ops


# -- sampled_classify -----------------------------------------------------------

# planted T per field, each used with every endomorphism, orientation and
# mode. With the constants below, the middle of the round's latencies falls
# inside the conjugations over F_5 and F_7.
SAMPLED_CONJUGATIONS = {"F5": 2, "F7": 2, "F9": 1, "Q": 1}
SAMPLED_CONSTANTS = 2  # per field and mode
SAMPLED_N = 3
SAMPLED_COUNT = 50
SUITE_SAMPLES = 10


def sampled_classify(jm, seed):
    """Planted conjugations and constants on M_3 over F_5, F_7, F_9 and Q,
    classified with a seeded sampled strategy and probed by the preservation
    suite. No product table is used."""
    rng = random.Random(seed)
    n = SAMPLED_N
    ops = []

    def add(kind, make_map, check):
        strategy_seed = rng.randrange(1 << 30)

        def run():
            phi = make_map()
            strategy = jm.Strategy.sampled(count=SAMPLED_COUNT, seed=strategy_seed)
            form, report = jm.classify_with_report(phi, strategy)
            # the suite probes circ consequences, so a diamond map is probed
            # through the classifier's own circ adapter
            probe = phi if phi.mode == CIRC else jm.diamond_to_circ(phi)
            suite = jm.preservation_suite(probe, samples=SUITE_SAMPLES, seed=strategy_seed)
            return form, report, suite

        def check_answer(out):
            form, report, suite = out
            if not suite.ok:
                return f"preservation suite fails items {[i.item for i in suite.failing()]}"
            return check(form) or _check_report(
                report, f"sampled:{SAMPLED_COUNT}:{strategy_seed}", SAMPLED_COUNT)

        ops.append(Op(kind, run, _expect_answer(jm, check_answer)))

    for name, planted in SAMPLED_CONJUGATIONS.items():
        field, F = jm.preset_field(name), ref.RefField(name)
        bound = 3  # rational entries a/b with |a|, b <= 3
        endos = (0, 1) if name == "F9" else (0,)
        for e, transpose, mode, _ in product(endos, (False, True), MODES, range(planted)):
            t, _ = ref.random_invertible(F, n, rng, bound)
            t_prog = _to_program(jm, field, F, t)
            make = lambda t=t_prog, e=e, tr=transpose, mode=mode, field=field: (
                jm.JordanMap.conjugation(t, endo=jm.RingEndo(field, e), transpose=tr, mode=mode))
            check = lambda form, t=t, e=e, tr=transpose, mode=mode, F=F: ref.check_conjugation(
                F, form, t, e, tr, mode)
            add(f"conj.{name}", make, check)
        for mode, _ in product(MODES, range(SAMPLED_CONSTANTS)):
            p = ref.random_idempotent(F, n, rng.randint(1, n - 1), rng)
            value = p if mode == CIRC else _half(F, p)
            value_prog = _to_program(jm, field, F, value)
            make = lambda v=value_prog, mode=mode, field=field: jm.JordanMap.constant(field, n, v, mode=mode)
            check = lambda form, value=value, mode=mode, F=F: ref.check_constant(F, form, value, mode)
            add(f"const.{name}", make, check)
    return ops


# -- reject_witness -------------------------------------------------------------

TABLE_MUTATIONS = 20
UNIT_MUTATION_FIELDS = (("F7", 3), ("F9", 3), ("F5", 4))
GENERIC_FIELDS = ("F5", "F7", "F9", "Q")
SCATTERED_TABLES = 4
REJECT_COUNT = 50


def reject_witness(jm, seed):
    """Maps that break the product law; each must be rejected with a pair
    that violates it.

    Product-table keys warmed: (F3, 2, circ), (F3, 2, diamond).
    """
    rng = random.Random(seed)
    f3 = jm.preset_field("F3")
    R3 = ref.RefField("F3")
    domain = ref.enumerate_matrices(R3, 2)
    domain_prog = [_to_program(jm, f3, R3, x) for x in domain]
    size = len(domain)
    ops = []

    # single-entry mutations, one mutated position in each of equal slices
    # of the row-major domain order
    idempotents = [x for x in domain if ref.matmul(R3, x, x) == x and not ref.is_zero(R3, x)]
    for k in range(TABLE_MUTATIONS):
        mode = MODES[k % 2]
        if (k // 2) % 2 == 0:
            t, t_inv = ref.random_invertible(R3, 2, rng)
            tr = bool(rng.getrandbits(1))
            table = {x: ref.conjugation(R3, t, t_inv, 0, tr, x) for x in domain}
        else:
            p = rng.choice(idempotents)
            table = {x: (p if mode == CIRC else _half(R3, p)) for x in domain}
        pos = rng.randrange(k * size // TABLE_MUTATIONS, (k + 1) * size // TABLE_MUTATIONS)
        x0 = domain[pos]
        table[x0] = rng.choice([y for y in domain if y != table[x0]])
        entries = [(domain_prog[i], _to_program(jm, f3, R3, table[x])) for i, x in enumerate(domain)]

        def run(entries=entries, mode=mode):
            phi = jm.JordanMap.from_table(f3, 2, entries, mode=mode)
            return jm.classify_with_report(phi)

        ops.append(Op(f"mutated_table.{mode}", run, _expect_witness(jm, R3, table.__getitem__, mode)))

    # conjugations whose image of one matrix unit is scaled: they pass the
    # sampled pre-check and are rejected from a classifier stage
    for name, n in UNIT_MUTATION_FIELDS:
        field, F = jm.preset_field(name), ref.RefField(name)
        for i, j in ((1, 1), (1, 2), (2, 3)):
            t, t_inv = ref.random_invertible(F, n, rng)
            c = rng.choice([v for v in F.elements() if v not in (F.zero, F.one)])
            u = ref.unit(F, n, i, j)
            bad = ref.scale(F, c, ref.conjugation(F, t, t_inv, 0, False, u))
            t_p, t_inv_p, u_p, bad_p = (_to_program(jm, field, F, a) for a in (t, t_inv, u, bad))
            phi_ref = lambda x, F=F, t=t, t_inv=t_inv, u=u, bad=bad: (
                bad if x == u else ref.conjugation(F, t, t_inv, 0, False, x))
            strategy_seed = rng.randrange(1 << 30)

            def run(field=field, n=n, t=t_p, t_inv=t_inv_p, u=u_p, bad=bad_p, s=strategy_seed):
                fn = lambda x: bad if x == u else t @ x @ t_inv
                phi = jm.JordanMap.from_oracle(field, n, fn)
                return jm.classify_with_report(phi, jm.Strategy.sampled(count=REJECT_COUNT, seed=s))

            ops.append(Op(f"mutated_unit.{name}", run, _expect_witness(jm, F, phi_ref, CIRC)))

    # X -> T X S with T S != I: the first sampled pair already breaks the law
    for name in GENERIC_FIELDS:
        field, F = jm.preset_field(name), ref.RefField(name)
        while True:
            t, _ = ref.random_invertible(F, 3, rng, bound=3)
            s, _ = ref.random_invertible(F, 3, rng, bound=3)
            if ref.matmul(F, t, s) != ref.identity(F, 3):
                break
        t_p, s_p = _to_program(jm, field, F, t), _to_program(jm, field, F, s)
        strategy_seed = rng.randrange(1 << 30)

        def run(field=field, t=t_p, s=s_p, seed=strategy_seed):
            phi = jm.JordanMap.from_oracle(field, 3, lambda x: t @ x @ s)
            return jm.classify_with_report(phi, jm.Strategy.sampled(count=REJECT_COUNT, seed=seed))

        phi_ref = lambda x, F=F, t=t, s=s: ref.matmul(F, ref.matmul(F, t, x), s)
        ops.append(Op("generic_txs", run, _expect_witness(jm, F, phi_ref, CIRC)))

    # M_2(F_3) -> M_1 tables with scattered values
    for k in range(SCATTERED_TABLES):
        mode = MODES[k % 2]
        values = [rng.randrange(3) for _ in domain]
        if len(set(values)) == 1:
            values[rng.randrange(size)] = (values[0] + 1) % 3
        table = {x: ((v,),) for x, v in zip(domain, values)}
        entries = [(domain_prog[i], jm.Mat(f3, [[values[i]]])) for i in range(size)]

        def run(entries=entries, mode=mode):
            return jm.classify_rectangular(jm.JordanMap.from_table(f3, 2, entries, mode=mode))

        ops.append(Op("scattered_rectangular", run, _expect_witness(jm, R3, table.__getitem__, mode)))

    ops.append(_cube_on_e11(jm))
    return ops


def _cube_on_e11(jm):
    """The operation that fails today, on inputs that do not depend on the seed.

    On M_3(F_7) the map is X -> T X T^-1 except on the line F*E_11, where
    lam E_11 -> T (lam^3 E_11) T^-1. (2 E_11, E_12) breaks the product law, but
    the endomorphism stage hands the rejection only pairs on that line, where
    lam -> lam^3 is multiplicative, so the classifier raises
    InvariantViolation('endomorphism') with no witness.
    """
    field, F = jm.preset_field("F7"), ref.RefField("F7")
    t = ((1, 2, 0), (0, 1, 3), (4, 0, 1))
    t_inv = ref.inverse(F, t)
    t_p, t_inv_p = _to_program(jm, field, F, t), _to_program(jm, field, F, t_inv)
    e11 = {(1, 1)}

    def run():
        def fn(x):
            if x.support() <= e11:
                lam = x.entry(1, 1)
                return t_p @ jm.mat_unit(field, 3, 1, 1, lam * lam * lam) @ t_inv_p
            return t_p @ x @ t_inv_p

        phi = jm.JordanMap.from_oracle(field, 3, fn)
        return jm.classify_with_report(phi, jm.Strategy.sampled(count=REJECT_COUNT, seed=0))

    def phi_ref(x):
        if all(v == 0 for r, row in enumerate(x) for c, v in enumerate(row) if (r, c) != (0, 0)):
            x = ref.unit(F, 3, 1, 1, x[0][0] ** 3 % 7)
        return ref.conjugation(F, t, t_inv, 0, False, x)

    return Op("cube_on_e11", run, _expect_witness(jm, F, phi_ref, CIRC))


# -- certify_replay -------------------------------------------------------------

# matrices per size over each finite field; the weights put the middle of
# the round's latencies inside the n = 6 operations
CERTIFY_SIZES = {4: 1, 5: 2, 6: 3, 7: 2, 8: 1}
CERTIFY_FIELDS = ("F5", "F7", "F9")
CERTIFY_RATIONAL_SIZES = (4, 5, 6)


def certify_replay(jm, seed):
    """certify_identity then replay, for seeded nonzero matrices over F_5,
    F_7, F_9 (n = 4..8) and over Q (n = 4..6, entries a/b with |a|, b <= 9)."""
    rng = random.Random(seed)
    jobs = [(name, n) for name in CERTIFY_FIELDS for n, w in CERTIFY_SIZES.items() for _ in range(w)]
    jobs += [("Q", n) for n in CERTIFY_RATIONAL_SIZES]
    ops = []
    for name, n in jobs:
        field, F = jm.preset_field(name), ref.RefField(name)
        x = ref.zeros(F, n)
        while ref.is_zero(F, x):
            x = tuple(tuple(F.random(rng) for _ in range(n)) for _ in range(n))
        x_prog = _to_program(jm, field, F, x)

        def run(x=x_prog):
            cert = jm.certify_identity(x)
            return cert, jm.replay(cert)

        def check(out, F=F, x=x):
            cert, replayed = out
            if not replayed.ok:
                return f"replay rejects the certificate: {replayed.reason}"
            return ref.check_certificate(F, x, cert)

        ops.append(Op(f"certify.{name}.n{n}", run, _expect_answer(jm, check)))
    return ops


WORKLOADS = {
    "exhaustive_tables": exhaustive_tables,
    "sampled_classify": sampled_classify,
    "reject_witness": reject_witness,
    "certify_replay": certify_replay,
}
