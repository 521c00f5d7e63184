import random
import time
import tracemalloc

import pytest

from jordanmaps import (
    CIRC,
    DIAMOND,
    JordanMap,
    Mat,
    Strategy,
    UnsupportedInput,
    block_embedding_example,
    check_multiplicative,
    classify_with_report,
    diamond_to_circ,
    jordan_circ,
    jordan_diamond,
    mat_identity,
    mat_unit,
    mat_zero,
    preset_field,
    rational_field,
)

F2 = preset_field("F2")
F3 = preset_field("F3")
F5 = preset_field("F5")


def identity_table(field, n):
    phi = JordanMap.from_oracle(field, n, lambda x: x)
    return {x: x for x in phi.domain_iter()}


class TestFromTable:
    def test_identity_is_multiplicative(self):
        phi = JordanMap.from_table(F3, 2, identity_table(F3, 2))
        report = check_multiplicative(phi)
        assert report.ok
        assert report.qualifier == "exhaustive"
        assert report.pairs_checked == 81 * 81

    def test_coverage_enforced(self):
        table = identity_table(F3, 2)
        table.pop(mat_zero(F3, 2))
        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(F3, 2, table)

    def test_duplicate_keys_rejected(self):
        pairs = list(identity_table(F3, 2).items())
        pairs.append(pairs[0])
        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(F3, 2, pairs)

    def test_domain_cap(self):
        # 3^9 = 19683 exceeds the table cap before any entry is read
        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(F3, 3, {})

    def test_infinite_fields_rejected(self):
        from jordanmaps import rational_field

        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(rational_field(), 2, {})

    def test_inconsistent_codomain_rejected(self):
        table = identity_table(F3, 2)
        table[mat_zero(F3, 2)] = mat_zero(F3, 3)
        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(F3, 2, table)

    def test_upper_triangular_membership(self):
        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(
                F3, 2, {mat_unit(F3, 2, 2, 1): mat_zero(F3, 2)}, domain="upper_triangular"
            )


def test_domain_iter_upper_triangular():
    phi = JordanMap.from_oracle(F3, 2, lambda x: x, domain="upper_triangular")
    seen = list(phi.domain_iter())
    assert len(seen) == 27
    assert all(x.raw(2, 1) == F3.zero for x in seen)
    assert phi.domain_size == 27


def test_domain_iter_full():
    phi = JordanMap.from_oracle(F3, 2, lambda x: x)
    seen = list(phi.domain_iter())
    assert len(seen) == 81
    assert len(set(seen)) == 81


def test_memo_stays_bounded_on_long_sampled_runs():
    # every pair evaluates three new points over Q; CPU time, so other
    # processes do not count
    q = rational_field()
    phi = JordanMap.conjugation(Mat(q, [[1, 2], [3, 4]]))
    pairs = 3433
    start = time.process_time()
    report = check_multiplicative(phi, Strategy.sampled(count=pairs, seed=1))
    elapsed = time.process_time() - start
    assert report.ok and report.pairs_checked == pairs
    assert elapsed < 1.0
    # a map keeps none of its images: the traced peak of a shorter run stays
    # far below the megabytes that 1800 stored images over Q take
    tracemalloc.start()
    try:
        report = check_multiplicative(phi, Strategy.sampled(count=600, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 256 * 1024


@pytest.mark.parametrize("domain", ["full", "upper_triangular"])
@pytest.mark.parametrize("field", [F5, preset_field("F9"), rational_field()],
                         ids=["F5", "F9", "Q"])
def test_sample_domain_draw_order(field, domain):
    # one Field.random_raw draw per free position, row by row
    phi = JordanMap.from_oracle(field, 3, lambda x: x, domain=domain)
    rng, twin = random.Random(7), random.Random(7)
    for _ in range(5):
        expected = [[field.zero] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i if domain == "upper_triangular" else 0, 3):
                expected[i][j] = field.random_raw(twin)
        assert phi.sample_domain(rng).rows == tuple(map(tuple, expected))
    assert rng.random() == twin.random()


def test_call_validates_input():
    phi = JordanMap.from_oracle(F5, 2, lambda x: x)
    with pytest.raises(UnsupportedInput):
        phi(mat_identity(F3, 2))
    with pytest.raises(UnsupportedInput):
        phi(mat_identity(F5, 3))


def test_oracle_output_validated():
    phi = JordanMap.from_oracle(F5, 2, lambda x: mat_zero(F3, 2))
    with pytest.raises(UnsupportedInput):
        phi(mat_zero(F5, 2))


def test_oracle_output_must_be_square():
    # rows right, columns wrong: refused at the call, not inside a product
    phi = JordanMap.from_oracle(F5, 2, lambda x: mat_zero(F5, 2, 3))
    with pytest.raises(UnsupportedInput, match="oracle returned a value outside M_m"):
        phi(mat_zero(F5, 2))
    with pytest.raises(UnsupportedInput, match="oracle returned a value outside M_m"):
        classify_with_report(phi)


def test_product_dispatch():
    circ = JordanMap.from_oracle(F5, 2, lambda x: x, mode=CIRC)
    diam = JordanMap.from_oracle(F5, 2, lambda x: x, mode=DIAMOND)
    a = Mat(F5, [[1, 2], [3, 4]])
    b = Mat(F5, [[0, 1], [1, 0]])
    assert circ.product(a, b) == jordan_circ(a, b)
    assert diam.product(a, b) == jordan_diamond(a, b)


class TestCheckMultiplicative:
    def test_witness_for_corrupted_table(self):
        table = identity_table(F3, 2)
        table[mat_unit(F3, 2, 1, 1)] = mat_unit(F3, 2, 2, 2)
        phi = JordanMap.from_table(F3, 2, table)
        report = check_multiplicative(phi)
        assert not report.ok
        x, y = report.witness
        assert phi(jordan_circ(x, y)) != jordan_circ(phi(x), phi(y))
        # row-major order: row 0 (the zero matrix) passes; in row E_11 the
        # pair (E_11, 2 E_11) is the first to fail, at 81 + 2 + 1 pairs
        e11 = mat_unit(F3, 2, 1, 1)
        assert report.witness == (e11, e11.scale(2))
        assert report.pairs_checked == 84

    def test_sampled_strategy_is_deterministic(self):
        phi = JordanMap.conjugation(Mat(F5, [[1, 1], [0, 1]]))
        s = Strategy.sampled(count=40, seed=11)
        first = check_multiplicative(phi, s)
        second = check_multiplicative(phi, s)
        assert first.ok and second.ok
        assert first.pairs_checked == second.pairs_checked == 40
        assert first.qualifier.startswith("sampled")

    def test_large_finite_domain_defaults_to_sampling(self):
        phi = JordanMap.conjugation(Mat(F5, [[1, 1], [0, 1]]))
        report = check_multiplicative(phi)  # 625 > 316 points
        assert report.ok
        assert report.qualifier.startswith("sampled")

    def test_domain_of_at_most_316_points_defaults_to_exhaustive(self):
        # T_2(F_5) has 125 points, so 15,625 ordered pairs
        phi = JordanMap.from_oracle(F5, 2, lambda x: x, domain="upper_triangular")
        report = check_multiplicative(phi)
        assert report.ok
        assert report.qualifier == "exhaustive"
        assert report.pairs_checked == 125 * 125

    def test_diamond_mode_over_char2(self):
        phi = JordanMap.from_oracle(F2, 2, lambda x: x, mode=DIAMOND)
        report = check_multiplicative(phi)
        assert report.ok
        assert report.pairs_checked == 256
        assert report.qualifier == "exhaustive"


def _reference_scan(phi):
    """The plain pair-by-pair scan, rebuilding both products for every pair."""
    domain = list(phi.domain_iter())
    checked = 0
    for x in domain:
        for y in domain:
            checked += 1
            if phi(phi.product(x, y)) != phi.product(phi(x), phi(y)):
                return False, checked, (x, y)
    return True, checked, None


def _genuine_map(case):
    if case == "M2F3-circ":
        return JordanMap.conjugation(Mat(F3, [[1, 1], [2, 0]]), transpose=True)
    if case == "M2F2-diamond":
        return JordanMap.conjugation(Mat(F2, [[1, 1], [0, 1]]), mode=DIAMOND)
    if case == "T2F5-upper":
        # transposing preserves the circ product and leaves the triangular
        # domain, so products of images are computed rather than looked up
        return JordanMap.from_oracle(
            F5, 2, lambda x: x.transpose(), domain="upper_triangular"
        )
    if case == "M2F3-to-M4":
        # blockdiag(X, E_11): every image is 4x4, so every product is computed
        return block_embedding_example(F3).map
    return JordanMap.constant(F3, 2, Mat(F3, [[1]]))  # M_2(F_3) -> M_1(F_3)


@pytest.mark.parametrize(
    "case", ["M2F3-circ", "M2F2-diamond", "T2F5-upper", "M2F3-to-M1", "M2F3-to-M4"]
)
def test_exhaustive_check_matches_reference_scan(case):
    base = _genuine_map(case)
    f, m = base.field, base.m
    genuine = {x: base(x) for x in base.domain_iter()}
    keys = list(genuine)
    rng = random.Random(0)

    def random_value():
        # any m x m matrix, so images may fall outside a triangular domain
        return Mat(f, [[rng.randrange(f.order) for _ in range(m)] for _ in range(m)])

    tables = [genuine]
    for _ in range(3):  # single-entry mutations of the genuine map
        mutated = dict(genuine)
        x = rng.choice(keys)
        value = random_value()
        while value == genuine[x]:
            value = random_value()
        mutated[x] = value
        tables.append(mutated)
    tables += [{x: random_value() for x in keys} for _ in range(2)]
    for entries in tables:
        phi = JordanMap.from_table(f, base.n, entries, mode=base.mode, domain=base.domain)
        report = check_multiplicative(phi, Strategy.exhaustive())
        assert report.qualifier == "exhaustive"
        assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("kind", ["conjugation", "constant"])
def test_exhaustive_check_matches_reference_scan_at_every_mutation(kind, mode):
    # every single-entry mutation of an M_2(F_3) table, by two values each,
    # read through an oracle that counts the points it is asked for
    if kind == "conjugation":
        base = JordanMap.conjugation(Mat(F3, [[1, 1], [2, 0]]), transpose=True, mode=mode)
    else:  # the constant E_11 for circ and E_11 / 2 = 2 E_11 for diamond
        value = mat_unit(F3, 2, 1, 1, 1 if mode == CIRC else 2)
        base = JordanMap.constant(F3, 2, value, mode=mode)
    genuine = {x: base(x) for x in base.domain_iter()}
    size = len(genuine)
    for x in genuine:
        for shift in (mat_identity(F3, 2), mat_unit(F3, 2, 1, 2)):
            entries = dict(genuine)
            entries[x] = genuine[x] + shift
            asked = []
            phi = JordanMap.from_oracle(
                F3, 2, lambda y, entries=entries: asked.append(y) or entries[y], mode=mode
            )
            report = check_multiplicative(phi, Strategy.exhaustive())
            # images are evaluated once each, when first needed; row 0 is
            # x_0 = 0, whose products are all 0, so it asks for phi(x_b) in
            # order and a scan that stops at pair k has asked for min(k, size)
            assert len(asked) == len(set(asked)) == min(report.pairs_checked, size)
            assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("value", ["x", "I"])
def test_exhaustive_check_finds_a_witness_past_row_1(value, mode):
    # x or I where x_22 != 0, else 0: rows 0-2 pass, so rows 1-3 are read
    # whole, with images 0 and nonzero among them
    keep = mat_identity(F3, 2) if value == "I" else None
    entries = {
        x: (keep or x) if x.raw(2, 2) else mat_zero(F3, 2)
        for x in JordanMap.zero(F3, 2).domain_iter()
    }
    phi = JordanMap.from_table(F3, 2, entries, mode=mode)
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert report.pairs_checked == 3 * 81 + 9 + 1
    assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)


class TestDiamondToCirc:
    def test_constant(self):
        # diamond-constant C corresponds to the circ-constant 2C
        c = mat_unit(F5, 2, 1, 1, 3)  # 3 = 1/2 in F_5
        phi = JordanMap.constant(F5, 2, c, mode=DIAMOND)
        psi = diamond_to_circ(phi)
        assert psi.mode == CIRC
        assert psi(mat_zero(F5, 2)) == mat_unit(F5, 2, 1, 1)

    def test_conjugation_is_unchanged_pointwise(self):
        t = Mat(F5, [[1, 2], [0, 1]])
        phi = JordanMap.conjugation(t, mode=DIAMOND)
        psi = diamond_to_circ(phi)
        rng = random.Random(0)
        for _ in range(20):
            x = phi.sample_domain(rng)
            assert psi(x) == phi(x)

    @pytest.mark.parametrize("body", ["table", "oracle", "constant-m2", "constant-m1"])
    def test_table(self, body):
        # every body but a conjugation is read through phi: psi(x) = 2 phi(x/2)
        base = JordanMap.conjugation(Mat(F3, [[1, 1], [0, 1]]), mode=DIAMOND)
        if body == "table":
            table = {x: base(x) for x in base.domain_iter()}
            phi = JordanMap.from_table(F3, 2, table, mode=DIAMOND)
        elif body == "oracle":
            phi = JordanMap.from_oracle(F3, 2, base, mode=DIAMOND)
        else:  # E_11 / 2 = 2 E_11 in M_2(F_3), and [2] = [1] / 2 in M_1(F_3)
            value = mat_unit(F3, 2, 1, 1, 2) if body == "constant-m2" else Mat(F3, [[2]])
            phi = JordanMap.constant(F3, 2, value, mode=DIAMOND)
        psi = diamond_to_circ(phi)
        assert (psi.mode, psi.m, psi.body_kind) == (CIRC, phi.m, "oracle")
        assert check_multiplicative(psi).ok
        half = F3.scalar(2)
        for x in psi.domain_iter():
            assert psi(x) == phi(x.scale(half)).scale(2)
            if body in ("table", "oracle"):
                assert psi(x) == base(x)

    def test_circ_input_rejected(self):
        phi = JordanMap.from_oracle(F5, 2, lambda x: x, mode=CIRC)
        with pytest.raises(ValueError):
            diamond_to_circ(phi)

    def test_char2_rejected(self):
        phi = JordanMap.from_oracle(F2, 2, lambda x: x, mode=DIAMOND)
        with pytest.raises(UnsupportedInput):
            diamond_to_circ(phi)


class TestStrategy:
    def test_describe(self):
        assert Strategy.exhaustive().describe() == "exhaustive"
        assert Strategy.sampled(count=50, seed=3).describe() == "sampled:50:3"

    def test_validation(self):
        with pytest.raises(ValueError):
            Strategy(kind="clairvoyant")
        with pytest.raises(ValueError):
            Strategy.sampled(count=0)

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_pairs_must_be_positive(self, pairs):
        with pytest.raises(ValueError, match="pairs >= 1"):
            Strategy.sampled(count=10, pairs=pairs)

    def test_pair_budget(self):
        assert Strategy.sampled(count=100).pair_budget == 100
        assert Strategy.sampled(count=100, pairs=7).pair_budget == 7


def test_describe_reports_shape_and_body():
    phi = JordanMap.zero(F5, 2, m=3)
    info = phi.describe()
    assert info["n"] == 2 and info["m"] == 3
    assert info["body"] == "constant"
    tri = JordanMap.from_oracle(F5, 2, lambda x: x, domain="upper_triangular")
    assert tri.describe()["domain"] == "upper_triangular"
