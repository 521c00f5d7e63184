import itertools
import json
import random
import re
import time
import tracemalloc
from array import array

import pytest

from jordanmaps import (
    CIRC,
    DIAMOND,
    JordanMap,
    Mat,
    RingEndo,
    Scalar,
    Strategy,
    UnsupportedInput,
    block_diag,
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
from jordanmaps import maps
from jordanmaps.classifier import _verification_points
from jordanmaps.maps import (
    _domain,
    _domain_sums,
    _free_positions,
    _product_codes,
    _product_table,
)
from jordanmaps.matrices import _raw_draw, random_mat
from jordanmaps.serialization import dumps, map_from_json, table_to_json

F2 = preset_field("F2")
F3 = preset_field("F3")
F5 = preset_field("F5")
F9 = preset_field("F9")


def transpose(x):
    return Mat._from_raw(x.field, tuple(zip(*x.rows)))


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

    # the same key object, and an equal but distinct one
    @pytest.mark.parametrize("copy", [lambda x: x, lambda x: Mat._from_raw(F3, x.rows)],
                             ids=["same", "equal"])
    def test_duplicate_keys_rejected(self, copy):
        pairs = list(identity_table(F3, 2).items())
        pairs.append((copy(pairs[-1][0]), pairs[-1][1]))
        assert pairs[-1][0] == pairs[-2][0]
        with pytest.raises(UnsupportedInput, match="duplicate table key"):
            JordanMap.from_table(F3, 2, pairs)

    def test_domain_cap(self):
        # 3^9 = 19683 exceeds the table cap before any entry is read, or
        # before domain_iter builds a matrix
        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(F3, 3, {})
        start = time.process_time()
        with pytest.raises(UnsupportedInput, match="capped at 10000"):
            JordanMap.from_oracle(F3, 3, lambda x: x).domain_iter()
        assert time.process_time() - start < 0.1

    # both sides of the bound n < 14: 2^13 < 10^4 < 2^14, so n = 14 and up
    # are refused by the bound on n, and n = 13 over F_2 by the cap
    @pytest.mark.parametrize("n, detail", [
        (14, "map tables need 1 <= n < 14, got 14"),
        (13, f"domain has {2 ** 169} matrices; tables are capped at 10000"),
    ])
    def test_size_bound(self, n, detail):
        with pytest.raises(UnsupportedInput) as exc:
            JordanMap.from_table(F2, n, {})
        assert str(exc.value) == detail

    def test_infinite_fields_rejected(self):
        from jordanmaps import rational_field

        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(rational_field(), 2, {})

    def test_inconsistent_codomain_rejected(self):
        table = identity_table(F3, 2)
        table[mat_zero(F3, 2)] = mat_zero(F3, 3)
        with pytest.raises(UnsupportedInput):
            JordanMap.from_table(F3, 2, table)

    # one key of a full table swapped for one outside the domain: I over F_7,
    # whose raw rows are those of I over F_5, and a non-triangular key
    @pytest.mark.parametrize("field, inside, outside, domain", [
        (F5, mat_identity(F5, 2), mat_identity(preset_field("F7"), 2), "full"),
        (F3, mat_zero(F3, 2), mat_unit(F3, 2, 2, 1), "upper_triangular"),
    ], ids=["field", "upper_triangular"])
    def test_key_outside_domain_rejected(self, field, inside, outside, domain):
        phi = JordanMap.from_oracle(field, 2, lambda x: x, domain=domain)
        table = {x: x for x in phi.domain_iter()}
        table[outside] = table.pop(inside)
        with pytest.raises(UnsupportedInput, match="table key outside the declared domain"):
            JordanMap.from_table(field, 2, table, domain=domain)


def test_domain_iter_upper_triangular():
    phi = JordanMap.from_oracle(F3, 2, lambda x: x, domain="upper_triangular")
    seen = list(phi.domain_iter())
    assert len(seen) == 27
    assert all(x.rows[1][0] == F3.zero for x in seen)
    assert phi.domain_size == 27


def test_domain_iter_full():
    phi = JordanMap.from_oracle(F3, 2, lambda x: x)
    seen = list(phi.domain_iter())
    assert len(seen) == 81
    assert len(set(seen)) == 81
    # one cached enumeration serves every call and the product table
    assert all(x is y for x, y in zip(seen, phi.domain_iter(), strict=True))
    assert _product_table(F3, 2, CIRC, "full")[0] is _domain(F3, 2, "full")[0]


# an enumeration of its own: entries (1,1), (1,2), (2,1), (2,2), the first
# varying fastest; position (2,1) is 0 on the triangular domain
@pytest.mark.parametrize("name, domain", [
    ("F3", "full"), ("F5", "upper_triangular"), ("F9", "full"),
])
def test_domain_order(name, domain):
    field = preset_field(name)
    q = range(field.order)
    if domain == "full":
        expected = [((a, b), (c, d)) for d, c, b, a in itertools.product(q, repeat=4)]
    else:
        expected = [((a, b), (0, d)) for d, b, a in itertools.product(q, repeat=3)]
    mats, index = _domain(field, 2, domain)
    assert [x.rows for x in mats] == expected
    assert all(x.field == field for x in mats)
    assert index == {rows: k for k, rows in enumerate(expected)}


def _domain_keys():
    """(field name, n, domain) for every domain a map table may cover, over
    the fields F2, F3, F4, F5, F7, F9, F25 and F27 with n = 1..3."""
    for name in ("F2", "F3", "gf:2:2", "F5", "F7", "F9", "F25", "gf:3:3"):
        for n in (1, 2, 3):
            for domain in ("full", "upper_triangular"):
                try:
                    maps._table_size(preset_field(name), n, domain)
                except UnsupportedInput:
                    continue
                yield name, n, domain


@pytest.mark.parametrize("name, n, domain", list(_domain_keys()))
def test_domain_index_is_the_code(name, n, domain):
    # index = code, which `_product_codes` and `_domain_columns` rely on: the
    # k-th domain matrix holds the base-q digits of k at the free positions,
    # the first position the least significant, and 0 off them
    field = preset_field(name)
    positions = _free_positions(n, domain)
    mats, index = _domain(field, n, domain)
    codes = [sum(x.rows[i][j] * field.order ** k for k, (i, j) in enumerate(positions))
             for x in mats]
    assert [index[x.rows] for x in mats] == codes == list(range(field.order ** len(positions)))
    off = set(itertools.product(range(n), repeat=2)) - set(positions)
    assert all(x.rows[i][j] == 0 for x in mats for i, j in off)


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("field, domain", [
    (F5, "full"), (F9, "upper_triangular"), (rational_field(), "full"),
], ids=["F5", "F9-upper", "Q"])
def test_sampled_points_are_the_pair_stream(field, domain, count):
    # after the units, 0 and I, a sampled form check reads the first `count`
    # matrices of the pre-check's pair stream x_1, y_1, x_2, ...
    phi = JordanMap.from_oracle(field, 3, lambda x: x, domain=domain)
    points = list(_verification_points(phi, Strategy.sampled(count, seed=11)))
    units = [mat_unit(field, 3, i + 1, j + 1) for i, j in _free_positions(3, domain)]
    fixed = units + [mat_zero(field, 3), mat_identity(field, 3)]
    assert points[:len(fixed)] == fixed
    stream = [x for pair in maps._sampled_pairs(phi, 11, count) for x in pair]
    assert points[len(fixed):] == stream[:count]


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
    # one `_raw_draw` value per free position, row by row
    phi = JordanMap.from_oracle(field, 3, lambda x: x, domain=domain)
    rng, twin = random.Random(7), random.Random(7)
    draw = _raw_draw(field, twin)
    for _ in range(5):
        expected = [[field.zero] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i if domain == "upper_triangular" else 0, 3):
                expected[i][j] = draw()
        assert phi.sample_domain(rng).rows == tuple(map(tuple, expected))
    assert rng.random() == twin.random()
    if domain == "full":
        # the full domain draws exactly what random_mat draws
        for seed in range(3):
            x = phi.sample_domain(random.Random(seed))
            assert x == random_mat(field, 3, random.Random(seed))


def test_call_validates_input():
    phi = JordanMap.from_oracle(F5, 2, lambda x: x)
    with pytest.raises(UnsupportedInput):
        phi(mat_identity(F3, 2))
    with pytest.raises(UnsupportedInput):
        phi(mat_identity(F5, 3))


def test_triangular_map_refuses_a_point_below_the_diagonal():
    phi = JordanMap.from_oracle(F3, 2, lambda x: x, domain="upper_triangular")
    assert phi(mat_unit(F3, 2, 1, 2)) == mat_unit(F3, 2, 1, 2)
    with pytest.raises(UnsupportedInput, match="input outside the upper-triangular domain"):
        phi(mat_unit(F3, 2, 2, 1))


@pytest.mark.parametrize("field", [rational_field(), F9], ids=["Q", "F9"])
def test_upper_triangular_test_reads_every_entry_below_the_diagonal(field):
    # t = raw 3 of F_9 and 1/2 of Q are nonzero below the diagonal, at each
    # place; entries on and above the diagonal are free
    phi = JordanMap.from_oracle(field, 3, lambda x: x, domain="upper_triangular")
    nonzero = field.of([0, 1] if field.is_finite else "1/2")
    upper = Mat._from_raw(field, tuple(tuple(nonzero if j >= i else field.zero
                                             for j in range(3)) for i in range(3)))
    assert maps._is_upper_triangular(upper) and phi(upper) == upper
    for i, j in [(2, 1), (3, 1), (3, 2)]:
        x = upper + mat_unit(field, 3, i, j, Scalar(field, nonzero))
        assert not maps._is_upper_triangular(x)
        with pytest.raises(UnsupportedInput, match="outside the upper-triangular domain"):
            phi(x)


def test_oracle_output_validated():
    phi = JordanMap.from_oracle(F5, 2, lambda x: mat_zero(F3, 2))
    with pytest.raises(UnsupportedInput):
        phi(mat_zero(F5, 2))


def test_oracle_output_must_be_square():
    # rows right, columns wrong: refused at the call, not inside a product
    phi = JordanMap.from_oracle(F5, 2, lambda x: Mat(F5, [[0, 0, 0], [0, 0, 0]]))
    with pytest.raises(UnsupportedInput, match="oracle returned a value outside M_m"):
        phi(mat_zero(F5, 2))
    with pytest.raises(UnsupportedInput, match="oracle returned a value outside M_m"):
        classify_with_report(phi)


@pytest.mark.parametrize("domain", ["full", "upper_triangular"])
@pytest.mark.parametrize("value", [
    lambda x: mat_zero(F3, 2), lambda x: Mat(F5, [[0, 0, 0], [0, 0, 0]]),
    lambda x: mat_zero(F5, 3), lambda x: "not a matrix",
], ids=["other_field", "not_square", "other_size", "not_a_matrix"])
def test_exhaustive_check_refuses_an_oracle_value_outside_m_m(domain, value):
    # the check evaluates its own domain matrices without a call's input
    # checks, but an oracle's value is still checked at every point
    phi = JordanMap.from_oracle(F5, 2, value, domain=domain)
    with pytest.raises(UnsupportedInput, match=r"^oracle returned a value outside M_m\(F\)$"):
        check_multiplicative(phi, Strategy.exhaustive())


def test_product_dispatch():
    circ = JordanMap.from_oracle(F5, 2, lambda x: x, mode=CIRC)
    diam = JordanMap.from_oracle(F5, 2, lambda x: x, mode=DIAMOND)
    a = Mat(F5, [[1, 2], [3, 4]])
    b = Mat(F5, [[0, 1], [1, 0]])
    assert circ.product(a, b) == jordan_circ(a, b)
    assert diam.product(a, b) == jordan_diamond(a, b)



def _pairwise_table(name, n, mode, domain):
    """The product table built pair by pair from the Mat products of the
    domain matrices, in the shape of _product_table's triple."""
    jordan = jordan_circ if mode == CIRC else jordan_diamond
    mats = _domain(preset_field(name), n, domain)[0]
    index = {x.rows: i for i, x in enumerate(mats)}
    rows = [[0] * len(mats) for _ in mats]
    for a, x in enumerate(mats):
        for b in range(a, len(mats)):
            rows[a][b] = rows[b][a] = index[jordan(x, mats[b]).rows]
    return mats, index, tuple(array("H", r) for r in rows)


TABLE_KEYS = [
    *[("F2", n, DIAMOND, "full") for n in (1, 2)],
    *[(name, n, mode, domain)
      for name in ("F3", "F5") for n in (1, 2) for mode in (CIRC, DIAMOND)
      for domain in ("full", "upper_triangular")
      if (name, n, domain) != ("F5", 2, "full")],
    ("F7", 2, CIRC, "upper_triangular"),
    ("gf:2:2", 2, DIAMOND, "upper_triangular"),
    # one scalar line each: every nonzero point is a multiple of 1
    ("F9", 1, CIRC, "full"),
    ("gf:3:3", 1, DIAMOND, "full"),
]


@pytest.mark.parametrize("name, n, mode, domain", TABLE_KEYS)
def test_product_table_matches_pairwise_products(name, n, mode, domain):
    assert _product_table(preset_field(name), n, mode, domain) == _pairwise_table(name, n, mode, domain)


# tables whose pair-by-pair construction takes seconds: their domains and
# indices are compared whole, their rows on a seeded sample
@pytest.mark.parametrize("name, n, mode, domain", [
    ("F2", 3, DIAMOND, "full"),
    ("F5", 2, CIRC, "full"),
    ("F9", 2, CIRC, "upper_triangular"),
    ("F9", 2, DIAMOND, "upper_triangular"),
    ("F7", 2, CIRC, "full"),
    ("F3", 3, CIRC, "upper_triangular"),
])
def test_large_product_table_rows_match_pairwise_products(name, n, mode, domain):
    jordan = jordan_circ if mode == CIRC else jordan_diamond
    mats, index, table = _product_table(preset_field(name), n, mode, domain)
    assert (mats, index) == _domain(preset_field(name), n, domain)
    size = len(mats)
    for a in [0, 1, size - 1, *random.Random(7).sample(range(size), 5)]:
        assert table[a] == array("H", [index[jordan(mats[a], y).rows] for y in mats])


@pytest.mark.parametrize("name, n, domain, lines", [
    ("F3", 2, "full", 40), ("F7", 2, "upper_triangular", 57), ("F9", 1, "full", 1),
    ("F2", 2, "full", 15),
])
def test_product_table_runs_the_kernel_on_one_point_per_scalar_line(monkeypatch, name, n,
                                                                     domain, lines):
    # the kernel gets 0 and the least point of each line {c x : c != 0}, in
    # code order: 41 of the 81 points of M_2(F_3), 58 of the 343 of T_2(F_7)
    field = preset_field(name)
    mats, index = _domain(field, n, domain)
    multiples = [{index[x.scale(Scalar(field, c)).rows] for c in range(1, field.order)}
                 for x in mats]
    least = [0] + [a for a in range(1, len(mats)) if min(multiples[a]) == a]
    assert len(least) == 1 + lines
    handed = []

    def spy(field, mode, raws, points, positions):
        handed.append([index[raws[k]] for k in points])
        return _product_codes(field, mode, raws, points, positions)

    monkeypatch.setattr(maps, "_product_codes", spy)
    _product_table.__wrapped__(field, n, DIAMOND, domain)  # cold, past the cache
    assert handed == [least]


@pytest.mark.parametrize("name", ["F2", "gf:2:2"])
def test_circ_product_table_is_refused_in_char2(name):
    with pytest.raises(UnsupportedInput, match="characteristic != 2"):
        _product_table(preset_field(name), 2, CIRC, "full")


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
        # domain, so products of images are coded rather than looked up
        return JordanMap.from_oracle(F5, 2, transpose, domain="upper_triangular")
    if case in ("M2F3-to-M4", "M2F3-to-M4-corner"):
        # blockdiag(X, E_11): every image is 4x4, so no product is looked up
        return block_embedding_example(F3).map
    if case.startswith("M1F9-to-M2"):
        # blockdiag(x, P) with P = E_11 idempotent for the product (E_11 / 2 for diamond)
        mode = CIRC if case.endswith("circ") else DIAMOND
        p = mat_unit(F9, 1, 1, 1, 1 if mode == CIRC else 2)
        return JordanMap.from_oracle(F9, 1, lambda x: block_diag(x, p), mode=mode, m=2)
    if case == "M2F2-to-M4-diamond":
        return JordanMap.from_oracle(F2, 2, lambda x: block_diag(x, x), mode=DIAMOND, m=4)
    return JordanMap.constant(F3, 2, Mat(F3, [[1]]))  # M_2(F_3) -> M_1(F_3)


# block embeddings mutated at one point x != 0 to the image of another point:
# every image keeps its corner block, so row 0 passes and the scan goes on to
# compare rows of image codes
_CORNER_CASES = ["M2F3-to-M4-corner", "M1F9-to-M2-circ", "M1F9-to-M2-diamond", "M2F2-to-M4-diamond"]


@pytest.mark.parametrize(
    "case", ["M2F3-circ", "M2F2-diamond", "T2F5-upper", "M2F3-to-M1", "M2F3-to-M4"] + _CORNER_CASES
)
def test_exhaustive_check_matches_reference_scan(case):
    base = _genuine_map(case)
    f, m = base.field, base.m
    genuine = {x: base(x) for x in base.domain_iter()}
    keys = list(genuine)
    rng = random.Random(0)
    if case in _CORNER_CASES:
        reports = []
        for _ in range(6):
            x, y = rng.sample(keys[1:], 2)
            phi = JordanMap.from_table(f, base.n, {**genuine, x: genuine[y]}, mode=base.mode)
            report = check_multiplicative(phi, Strategy.exhaustive())
            assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)
            assert report.pairs_checked > len(keys)
            reports.append(report)
        assert any(not report.ok for report in reports)
        return

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
@pytest.mark.parametrize("kind", ["conjugation", "constant", "constant-to-M1", "block-to-M4"])
def test_exhaustive_check_matches_reference_scan_at_every_mutation(kind, mode, monkeypatch):
    # every single-entry mutation of an M_2(F_3) table, by two values each,
    # read through an oracle that records the points it is asked for, and
    # as a table decoded from its JSON text; the last two kinds have every
    # image outside the domain, so each row, row 0 included, is compared by
    # codes
    h = 1 if mode == CIRC else 2  # E_11 is idempotent for circ, E_11 / 2 = 2 E_11 for diamond
    if kind == "conjugation":
        base = JordanMap.conjugation(Mat(F3, [[1, 1], [2, 0]]), transpose=True, mode=mode)
    elif kind == "block-to-M4":
        corner = mat_unit(F3, 2, 1, 1, h)
        base = JordanMap.from_oracle(F3, 2, lambda x: block_diag(x, corner), mode=mode, m=4)
    else:
        m = 1 if kind == "constant-to-M1" else 2
        base = JordanMap.constant(F3, 2, mat_unit(F3, m, 1, 1, h), mode=mode)
    m = base.m
    genuine = {x: base(x) for x in base.domain_iter()}
    shifts = (mat_identity(F3, m), mat_unit(F3, m, 1, 2) if m > 1 else mat_unit(F3, 1, 1, 1, 2))
    calls = []
    call = JordanMap.__call__
    monkeypatch.setattr(JordanMap, "__call__", lambda phi, x: calls.append(phi) or call(phi, x))
    reports = []
    for x in genuine:
        for shift in shifts:
            entries = dict(genuine)
            entries[x] = genuine[x] + shift
            asked = []
            phi = JordanMap.from_oracle(
                F3, 2, lambda y, entries=entries: asked.append(y) or entries[y], mode=mode, m=m
            )
            report = check_multiplicative(phi, Strategy.exhaustive())
            # every image is asked for exactly once, in domain order, before
            # any pair is compared
            assert asked == list(genuine)
            expected = _reference_scan(phi)
            assert (report.ok, report.pairs_checked, report.witness) == expected
            reports.append(report)
            table = JordanMap.from_table(F3, 2, entries, mode=mode)
            decoded = map_from_json(json.loads(dumps(table_to_json(table))))
            del calls[:]
            report = check_multiplicative(decoded, Strategy.exhaustive())
            # the scan reads the decoded table's image ids, never the map
            assert calls == []
            assert (report.ok, report.pairs_checked, report.witness) == expected
    assert any(not r.ok and r.pairs_checked <= len(genuine) for r in reports)


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("value", ["x", "I"])
def test_exhaustive_check_finds_a_witness_past_row_1(value, mode):
    # x or I where x_22 != 0, else 0: rows 0-2 pass, so rows 1-3 are read
    # whole, with images 0 and nonzero among them
    keep = mat_identity(F3, 2) if value == "I" else None
    entries = {
        x: (keep or x) if x.rows[1][1] else mat_zero(F3, 2)
        for x in JordanMap.zero(F3, 2).domain_iter()
    }
    phi = JordanMap.from_table(F3, 2, entries, mode=mode)
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert report.pairs_checked == 3 * 81 + 9 + 1
    assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)


def test_exhaustive_scan_outside_the_domain_forms_no_product(monkeypatch):
    # blockdiag(X, E_11) passes: each of the 81 images is asked for once, and
    # every row, row 0 included, compares image codes without any product
    base = block_embedding_example(F3).map
    asked = []
    phi = JordanMap.from_oracle(F3, 2, lambda x: asked.append(x) or base(x), m=4)
    calls = []
    jordan = maps.jordan_circ
    monkeypatch.setattr(maps, "jordan_circ", lambda x, y: calls.append(x) or jordan(x, y))
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert report.ok and report.pairs_checked == 81 * 81
    assert asked == list(phi.domain_iter())
    assert calls == []


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("m", [2, 4])
def test_kernel_drops_terms_that_are_always_zero(m, mode):
    # no row of E_12 shares a support index with a column of E_12, so every
    # term of the kernel drops and every product code is 0 (E_12^2 = 0); a
    # constant E_12 table is rejected at (0, 0), through ids into M_2 and
    # through codes into M_4
    e12 = mat_unit(F3, m, 1, 2)
    codes = _product_codes(F3, mode, [e12.rows], [0] * 81, _free_positions(m, "full"))
    assert [list(codes(a)) for a in (0, 40, 80)] == [[0] * 81, [0] * 41, [0]]
    phi = JordanMap.from_table(F3, 2, {x: e12 for x in _domain(F3, 2, "full")[0]}, mode=mode)
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)
    assert report.pairs_checked == 1


@pytest.mark.parametrize("value", [0, 1])
def test_codes_scan_keeps_a_right_hand_side_per_image(monkeypatch, value):
    # a constant M_2(F_3) -> M_1 table is decided by c * c = c alone: no
    # kernel is set up and no scan row runs. On T_2(F_3), x -> diag(x_11^2,
    # x_22^2, value) into M_3 is not additive, so it reaches the scan, which
    # accepts it; it has 4 distinct images among 27 points, and the kernel's
    # codes run once for each, at the first row that has it
    _product_table(F3, 2, CIRC, "full")  # built before the count starts
    _product_table(F3, 2, CIRC, "upper_triangular")
    rows = []

    def counting(*args):
        codes = _product_codes(*args)
        return lambda a: rows.append(a) or codes(a)

    monkeypatch.setattr(maps, "_product_codes", counting)
    c = Mat(F3, [[value]])
    phi = JordanMap.from_table(F3, 2, {x: c for x in _domain(F3, 2, "full")[0]})
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert (report.ok, report.pairs_checked, report.witness) == (True, 81 * 81, None)
    assert rows == []

    def squares(x):
        (a, _), (_, d) = x.rows
        return Mat(F3, [[a * a, 0, 0], [0, d * d, 0], [0, 0, value]])

    phi = JordanMap.from_oracle(F3, 2, squares, m=3, domain="upper_triangular")
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert (report.ok, report.pairs_checked, report.witness) == (True, 27 * 27, None)
    images = [squares(x) for x in phi.domain_iter()]
    firsts = [a for a, image in enumerate(images) if images.index(image) == a]
    assert rows == firsts and len(firsts) == 4


def _transposed_times(field, n):
    # x -> T x^t, an additive map of M_n(field)
    t = Mat._from_raw(field, tuple(tuple((3 * i + j + 1) % field.order for j in range(n))
                                   for i in range(n)))
    return lambda x: (t @ transpose(x)).rows


@pytest.mark.parametrize("name, n, domain", list(_domain_keys()))
def test_domain_sums_reads_an_additive_map_at_the_basis(name, n, domain):
    # x -> T x^t is additive: its values at the domain matrices, in domain
    # order, come from its values at the F_p-basis t^s E_ij alone
    field = preset_field(name)
    asked = []
    value = _transposed_times(field, n)
    mats = _domain(field, n, domain)[0]
    sums = _domain_sums(field, n, domain, lambda x: asked.append(x) or value(x))
    assert list(sums) == list(map(value, mats))
    assert asked == [mat_unit(field, n, i + 1, j + 1, Scalar(field, field.p ** s))
                     for i, j in _free_positions(n, domain) for s in range(field.k)]


@pytest.mark.parametrize("name", ["F3", "F7", "F9"])
def test_domain_sums_stop_where_their_caller_does(monkeypatch, name):
    # 0 needs no value and no add; the multiples of E_11 after it need the
    # value at E_11 alone and at most one row of q raw sums per entry
    field = preset_field(name)
    value = _transposed_times(field, 2)
    asked, calls = [], []
    add = field.add
    monkeypatch.setattr(field, "add", lambda a, b: calls.append(1) or add(a, b))
    sums = _domain_sums(field, 2, "full", lambda x: asked.append(x) or value(x))
    assert next(sums) == ((0, 0), (0, 0)) and not asked and not calls
    firsts = list(itertools.islice(sums, field.p - 1))
    assert firsts == [value(mat_unit(field, 2, 1, 1, Scalar(field, c))) for c in range(1, field.p)]
    assert asked == [mat_unit(field, 2, 1, 1)] and 0 < len(calls) <= 4 * field.order


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("seed", range(4))
def test_codes_scan_reads_each_image_once(monkeypatch, seed, mode):
    # a scattered M_2(F_3) -> M_1 table has three distinct images: the kernel
    # is handed those three and the points' image ids, not one matrix per
    # point, and the scan finds the reference scan's witness and count
    _product_table(F3, 2, mode, "full")  # built before the count starts
    handed = []

    def counting(field, mode, raws, points, positions):
        handed.append((list(raws), points))
        return _product_codes(field, mode, raws, points, positions)

    monkeypatch.setattr(maps, "_product_codes", counting)
    rng = random.Random(seed)
    values = [Mat(F3, [[c]]) for c in (0, 1, 2)]
    phi = JordanMap.from_table(
        F3, 2, {x: rng.choice(values) for x in _domain(F3, 2, "full")[0]}, mode=mode)
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)
    ids, images = phi._table
    assert handed == [(images, ids)] and len(images) == 3


def test_codes_scan_rejecting_early_builds_few_dot_rows(monkeypatch):
    # an M_2(F_3) -> M_3 table with phi(0) = 0 and 81 distinct images fails
    # in row 1: the kernel tables the dot products of the vectors of the two
    # images it scanned, at most 2 * (3 rows + 3 columns), not of all 81
    rng = random.Random(5)
    keys = list(_domain(F3, 2, "full")[0])
    values = {mat_zero(F3, 3)}
    while len(values) < len(keys):
        values.add(Mat(F3, [[rng.randrange(3) for _ in range(3)] for _ in range(3)]))
    entries = dict(zip(keys, [mat_zero(F3, 3)] + sorted(values - {mat_zero(F3, 3)}, key=repr)))
    phi = JordanMap.from_table(F3, 2, entries)
    _product_table(F3, 2, CIRC, "full")
    rows = []
    matmul = maps._matmul_raw
    monkeypatch.setattr(maps, "_matmul_raw", lambda f, a, b: rows.append(a) or matmul(f, a, b))
    report = check_multiplicative(phi, Strategy.exhaustive())
    assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)
    assert report.pairs_checked < 2 * 81
    assert 0 < len(rows) <= 2 * 6


def test_exhaustive_scan_outside_the_domain_stops_early():
    # a random M_2(F_5) -> M_4(F_5) table with phi(0) = 0 passes row 0 and
    # fails at (E_11, E_11); the scan tables only the dot products row 1 needs
    rng = random.Random(0)
    keys = list(JordanMap.zero(F5, 2).domain_iter())
    entries = {x: Mat(F5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)]) for x in keys}
    entries[keys[0]] = mat_zero(F5, 4)
    phi = JordanMap.from_table(F5, 2, entries)
    _product_table(F5, 2, CIRC, "full")
    start = time.process_time()
    report = check_multiplicative(phi, Strategy.exhaustive())
    elapsed = time.process_time() - start
    assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)
    assert report.pairs_checked == 625 + 2
    assert elapsed < 0.1


def _spy_on_the_proof(monkeypatch):
    """Record each run of the proof as (verdict, the basis-pair tests it made)."""
    runs = []
    prove = maps._proves_law

    def spy(phi, ids, images, holds):
        tested = []
        verdict = prove(phi, ids, images, lambda a, b: tested.append(holds(a, b)) or tested[-1])
        runs.append((verdict, tested))
        return verdict

    monkeypatch.setattr(maps, "_proves_law", spy)
    return runs


def _report_with_and_without_the_proof(phi, monkeypatch):
    """The exhaustive report of phi, asserted equal to the report of the scan
    alone, with the proof made to refuse."""
    report = check_multiplicative(phi, Strategy.exhaustive())
    with monkeypatch.context() as patch:
        patch.setattr(maps, "_proves_law", lambda *args: False)
        scanned = check_multiplicative(phi, Strategy.exhaustive())
    assert (report.ok, report.pairs_checked, report.witness) == (
        scanned.ok, scanned.pairs_checked, scanned.witness)
    return report


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("transpose", [False, True])
def test_proof_agrees_with_the_scan_at_every_mutation(transpose, mode, monkeypatch):
    # an M_2(F_3) conjugation table is proved; each of its 81 one-point
    # mutations adds phi(E_22) at the point, which the rows of the line
    # F E_11 do not see at most points, so the proof runs and refuses them
    runs = _spy_on_the_proof(monkeypatch)
    base = JordanMap.conjugation(Mat(F3, [[1, 1], [2, 0]]), transpose=transpose, mode=mode)
    genuine = {x: base(x) for x in base.domain_iter()}
    report = _report_with_and_without_the_proof(
        JordanMap.from_table(F3, 2, genuine, mode=mode), monkeypatch)
    assert report.ok and runs == [(True, [True] * 10)]
    delta = base(mat_unit(F3, 2, 2, 2))
    for x in genuine:
        phi = JordanMap.from_table(F3, 2, {**genuine, x: genuine[x] + delta}, mode=mode)
        assert not _report_with_and_without_the_proof(phi, monkeypatch).ok
    assert len(runs) > 40 and not any(verdict for verdict, _ in runs[1:])


def _block_embedding(mode):
    # X -> diag(X, P) from M_2(F_3) into M_4, P = E_11 for circ and E_11 / 2 =
    # 2 E_11 for diamond: phi(0) = diag(0, P) is idempotent for the product
    corner = mat_unit(F3, 2, 1, 1, 1 if mode == CIRC else 2)
    return JordanMap.from_oracle(F3, 2, lambda x: block_diag(x, corner), mode=mode, m=4)


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
def test_proof_accepts_an_affine_map(mode, monkeypatch):
    # phi = diag(0, P) + an additive map: proved on the 10 basis pairs, as an
    # oracle and as a table, with the scan's report
    runs = _spy_on_the_proof(monkeypatch)
    base = _block_embedding(mode)
    table = JordanMap.from_table(F3, 2, {x: base(x) for x in base.domain_iter()}, mode=mode)
    for phi in (base, table):
        report = _report_with_and_without_the_proof(phi, monkeypatch)
        assert (report.ok, report.pairs_checked) == (True, 81 * 81)
    assert runs == [(True, [True] * 10)] * 2


def test_proof_accepts_the_block_embedding_bundle(monkeypatch):
    runs = _spy_on_the_proof(monkeypatch)
    phi = block_embedding_example(F5).map
    report = _report_with_and_without_the_proof(phi, monkeypatch)
    assert (report.ok, report.pairs_checked) == (True, 625 * 625)
    assert runs == [(True, [True] * 10)]


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
def test_proof_refuses_every_mutation_of_an_affine_table(mode, monkeypatch):
    # each one-point mutation adds diag(E_22, 0), the step along E_22, at the
    # point: every one breaks the law, and the proof never accepts one
    runs = _spy_on_the_proof(monkeypatch)
    base = _block_embedding(mode)
    genuine = {x: base(x) for x in base.domain_iter()}
    delta = block_diag(mat_unit(F3, 2, 2, 2), mat_zero(F3, 2))
    for x in genuine:
        phi = JordanMap.from_table(F3, 2, {**genuine, x: genuine[x] + delta}, mode=mode)
        assert not _report_with_and_without_the_proof(phi, monkeypatch).ok
    assert len(runs) > 40 and not any(verdict for verdict, _ in runs)


_E = {(i, j): mat_unit(F3, 2, i, j) for i in (1, 2) for j in (1, 2)}


@pytest.mark.parametrize("kind", ["constant", "conjugation"])
def test_proof_counts_images_before_it_sums(kind, monkeypatch):
    # an affine map has a power of p images, so E_11 with I at E_22 (2
    # images) and a conjugation with E_22 sent to 0 (80 images) reach the
    # proof past the rows of the line F E_11 and are refused without a sum
    base = JordanMap.conjugation(Mat(F3, [[1, 1], [2, 0]]))
    if kind == "constant":
        entries = {x: mat_unit(F3, 2, 1, 1) for x in base.domain_iter()}
        entries[_E[2, 2]] = mat_identity(F3, 2)
    else:
        entries = {x: base(x) for x in base.domain_iter()}
        entries[_E[2, 2]] = mat_zero(F3, 2)
    phi = JordanMap.from_table(F3, 2, entries)
    runs = _spy_on_the_proof(monkeypatch)
    sums = []
    columns = maps._domain_columns
    monkeypatch.setattr(maps, "_domain_columns", lambda *args: sums.append(1) or columns(*args))
    report = _report_with_and_without_the_proof(phi, monkeypatch)
    assert not report.ok and report.pairs_checked > 3 * 81
    assert runs == [(False, [])] and sums == []


def _indicator(field, n, domain, point, value, wide):
    # value at `point` and 0 elsewhere, into M_n; when wide, as diag(., 0)
    # into M_n+1, so that every image lies off the domain and rows compare
    # by codes rather than by ids
    def fn(x):
        image = value if x == point else mat_zero(field, n)
        return block_diag(image, mat_zero(field, 1)) if wide else image

    return JordanMap.from_oracle(field, n, fn, m=n + wide, domain=domain)


_TRIANGLE_CASES = {
    # (map arguments, the witness (a, b) by domain index); on T_2(F_3) the
    # index is x_11 + 3 x_12 + 9 x_22, and the proof runs at row 3 and
    # refuses each map, which is not additive
    # E_22 o E_22 = E_22, and 2 E_11 is not idempotent
    "diagonal": ((F3, 2, "upper_triangular", _E[2, 2], mat_unit(F3, 2, 1, 1, 2)), (9, 9)),
    # E_22 o E_22 passes; E_22 o I = E_22, but E_11 o phi(I) = 0
    "next-column": ((F3, 2, "upper_triangular", _E[2, 2], _E[1, 1]), (9, 10)),
    # I o I passes; x = 2 E_11 + E_22 has x o x = I, and phi(x) = 0
    "diagonal-after-the-image": ((F3, 2, "upper_triangular", _E[1, 1] + _E[2, 2], _E[1, 1]),
                                 (11, 11)),
    # on M_1(F_3), 2 o 2 = 1, and phi(2) = 0: the last row, two columns wide
    "last-row": ((F3, 1, "full", mat_identity(F3, 1), mat_identity(F3, 1)), (2, 2)),
}


@pytest.mark.parametrize("wide", [False, True], ids=["ids", "codes"])
@pytest.mark.parametrize("case", list(_TRIANGLE_CASES))
def test_scan_of_the_upper_triangle_finds_the_reference_witness(case, wide):
    args, (a, b) = _TRIANGLE_CASES[case]
    field, n = args[:2]
    phi = _indicator(*args, wide)
    for psi in (phi, JordanMap.from_table(field, n, {x: phi(x) for x in phi.domain_iter()},
                                          domain=phi.domain)):
        report = check_multiplicative(psi, Strategy.exhaustive())
        mats = _domain(field, n, phi.domain)[0]
        assert report.witness == (mats[a], mats[b])
        assert report.pairs_checked == a * len(mats) + b + 1
        assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(psi)


def _swap_2_and_4_at_e22(x):
    # F_5: x_22 -> x_22 with 2 and 4 swapped, which keeps 0, 1 and 1/2 = 3
    (a, b), (c, d) = x.rows
    return Mat(F5, [[a, b], [c, {2: 4, 4: 2}.get(d, d)]])


def _cube_on_e11(x):
    return mat_unit(F5, 2, 1, 1, x.rows[0][0] ** 3) if x.support() <= {(1, 1)} else x


def _frobenius(x):
    return Mat._from_raw(F9, tuple(tuple(F9.mul(v, F9.mul(v, v)) for v in row) for row in x.rows))


def _at_e22_of_f9(psi):
    # x -> x with its (2, 2) entry a + b t of F_9 = F_3[t]/(t^2 + 1), raw
    # a + 3 b, sent to psi(a, b); the rows of the line F E_11 do not see it
    def fn(x):
        b, a = divmod(x.rows[1][1], 3)
        return Mat._from_raw(F9, (x.rows[0], (x.rows[1][0], psi(a, b))))

    return fn


def _changed_at_e12_plus_e22(x):
    return x + mat_unit(F3, 2, 2, 2) if x == Mat(F3, [[0, 1], [0, 1]]) else x


F4 = preset_field("gf:2:2")
# X -> T w(X) T^-1 on M_2(F_4) = M_2(F_2[t]/(t^2 + t + 1)), w the Frobenius a -> a^2
_FROBENIUS_F4 = JordanMap.conjugation(Mat._from_raw(F4, ((1, 2), (1, 0))), RingEndo(F4, 1),
                                      mode=DIAMOND)


def _frobenius_f4_changed_at_e12_plus_e22(x):
    # + phi(E_22) at E_12 + E_22: a E_11 <> y is off the diagonal and
    # phi(a E_11) <> phi(E_22) = 0, so the rows of the line F E_11 do not see it
    value = _FROBENIUS_F4(x)
    return value + _FROBENIUS_F4(mat_unit(F4, 2, 2, 2)) if x.rows == ((0, 1), (0, 1)) else value


_TXS = Mat(F3, [[1, 2], [0, 1]]), Mat(F3, [[2, 0], [1, 1]])
_T2 = Mat(F5, [[2, 1], [0, 3]])
_T2_INV = _T2.inverse()
_PROOF_CASES = {
    # (field, mode, domain, m, map, the proof's outcome: None when it never runs)
    # X -> TXS is rejected in the rows of the line F E_11
    "TXS": (F3, CIRC, "full", 2, lambda x: _TXS[0] @ x @ _TXS[1], None),
    # X -> X diag(1, 2) keeps the rows of the line F E_11, and breaks the law at (E_22, E_22)
    "TXS-diagonal": (F3, CIRC, "full", 2, lambda x: x @ Mat(F3, [[1, 0], [0, 2]]), "basis"),
    # the scan rejects it at (2 E_11, E_11 + E_12), in the rows of the line F E_11
    "cube-on-E11": (F5, CIRC, "full", 2, _cube_on_e11, None),
    # swapping keeps the law on the basis pairs, but phi is not additive on
    # the line F E_22, so the sums from phi(E_22) refuse it
    "swap-on-E22": (F5, CIRC, "full", 2, _swap_2_and_4_at_e22, "additivity"),
    # the identity changed at E_12 + E_22 by E_22: additive on every line, not at that sum
    "two-digit-point": (F3, DIAMOND, "full", 2, _changed_at_e12_plus_e22, "additivity"),
    # the F_p-basis of F_9 has two values per position
    "frobenius-T2F9": (F9, CIRC, "upper_triangular", 2, _frobenius, "proved"),
    "frobenius-transposed-T2F9": (F9, DIAMOND, "upper_triangular", 2,
                                  lambda x: transpose(_frobenius(x)), "proved"),
    # a + b t -> a is additive, and breaks the law at (t E_22, t E_22)
    "project-on-E22-T2F9": (F9, CIRC, "upper_triangular", 2, _at_e22_of_f9(lambda a, b: a),
                            "basis"),
    # a + b t -> a + t [b != 0] adds 1 as it should, but not t
    "t-line-on-E22-T2F9": (F9, CIRC, "upper_triangular", 2,
                           _at_e22_of_f9(lambda a, b: a + 3 * (b != 0)), "additivity"),
    # p = 2, k = 2: the F_2-basis of M_2(F_4) is E_ij and t E_ij
    "frobenius-conjugation-M2F4": (F4, DIAMOND, "full", 2, _FROBENIUS_F4, "proved"),
    "frobenius-conjugation-M2F4-changed": (F4, DIAMOND, "full", 2,
                                           _frobenius_f4_changed_at_e12_plus_e22, "additivity"),
    "conjugation-T2F5": (F5, CIRC, "upper_triangular", 2, lambda x: _T2 @ x @ _T2_INV, "proved"),
    "diag-x-0-into-M3": (F3, CIRC, "full", 3, lambda x: block_diag(x, mat_zero(F3, 1)), "proved"),
}


@pytest.mark.parametrize("case", list(_PROOF_CASES))
def test_proof_agrees_with_the_scan(case, monkeypatch):
    field, mode, domain, m, fn, outcome = _PROOF_CASES[case]
    runs = _spy_on_the_proof(monkeypatch)
    phi = JordanMap.from_oracle(field, 2, fn, mode=mode, m=m, domain=domain)
    report = _report_with_and_without_the_proof(phi, monkeypatch)
    assert report.ok == (outcome == "proved")
    if outcome is None:
        assert runs == []
    else:
        # additivity is checked first, then the basis pairs up to the first that fails
        [(verdict, tested)] = runs
        assert verdict == (outcome == "proved")
        if outcome == "additivity":
            assert tested == []
        else:
            assert tested and all(tested[:-1]) and tested[-1] == verdict


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_image_maps_are_decided_by_one_product(m, mode, monkeypatch):
    # c is decided by c * c = c, before the proof and the scan: the report is
    # the reference scan's, for c = 0, an idempotent, and 2 h E_11 and E_12,
    # which are not
    runs = _spy_on_the_proof(monkeypatch)
    h = 1 if mode == CIRC else 2  # E_11 * E_11 = E_11 for circ, 2 E_11 <> 2 E_11 = 2 E_11
    values = [mat_zero(F3, m), mat_unit(F3, m, 1, 1, h), mat_unit(F3, m, 1, 1, 2 * h)]
    values += [mat_unit(F3, m, 1, 2)] if m > 1 else []
    for k, c in enumerate(values):
        phi = JordanMap.from_oracle(F3, 2, lambda x, c=c: c, mode=mode, m=m,
                                    domain="upper_triangular")
        report = check_multiplicative(phi, Strategy.exhaustive())
        assert (report.ok, report.pairs_checked, report.witness) == _reference_scan(phi)
        assert report.ok == (k < 2)
    assert runs == []


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

    def test_least_budgets_are_accepted(self):
        assert Strategy.sampled(count=1).describe() == "sampled:1:0"

    @pytest.mark.parametrize(
        "strategy", [Strategy.exhaustive(), Strategy.sampled(50, 3), Strategy.sampled(1, 0)],
        ids=Strategy.describe)
    def test_description_replays_the_strategy(self, strategy):
        assert maps._parse_strategy(strategy.describe()) == strategy


@pytest.mark.parametrize("make, error, detail", [
    (lambda: check_multiplicative(JordanMap.conjugation(mat_identity(rational_field(), 2)),
                                  "exhaustive"),
     UnsupportedInput, "exhaustive checking needs a finite field"),
    (lambda: check_multiplicative(JordanMap.conjugation(mat_identity(F9, 2)), "exhaustive"),
     UnsupportedInput, "exhaustive checking would need 43046721 pairs (cap 10000000)"),
    (lambda: JordanMap.from_oracle(F3, 2, None, mode="jordan"),
     ValueError, "unknown product mode 'jordan'"),
    (lambda: JordanMap.from_oracle(F3, 2, None, domain="lower_triangular"),
     ValueError, "unknown domain 'lower_triangular'"),
    (lambda: JordanMap.from_oracle(F3, 0, None), ValueError, "domain size n must be >= 1"),
    (lambda: JordanMap.from_table(F3, 1, [(Mat(F3, [[1]]), [[1]])]),
     UnsupportedInput, "table entries must be matrix pairs"),
    (lambda: JordanMap.conjugation(Mat(F3, [[1, 0, 0], [0, 1, 0]])),
     UnsupportedInput, "conjugating matrix must be square"),
    (lambda: JordanMap.conjugation(mat_identity(F9, 2), endo=RingEndo(preset_field("F25"), 1)),
     UnsupportedInput, "endomorphism field does not match the matrix field"),
    (lambda: JordanMap.constant(F3, 2, mat_identity(F5, 2)),
     UnsupportedInput, "constant value must be square over the same field"),
    (lambda: JordanMap.conjugation(mat_identity(rational_field(), 2)).domain_iter(),
     UnsupportedInput, "cannot enumerate matrices over an infinite field"),
], ids=["exhaustive_over_Q", "exhaustive_over_pair_cap", "mode", "domain", "n_0", "table_entry",
        "non_square_t", "endo_field", "constant_field", "domain_iter_over_Q"])
def test_refusals_come_before_any_product_table(make, error, detail):
    before = _product_table.cache_info()
    with pytest.raises(error, match=f"^{re.escape(detail)}$"):
        make()
    assert _product_table.cache_info() == before
