import random

import pytest

from jordanmaps import (
    DIAMOND,
    CanonicalForm,
    InvariantViolation,
    JordanMap,
    Mat,
    NotJordanMultiplicative,
    OrientationSet,
    RingEndo,
    UnsupportedInput,
    UnsupportedSize,
    classify,
    classify_rectangular,
    classify_with_report,
    forms_equivalent,
    jordan_circ,
    mat_identity,
    mat_unit,
    mat_zero,
    preservation_suite,
    preset_field,
    rational_field,
)

Q = rational_field()
F3 = preset_field("F3")
F5 = preset_field("F5")
F7 = preset_field("F7")
F9 = preset_field("F9")


def as_table(base):
    return JordanMap.from_table(
        base.field, base.n, {x: base(x) for x in base.domain_iter()}, mode=base.mode
    )


def single_point(base, x0, value):
    """`base` everywhere except at x0, which maps to `value`."""
    return JordanMap.from_oracle(base.field, base.n, lambda x: value if x == x0 else base(x))


T3 = [[1, 2, 0], [0, 1, 3], [4, 0, 1]]

STAGE_DETAILS = {
    "constant": "map is not constant although its value at 0 is nonzero",
    "zero": "map vanishes at E_11 but not everywhere",
    "unit_images": "image of E_22 does not have rank 1",
    "orientation": "image of E_12 is not a scaled unit at (1,2) or (2,1)",
    "scaling": "unit scalings at (1,2) and (2,1) do not cancel",
    "scaling_chain": "unit scalings do not chain across (1,2,3)",
}


def stage_map(field, stage):
    """A map on M_3(field) that passes a sampled pre-check and breaks at
    `stage` (a key of STAGE_DETAILS)."""
    conj = JordanMap.conjugation(Mat(field, T3))

    def e(i, j):
        return mat_unit(field, 3, i, j)

    zero = mat_zero(field, 3)
    if stage == "constant":
        return single_point(JordanMap.constant(field, 3, e(1, 1)), e(1, 2), zero)
    if stage == "zero":
        return single_point(conj, e(1, 1), zero)
    if stage == "unit_images":
        return single_point(conj, e(2, 2), zero)
    if stage == "orientation":
        return single_point(conj, e(1, 2), conj(e(1, 2) + e(1, 3)))
    if stage == "scaling":
        return single_point(conj, e(1, 2), conj(e(1, 2)).scale(2))
    return single_point(conj, e(1, 3), conj(e(1, 3)).scale(2))


def assert_breaks_law(phi, witness):
    x, y = witness
    assert phi(phi.product(x, y)) != phi.product(phi(x), phi(y))


class TestConstantAndZero:
    def test_constant_idempotent(self):
        p = Mat(F5, [[1, 1], [0, 0]])
        phi = JordanMap.constant(F5, 2, p)
        form = classify(phi)
        assert form.variant == "constant_idempotent"
        assert form.idempotent == p
        assert form.evaluate(mat_identity(F5, 2)) == p

    def test_zero_map(self):
        form = classify(JordanMap.zero(F3, 2), verification="exhaustive")
        assert form.variant == "zero"
        assert form.evaluate(mat_identity(F3, 2)) == mat_zero(F3, 2)

    def test_constant_non_idempotent_rejected(self):
        phi = JordanMap.constant(F5, 2, mat_unit(F5, 2, 1, 1, 2))
        with pytest.raises(NotJordanMultiplicative):
            classify(phi)

    def test_diamond_constant(self):
        # diamond constants carry half an idempotent: 3 = 1/2 in F_5
        phi = JordanMap.constant(F5, 2, mat_unit(F5, 2, 1, 1, 3), mode=DIAMOND)
        form = classify(phi)
        assert form.variant == "constant_idempotent"
        assert form.idempotent == mat_unit(F5, 2, 1, 1)
        assert form.evaluate(mat_zero(F5, 2)) == mat_unit(F5, 2, 1, 1, 3)


class TestConjugationRecovery:
    def test_transpose_exhaustive_f3(self):
        t = Mat(F3, [[1, 1], [0, 1]])
        phi = JordanMap.conjugation(t, transpose=True)
        form, report = classify_with_report(phi, verification="exhaustive")
        assert form.variant == "conjugation"
        assert form.transpose
        planted = CanonicalForm.conjugation_form(t, transpose=True)
        assert forms_equivalent(form, planted)
        for x in phi.domain_iter():
            assert form.evaluate(x) == phi(x)
        assert report["pairs_checked"] == 81 * 81

    def test_frobenius_twist_f9(self):
        t = Mat(F9, [[1, 2], [1, 1]])
        phi = JordanMap.conjugation(t, endo=RingEndo(F9, 1))
        form = classify(phi)
        assert form.variant == "conjugation"
        assert not form.omega.is_identity
        rng = random.Random(3)
        for _ in range(25):
            x = phi.sample_domain(rng)
            assert form.evaluate(x) == phi(x)

    def test_rational_three_by_three(self):
        t = Mat(Q, [[1, 2, 0], [0, 1, 5], [1, 0, 1]])
        phi = JordanMap.conjugation(t)
        form = classify(phi)
        assert form.variant == "conjugation"
        assert form.omega.is_identity and not form.transpose
        rng = random.Random(1)
        for _ in range(10):
            x = phi.sample_domain(rng)
            assert form.evaluate(x) == phi(x)

    def test_diamond_conjugation(self):
        t = Mat(F5, [[2, 1], [1, 1]])
        phi = JordanMap.conjugation(t, transpose=True, mode=DIAMOND)
        form = classify(phi)
        assert form.mode == DIAMOND
        assert form.variant == "conjugation" and form.transpose
        for x in [mat_unit(F5, 2, 1, 2), mat_identity(F5, 2), Mat(F5, [[1, 2], [3, 4]])]:
            assert form.evaluate(x) == phi(x)

    def test_recovered_t_may_differ_by_scale(self):
        t = Mat(F3, [[1, 1], [0, 1]])
        form = classify(JordanMap.conjugation(t.scale(2)), verification="exhaustive")
        planted = CanonicalForm.conjugation_form(t)
        assert forms_equivalent(form, planted)

    def test_table_body_roundtrips(self):
        t = Mat(F3, [[1, 0], [2, 1]])
        table = as_table(JordanMap.conjugation(t, transpose=True))
        form = classify(table, verification="exhaustive")
        assert forms_equivalent(form, CanonicalForm.conjugation_form(t, transpose=True))


class TestRejection:
    def test_single_corrupted_image(self):
        base = JordanMap.conjugation(Mat(F3, [[1, 1], [0, 1]]))
        table = {x: base(x) for x in base.domain_iter()}
        bad = mat_unit(F3, 2, 1, 2)
        table[bad] = table[bad].scale(2)
        phi = JordanMap.from_table(F3, 2, table)
        with pytest.raises((NotJordanMultiplicative, InvariantViolation)) as exc:
            classify(phi, verification="exhaustive")
        if isinstance(exc.value, NotJordanMultiplicative):
            x, y = exc.value.witness
            assert phi(phi.product(x, y)) != phi.product(phi(x), phi(y))

    def test_swapped_unit_images(self):
        base = JordanMap.conjugation(mat_identity(F3, 2))
        table = {x: base(x) for x in base.domain_iter()}
        e11, e22 = mat_unit(F3, 2, 1, 1), mat_unit(F3, 2, 2, 2)
        table[e11], table[e22] = table[e22], table[e11]
        phi = JordanMap.from_table(F3, 2, table)
        with pytest.raises((NotJordanMultiplicative, InvariantViolation)):
            classify(phi, verification="exhaustive")

    def test_witness_attached_by_precheck(self):
        phi = JordanMap.from_oracle(F5, 2, lambda x: x + mat_identity(F5, 2))
        with pytest.raises(NotJordanMultiplicative) as exc:
            classify(phi)
        assert exc.value.witness is not None

    @pytest.mark.parametrize("field", [preset_field("F7"), F9], ids=["F7", "F9"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cube_on_the_e11_line(self, field, seed):
        # a conjugation except lam E_11 -> T (lam^3 E_11) T^-1: lam -> lam^3 is
        # multiplicative on the line (and Frobenius on F_9), so only pairs
        # that leave the line, such as (lam E_11, E_12), break the law
        t = Mat(field, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
        t_inv = t.inverse()

        def fn(x):
            if x.support() <= {(1, 1)}:
                lam = x.entry(1, 1)
                return t @ mat_unit(field, 3, 1, 1, lam * lam * lam) @ t_inv
            return t @ x @ t_inv

        phi = JordanMap.from_oracle(field, 3, fn)
        with pytest.raises(NotJordanMultiplicative) as exc:
            classify(phi, verification=f"sampled:50:{seed}")
        assert_breaks_law(phi, exc.value.witness)

    @pytest.mark.parametrize("field", [F7, Q], ids=["F7", "Q"])
    @pytest.mark.parametrize("stage", list(STAGE_DETAILS))
    def test_stage_rejects_with_targeted_witness(self, field, stage):
        # each map is wrong at one unit, which the sampled pre-check misses;
        # the stage's targeted pairs must supply the witness
        phi = stage_map(field, stage)
        with pytest.raises(NotJordanMultiplicative) as exc:
            classify(phi, verification="sampled:40:0")
        assert exc.value.detail == STAGE_DETAILS[stage]
        assert_breaks_law(phi, exc.value.witness)

    @pytest.mark.parametrize("field", [F7, Q], ids=["F7", "Q"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("base", ["zero", "conjugation"])
    def test_wrong_only_at_identity(self, field, seed, base):
        # the zero map or a conjugation, except phi(I) = T E_11 T^-1 (T = I
        # for the zero map): I arises only as (2I) o (I/2) among the targeted
        # pairs of the zero and final stages
        if base == "zero":
            t, good = mat_identity(field, 3), JordanMap.zero(field, 3)
            detail = "map vanishes at E_11 but not everywhere"
        else:
            t = Mat(field, T3)
            good = JordanMap.conjugation(t)
            detail = "map disagrees with the reconstructed form"
        value = t @ mat_unit(field, 3, 1, 1) @ t.inverse()
        phi = single_point(good, mat_identity(field, 3), value)
        with pytest.raises(NotJordanMultiplicative) as exc:
            classify(phi, verification=f"sampled:40:{seed}")
        assert exc.value.detail == detail
        assert_breaks_law(phi, exc.value.witness)


class TestGuards:
    def test_small_n(self):
        with pytest.raises(UnsupportedSize):
            classify(JordanMap.from_oracle(F5, 1, lambda x: x))

    def test_rectangular_shape(self):
        phi = JordanMap.zero(F5, 2, m=3)
        with pytest.raises(UnsupportedSize):
            classify(phi)

    def test_char2(self):
        f2 = preset_field("F2")
        phi = JordanMap.from_oracle(f2, 2, lambda x: x, mode=DIAMOND)
        with pytest.raises(UnsupportedInput):
            classify(phi)

    def test_partial_domain(self):
        phi = JordanMap.from_oracle(F5, 2, lambda x: x, domain="upper_triangular")
        with pytest.raises(UnsupportedInput):
            classify(phi)

    def test_bad_strategy_string(self):
        with pytest.raises(UnsupportedInput):
            classify(JordanMap.zero(F3, 2), verification="psychic")


class TestFormsEquivalent:
    def test_zero_forms(self):
        a = CanonicalForm.zero_form(F5, 2)
        b = CanonicalForm.zero_form(F5, 2)
        assert forms_equivalent(a, b)
        assert not forms_equivalent(a, CanonicalForm.zero_form(F3, 2))

    def test_constant_forms(self):
        p = mat_unit(F5, 2, 1, 1)
        assert forms_equivalent(
            CanonicalForm.constant_form(p, 2), CanonicalForm.constant_form(p, 2)
        )
        q = mat_unit(F5, 2, 2, 2)
        assert not forms_equivalent(
            CanonicalForm.constant_form(p, 2), CanonicalForm.constant_form(q, 2)
        )

    def test_conjugation_scale_invariance(self):
        t = Mat(F5, [[1, 2], [0, 1]])
        a = CanonicalForm.conjugation_form(t)
        b = CanonicalForm.conjugation_form(t.scale(3))
        assert forms_equivalent(a, b)

    def test_transpose_flag_distinguishes(self):
        t = mat_identity(F5, 2)
        a = CanonicalForm.conjugation_form(t)
        b = CanonicalForm.conjugation_form(t, transpose=True)
        assert not forms_equivalent(a, b)

    def test_variant_mismatch(self):
        t = mat_identity(F5, 2)
        assert not forms_equivalent(
            CanonicalForm.conjugation_form(t), CanonicalForm.zero_form(F5, 2)
        )


class TestRectangular:
    def test_constant_accepted(self):
        one = Mat(F3, [[1]])
        base = JordanMap.from_oracle(F3, 2, lambda x: one, m=1)
        table = JordanMap.from_table(F3, 2, {x: one for x in base.domain_iter()})
        form = classify_rectangular(table)
        assert form.variant == "constant_idempotent"
        assert form.m == 1

    def test_zero_accepted(self):
        z = Mat(F3, [[0]])
        base = JordanMap.from_oracle(F3, 2, lambda x: z, m=1)
        table = JordanMap.from_table(F3, 2, {x: z for x in base.domain_iter()})
        assert classify_rectangular(table).variant == "zero"

    def test_nonconstant_rejected_with_witness(self):
        rng = random.Random(5)
        base = JordanMap.from_oracle(F3, 2, lambda x: x, m=1)
        table = {
            x: Mat(F3, [[rng.randrange(3)]]) for x in base.domain_iter()
        }
        phi = JordanMap.from_table(F3, 2, table)
        with pytest.raises(NotJordanMultiplicative) as exc:
            classify_rectangular(phi, verification="exhaustive")
        x, y = exc.value.witness
        assert phi(jordan_circ(x, y)) != jordan_circ(phi(x), phi(y))

    def test_square_input_redirected(self):
        with pytest.raises(UnsupportedSize):
            classify_rectangular(JordanMap.zero(F3, 2))


class TestOrientation:
    def test_uniform_straight(self):
        pairs = [(r, s) for r in (1, 2, 3) for s in (1, 2, 3) if r != s]
        o = OrientationSet(3, pairs, [], {p: F5.scalar(1) for p in pairs})
        assert o.consistent
        assert not o.transpose_needed

    def test_uniform_flipped(self):
        pairs = [(r, s) for r in (1, 2, 3) for s in (1, 2, 3) if r != s]
        o = OrientationSet(3, [], pairs, {p: F5.scalar(1) for p in pairs})
        assert o.consistent
        assert o.transpose_needed

    def test_symmetry_violation(self):
        o = OrientationSet(2, [(1, 2)], [(2, 1)], {})
        assert ("symmetry", (1, 2)) in o.violations()

    def test_completion_violation(self):
        pairs = [(r, s) for r in (1, 2, 3) for s in (1, 2, 3) if r != s]
        straight = [p for p in pairs if p != (1, 2)]
        o = OrientationSet(3, straight, [(1, 2)], {})
        kinds = {kind for kind, _ in o.violations()}
        assert "completion" in kinds


class TestPreservationSuite:
    def test_genuine_conjugation_is_clean(self):
        phi = JordanMap.conjugation(Mat(F5, [[1, 1], [1, 2]]), transpose=True)
        report = preservation_suite(phi, samples=8, seed=4)
        assert report.ok
        assert [item.item for item in report.items] == list("abcdefgh")
        assert all(item.witness is None for item in report.items)
        assert len(report.probe_log) > 0

    def test_zero_map_skips_degenerate_items(self):
        report = preservation_suite(JordanMap.zero(F5, 2), samples=4, seed=0)
        assert report.ok
        skipped = {item.item for item in report.items if item.skipped}
        assert skipped == set("cdefgh")

    def test_constant_map_skips_vanishing_items(self):
        phi = JordanMap.constant(F5, 2, mat_unit(F5, 2, 1, 1))
        report = preservation_suite(phi, samples=4, seed=0)
        assert report.ok
        reasons = {item.skipped for item in report.items if item.skipped}
        assert reasons == {"map does not vanish at 0"}

    def test_mutant_is_flagged_with_witness(self):
        base = JordanMap.conjugation(Mat(F5, [[1, 1], [0, 1]]))
        probe = preservation_suite(base, samples=6, seed=9)
        assert probe.ok
        _, _, target = probe.probe_log[len(probe.probe_log) // 2]
        twice_i = mat_identity(F5, 2).scale(2)

        mutant = JordanMap.from_oracle(
            F5, 2, lambda x: twice_i if x == target else base(x)
        )
        report = preservation_suite(mutant, samples=6, seed=9)
        assert not report.ok
        assert any(item.witness is not None for item in report.failing())

    def test_guards(self):
        with pytest.raises(UnsupportedSize):
            preservation_suite(JordanMap.from_oracle(F5, 1, lambda x: x))
        f2 = preset_field("F2")
        with pytest.raises(UnsupportedInput):
            preservation_suite(JordanMap.from_oracle(f2, 2, lambda x: x, mode=DIAMOND))
