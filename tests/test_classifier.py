import hashlib
import random
from types import SimpleNamespace

import pytest

from jordanmaps import (
    CIRC,
    DIAMOND,
    CanonicalForm,
    InvariantViolation,
    JordanMap,
    Mat,
    NotJordanMultiplicative,
    RingEndo,
    Scalar,
    Strategy,
    UnsupportedInput,
    UnsupportedSize,
    classify,
    classify_rectangular,
    classify_with_report,
    endo_enumerate,
    jordan_circ,
    jordan_diamond,
    mat_identity,
    mat_unit,
    mat_zero,
    preservation_suite,
    preset_field,
    rational_field,
)
from jordanmaps import classifier
from jordanmaps.classifier import _aimed, _form_mismatch, _normalize_t, _probes, _reject
from jordanmaps.maps import _domain
from jordanmaps.matrices import (
    conjugator,
    is_idempotent,
    mat_diag_idempotent,
    random_invertible,
    random_mat,
)

Q = rational_field()
F3 = preset_field("F3")
F5 = preset_field("F5")
F7 = preset_field("F7")
F9 = preset_field("F9")
F25 = preset_field("F25")
F27 = preset_field("gf:3:3")


def as_table(base):
    return JordanMap.from_table(
        base.field, base.n, {x: base(x) for x in base.domain_iter()}, mode=base.mode
    )


def single_point(base, x0, value):
    """`base` everywhere except at x0, which maps to `value`."""
    return JordanMap.from_oracle(
        base.field, base.n, lambda x: value if x == x0 else base(x), mode=base.mode, m=base.m
    )


T3 = [[1, 2, 0], [0, 1, 3], [4, 0, 1]]

# the endomorphism stage's check of the reconstructed form against the map it
# read covers orientation, scaling and the scalar action on the line
FORM_CHECK = "map disagrees with the reconstructed form at a unit or on the line through E_11"

STAGE_DETAILS = {
    "constant": "map is not constant although its value at 0 is nonzero",
    "constant_squaring": "value at 0 is not compatible with squaring",
    "constant_to_identity": "map is not constant although its value at 0 is nonzero",
    "zero": "map vanishes at E_11 but not everywhere",
    "unit_images": FORM_CHECK,
    "orientation": FORM_CHECK,
    "scaling": FORM_CHECK,
    "scaling_chain": FORM_CHECK,
    "unit_idempotent": FORM_CHECK,
    "unit_absorbed": FORM_CHECK,
    "unit_orthogonal": FORM_CHECK,
    "orientation_symmetry": FORM_CHECK,
    "orientation_completion": FORM_CHECK,
    "endomorphism_additive": FORM_CHECK,
    "rectangular_zero": "map vanishes at 0 but not everywhere",
    "rectangular_constant": "map is not constant although its value at 0 is nonzero",
    "constant_diamond": "map is not constant although its value at 0 is nonzero",
    "zero_diamond": "map vanishes at E_11 but not everywhere",
    "diamond_zero_at_e23": "map vanishes at E_11 but not everywhere",
    "diamond_constant_at_e12": "map is not constant although its value at 0 is nonzero",
    "rectangular_zero_diamond": "map vanishes at 0 but not everywhere",
    "rectangular_constant_diamond": "map is not constant although its value at 0 is nonzero",
    "unit_idempotent_diamond": FORM_CHECK,
    "unit_orthogonal_diamond": FORM_CHECK,
    "orientation_diamond": FORM_CHECK,
    "scaling_diamond": FORM_CHECK,
    "unit_square_zero": FORM_CHECK,
    "unit_square_zero_diamond": FORM_CHECK,
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
    if stage == "constant_to_identity":
        # constant at a rank-2 idempotent P except phi(E_11) = I: only pairs
        # through E_11 such as (E_11, I), where I o P = P != I, see it
        constant = JordanMap.constant(field, 3, mat_diag_idempotent(field, 3, 0, 2))
        return single_point(constant, e(1, 1), mat_identity(field, 3))
    if stage == "constant_squaring":
        return single_point(conj, zero, e(1, 1).scale(2))
    if stage == "zero":
        return single_point(conj, e(1, 1), zero)
    if stage == "unit_images":
        return single_point(conj, e(2, 2), zero)
    if stage == "orientation":
        return single_point(conj, e(1, 2), conj(e(1, 2) + e(1, 3)))
    if stage == "scaling":
        return single_point(conj, e(1, 2), conj(e(1, 2)).scale(2))
    if stage == "scaling_chain":
        return single_point(conj, e(1, 3), conj(e(1, 3)).scale(2))
    if stage == "unit_idempotent":
        return single_point(conj, e(2, 2), conj(e(2, 2)).scale(2))
    if stage == "unit_absorbed":
        # (E_11, I) is the only targeted pair that sees phi(E_11) != 0
        return single_point(JordanMap.zero(field, 3), e(1, 1), e(1, 1))
    if stage == "unit_orthogonal":
        return single_point(conj, e(2, 2), conj(e(1, 1)))
    if stage == "orientation_symmetry":
        return single_point(conj, e(2, 1), conj(e(1, 2)))
    if stage == "orientation_completion":
        swapped = single_point(conj, e(2, 3), conj(e(3, 2)))
        return single_point(swapped, e(3, 2), conj(e(2, 3)))
    if stage == "endomorphism_additive":
        # wrong only at 3 E_11; over Q no probe pair multiplies to 3, and
        # (2/3, 7/3) is the first that sums to it
        three = e(1, 1).scale(3)
        return single_point(conj, three, conj(three).scale(2))
    half = Scalar(field, field.half_one)
    if stage.startswith("unit_square_zero"):
        # the identity's circ constant everywhere except phi(0) = 0: every
        # unit image is I, and only a pair whose product is 0, such as the
        # square-zero (E_12, E_12), sees the value at 0
        mode = DIAMOND if stage.endswith("_diamond") else "circ"
        value = mat_identity(field, 3).scale(half if mode == DIAMOND else 1)
        return single_point(JordanMap.constant(field, 3, value, mode=mode), zero, zero)
    if stage == "constant_diamond":
        # a diamond constant is half an idempotent; the stage must scan phi
        # itself, not its circ adapter, to reach the one wrong point E_12
        value = e(1, 1).scale(half)
        return single_point(JordanMap.constant(field, 3, value, mode=DIAMOND), e(1, 2), zero)
    if stage == "diamond_zero_at_e23":
        # only pairs whose diamond product is E_23, such as (I, E_23 / 2),
        # see the one wrong point: the circ pair (2I, E_23 / 2) has diamond
        # product 2 E_23
        return single_point(JordanMap.zero(field, 3, mode=DIAMOND), e(2, 3), e(2, 3))
    if stage == "diamond_constant_at_e12":
        value = e(1, 1).scale(half)
        constant = JordanMap.constant(field, 3, value, mode=DIAMOND)
        return single_point(constant, e(1, 2), value + e(2, 3))
    if stage == "zero_diamond":
        return single_point(JordanMap.zero(field, 3, mode=DIAMOND), e(1, 2), e(1, 2))
    if stage.endswith("_diamond") and not stage.startswith("rectangular"):
        # a diamond conjugation wrong only at E_22 / 2 or E_12 / 2, where the
        # stages read its circ adapter 2 phi(x / 2) at E_22 or E_12
        dconj = JordanMap.conjugation(Mat(field, T3), mode=DIAMOND)
        at, value = {
            "unit_idempotent_diamond": (e(2, 2), dconj(e(2, 2))),
            "unit_orthogonal_diamond": (e(2, 2), dconj(e(1, 1).scale(half))),
            "orientation_diamond": (e(1, 2), dconj((e(1, 2) + e(1, 3)).scale(half))),
            "scaling_diamond": (e(1, 2), dconj(e(1, 2))),
        }[stage]
        return single_point(dconj, at.scale(half), value)
    one, nought = Mat(field, [[1]]), Mat(field, [[0]])
    if stage == "rectangular_zero":
        return single_point(JordanMap.zero(field, 3, m=1), e(1, 2), one)
    if stage == "rectangular_zero_diamond":
        return single_point(JordanMap.zero(field, 3, mode=DIAMOND, m=1), e(1, 2), one)
    if stage == "rectangular_constant_diamond":
        value = one.scale(half)
        return single_point(JordanMap.constant(field, 3, value, mode=DIAMOND), e(1, 2), nought)
    return single_point(JordanMap.constant(field, 3, one), e(1, 2), nought)


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
        assert form == planted
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

    def test_describe_frobenius_transposed_f9(self):
        t = Mat(F9, [[1, 2], [1, 1]])
        phi = JordanMap.conjugation(t, endo=RingEndo(F9, 1), transpose=True)
        assert classify(phi, verification="sampled:40:0").describe() == {
            "variant": "conjugation",
            "mode": "circ",
            "n": 2,
            "transpose": True,
            "omega": {"kind": "frobenius", "e": 1},
        }

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
        assert form == planted

    def test_report_shape(self):
        phi = JordanMap.conjugation(Mat(F9, T3), endo=RingEndo(F9, 1), transpose=True)
        _, report = classify_with_report(phi, verification="sampled:40:0")
        report.pop("timing_ms", None)
        assert report == {
            "mode": "circ",
            "strategy": "sampled:40:0",
            "stages": ["precheck", "endomorphism", "final"],
            "pairs_checked": 40,
            "transpose": True,
            "omega": {"kind": "frobenius", "e": 1},
            "points_checked": 9 + 2 + 40,
            "variant": "conjugation",
        }
        assert list(report) == [
            "mode", "strategy", "stages", "pairs_checked",
            "transpose", "omega", "points_checked", "variant",
        ]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["circ", DIAMOND])
    @pytest.mark.parametrize("transpose", [False, True], ids=["straight", "transposed"])
    @pytest.mark.parametrize("field", [F3, F7, F9, Q], ids=["F3", "F7", "F9", "Q"])
    def test_t_is_the_normalized_planted_t(self, field, transpose, mode, n):
        # T is read off the unit images up to a scalar; the normalized
        # representative is the planted one's, entry for entry
        rng = random.Random(n)
        verification = "exhaustive" if field is F3 and n == 2 else f"sampled:30:{n}"
        for omega in endo_enumerate(field):
            t, _ = random_invertible(field, n, rng)
            phi = JordanMap.conjugation(t, endo=omega, transpose=transpose, mode=mode)
            form = classify(phi, verification=verification)
            assert form.t == _normalize_t(t)
            assert (form.omega, form.transpose, form.mode) == (omega, transpose, mode)

    def test_table_body_roundtrips(self):
        t = Mat(F3, [[1, 0], [2, 1]])
        table = as_table(JordanMap.conjugation(t, transpose=True))
        form = classify(table, verification="exhaustive")
        assert form == CanonicalForm.conjugation_form(t, transpose=True)

    def test_prime_field_above_the_probe_cap(self):
        # over F_4099 the line through E_11 is probed at 0, 1, -1, 2, 3 and
        # 48 seeded draws, not at all 4099 elements
        f = preset_field("p:4099")
        draws = random.Random(0)
        expected = [0, 1, 4098, 2, 3] + [draws.randrange(4099) for _ in range(48)]
        assert _probes(f, 0) == list(dict.fromkeys(expected))
        t = Mat(f, [[2, 7], [1, 4098]])
        phi = JordanMap.conjugation(t, transpose=True)
        form = classify(phi, verification="sampled:20:0")
        assert form == CanonicalForm.conjugation_form(t, transpose=True)


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
        # each map is wrong at one or two points, which the sampled pre-check
        # misses; the stage's targeted pairs must supply the witness
        phi = stage_map(field, stage)
        for seed in (0, 1):
            with pytest.raises(NotJordanMultiplicative) as exc:
                classify(phi, verification=f"sampled:40:{seed}")
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


    @pytest.mark.parametrize("mode", ["circ", DIAMOND])
    @pytest.mark.parametrize("stage", ["constant", "zero", "final"])
    def test_through_pair_lands_on_the_culprit(self, monkeypatch, stage, mode):
        # the fifth aimed pair is the through-pair (2I, x/2) at the point of
        # psi; handed to _reject as a pair of phi, its product under phi's own
        # law is the point x where the stage found phi wrong
        f = F7
        e23 = mat_unit(f, 3, 2, 3)
        if stage == "constant":
            value = mat_unit(f, 3, 1, 1, Scalar(f, f.half_one) if mode == DIAMOND else 1)
            base = JordanMap.constant(f, 3, value, mode=mode)
            phi, at = single_point(base, e23, value + e23), e23
        elif stage == "zero":
            phi, at = single_point(JordanMap.zero(f, 3, mode=mode), e23, e23), e23
        else:
            base = JordanMap.conjugation(Mat(f, T3), mode=mode)
            at = mat_identity(f, 3)
            phi = single_point(base, at, base(mat_unit(f, 3, 1, 1)))
        seen = {}

        def capture(phi, stage, detail, targeted=(), culprit=None, seed=0):
            seen.update(stage=stage, pairs=list(targeted), culprit=culprit)
            raise InvariantViolation(stage, detail)

        monkeypatch.setattr(classifier, "_reject", capture)
        with pytest.raises(InvariantViolation):
            classify(phi, verification="sampled:40:0")
        a, b = seen["pairs"][4]
        assert seen["stage"] == stage
        assert phi.product(a, b) == seen["culprit"] == at

    def test_reject_without_witness_raises_invariant_violation(self):
        # a genuine map breaks the law on no pair, so with no targeted pairs
        # the seeded scan finds none and the structural failure is raised
        phi = JordanMap.conjugation(Mat(F7, T3))
        culprit = mat_unit(F7, 3, 1, 2)
        with pytest.raises(InvariantViolation) as exc:
            _reject(phi, "orientation", "a structural fault", culprit=culprit, seed=3)
        assert exc.value.stage == "orientation"
        assert exc.value.detail == "a structural fault"
        assert exc.value.witness == culprit


def test_aimed_pairs_on_m3():
    # n = 3 over F3: 5 pairs at x, 6 anchored, 3 with I, 6 square-zero, one
    # (E_ii, E_jj) per i < j, and one line pair per element of F3
    x = mat_unit(F3, 3, 1, 2)
    pairs = list(_aimed(x, _probes(F3, 0)))
    assert len(pairs) == 5 + 6 + 3 + 6 + 3 + 3
    e = lambda i: mat_unit(F3, 3, i, i)
    assert pairs[20:23] == [(e(1), e(2)), (e(1), e(3)), (e(2), e(3))]


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
        assert a == b
        assert a != CanonicalForm.zero_form(F3, 2)

    def test_constant_forms(self):
        p = mat_unit(F5, 2, 1, 1)
        assert CanonicalForm.constant_form(p, 2) == CanonicalForm.constant_form(p, 2)
        q = mat_unit(F5, 2, 2, 2)
        assert CanonicalForm.constant_form(p, 2) != CanonicalForm.constant_form(q, 2)

    def test_conjugation_scale_invariance(self):
        t = Mat(F5, [[1, 2], [0, 1]])
        a = CanonicalForm.conjugation_form(t)
        b = CanonicalForm.conjugation_form(t.scale(3))
        assert a == b

    def test_transpose_flag_distinguishes(self):
        t = mat_identity(F5, 2)
        a = CanonicalForm.conjugation_form(t)
        b = CanonicalForm.conjugation_form(t, transpose=True)
        assert a != b

    def test_variant_mismatch(self):
        t = mat_identity(F5, 2)
        assert CanonicalForm.conjugation_form(t) != CanonicalForm.zero_form(F5, 2)


class TestCanonicalForm:
    @pytest.mark.parametrize("mode", [CIRC, DIAMOND])
    def test_one_form_per_map_over_m2_f3(self, mode):
        # all 48 invertible T and both orientations name 48 maps (T counts
        # only up to a scalar); two forms are == exactly when their tables
        # agree at all 81 points, and each table classifies to its form
        domain = _domain(F3, 2, "full")[0]
        invertible = [t for t in domain if t.rank() == 2]
        assert len(invertible) == 48
        forms = {}
        for t in invertible:
            for transpose in (False, True):
                form = CanonicalForm.conjugation_form(t, transpose=transpose, mode=mode)
                assert form.t == _normalize_t(t)
                table = tuple(form.evaluate(x) for x in domain)
                forms.setdefault(table, set()).add(form)
        assert len(forms) == 48
        assert all(len(group) == 1 for group in forms.values())
        assert len(set().union(*forms.values())) == 48
        for table, (form,) in forms.items():
            phi = JordanMap.from_table(F3, 2, dict(zip(domain, table)), mode=mode)
            assert classify(phi, verification="exhaustive") == form

    def test_scaled_t_gives_the_same_form_over_f9(self):
        rng = random.Random(9)
        c = F9.scalar([1, 1])
        for omega in endo_enumerate(F9):
            for transpose in (False, True):
                t, _ = random_invertible(F9, 3, rng)
                a = CanonicalForm.conjugation_form(t, omega=omega, transpose=transpose)
                b = CanonicalForm.conjugation_form(t.scale(c), omega=omega, transpose=transpose)
                assert a == b and hash(a) == hash(b)
                assert next(v for row in a.t.rows for v in row if v != F9.zero) == F9.one

    def test_scaled_t_gives_the_same_form_over_q(self):
        t = Mat(Q, [[0, 3], [2, 5]])
        a = CanonicalForm.conjugation_form(t)
        b = CanonicalForm.conjugation_form(t.scale(Q.scalar("-2/3")))
        assert a == b
        assert hash(a) == hash(b)
        assert a.t == Mat(Q, [[0, 1], ["2/3", "5/3"]])

    def test_the_dataclass_normalizes_t(self):
        t = Mat(F5, [[0, 2], [3, 0]])
        form = CanonicalForm(variant="conjugation", field=F5, n=2, t=t)
        assert form.t == Mat(F5, [[0, 1], [4, 0]])
        assert form == CanonicalForm.conjugation_form(t)

    def test_an_unknown_variant_is_refused(self):
        with pytest.raises(ValueError, match="^unknown form variant 'affine'$"):
            CanonicalForm(variant="affine", field=F5, n=2)


@pytest.mark.parametrize("mode", [CIRC, DIAMOND])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("frobenius", [False, True], ids=["id", "frobenius"])
def test_conjugation_form_evaluates_as_its_map(frobenius, transpose, mode):
    # the form and the map evaluate one twisted conjugation: every point of
    # M_2(F_3), where the Frobenius is the identity, and 200 points of M_2(F_9)
    rng = random.Random(5)
    for field, count in ((F3, None), (F9, 200)):
        t = random_invertible(field, 2, rng)[0]
        omega = RingEndo(field, 1) if frobenius else None
        form = CanonicalForm.conjugation_form(t, omega=omega, transpose=transpose, mode=mode)
        phi = JordanMap.conjugation(t, endo=omega, transpose=transpose, mode=mode)
        if count is None:
            points = phi.domain_iter()
        else:
            points = [phi.sample_domain(rng) for _ in range(count)]
        for x in points:
            assert form.evaluate(x) == phi(x)


def _form_cases():
    e11 = mat_unit(F3, 2, 1, 1)
    yield "M2F3-conjugation", CanonicalForm.conjugation_form(Mat(F3, [[1, 1], [2, 0]]),
                                                             transpose=True), "full"
    yield "M2F3-constant", CanonicalForm.constant_form(e11, 2, mode=DIAMOND), "full"
    yield "M2F3-zero", CanonicalForm.zero_form(F3, 2, m=1), "full"
    yield "T2F9-frobenius", CanonicalForm.conjugation_form(
        Mat(F9, [[1, 2], [0, 1]]), omega=RingEndo(F9, 1)), "upper_triangular"


@pytest.mark.parametrize("strategy", [Strategy.exhaustive(), Strategy.sampled(40, 3)],
                         ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("case", list(_form_cases()), ids=lambda case: case[0])
def test_form_check_of_a_table_stops_where_evaluation_does(case, strategy):
    # the form check reads a table's images by id (and over the whole domain
    # sums a conjugation form's values): on the form's own table and on each
    # single-point change of it, it stops where the check that evaluates the
    # same map as an oracle stops, with the same count
    _, form, domain = case
    xs = list(JordanMap.from_oracle(form.field, 2, None, domain=domain).domain_iter())
    values = [form.evaluate(x) for x in xs]
    other = mat_identity(form.field, form.m)
    for k in (None, 0, 1, len(xs) // 2, len(xs) - 1):
        changed = list(values)
        if k is not None:
            changed[k] = other if changed[k] != other else mat_zero(form.field, form.m)
        table = JordanMap.from_table(form.field, 2, list(zip(xs, changed)), mode=form.mode,
                                     domain=domain)
        oracle = JordanMap.from_oracle(form.field, 2, dict(zip(xs, changed)).__getitem__,
                                       mode=form.mode, m=form.m, domain=domain)
        found = _form_mismatch(table, form, strategy)
        assert found == _form_mismatch(oracle, form, strategy)
        if strategy.kind == "exhaustive":
            assert found == ((None, len(xs)) if k is None else (xs[k], k + 1))


def test_form_check_of_a_table_sums_a_conjugation():
    # over the whole domain a conjugation form is evaluated at the F_3-basis
    # of M_2(F_3), its 4 matrix units, not at 81 points, and a table wrong at
    # 0 is refused before any of them; a sampled check evaluates it at each
    # of its points
    real = next(_form_cases())[1]
    table = as_table(JordanMap.conjugation(real.t, transpose=True))
    asked = []
    form = SimpleNamespace(variant=real.variant,
                           evaluate=lambda x: asked.append(x) or real.evaluate(x))
    assert _form_mismatch(table, form, Strategy.exhaustive()) == (None, 81)
    assert len(asked) == 4
    constant = as_table(JordanMap.constant(F3, 2, mat_unit(F3, 2, 1, 1)))
    assert _form_mismatch(constant, form, Strategy.exhaustive()) == (mat_zero(F3, 2), 1)
    assert len(asked) == 4
    assert _form_mismatch(table, form, Strategy.sampled(10, 1)) == (None, 16)
    assert len(asked) == 4 + 16


def test_form_check_of_any_map_sums_a_conjugation():
    # over the whole domain the form is read by sums whatever the map's body:
    # a conjugation body, and a map wrong at I alone, which is found at I
    real = next(_form_cases())[1]
    phi = JordanMap.conjugation(real.t, transpose=True)
    asked = []
    form = SimpleNamespace(variant=real.variant,
                           evaluate=lambda x: asked.append(x) or real.evaluate(x))
    assert _form_mismatch(phi, form, Strategy.exhaustive()) == (None, 81)
    assert len(asked) == 4
    eye = mat_identity(F3, 2)
    k = list(phi.domain_iter()).index(eye)
    wrong = single_point(phi, eye, mat_zero(F3, 2))
    assert _form_mismatch(wrong, real, Strategy.exhaustive()) == (eye, k + 1)


def additive_basis(field, n):
    """g^s E_ij for s < k, with g the generator of F_{p^k}^x: an F_p-basis of
    M_n(F) (the matrix units over F_p, and over Q, where additive is linear)."""
    powers = [field._exp[s] for s in range(field.k)] if field.kind == "galois" else [field.one]
    return [mat_unit(field, n, i, j, Scalar(field, g))
            for g in powers for i in range(1, n + 1) for j in range(1, n + 1)]


def breaks_law(fn, law, basis):
    """The first basis pair on which fn breaks the product `law`, or None.
    For an additive fn both sides of the law are biadditive, so none on
    the basis means none on all of M_n(F)."""
    return next(((x, y) for x in basis for y in basis
                 if fn(law(x, y)) != law(fn(x), fn(y))), None)


LAWS = ((CIRC, jordan_circ), (DIAMOND, jordan_diamond))


class TestFormsPreserveTheLaw:
    """The theorem's "if" direction for the forms the library builds: every
    form satisfies the law of its mode."""

    @pytest.mark.parametrize("field, n", [
        (F3, 2), (F3, 3), (F5, 2), (F5, 3), (Q, 2), (Q, 3),
        (F9, 2), (F25, 2), (F27, 2), (F9, 3),
    ], ids=lambda v: v if isinstance(v, int) else v.name())
    def test_conjugation_forms(self, field, n):
        rng = random.Random(n)
        basis = additive_basis(field, n)
        for omega in endo_enumerate(field):
            for transpose in (False, True):
                t = random_invertible(field, n, rng)[0]
                for mode, law in LAWS:
                    form = CanonicalForm.conjugation_form(
                        t, omega=omega, transpose=transpose, mode=mode)
                    fn = form.evaluate
                    for _ in range(20):
                        x, y = random_mat(field, n, rng), random_mat(field, n, rng)
                        assert fn(x + y) == fn(x) + fn(y)
                    assert breaks_law(fn, law, basis) is None

    def test_constant_forms_at_the_idempotents_of_m2_f3(self):
        idempotents = [x for x in _domain(F3, 2, "full")[0] if is_idempotent(x)]
        assert len(idempotents) == 14
        for p in idempotents:
            for mode, law in LAWS:
                # c o c = c, and for the diamond product 2c^2 = c with c = P/2
                c = CanonicalForm.constant_form(p, 2, mode=mode).evaluate(p)
                assert law(c, c) == c

    def test_other_two_sided_products_break_it(self):
        rng = random.Random(7)
        t, t_inv = random_invertible(F9, 2, rng)
        s = random_invertible(F9, 2, rng)[0]
        assert s != t_inv
        fn = conjugator(t, s)
        for _, law in LAWS:
            assert breaks_law(fn, law, additive_basis(F9, 2)) is not None


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

    def test_reports_are_frozen(self):
        """Items, witnesses and probe logs of a fixed set of maps and seeds."""
        digest = hashlib.sha256()
        for field, n in ((F3, 2), (F5, 3), (F9, 2), (Q, 3)):
            t = Mat(field, [[j - i + 1 if i <= j else 0 for j in range(n)] for i in range(n)])
            endo = RingEndo(field, 1) if field is F9 else None
            base = JordanMap.conjugation(t, endo=endo, transpose=n == 2)
            target = preservation_suite(base, samples=4, seed=1).probe_log[n][2]
            twice_i = mat_identity(field, n).scale(2)
            maps = (
                base,
                JordanMap.zero(field, n),
                JordanMap.constant(field, n, mat_unit(field, n, 1, 1)),
                JordanMap.from_oracle(field, n, lambda x: twice_i if x == target else base(x)),
                JordanMap.from_oracle(field, n, lambda x: base(x).scale(2)),
                JordanMap.from_oracle(
                    field, n, lambda x: Mat._from_raw(field, tuple(r[:-1] for r in x.rows[:-1])),
                    m=n - 1),
            )
            for phi in maps:
                for seed in (1, 5):
                    report = preservation_suite(phi, samples=4, seed=seed)
                    digest.update(repr((report.items, report.probe_log)).encode())
        assert digest.hexdigest() == "cc1946c2df54c7cf2d3043ff44ada260c4754026661739de9e8c94c500826c3e"

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_must_be_positive(self, samples):
        # phi = 2I fails item (a) at samples=2; with no sample it must not pass
        twice_i = mat_identity(F5, 2).scale(2)
        assert not preservation_suite(JordanMap.constant(F5, 2, twice_i), samples=2).ok
        seen = []
        phi = JordanMap.from_oracle(F5, 2, lambda x: seen.append(x) or twice_i)
        with pytest.raises(ValueError, match="samples >= 1"):
            preservation_suite(phi, samples=samples)
        assert seen == []

    def test_guards(self):
        with pytest.raises(UnsupportedSize):
            preservation_suite(JordanMap.from_oracle(F5, 1, lambda x: x))
        f2 = preset_field("F2")
        with pytest.raises(UnsupportedInput):
            preservation_suite(JordanMap.from_oracle(f2, 2, lambda x: x, mode=DIAMOND))
