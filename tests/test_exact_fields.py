import copy
import gc
import hashlib
import pickle
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanmaps import (
    RingEndo,
    Scalar,
    Field,
    Mat,
    UnsupportedInput,
    endo_enumerate,
    galois_field,
    preset_field,
    prime_field,
    rational_field,
)
from jordanmaps.exact_fields import _MR_LIMIT, _canonical, is_prime
from jordanmaps.maps import _domain

ints = st.integers(min_value=-200, max_value=200)


class TestFieldAxioms:
    @pytest.fixture(params=["Q", "F3", "F5", "F9", "F25"])
    def field(self, request):
        return preset_field(request.param)

    @given(a=ints, b=ints, c=ints)
    def test_ring_laws(self, field, a, b, c):
        x, y, z = field.of(a), field.of(b), field.of(c)
        add, mul = field.add, field.mul

        # commutativity and associativity
        assert add(x, y) == add(y, x)
        assert mul(x, y) == mul(y, x)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))

        # distributivity and neutral elements
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, field.zero) == x
        assert mul(x, field.one) == x
        assert add(x, field.neg(x)) == field.zero

    @given(a=ints)
    def test_inverse(self, field, a):
        x = field.of(a)
        if not x:
            with pytest.raises(ZeroDivisionError):
                field.inv(x)
        else:
            assert field.mul(x, field.inv(x)) == field.one

    @given(a=ints)
    def test_halve_doubles_back(self, field, a):
        x = field.of(a)
        assert field.add(field.halve(x), field.halve(x)) == x
        assert field.mul(field.halve(x), field.of(2)) == x


class TestHalving:
    def test_f5_values(self, f5):
        # 2 * 4 = 8 = 3 and 2 * 3 = 6 = 1 in F_5
        assert f5.halve(3) == 4
        assert f5.halve(1) == 3
        assert f5.half_one == 3

    def test_char2_rejected(self, f2):
        with pytest.raises(UnsupportedInput):
            f2.halve(1)

    def test_f9_half_one(self, f9):
        two = f9.scalar(2)
        assert f9.scalar(1).halve() * two == f9.scalar(1)

    @pytest.mark.parametrize("name", ["F2", "gf:2:2"])
    def test_half_one_is_refused_in_char2(self, name):
        with pytest.raises(UnsupportedInput, match="1/2 does not exist in characteristic 2"):
            preset_field(name).half_one


def test_f5_inverse_table(f5):
    assert f5.inv(3) == 2
    assert [f5.inv(a) for a in (1, 2, 3, 4)] == [1, 3, 2, 4]


def test_rationals_are_exact(qq):
    third = qq.inv(qq.of(3))
    assert qq.add(qq.add(third, third), third) == qq.one
    assert str(Scalar(qq, third)) == "1/3"


class TestGaloisF9:
    """F_9 = F_3[x] / (x^2 + 1); raw values encode coefficient digits base 3."""

    def test_modulus_and_generator(self, f9):
        x = Scalar(f9, 3)  # digits (0, 1)
        assert f9.coeffs(x.value) == [0, 1]
        assert x * x == f9.scalar(-1)

    def test_frobenius_is_cubing(self, f9):
        frob = RingEndo(f9, 1).apply_raw
        for a in f9.elements():
            assert frob(a) == f9.mul(a, f9.mul(a, a))

    def test_frobenius_squared_is_identity(self, f9):
        frob = RingEndo(f9, 1).apply_raw
        for a in f9.elements():
            assert frob(frob(a)) == a

    @given(a=ints, b=ints)
    def test_frobenius_is_a_ring_map(self, f9, a, b):
        frob = RingEndo(f9, 1).apply_raw
        x = f9.add(3, f9.of(a))
        y = f9.mul(3, f9.of(b))
        assert frob(f9.add(x, y)) == f9.add(frob(x), frob(y))
        assert frob(f9.mul(x, y)) == f9.mul(frob(x), frob(y))

    def test_prime_subfield_is_fixed(self, f9):
        frob = RingEndo(f9, 1).apply_raw
        for c in (0, 1, 2):
            assert frob(c) == c


class TestEndoEnumeration:
    def test_counts(self, qq, f5, f9):
        assert len(endo_enumerate(qq)) == 1
        assert len(endo_enumerate(f5)) == 1
        assert len(endo_enumerate(f9)) == 2

    def test_identity_flags(self, f9):
        endos = endo_enumerate(f9)
        assert [e.is_identity for e in endos] == [True, False]

    def test_f25_has_two(self):
        f25 = preset_field("F25")
        assert len(endo_enumerate(f25)) == 2
        frob = endo_enumerate(f25)[1]
        for raw in f25.elements():
            assert frob.apply_raw(raw) == f25.pow_raw(raw, 5)


class TestConstruction:
    def test_presets(self):
        assert preset_field("Q").kind == "rational"
        assert preset_field("F7").order == 7
        assert preset_field("F9").order == 9
        assert preset_field("F2").char2

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_field("F4")

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            prime_field(6)

    @pytest.mark.parametrize("kind, k", [("prime", 1), ("galois", 2)])
    def test_pseudoprime_limit_refused(self, kind, k):
        # 1287836182261 * 2575672364521 passes Miller-Rabin for every base
        # up to 41; no p at or above it is trusted to be prime
        p = 1287836182261 * 2575672364521
        assert p == _MR_LIMIT
        with pytest.raises(UnsupportedInput, match="too large to test for primality"):
            Field(kind, p=p, k=k)
        with pytest.raises(UnsupportedInput):
            is_prime(p + 2)

    @pytest.mark.parametrize("kind, k", [("prime", 1), ("galois", 2)])
    def test_strong_pseudoprime_to_bases_up_to_37_refused(self, kind, k):
        # 399165290221 * 798330580441 passes Miller-Rabin for every base up
        # to 37 and is below _MR_LIMIT; base 41 exposes it
        p = 399165290221 * 798330580441
        assert not is_prime(p)
        with pytest.raises(UnsupportedInput, match="is not prime"):
            Field(kind, p=p, k=k)

    def test_reducible_polynomial_rejected(self):
        # x^2 - 1 = (x - 1)(x + 1) over F_3
        with pytest.raises(ValueError):
            galois_field(3, 2, modulus=(2, 0, 1))

    @pytest.mark.parametrize("p, k", [(3, 8), (2, 13), (3, 10_000)])
    def test_order_above_4096_refused(self, p, k):
        # a degree whose order has thousands of digits is refused the same way
        with pytest.raises(UnsupportedInput, match=f"F_{p}\\^{k} exceeds order 4096"):
            galois_field(p, k)

    def test_constructor_matches_presets(self):
        assert Field("prime", p=5) is prime_field(5)
        assert Field("rational") is rational_field()
        assert Field("galois", p=3, k=2, modulus=(1, 0, 1)) is preset_field("F9")

    def test_fields_stay_canonical_past_the_cache(self):
        # a field that left the constructor cache, still held by a domain,
        # is found again: the domain's matrices are over the field made now
        f3 = preset_field("F3")
        _domain(f3, 2, "full")
        others = [p for p in range(5, 200) if is_prime(p)][:40]
        assert len(others) == 40
        for p in others:
            prime_field(p)
        assert prime_field(3) is preset_field("F3") is f3
        assert _domain(prime_field(3), 2, "full")[0][0].field is f3

    def test_threads_missing_the_cache_share_one_field(self):
        # rounds of sixteen threads that ask at once for a field no cache
        # holds: in each round all of them get one fully built field
        def ask():
            barrier.wait(timeout=30)
            fields.append(galois_field(7, 3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                _canonical.cache_clear()
                fields, barrier = [], threading.Barrier(16)
                gc.collect()
                threads = [threading.Thread(target=ask) for _ in range(16)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(fields) == 16 and all(f is fields[0] for f in fields)
                assert fields[0].order == 343
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_the_field(self, clone):
        f9 = preset_field("F9")
        m = Mat(f9, [[1, [0, 1]], [2, 0]])
        assert clone(m).field is f9 and clone(m) == m
        assert clone(rational_field()) is rational_field()
        assert clone(f9) is f9

    def test_constructors_share_equal_fields(self):
        # equal fields from the constructors are one object, keyed after
        # validation: gf:3:2 finds the F9 preset's modulus x^2 + 1
        assert preset_field("F3") is prime_field(3)
        assert preset_field("F9") is galois_field(3, 2) is galois_field(3, 2, modulus=[1, 0, 1])
        assert preset_field("Q") is rational_field()
        assert galois_field(3, 2, modulus=(2, 2, 1)) is not galois_field(3, 2)

    def test_warm_galois_field_skips_validation(self):
        # the modulus search for F_{2^12} runs once per argument tuple, not per call
        assert galois_field(2, 12) is preset_field("gf:2:12")
        t0 = time.process_time()
        for _ in range(100):
            galois_field(2, 12)
        assert time.process_time() - t0 < 0.005

    def test_refusals_are_not_cached(self):
        # x^2 - 1 = (x - 1)(x + 1) over F_3, refused with one message each time
        messages = []
        for _ in range(2):
            with pytest.raises(UnsupportedInput) as exc:
                galois_field(3, 2, modulus=[2, 0, 1])
            messages.append(str(exc.value))
        assert messages == ["modulus [2, 0, 1] is reducible over F_3"] * 2

    def test_equality_distinguishes_fields(self, f3, f5):
        assert f3 != f5
        assert prime_field(3) == f3
        assert hash(prime_field(3)) == hash(f3)
        assert galois_field(3, 2) != galois_field(3, 2, modulus=(2, 2, 1))
        assert f3 != 3 and f3 == f3


def _digit_add(p, k, a, b):
    return sum((a // p**i + b // p**i) % p * p**i for i in range(k))


@pytest.mark.parametrize(
    "p, k", [(3, 2), (5, 2), (3, 3), (7, 2), (2, 2), (2, 3)],
    ids=["F9", "F25", "F27", "F49", "F4", "F8"],
)
def test_add_matches_digit_add(p, k):
    """Zech-table addition (XOR in characteristic 2), negation and
    subtraction agree with base-p digit arithmetic on every pair."""
    f = galois_field(p, k)
    q = f.order
    for a in range(q):
        neg = sum(-(a // p**i) % p * p**i for i in range(k))
        assert f.neg(a) == neg
        for b in range(q):
            total = _digit_add(p, k, a, b)
            assert f.add(a, b) == total
            assert f.sub(total, b) == a
            if p == 2:
                assert total == a ^ b


@given(a=st.integers(0, 80), b=st.integers(0, 80), c=st.integers(0, 80))
def test_f81_zech_add_is_a_group_law(a, b, c):
    f = galois_field(3, 4)
    assert f.add(a, b) == _digit_add(3, 4, a, b)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_scalar_str_galois(f9):
    assert str(Scalar(f9, 6)) == "2x"
    assert str(Scalar(f9, 4)) == "x + 1"
    assert str(Scalar(f9, 0)) == "0"


def _galois_presets():
    """gf:p:k for every Galois field of order at most 1024, then gf:2:12,
    F9 and F25."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        k = 2
        while p**k <= 1024:
            yield f"gf:{p}:{k}"
            k += 1
    yield from ("gf:2:12", "F9", "F25")


# sha256 over `_galois_presets` of repr((modulus, _exp, _log, _zech))
GALOIS_TABLES_DIGEST = "8a53ee8f0b7d4d9cc6d1f46202362d3481a0f28c8277367b52d3d7a8499d21d6"


def test_galois_tables_are_frozen():
    digest = hashlib.sha256()
    for name in _galois_presets():
        f = preset_field(name)
        q = f.order
        # the antilog walk covers every unit once, then repeats
        assert sorted(f._exp[: q - 1]) == list(range(1, q))
        assert f._exp[q - 1 :] == f._exp[: q - 1]
        digest.update(repr((f.modulus, f._exp, f._log, f._zech)).encode())
    assert digest.hexdigest() == GALOIS_TABLES_DIGEST


def test_reducible_modulus_message():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F_2
    with pytest.raises(UnsupportedInput, match=r"modulus \[1, 0, 1, 0, 1\] is reducible over F_2"):
        galois_field(2, 4, modulus=(1, 0, 1, 0, 1))


@pytest.mark.parametrize("make, error, detail", [
    (lambda: prime_field(5).of(1.0), TypeError,
     "floats are not exact; use int, Fraction, or a string"),
    (lambda: rational_field().of(0.5), TypeError,
     "floats are not exact; use int, Fraction, or a string"),
    (lambda: prime_field(5).of(None), TypeError, "cannot coerce None into F5"),
    (lambda: prime_field(5).of([1, 2]), TypeError, r"cannot coerce \[1, 2\] into F5"),
    (lambda: rational_field().elements(), ValueError, "cannot enumerate the rationals"),
    (lambda: prime_field(5).coeffs(1), ValueError, "coefficient view is galois-only"),
    (lambda: Field("complex"), UnsupportedInput, "unknown field kind 'complex'"),
    (lambda: Field("rational", p=3), UnsupportedInput, "rational field takes no p/k/modulus"),
    (lambda: Field("rational", k=2), UnsupportedInput, "rational field takes no p/k/modulus"),
    (lambda: Field("rational", modulus=(1, 1)), UnsupportedInput,
     "rational field takes no p/k/modulus"),
    (lambda: Field("prime", p=5, k=2), UnsupportedInput, "k >= 2 requires kind='galois'"),
    (lambda: Field("prime", p=5, modulus=(1, 1)), UnsupportedInput,
     "prime field takes no modulus"),
    (lambda: Scalar(prime_field(5), 1) * Scalar(prime_field(3), 1), ValueError,
     "scalars from different fields"),
    (lambda: RingEndo(rational_field(), 1), ValueError, "Q admits only the identity endomorphism"),
], ids=["float_into_F5", "float_into_Q", "none", "list_into_prime", "enumerate_Q",
        "coeffs_of_prime", "unknown_kind", "rational_p", "rational_k", "rational_modulus",
        "prime_k", "prime_modulus", "scalars_across_fields", "frobenius_on_Q"])
def test_refusals_name_the_fault(make, error, detail):
    with pytest.raises(error, match=f"^{detail}$"):
        make()
