import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanmaps import (
    RingEndo,
    Scalar,
    Field,
    UnsupportedInput,
    endo_enumerate,
    galois_field,
    preset_field,
    prime_field,
    rational_field,
)
from jordanmaps.exact_fields import _MR_LIMIT, is_prime

ints = st.integers(min_value=-200, max_value=200)


class TestFieldAxioms:
    @pytest.fixture(params=["Q", "F3", "F5", "F9", "F25"])
    def field(self, request):
        return preset_field(request.param)

    @given(a=ints, b=ints, c=ints)
    def test_ring_laws(self, field, a, b, c):
        x, y, z = field.scalar(a), field.scalar(b), field.scalar(c)

        # commutativity and associativity
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

        # distributivity and neutral elements
        assert x * (y + z) == x * y + x * z
        assert x + field.scalar(0) == x
        assert x * field.scalar(1) == x
        assert x + (-x) == field.scalar(0)

    @given(a=ints)
    def test_inverse(self, field, a):
        x = field.scalar(a)
        if x.is_zero:
            with pytest.raises((ZeroDivisionError, ValueError)):
                x.inv()
        else:
            assert x * x.inv() == field.scalar(1)

    @given(a=ints)
    def test_halve_doubles_back(self, field, a):
        x = field.scalar(a)
        assert x.halve() + x.halve() == x
        assert x.halve() * field.scalar(2) == x


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


def test_f5_inverse_table(f5):
    assert f5.inv(3) == 2
    assert [f5.inv(a) for a in (1, 2, 3, 4)] == [1, 3, 2, 4]


def test_rationals_are_exact(qq):
    third = qq.scalar(1) / qq.scalar(3)
    assert third + third + third == qq.scalar(1)
    assert str(third) == "1/3"


class TestGaloisF9:
    """F_9 = F_3[x] / (x^2 + 1); raw values encode coefficient digits base 3."""

    def test_modulus_and_generator(self, f9):
        x = Scalar(f9, 3)  # digits (0, 1)
        assert f9.coeffs(x.value) == [0, 1]
        assert x * x == f9.scalar(-1)

    def test_frobenius_is_cubing(self, f9):
        frob = RingEndo(f9, 1)
        for raw in f9.elements():
            a = Scalar(f9, raw)
            assert frob(a) == a**3

    def test_frobenius_squared_is_identity(self, f9):
        frob = RingEndo(f9, 1)
        for raw in f9.elements():
            a = Scalar(f9, raw)
            assert frob(frob(a)) == a

    @given(a=ints, b=ints)
    def test_frobenius_is_a_ring_map(self, f9, a, b):
        frob = RingEndo(f9, 1)
        x = Scalar(f9, 3) + f9.scalar(a)
        y = Scalar(f9, 3) * f9.scalar(b)
        assert frob(x + y) == frob(x) + frob(y)
        assert frob(x * y) == frob(x) * frob(y)

    def test_prime_subfield_is_fixed(self, f9):
        frob = RingEndo(f9, 1)
        for c in (0, 1, 2):
            assert frob(f9.scalar(c)) == f9.scalar(c)


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
        assert Field("prime", p=5) == prime_field(5)
        assert Field("rational") == rational_field()
        assert Field("galois", p=3, k=2, modulus=(1, 0, 1)) == preset_field("F9")

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


def test_random_raw_lands_in_field(f5, qq):
    import random

    rng = random.Random(0)
    for _ in range(50):
        assert f5.random_raw(rng) in range(5)
    for _ in range(20):
        qq.scalar(qq.random_raw(rng))  # must not raise


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
