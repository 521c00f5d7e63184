"""Exact scalar arithmetic over Q, prime fields F_p, and Galois fields F_{p^k},
plus the ring endomorphisms of these fields (identity and Frobenius powers).

Everything is exact: rationals are `fractions.Fraction`, finite-field elements
are canonical residues. No floating point is accepted anywhere.

Internal raw-value model (the matrix layer computes on raw values directly):

  rational -> fractions.Fraction
  prime    -> int residue in [0, p)
  galois   -> int in [0, q) encoding the residue polynomial sum(c_i * x^i) as
              sum(c_i * p^i), i.e. base-p digits in ascending power order

Fields are canonical: equal fields are one object; compare fields with `is`.

The public `Scalar` wrapper pairs a raw value with its owning field and
supports the usual operators. Galois fields have order at most
`_LOG_TABLE_LIMIT` (4096); larger orders are refused at construction. Every
Galois field builds discrete log/antilog tables once, by polynomial
arithmetic modulo its irreducible modulus, and multiplies, inverts and
raises to powers through them. The generator g is the least raw value
whose powers run through all q - 1 units before returning to 1: the raw
values 2, 3, ... are walked in turn, each walk bounded at q - 1 steps, and
the first full walk is the antilog table.

Next to the log tables sits a Zech table: for a generator g, `_zech[d]` is
the log of 1 + g^d, or -1 when 1 + g^d = 0, so g^s + g^t = g^(s + zech[t - s])
with exponents mod q - 1. Odd-characteristic fields add through it, and the
matrix kernels accumulate whole dot products this way, on logs, in every
characteristic. Characteristic-2 fields add by XOR.
"""

import functools
import threading
import weakref
from fractions import Fraction

from .errors import UnsupportedInput

_LOG_TABLE_LIMIT = 4096

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES, the first 13
# primes (1287836182261 * 2575672364521): below it the test is deterministic
_MR_LIMIT = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin below _MR_LIMIT; larger n are refused."""
    if n >= _MR_LIMIT:
        raise UnsupportedInput(f"{n} is too large to test for primality (limit {_MR_LIMIT})")
    if n < 2:
        return False
    for small in _MR_BASES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(num, den, p):
    """Quotient/remainder of polynomials over F_p (coefficient lists, ascending)."""
    num = _poly_trim(num)
    den = _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    while len(rem) >= len(den) and _poly_trim(rem):
        shift = len(rem) - len(den)
        factor = rem[-1] * inv_lead % p
        if factor:
            quot[shift] = factor
            for i, d in enumerate(den):
                rem[shift + i] = (rem[shift + i] - factor * d) % p
        rem.pop()
    return quot, _poly_trim(rem)


def is_irreducible(modulus, p):
    """Trial factorization: no monic divisor of degree 1..deg/2 over F_p."""
    coeffs = [c % p for c in modulus]
    coeffs = _poly_trim(coeffs)
    k = len(coeffs) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for tail in range(p ** d):
            div = _digits(tail, p, d) + [1]
            _, rem = _poly_divmod(coeffs, div, p)
            if not rem:
                return False
    return True


def _digits(value, p, width):
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits, p):
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


class Field:
    """An exact field: Q (`rational`), F_p (`prime`), or F_{p^k} (`galois`).

    Galois fields are polynomial residues modulo a monic irreducible, given
    by the caller or found by search; every modulus is checked at
    construction, and orders above 4096 are refused. Characteristic-2
    fields are constructible (the diamond product is meaningful there) but
    every halving operation — and with it the circ product — rejects them.
    Equal fields are one object; compare fields with `is`.
    """

    def __new__(cls, kind, p=0, k=1, modulus=None):
        return _canonical(kind, p, k, None if modulus is None else tuple(modulus))

    def __reduce__(self):
        return Field, (self.kind, self.p, self.k, self.modulus)

    def _setup(self, kind, p, k, modulus):
        self.kind = kind
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p ** k if kind != "rational" else None
        self.is_finite = kind != "rational"
        self.char2 = p == 2
        self.zero = 0 if self.is_finite else Fraction(0)
        self.one = 1 if self.is_finite else Fraction(1)
        self._log = None
        self._exp = None
        self._zech = None
        if kind == "galois":
            self._build_log_tables()
        self._half = None if self.char2 else self.inv(self.of(2))

    def __repr__(self):
        return f"Field({self.name()})"

    def name(self):
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return f"F{self.p}"
        return f"F{self.order}"

    # -- raw arithmetic -----------------------------------------------------

    def add(self, a, b):
        if self.kind == "rational":
            return a + b
        if self.kind == "prime":
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[(log[b] - la) % (self.order - 1)]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a):
        if self.kind == "rational":
            return -a
        if self.kind == "prime":
            return -a % self.p
        if self.p == 2:
            return a
        # -1 = g^((q-1)/2)
        return self._exp[self._log[a] + (self.order - 1) // 2] if a else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "rational":
            return a * b
        if self.kind == "prime":
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self.name()}")
        if self.kind == "rational":
            return 1 / a
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def halve(self, a):
        if self.p == 2:
            raise UnsupportedInput("halving is undefined in characteristic 2")
        if self.kind == "rational":
            return a / 2
        return self.mul(a, self.half_one)

    @property
    def half_one(self):
        """Raw value of 1/2, computed once when the field is set up;
        undefined in characteristic 2."""
        if self._half is None:
            raise UnsupportedInput("1/2 does not exist in characteristic 2")
        return self._half

    def pow_raw(self, a, e):
        if self.kind == "rational":
            return a ** e
        if self.kind == "prime":
            return pow(a, e, self.p)
        if not a:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.order - 1)]

    def _poly_mul(self, a, b):
        p, k = self.p, self.k
        da = _digits(a, p, k)
        db = _digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return _undigits(prod[:k], p)

    def _build_log_tables(self):
        q, p = self.order, self.p
        for gen in range(2, q):
            # walk gen's powers until they return to 1, at most q - 1 steps:
            # back at 1 after exactly q - 1 steps means gen has order q - 1,
            # so the walk passed every unit once and gen generates
            powers, acc = [1], gen
            while acc != 1 and len(powers) < q - 1:
                powers.append(acc)
                acc = self._poly_mul(acc, gen)
            if acc == 1 and len(powers) == q - 1:
                break
        else:
            raise RuntimeError("no multiplicative generator found (impossible for a field)")
        log = [0] * q
        for i, v in enumerate(powers):
            log[v] = i
        self._exp = powers + powers
        self._log = log
        # adding 1 changes only the lowest base-p digit
        sums = (v + 1 if v % p != p - 1 else v + 1 - p for v in powers)
        self._zech = [log[v] if v else -1 for v in sums]

    # -- coercion and element access -----------------------------------------

    def of(self, x):
        """Coerce `x` to a raw value. Ints embed via the prime subfield;
        galois fields additionally accept ascending coefficient sequences."""
        if isinstance(x, Scalar):
            if x.field is not self:
                raise ValueError(f"scalar from {x.field.name()} used in {self.name()}")
            return x.value
        if isinstance(x, float):
            raise TypeError("floats are not exact; use int, Fraction, or a string")
        if self.kind == "rational":
            return Fraction(x)
        if isinstance(x, str):
            x = int(x)
        if isinstance(x, int):
            return x % self.p
        if self.kind == "galois" and isinstance(x, (list, tuple)):
            if len(x) > self.k:
                raise ValueError(f"coefficient list longer than degree {self.k}")
            return _undigits([int(c) % self.p for c in x], self.p)
        raise TypeError(f"cannot coerce {x!r} into {self.name()}")

    def scalar(self, x):
        return Scalar(self, self.of(x))

    def elements(self):
        """Iterate every raw value (finite fields only)."""
        if not self.is_finite:
            raise ValueError("cannot enumerate the rationals")
        return range(self.order)

    def coeffs(self, raw):
        """Ascending coefficient list of a galois raw value."""
        if self.kind != "galois":
            raise ValueError("coefficient view is galois-only")
        return _digits(raw, self.p, self.k)


# the one live Field of each validated (kind, p, k, modulus); the lock keeps
# two threads that miss the cache together from making two of one field
_live = weakref.WeakValueDictionary()
_live_lock = threading.Lock()


@functools.lru_cache(maxsize=32, typed=True)
def _canonical(kind, p, k, modulus):
    """The one live Field these arguments name, every constructor's path:
    all refusals of Field happen here, and a missing Galois modulus is found
    by search. The last 32 argument tuples (the modulus a tuple) keep their
    fields, so a warm Galois field keeps its tables; a refusal raises and is
    not cached, so it is repeated on every call."""
    if kind not in ("rational", "prime", "galois"):
        raise UnsupportedInput(f"unknown field kind {kind!r}")
    if kind == "rational":
        if p not in (0, None) or k != 1 or modulus is not None:
            raise UnsupportedInput("rational field takes no p/k/modulus")
        p, k, modulus = 0, 1, None
    elif kind == "prime":
        if not is_prime(p):
            raise UnsupportedInput(f"p={p} is not prime")
        if k != 1:
            raise UnsupportedInput("k >= 2 requires kind='galois'")
        if modulus is not None:
            raise UnsupportedInput("prime field takes no modulus")
    else:
        if not is_prime(p):
            raise UnsupportedInput(f"p={p} is not prime")
        if k < 2:
            raise UnsupportedInput("galois fields need extension degree k >= 2")
        # p >= 2, so k beyond the cap's bit length is refused before
        # p ** k, which could be huge, is formed
        if k > _LOG_TABLE_LIMIT.bit_length() or p ** k > _LOG_TABLE_LIMIT:
            raise UnsupportedInput(
                f"F_{p}^{k} exceeds order {_LOG_TABLE_LIMIT}; galois fields are capped there"
            )
        if modulus is None:
            modulus = _find_irreducible(p, k)
        modulus = [c % p for c in modulus]
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise UnsupportedInput("modulus must be monic of degree k (ascending coefficients)")
        if not is_irreducible(modulus, p):
            raise UnsupportedInput(f"modulus {modulus} is reducible over F_{p}")
    key = kind, p, k, tuple(modulus) if modulus is not None else None
    with _live_lock:
        field = _live.get(key)
        if field is None:
            field = _live[key] = object.__new__(Field)
            field._setup(*key)
    return field


def _find_irreducible(p, k):
    for tail in range(p ** k):
        cand = _digits(tail, p, k) + [1]
        if is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found (impossible)")


class Scalar:
    """A field element: raw value plus owning field, with operator support."""

    __slots__ = ("field", "value")

    def __init__(self, field, raw):
        self.field = field
        self.value = raw

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise ValueError("scalars from different fields")
            return other.value
        return self.field.of(other)

    def __add__(self, other):
        return Scalar(self.field, self.field.add(self.value, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.field, self.field.sub(self.value, self._coerce(other)))

    def __rsub__(self, other):
        return Scalar(self.field, self.field.sub(self._coerce(other), self.value))

    def __mul__(self, other):
        return Scalar(self.field, self.field.mul(self.value, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.field, self.field.div(self.value, self._coerce(other)))

    def __rtruediv__(self, other):
        return Scalar(self.field, self.field.div(self._coerce(other), self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __pow__(self, e):
        return Scalar(self.field, self.field.pow_raw(self.value, e))

    def inv(self):
        return Scalar(self.field, self.field.inv(self.value))

    def halve(self):
        return Scalar(self.field, self.field.halve(self.value))

    @property
    def is_zero(self):
        return not self.value

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.value == other.value
        try:
            return self.value == self.field.of(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self):
        if self.field.kind != "galois":
            return str(self.value)
        terms = []
        for i, c in enumerate(self.field.coeffs(self.value)):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}{x}")
        return " + ".join(reversed(terms)) if terms else "0"

    def __repr__(self):
        return f"Scalar({self} : {self.field.name()})"


class RingEndo:
    """A ring endomorphism of the field: x -> x^(p^e), with e = 0 the identity.

    Q and F_p admit only the identity; F_{p^k} has exactly k Frobenius powers.
    All of these are automatically additive, multiplicative, and injective.
    """

    __slots__ = ("field", "e")

    def __init__(self, field, e=0):
        if field.is_finite:
            e %= field.k
        elif e != 0:
            raise ValueError("Q admits only the identity endomorphism")
        self.field = field
        self.e = e

    @property
    def is_identity(self):
        return self.e == 0

    def apply_raw(self, raw):
        return raw if self.e == 0 else self.field.pow_raw(raw, self.field.p ** self.e)

    def __call__(self, scalar):
        if scalar.field is not self.field:
            raise ValueError("scalar belongs to a different field")
        return Scalar(self.field, self.apply_raw(scalar.value))

    def describe(self):
        if self.is_identity:
            return {"kind": "identity"}
        return {"kind": "frobenius", "e": self.e}

    def __eq__(self, other):
        return isinstance(other, RingEndo) and self.field is other.field and self.e == other.e

    def __hash__(self):
        return hash((self.field, self.e))

    def __repr__(self):
        tag = "id" if self.is_identity else f"frob^{self.e}"
        return f"RingEndo({tag} on {self.field.name()})"


# -- module-level operations -------------------------------------------------


def rational_field():
    return Field("rational")


def prime_field(p):
    return Field("prime", p)


def galois_field(p, k, modulus=None):
    return Field("galois", p, k, modulus)


def endo_enumerate(field):
    """All ring endomorphisms: k Frobenius powers for F_{p^k}, else identity only."""
    if field.kind == "galois":
        return [RingEndo(field, e) for e in range(field.k)]
    return [RingEndo(field, 0)]


def _preset_int(text):
    try:
        return int(text)
    except ValueError as exc:
        raise UnsupportedInput(str(exc)) from None


# Named presets used by the CLI. The F9 and F25 moduli are verified irreducible
# at construction (x^2+1 has no root mod 3; x^2+2 has no root mod 5).
def preset_field(name):
    """Resolve a field preset: Q, F2, F3, F5, F7, F9, F25, p:<prime>, gf:<p>:<k>."""
    fixed = {
        "Q": lambda: rational_field(),
        "F2": lambda: prime_field(2),
        "F3": lambda: prime_field(3),
        "F5": lambda: prime_field(5),
        "F7": lambda: prime_field(7),
        "F9": lambda: galois_field(3, 2, [1, 0, 1]),
        "F25": lambda: galois_field(5, 2, [2, 0, 1]),
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("p:"):
        return prime_field(_preset_int(name[2:]))
    if name.startswith("gf:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise UnsupportedInput(f"expected gf:<p>:<k>, got {name!r}")
        return galois_field(_preset_int(parts[1]), _preset_int(parts[2]))
    raise UnsupportedInput(f"unknown field preset {name!r}")
