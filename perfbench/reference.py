"""Reference arithmetic and output checks, written apart from jordanmaps.

Scalars: Q as fractions.Fraction, F_p as ints mod p, and F_9 = F_3[i]/(i^2+1)
as pairs (a, b) meaning a + b*i. Matrices are tuples of row tuples of these
scalars. Nothing here imports jordanmaps: program matrices are read through
their documented raw model (`Mat.rows`; a galois raw value is the base-p
number of its ascending coefficients), so a fault in the program's field or
matrix code cannot hide itself from these checks.

Every check returns None when the output is right and a one-line reason when
it is not.
"""

from fractions import Fraction


class RefField:
    """One of Q, F_p (p odd or 2) and F_9, with the arithmetic the checks need."""

    def __init__(self, name):
        self.name = name
        if name == "Q":
            self.kind, self.p = "Q", 0
            self.zero, self.one = Fraction(0), Fraction(1)
        elif name == "F9":
            self.kind, self.p = "F9", 3
            self.zero, self.one = (0, 0), (1, 0)
        elif name.startswith("F") and name[1:].isdigit():
            self.kind, self.p = "prime", int(name[1:])
            self.zero, self.one = 0, 1
        else:
            raise ValueError(f"no reference arithmetic for {name!r}")

    def __repr__(self):
        return f"RefField({self.name})"

    def elements(self):
        if self.kind == "prime":
            return list(range(self.p))
        if self.kind == "F9":
            return [(a, b) for b in range(3) for a in range(3)]
        raise ValueError("Q is infinite")

    def of_int(self, k):
        if self.kind == "Q":
            return Fraction(k)
        if self.kind == "F9":
            return (k % 3, 0)
        return k % self.p

    def add(self, a, b):
        if self.kind == "Q":
            return a + b
        if self.kind == "F9":
            return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3)
        return (a + b) % self.p

    def neg(self, a):
        if self.kind == "Q":
            return -a
        if self.kind == "F9":
            return (-a[0] % 3, -a[1] % 3)
        return -a % self.p

    def mul(self, a, b):
        if self.kind == "Q":
            return a * b
        if self.kind == "F9":
            # (a0 + a1 i)(b0 + b1 i) with i^2 = -1
            return ((a[0] * b[0] - a[1] * b[1]) % 3, (a[0] * b[1] + a[1] * b[0]) % 3)
        return a * b % self.p

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == "Q":
            return 1 / a
        if self.kind == "F9":
            # 1/(a0 + a1 i) = (a0 - a1 i)/(a0^2 + a1^2); the norm is 1 or 2,
            # and each is its own inverse mod 3
            norm = (a[0] * a[0] + a[1] * a[1]) % 3
            return (a[0] * norm % 3, -a[1] * norm % 3)
        return pow(a, self.p - 2, self.p)

    def frobenius(self, e, a):
        """a -> a^(p^e); on F_9 the odd powers conjugate i to -i."""
        if self.kind == "F9" and e % 2:
            return (a[0], -a[1] % 3)
        return a

    def from_raw(self, raw):
        """A program raw value as a reference scalar."""
        if self.kind == "Q":
            return Fraction(raw)
        if self.kind == "F9":
            return (raw % 3, raw // 3)
        return raw

    def to_entry(self, a):
        """A reference scalar as an entry the program's Mat constructor accepts."""
        if self.kind == "F9":
            return [a[0], a[1]]
        return a

    def to_json(self, a):
        """Schema-1 JSON scalar: a string over Q and F_p, ascending coefficients over F_9."""
        if self.kind == "F9":
            return [a[0], a[1]]
        return str(a)

    def random(self, rng, bound=9):
        if self.kind == "Q":
            return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if self.kind == "F9":
            return (rng.randrange(3), rng.randrange(3))
        return rng.randrange(self.p)


# -- matrices -------------------------------------------------------------------


def from_program(F, mat):
    return tuple(tuple(F.from_raw(v) for v in row) for row in mat.rows)


def identity(F, n):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def zeros(F, n):
    return tuple(tuple(F.zero for _ in range(n)) for _ in range(n))


def unit(F, n, i, j, value=None):
    """E_ij, 1-based, scaled by `value`."""
    v = F.one if value is None else value
    return tuple(
        tuple(v if (r, c) == (i - 1, j - 1) else F.zero for c in range(n)) for r in range(n)
    )


def is_zero(F, a):
    return all(v == F.zero for row in a for v in row)


def add(F, a, b):
    return tuple(tuple(F.add(x, y) for x, y in zip(r, s)) for r, s in zip(a, b))


def scale(F, c, a):
    return tuple(tuple(F.mul(c, x) for x in row) for row in a)


def matmul(F, a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = F.zero
            for x, y in zip(row, col):
                acc = F.add(acc, F.mul(x, y))
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def transpose(a):
    return tuple(zip(*a))


def frobenius(F, e, a):
    return tuple(tuple(F.frobenius(e, v) for v in row) for row in a)


def diamond(F, x, y):
    return add(F, matmul(F, x, y), matmul(F, y, x))


def circ(F, x, y):
    return scale(F, F.inv(F.of_int(2)), diamond(F, x, y))


def product(F, mode, x, y):
    return circ(F, x, y) if mode == "circ" else diamond(F, x, y)


def inverse(F, a):
    """Gauss-Jordan inverse, or None when `a` is singular."""
    n = len(a)
    rows = [list(r) + [F.one if i == j else F.zero for j in range(n)] for i, r in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != F.zero), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = F.inv(rows[col][col])
        rows[col] = [F.mul(inv, v) for v in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != F.zero:
                rows[r] = [F.add(v, F.neg(F.mul(factor, w))) for v, w in zip(rows[r], rows[col])]
    return tuple(tuple(r[n:]) for r in rows)


def scalar_factor(F, a, b):
    """The nonzero c with a = c*b, or None when there is none."""
    anchor = next(
        ((i, j) for i, row in enumerate(b) for j, v in enumerate(row) if v != F.zero), None
    )
    if anchor is None:
        return None
    i, j = anchor
    if a[i][j] == F.zero:
        return None
    c = F.mul(a[i][j], F.inv(b[i][j]))
    return c if scale(F, c, b) == a else None


def random_invertible(F, n, rng, bound=9):
    while True:
        t = tuple(tuple(F.random(rng, bound) for _ in range(n)) for _ in range(n))
        t_inv = inverse(F, t)
        if t_inv is not None:
            return t, t_inv


def random_idempotent(F, n, rank, rng):
    s, s_inv = random_invertible(F, n, rng, bound=3)
    d = tuple(tuple(F.one if i == j and i < rank else F.zero for j in range(n)) for i in range(n))
    return matmul(F, matmul(F, s, d), s_inv)


def conjugation(F, t, t_inv, e, transpose_first, x):
    """T w(X) T^-1, or T w(X)^t T^-1 with `transpose_first`."""
    y = frobenius(F, e, x)
    if transpose_first:
        y = transpose(y)
    return matmul(F, matmul(F, t, y), t_inv)


def enumerate_matrices(F, n):
    """Every n x n matrix over a prime field, the k-th one carrying the base-p
    digits of k in row-major order, least significant first."""
    p = F.p
    out = []
    for code in range(p ** (n * n)):
        flat = []
        for _ in range(n * n):
            flat.append(code % p)
            code //= p
        out.append(tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
    return out


def mat_json(F, a):
    return {
        "n": len(a),
        "m": len(a[0]),
        "entries": [F.to_json(v) for row in a for v in row],
    }


# -- checks ---------------------------------------------------------------------


def check_conjugation(F, form, t, e, transpose_first, mode):
    """The form is the planted X -> T w(X)(^t) T^-1, with T up to a nonzero scalar."""
    if form.variant != "conjugation":
        return f"expected a conjugation, got {form.variant}"
    if form.mode != mode:
        return f"mode {form.mode} differs from the planted {mode}"
    if bool(form.transpose) != bool(transpose_first):
        return "transpose flag differs from the planted map"
    got_e = 0 if form.omega is None else form.omega.e
    want_e = e % 2 if F.kind == "F9" else 0
    if got_e != want_e:
        return f"endomorphism e={got_e} differs from the planted e={want_e}"
    if scalar_factor(F, from_program(F, form.t), t) is None:
        return "returned T is not a scalar multiple of the planted T"
    return None


def check_constant(F, form, value, mode, m=None):
    """The form is the constant map at `value` (its idempotent is value, or
    2*value in diamond mode), or the zero map when value is zero."""
    if m is not None and form.m != m:
        return f"codomain size {form.m} differs from {m}"
    if is_zero(F, value):
        return None if form.variant == "zero" else f"expected zero, got {form.variant}"
    if form.variant != "constant_idempotent":
        return f"expected a constant, got {form.variant}"
    p = value if mode == "circ" else scale(F, F.of_int(2), value)
    got = from_program(F, form.idempotent)
    if got != p:
        return "the constant's idempotent differs from phi(0)"
    if matmul(F, got, got) != got:
        return "the constant's idempotent does not square to itself"
    return None


def check_witness(F, phi, mode, witness):
    """phi(x*y) != phi(x)*phi(y) for the pair, with phi the reference map."""
    if witness is None or len(witness) != 2:
        return "no witness pair"
    x, y = (from_program(F, w) for w in witness)
    lhs = phi(product(F, mode, x, y))
    rhs = product(F, mode, phi(x), phi(y))
    return "witness pair does not violate the product law" if lhs == rhs else None


def check_exhaustive(evidence, size):
    """Accepted exhaustive evidence covers every ordered pair of the domain."""
    if not evidence.ok:
        return "exhaustive evidence rejects a product-preserving map"
    if evidence.qualifier != "exhaustive":
        return f"evidence is {evidence.qualifier}, not exhaustive"
    if evidence.pairs_checked != size * size:
        return f"evidence covers {evidence.pairs_checked} pairs, not {size * size}"
    return None


def check_certificate(F, x, cert):
    """Every step recomputes, no intermediate is zero, the chain ends at I,
    and its length is within 3 + 6(n-1)."""
    n = len(x)
    if from_program(F, cert.start) != x:
        return "certificate starts elsewhere than the input"
    steps = cert.steps
    if not steps or len(steps) > 3 + 6 * (n - 1):
        return f"certificate length {len(steps)} outside 1..{3 + 6 * (n - 1)}"
    current = x
    for k, (y, result) in enumerate(steps, start=1):
        current = circ(F, current, from_program(F, y))
        if current != from_program(F, result):
            return f"step {k} does not recompute"
        if is_zero(F, current):
            return f"step {k} is zero"
    if current != identity(F, n):
        return "chain does not end at I"
    return None
