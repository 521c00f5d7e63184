"""Classification of Jordan-product-preserving maps M_n(F) -> M_m(F),
n >= 2, m <= n, char(F) != 2.

Every such map is exactly one of:

  * the zero map,
  * a constant map whose value is an idempotent (for the diamond product:
    half an idempotent),
  * X |-> T w(X) T^-1 or X |-> T w(X)^t T^-1 with T invertible and w a ring
    monomorphism applied entrywise (a Frobenius power on finite fields, the
    identity on Q and prime fields); only when m = n.

One pipeline, `classify_with_report`, serves every m <= n: a map into a
smaller algebra ends at its constant or zero stage. For a conjugation the
classifier reads psi (phi, or for the diamond product its circ adapter
2 phi(x/2)): the columns of T off psi(E_11) and the images of E_i1 (of E_1i
when psi(E_21) psi(E_11) = 0, which sets the transpose flag), and w off the
image of a generator times E_11. One check of that form against psi at
every matrix unit and on the line through E_11 judges the reconstruction;
the form is then verified against phi. Maps that are not Jordan
multiplicative are rejected with a concrete witness pair whenever one can
be found (NotJordanMultiplicative): each stage that finds psi wrong at a
point x (for the diamond product a point x of phi is the point 2x of psi)
tries the one list `_aimed` of circ pairs aimed at x, halved for a diamond
map so that each is a pair of phi in its own product, then seeded random
pairs, through the one pair scan `maps._first_violation`.
Structural failures where no witness pair surfaced within budget raise
InvariantViolation tagged with the stage that broke.
"""

import operator
import random
from dataclasses import dataclass
from itertools import chain, permutations

from .errors import (
    InvariantViolation,
    NotJordanMultiplicative,
    UnsupportedInput,
    UnsupportedSize,
)
from .exact_fields import RingEndo, Scalar, endo_enumerate
from .maps import (
    CIRC,
    DIAMOND,
    _first_violation,
    _resolve_strategy,
    _sampled_pairs,
    check_multiplicative,
    diamond_to_circ,
    twisted,
)
from .matrices import (
    Mat,
    conjugator,
    is_idempotent,
    is_proportional,
    jordan_circ,
    mat_diag_idempotent,
    mat_identity,
    mat_unit,
    mat_zero,
    random_invertible,
)

_SCAN_BUDGET = 300


@dataclass(frozen=True)
class CanonicalForm:
    """The classified shape of a map; `evaluate(x)` re-evaluates it at x."""

    variant: str
    field: object
    n: int
    mode: str = CIRC
    m: int = None
    idempotent: Mat = None
    t: Mat = None
    omega: object = None
    transpose: bool = False

    def __post_init__(self):
        if self.variant not in ("zero", "constant_idempotent", "conjugation"):
            raise ValueError(f"unknown form variant {self.variant!r}")
        if self.m is None:
            object.__setattr__(self, "m", self.n)
        if self.variant == "conjugation":
            if self.omega is None:
                object.__setattr__(self, "omega", RingEndo(self.field))
            evaluate = twisted(conjugator(self.t, self.t.inverse()), self.omega, self.transpose)
        else:
            if self.variant == "zero":
                value = mat_zero(self.field, self.m)
            elif self.mode == DIAMOND:
                value = self.idempotent.scale(self.field.scalar(1).halve())
            else:
                value = self.idempotent
            evaluate = lambda x: value
        object.__setattr__(self, "evaluate", evaluate)

    @staticmethod
    def zero_form(field, n, mode=CIRC, m=None):
        return CanonicalForm(variant="zero", field=field, n=n, mode=mode, m=m)

    @staticmethod
    def constant_form(idempotent, n, mode=CIRC):
        if not is_idempotent(idempotent):
            raise UnsupportedInput("constant forms require an idempotent value")
        return CanonicalForm(
            variant="constant_idempotent",
            field=idempotent.field,
            n=n,
            mode=mode,
            m=idempotent.nrows,
            idempotent=idempotent,
        )

    @staticmethod
    def conjugation_form(t, omega=None, transpose=False, mode=CIRC):
        return CanonicalForm(
            variant="conjugation",
            field=t.field,
            n=t.nrows,
            mode=mode,
            t=t,
            omega=omega,
            transpose=bool(transpose),
        )

    def describe(self):
        out = {"variant": self.variant, "mode": self.mode, "n": self.n}
        if self.m != self.n:
            out["m"] = self.m
        if self.variant == "conjugation":
            out["transpose"] = self.transpose
            out["omega"] = self.omega.describe()
        return out


def _reject(phi, stage, detail, targeted=(), culprit=None, seed=0):
    """Reject the map: try the targeted pairs, then seeded random pairs. A
    confirmed pair raises NotJordanMultiplicative; otherwise the structural
    failure is raised with its stage tag."""
    pairs = chain(targeted, _sampled_pairs(phi, seed + 1, _SCAN_BUDGET))
    _, witness = _first_violation(phi, pairs)
    if witness is not None:
        raise NotJordanMultiplicative(detail, witness=witness)
    raise InvariantViolation(stage, detail, witness=culprit)


def _probes(f, seed):
    """Scalars probed on the line through E_11: every element of a field of
    order at most 4096, else fixed small values and seeded random draws."""
    rng = random.Random(seed)
    if f.is_finite and f.order <= 4096:
        probes = list(f.elements())
    elif f.is_finite:
        probes = [f.zero, f.one, f.of(-1), f.of(2), f.of(3)]
        probes += [f.random_raw(rng) for _ in range(48)]
    else:
        probes = [f.of(x) for x in ("0", "1", "-1", "2", "-2")]
        probes += [f.of(x) for x in ("1/2", "-1/2", "2/3", "7/3", "-22/7")]
        probes += [f.random_raw(rng) for _ in range(16)]
    return list(dict.fromkeys(probes))


def _aimed(x, probes):
    """Circ pairs aimed at a point x of psi, in order: (x, x), (x, 0), (x, I),
    (x, E_11) and the through-pair (2I, x/2), whose circ product is x, so a
    map wrong only at x breaks the law on it; the anchored pairs (E_aa, E_ab),
    whose product is E_ab / 2, then (E_kk, I), the square-zero pairs
    (E_jk, E_jk) and (E_ii, E_jj), which tie the unit images to the images
    of I and 0; and (lam E_11, E_12), whose product is (lam/2) E_12, for the
    first 16 probes, which ties the line through E_11 to E_12: a scalar
    action wrong on the line but consistent along it breaks the law there,
    not on pairs of multiples of E_11."""
    f, n = x.field, x.nrows
    unit = lambda i, j, s=1: mat_unit(f, n, i, j, s)
    eye = mat_identity(f, n)
    off = list(permutations(range(1, n + 1), 2))
    yield from [(x, x), (x, mat_zero(f, n)), (x, eye), (x, unit(1, 1)),
                (eye.scale(2), x.scale(Scalar(f, f.half_one)))]
    yield from ((unit(a, a), unit(a, b)) for a, b in off)
    yield from ((unit(k, k), eye) for k in range(1, n + 1))
    yield from ((unit(j, k), unit(j, k)) for j, k in off)
    yield from ((unit(i, i), unit(j, j)) for i, j in off if i < j)
    yield from ((unit(1, 1, Scalar(f, raw)), unit(1, 2)) for raw in probes[:16])


def _verification_points(phi, strategy):
    """Domain points used to confirm a candidate form against the map."""
    if strategy.kind == "exhaustive":
        if phi.domain_size is None:
            raise UnsupportedInput("exhaustive verification needs a finite field")
        yield from phi.domain_iter()
        return
    rng = random.Random(strategy.seed)
    f, n = phi.field, phi.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            yield mat_unit(f, n, i, j)
    yield mat_zero(f, n)
    yield mat_identity(f, n)
    for _ in range(strategy.count):
        yield phi.sample_domain(rng)


def _first_mismatch(phi, expected, points):
    """The first of the given points x with phi(x) != expected(x), or None,
    and the number of points checked."""
    checked = 0
    for x in points:
        checked += 1
        if phi(x) != expected(x):
            return x, checked
    return None, checked


def _normalize_t(t):
    """Scale so the first nonzero entry (row-major) is 1; conjugation by T is
    insensitive to scaling, so this fixes a unique representative."""
    f = t.field
    for row in t.rows:
        for v in row:
            if v != f.zero:
                return t.scale(Scalar(f, f.inv(v))) if v != f.one else t
    return t


def classify(phi, verification=None):
    form, _ = classify_with_report(phi, verification)
    return form


def classify_with_report(phi, verification=None):
    """Run the full pipeline on a map M_n -> M_m with m <= n; returns
    (CanonicalForm, report dict).

    A map into a smaller algebra (m < n) can only be constant at an
    idempotent or zero, so it ends at the constant or zero stage. The report
    records the strategy, per-stage outcomes, and check counts; it contains
    no matrices, so it serializes directly.
    """
    if phi.domain != "full":
        raise UnsupportedInput("classification needs a map defined on all of M_n")
    if phi.n < 2:
        raise UnsupportedSize("classification needs n >= 2")
    if phi.m > phi.n:
        raise UnsupportedSize("classification needs m <= n")
    if phi.field.char2:
        raise UnsupportedInput("classification needs characteristic != 2")
    strategy = _resolve_strategy(phi, verification)
    report = {"mode": phi.mode, "strategy": strategy.describe(), "stages": []}
    seed = strategy.seed

    pre = check_multiplicative(phi, strategy)
    report["pairs_checked"] = pre.pairs_checked
    if not pre:
        raise NotJordanMultiplicative(
            "multiplicativity pre-check failed", witness=pre.witness
        )
    report["stages"].append("precheck")

    f, n = phi.field, phi.n
    zero_mat = mat_zero(f, n)
    e11 = mat_unit(f, n, 1, 1)
    half = Scalar(f, f.half_one)

    def reject(stage, detail, x, culprit=None, at_psi=False):
        # every stage aims at a point x of psi (phi, or for the diamond product
        # its circ adapter 2 phi(x/2), so a point x of phi is the point 2x of
        # psi); psi breaks the circ law on (a, b) exactly when phi breaks its
        # own law on the halved pair (a/2, b/2)
        if culprit is None:
            culprit = x
        pairs = _aimed(x if at_psi or phi.mode == CIRC else x.scale(2), _probes(f, seed))
        if phi.mode == DIAMOND:
            pairs = ((a.scale(half), b.scale(half)) for a, b in pairs)
        _reject(phi, stage, detail, targeted=pairs, culprit=culprit, seed=seed)

    def accept(stage, detail, form):
        # every form is Jordan multiplicative: agreeing with one pointwise settles phi
        x, points = _first_mismatch(phi, form.evaluate, _verification_points(phi, strategy))
        if x is not None:
            reject(stage, detail, x)
        report["stages"].append(stage)
        if form.variant == "conjugation":
            report["points_checked"] = points
        report["variant"] = form.variant
        return form, report

    # the constant and zero stages read phi itself: its value at 0 fixes the form
    c = phi(zero_mat)
    if not c.is_zero:
        # constant branch: the value at 0, doubled for the diamond product,
        # must be idempotent and the map must take it everywhere.
        z = c if phi.mode == CIRC else c.scale(2)
        if not is_idempotent(z):
            reject("constant", "value at 0 is not compatible with squaring", zero_mat, culprit=z)
        return accept("constant", "map is not constant although its value at 0 is nonzero",
                      CanonicalForm.constant_form(z, n, mode=phi.mode))

    # a map into a smaller algebra never needs the circ adapter
    if phi.m == n:
        phic = diamond_to_circ(phi) if phi.mode == DIAMOND else phi
    if phi.m < n or phic(e11).is_zero:
        # zero branch: E_11 generates I under the circ product, so a vanishing
        # image there forces the whole map to vanish; a map into a smaller
        # algebra that vanishes at 0 must vanish everywhere.
        at = "0" if phi.m < n else "E_11"
        return accept("zero", f"map vanishes at {at} but not everywhere",
                      CanonicalForm.zero_form(f, n, mode=phi.mode, m=phi.m))

    # reconstruction: psi(E_i1) = t_i r_1 (psi(E_1i) when the map transposes)
    # for t_i column i of T and r_1 row 1 of T^-1, so column col of it is
    # r_1[col] t_i, where col is the first nonzero column of psi(E_11) = t_1 r_1.
    # Without a transpose psi(E_21) psi(E_11) = t_2 r_1 t_1 r_1 is t_2 r_1,
    # with one it is t_1 r_2 t_1 r_1 = 0.
    p11 = phic(e11)
    transpose = (phic(mat_unit(f, n, 2, 1)) @ p11).is_zero
    col = min(j for _, j in p11.support()) - 1
    images = [phic(mat_unit(f, n, 1, i) if transpose else mat_unit(f, n, i, 1))
              for i in range(1, n + 1)]
    t = Mat._from_raw(f, tuple(tuple(img.rows[r][col] for img in images) for r in range(n)))
    report["transpose"] = transpose

    # entrywise endomorphism: psi(g E_11) = w(g) psi(E_11), and a Frobenius
    # power is fixed by its value at a generator g of F_{p^k}^x; Q and F_p
    # have only the identity.
    omega = RingEndo(f)
    if f.kind == "galois":
        gen = f._exp[1]
        pg = phic(mat_unit(f, n, 1, 1, Scalar(f, gen)))
        omega = next((e for e in endo_enumerate(f)
                      if p11.scale(Scalar(f, e.apply_raw(gen))) == pg), omega)

    # the form check: psi must agree with the form at every unit and at lam
    # E_11 for the probes and their consecutive products and sums. At the
    # units this is a family of orthogonal rank-one idempotents, a uniform
    # orientation and chained scalings; on the line it is a scalar action
    # that is the endomorphism omega. A singular T fails it at E_11.
    probes = _probes(f, seed)
    line = list(probes)
    for a, b in zip(probes, probes[1:] + probes[:1]):
        line += [f.mul(a, b), f.add(a, b)]
    x = e11
    if t.rank() == n:
        form = CanonicalForm.conjugation_form(
            _normalize_t(t), omega=omega, transpose=transpose, mode=phi.mode
        )
        units = [mat_unit(f, n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        read = chain(units, (mat_unit(f, n, 1, 1, Scalar(f, raw)) for raw in dict.fromkeys(line)))
        x, _ = _first_mismatch(phic, form.evaluate, read)
    if x is not None:
        reject("endomorphism",
               "map disagrees with the reconstructed form at a unit or on the line through E_11",
               x, at_psi=True)
    report["stages"].append("endomorphism")
    report["omega"] = omega.describe()
    return accept("final", "map disagrees with the reconstructed form", form)


def forms_equivalent(a, b):
    """Do two canonical forms define the same map? Conjugation forms compare
    modulo scaling of T; everything else compares on the nose."""
    if (a.variant, a.field, a.n, a.m, a.mode) != (b.variant, b.field, b.n, b.m, b.mode):
        return False
    if a.variant == "zero":
        return True
    if a.variant == "constant_idempotent":
        return a.idempotent == b.idempotent
    if a.transpose != b.transpose or a.omega != b.omega:
        return False
    return isinstance(is_proportional(a.t, b.t), Scalar)


def classify_rectangular(phi, verification=None):
    """Classify a map M_n -> M_m with m < n: the only Jordan multiplicative
    maps are the constants at an idempotent (including zero)."""
    if phi.m >= phi.n:
        raise UnsupportedSize("rectangular classification needs m < n")
    return classify(phi, verification)


# -- preservation suite -------------------------------------------------------


@dataclass(frozen=True)
class ItemResult:
    item: str
    label: str
    ok: bool
    checked: int = 0
    skipped: str = None
    witness: tuple = None


@dataclass(frozen=True)
class SuiteReport:
    items: tuple
    probe_log: tuple

    @property
    def ok(self):
        return all(item.ok or item.skipped for item in self.items)

    def failing(self):
        return [item for item in self.items if not item.ok and not item.skipped]


def preservation_suite(phi, samples=20, seed=0):
    """Probe the structural consequences of Jordan multiplicativity on seeded
    random idempotents:

      (a) idempotents map to idempotents
      (b) domination P <= Q is preserved
      (c) orthogonality is preserved            [needs phi(0) = 0]
      (d) rank does not drop                    [needs phi(0) = 0, phi != 0]
      (e) rank is preserved exactly             [needs m = n as well]
      (f) complements map to complements        [same]
      (g) orthogonal sums split                 [same]
      (h) weighted orthogonal sums split        [same]

    Genuine Jordan multiplicative maps pass every non-skipped item; a failure
    is recorded with the witnessing inputs. The probe log lists every
    (item, role, input) consumed, so external harnesses can target them.
    """
    f, n = phi.field, phi.n
    if f.char2:
        raise UnsupportedInput("the preservation suite needs characteristic != 2")
    if n < 2:
        raise UnsupportedSize("the preservation suite needs n >= 2")
    rng = random.Random(seed)
    log = []
    items = []

    zero_ok = phi(mat_zero(f, n)).is_zero
    probe_units = [phi(mat_unit(f, n, j, j)) for j in range(1, n + 1)]
    looks_zero = zero_ok and all(u.is_zero for u in probe_units) and phi(
        mat_identity(f, n)
    ).is_zero
    square = phi.m == phi.n
    skip_cd = None
    if not zero_ok:
        skip_cd = "map does not vanish at 0"
    elif looks_zero:
        skip_cd = "map vanishes on all probes"
    skip_eh = skip_cd if skip_cd else (None if square else "codomain size differs")

    def family(widths):
        """Orthogonal idempotents of the given ranks, in order, under one
        seeded conjugation."""
        conj = conjugator(*random_invertible(f, n, rng))
        out, lo = [], 0
        for width in widths:
            out.append(conj(mat_diag_idempotent(f, n, lo, lo + width)))
            lo += width
        return out

    def run(item, label, skip, body):
        if skip:
            items.append(ItemResult(item, label, ok=True, skipped=skip))
            return
        witness, done = None, 0
        for _ in range(samples):
            done += 1
            witness = body()
            if witness is not None:
                break
        items.append(ItemResult(item, label, ok=witness is None,
                                checked=done, witness=witness))

    def body_a():
        (p,) = family([rng.randint(1, n)])
        log.append(("a", "P", p))
        fp = phi(p)
        return None if is_idempotent(fp) else (p, fp)

    def body_b():
        # P <= Q is drawn as P and Q = P + P' for an orthogonal pair
        # (P, P'); conjugation is linear, so Q is the conjugated diagonal
        # idempotent of rank r. The check is the raw circ identity: images
        # of a corrupted map need not be idempotent, and that case must
        # yield a witness, not an exception.
        r = rng.randint(1, n - 1)
        lo = rng.randint(1, r)
        p, rest = family([lo, r - lo])
        qq = p + rest
        log.append(("b", "P", p))
        log.append(("b", "Q", qq))
        fp = phi(p)
        return None if jordan_circ(fp, phi(qq)) == fp else (p, qq)

    def body_c():
        a = rng.randint(1, n - 1)
        b = rng.randint(1, n - a)
        p, qq = family([a, b])
        log.append(("c", "P", p))
        log.append(("c", "Q", qq))
        return None if jordan_circ(phi(p), phi(qq)).is_zero else (p, qq)

    def rank_body(item, holds):
        def body():
            rank = rng.randint(1, n)
            (p,) = family([rank])
            log.append((item, "P", p))
            fp = phi(p)
            return None if holds(fp.rank(), rank) else (p, fp)

        return body

    def body_f():
        (p,) = family([rng.randint(1, n - 1)])
        comp = mat_identity(f, n) - p
        log.append(("f", "P", p))
        log.append(("f", "P_perp", comp))
        ok = phi(comp) == mat_identity(f, n) - phi(p)
        return None if ok else (p, comp)

    def body_g():
        a = rng.randint(1, n - 1)
        b = rng.randint(1, n - a)
        p, qq = family([a, b])
        total = p + qq
        log.append(("g", "P", p))
        log.append(("g", "Q", qq))
        log.append(("g", "P+Q", total))
        ok = phi(total) == phi(p) + phi(qq)
        return None if ok else (p, qq)

    def body_h():
        count = rng.randint(2, n)
        parts, room = [], n
        for idx in range(count):
            width = rng.randint(1, room - (count - idx - 1))
            parts.append(width)
            room -= width
        members = family(parts)
        lams = []
        for _ in members:
            lam = Scalar(f, f.random_raw(rng))
            while lam.is_zero:
                lam = Scalar(f, f.random_raw(rng))
            lams.append(lam)
        combo = mat_zero(f, n)
        pieces = []
        for lam, p in zip(lams, members):
            piece = p.scale(lam)
            pieces.append(piece)
            combo = combo + piece
            log.append(("h", "lambda*P", piece))
        log.append(("h", "combo", combo))
        total = mat_zero(f, phi.m)
        for piece in pieces:
            total = total + phi(piece)
        return None if phi(combo) == total else (combo, tuple(pieces))

    run("a", "idempotents map to idempotents", None, body_a)
    run("b", "domination is preserved", None, body_b)
    run("c", "orthogonality is preserved", skip_cd, body_c)
    run("d", "rank does not drop", skip_cd, rank_body("d", operator.ge))
    run("e", "rank is preserved exactly", skip_eh, rank_body("e", operator.eq))
    run("f", "complements map to complements", skip_eh, body_f)
    run("g", "orthogonal sums split", skip_eh, body_g)
    run("h", "weighted orthogonal sums split", skip_eh, body_h)
    return SuiteReport(items=tuple(items), probe_log=tuple(log))
