"""JSON encodings for fields, scalars, matrices, certificates, map tables,
and canonical forms. Every top-level document carries "schema": "1".

Scalars encode as strings over Q and prime fields ("7/2", "3") and as
ascending coefficient arrays over galois fields ([2, 1] = 2 + x). Matrices
are row-major entry lists with explicit dimensions. Loaders also read JSON
integers as scalars, and refuse JSON booleans wherever a number is due. They
validate structure and raise UnsupportedInput on anything malformed.
"""

import functools
import json
import re
import sys
from fractions import Fraction

from .errors import UnsupportedInput
from .exact_fields import RingEndo, Scalar, galois_field, prime_field, rational_field
from .generation import Certificate
from .maps import CIRC, DIAMOND, JordanMap, _domain, _table_size
from .matrices import Mat

SCHEMA = "1"


def _need(obj, key, kinds=None):
    if not isinstance(obj, dict) or key not in obj:
        raise UnsupportedInput(f"missing key {key!r} in JSON object")
    value = obj[key]
    # JSON true and false are Python bools, which are ints: refuse them as such
    if kinds is not None and (not isinstance(value, kinds) or isinstance(value, bool)):
        raise UnsupportedInput(f"key {key!r} has unexpected type {type(value).__name__}")
    return value


def _check_schema(obj):
    if _need(obj, "schema") != SCHEMA:
        raise UnsupportedInput(f"unsupported schema version {obj.get('schema')!r}")


# -- fields --------------------------------------------------------------------


def field_to_json(field):
    if field.kind == "rational":
        return {"kind": "rational"}
    if field.kind == "prime":
        return {"kind": "prime", "p": field.p}
    return {"kind": "galois", "p": field.p, "k": field.k, "modulus": list(field.modulus)}


def field_from_json(obj):
    kind = _need(obj, "kind", str)
    if kind == "rational":
        return rational_field()
    if kind == "prime":
        return prime_field(_need(obj, "p", int))
    if kind == "galois":
        modulus = obj.get("modulus")
        if modulus is not None and not (
            isinstance(modulus, list) and all(type(c) is int for c in modulus)
        ):
            raise UnsupportedInput("key 'modulus' must be a list of integers")
        return galois_field(_need(obj, "p", int), _need(obj, "k", int), modulus)
    raise UnsupportedInput(f"unknown field kind {kind!r}")


# -- scalars and matrices --------------------------------------------------------


def scalar_to_json(s):
    f = s.field
    if f.kind == "galois":
        return f.coeffs(s.value)
    return str(s.value)


# the exponent of a Fraction string, as Fraction's own grammar reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _rational(obj):
    """Fraction(obj), refused unless str() writes its numerator and
    denominator back: at most `limit` digits each, Python's int-to-str cap
    (0, no cap, where Python has no getter). An exponent beyond 3 * limit is
    refused before Fraction scales by it: a mantissa of at most 2 * limit
    digits cannot bring both parts back under the cap."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    exponent = _EXPONENT.search(obj) if limit and isinstance(obj, str) else None
    if exponent and abs(int(exponent[1])) > 3 * limit:
        raise ValueError(f"exponent beyond {3 * limit}")
    value = Fraction(obj)
    big = max(abs(value.numerator), value.denominator)
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise ValueError(f"numerator or denominator beyond {limit} digits")
    return value


def _decode_raw(field, obj):
    """The raw value (see exact_fields) of one JSON scalar encoding, decoded
    once, accepting what `field.of` accepts. Q reads strings and integers as
    `_rational` does ("7/2", "-1", 3); F_p and F_{p^k} read them as `int`
    does, then reduce mod p; F_{p^k} also reads ascending coefficient lists.
    JSON booleans are refused, also inside a coefficient list."""
    galois = field.kind == "galois"
    prefix = "bad galois scalar encoding" if galois else "bad scalar encoding"
    try:
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            return _rational(obj) if field.kind == "rational" else int(obj) % field.p
        if galois and isinstance(obj, list) and not any(isinstance(c, bool) for c in obj):
            return field.of(obj)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UnsupportedInput(f"{prefix} {obj!r}: {exc}") from exc
    raise UnsupportedInput(f"{prefix} {obj!r}")


def _reader(field):
    """A reader of `{"n", "m", "entries"}` objects to raw rows over `field`.
    It remembers each hashable encoding under (type, value), so that 1, "1"
    and 1.0 stay apart; coefficient lists decode every time. A well-formed
    object is read without `_need`."""
    memo = {}

    def cached(obj):
        key = (type(obj), obj)
        try:
            return memo[key]
        except KeyError:
            raw = memo[key] = _decode_raw(field, obj)
            return raw
        except TypeError:
            return _decode_raw(field, obj)

    def read(obj):
        get = obj.get if type(obj) is dict else {}.get
        n, m, entries = get("n"), get("m"), get("entries")
        if not (type(n) is int and type(m) is int and type(entries) is list):
            n, m, entries = _need(obj, "n", int), _need(obj, "m", int), _need(obj, "entries", list)
        if n < 1 or m < 1 or len(entries) != n * m:
            raise UnsupportedInput(f"matrix claims {n}x{m} but carries {len(entries)} entries")
        # m references to one iterator: zip deals its values out m to a row
        return tuple(zip(*[map(cached, entries)] * m))

    return read


def mat_to_json(m):
    return {
        "n": m.nrows,
        "m": m.ncols,
        "entries": [scalar_to_json(Scalar(m.field, v)) for row in m.rows for v in row],
    }


def mat_from_json(field, obj):
    """The matrix of a `{"n", "m", "entries"}` object: each entry decoded
    once, straight to its raw value, and the raw rows kept as they are."""
    return Mat._from_raw(field, _reader(field)(obj))


# -- certificates ----------------------------------------------------------------


def certificate_to_json(cert):
    return {
        "schema": SCHEMA,
        "field": field_to_json(cert.field),
        "start": mat_to_json(cert.start),
        "steps": [
            {"y": mat_to_json(y), "result": mat_to_json(res)} for y, res in cert.steps
        ],
    }


def certificate_from_json(obj):
    _check_schema(obj)
    field = field_from_json(_need(obj, "field", dict))
    start = mat_from_json(field, _need(obj, "start", dict))
    steps = []
    for step in _need(obj, "steps", list):
        y = mat_from_json(field, _need(step, "y", dict))
        res = mat_from_json(field, _need(step, "result", dict))
        steps.append((y, res))
    return Certificate(start=start, steps=tuple(steps))


# -- map tables ------------------------------------------------------------------


def table_to_json(phi):
    if phi.body_kind != "table":
        raise UnsupportedInput("only table-backed maps serialize to map tables")
    entries = [
        {"x": mat_to_json(x), "fx": mat_to_json(phi(x))} for x in phi.domain_iter()
    ]
    out = {
        "schema": SCHEMA,
        "field": field_to_json(phi.field),
        "n": phi.n,
        "mode": phi.mode,
        "entries": entries,
    }
    if phi.domain != "full":
        out["domain"] = phi.domain
    return out


@functools.lru_cache(maxsize=8)
def _encodings(field, n, domain):
    """The raw rows of each domain matrix by the tuple of the entries that
    `mat_to_json` writes for it. Built for prime fields alone: their entries
    are strings, which equal no other JSON value."""
    return {tuple(mat_to_json(x)["entries"]): x.rows for x in _domain(field, n, domain)[0]}


def map_from_json(obj):
    """The table map of a map-table document. Every key and value is decoded
    to raw rows before `JordanMap._tabled` places any; no key becomes a `Mat`.

    Over a prime field, an n x n key or value whose entries are the ones
    `mat_to_json` writes for a domain matrix is that matrix: its raw rows are
    looked up in `_encodings`, not parsed. Any other spelling, and every
    F_{p^k} coefficient list, goes through the parser, so each refusal and its
    order stay those of the parser."""
    _check_schema(obj)
    field = field_from_json(_need(obj, "field", dict))
    n = _need(obj, "n", int)
    mode = _need(obj, "mode", str)
    if mode not in (CIRC, DIAMOND):
        raise UnsupportedInput(f"unknown product mode {mode!r}")
    domain = obj.get("domain", "full")
    size = _table_size(field, n, domain)
    entries = _need(obj, "entries", list)
    if len(entries) != size:
        raise UnsupportedInput(f"table lists {len(entries)} entries for {size} domain matrices")
    read = parse = _reader(field)
    if field.kind == "prime":
        known = _encodings(field, n, domain)

        def read(obj):
            get = obj.get
            rows, cols, values = get("n"), get("m"), get("entries")
            if type(rows) is type(cols) is int and rows == cols == n and type(values) is list:
                try:
                    return known[tuple(values)]
                except (KeyError, TypeError):  # not our encoding, or an unhashable entry
                    pass
            return parse(obj)

    def pair(entry):
        x, fx = (entry.get("x"), entry.get("fx")) if type(entry) is dict else (None, None)
        return (read(x if type(x) is dict else _need(entry, "x", dict)),
                read(fx if type(fx) is dict else _need(entry, "fx", dict)))

    return JordanMap._tabled(field, n, list(map(pair, entries)), mode, domain)


# -- endomorphisms and canonical forms --------------------------------------------


def endo_from_json(field, obj):
    kind = _need(obj, "kind", str)
    if kind == "identity":
        return RingEndo(field, 0)
    if kind == "frobenius":
        if not field.is_finite:
            raise UnsupportedInput("frobenius endomorphisms need a finite field")
        return RingEndo(field, _need(obj, "e", int))
    raise UnsupportedInput(f"unknown endomorphism kind {kind!r}")


def form_to_json(form):
    """The form's `describe()` (variant, mode, n, and m, ω and transpose
    where they apply) with the schema, the field and its T or idempotent."""
    out = {"schema": SCHEMA, **form.describe(), "field": field_to_json(form.field)}
    if form.variant == "constant_idempotent":
        out["idempotent"] = mat_to_json(form.idempotent)
    if form.variant == "conjugation":
        out["T"] = mat_to_json(form.t)
    return out


def form_from_json(obj):
    from .classifier import CanonicalForm

    _check_schema(obj)
    variant = _need(obj, "variant", str)
    mode = _need(obj, "mode", str)
    if mode not in (CIRC, DIAMOND):
        raise UnsupportedInput(f"unknown product mode {mode!r}")
    field = field_from_json(_need(obj, "field", dict))
    n = _need(obj, "n", int)
    if variant == "zero":
        m = _need(obj, "m", int) if "m" in obj else n
        if not 1 <= m <= n:
            raise UnsupportedInput(f"zero form needs 1 <= m <= n, got m={m}, n={n}")
        return CanonicalForm.zero_form(field, n, mode=mode, m=m)
    if variant == "constant_idempotent":
        idem = mat_from_json(field, _need(obj, "idempotent", dict))
        if not 1 <= idem.nrows <= n:
            raise UnsupportedInput(f"constant form needs 1 <= m <= n, got m={idem.nrows}, n={n}")
        return CanonicalForm.constant_form(idem, n, mode=mode)
    if variant == "conjugation":
        t = mat_from_json(field, _need(obj, "T", dict))
        if (t.nrows, t.ncols) != (n, n):
            raise UnsupportedInput(
                f"conjugation form needs an n x n T, got {t.nrows}x{t.ncols}, n={n}")
        omega = endo_from_json(field, _need(obj, "omega", dict))
        transpose = obj.get("transpose", False)
        if not isinstance(transpose, bool):
            raise UnsupportedInput(
                f"key 'transpose' has unexpected type {type(transpose).__name__}")
        try:
            return CanonicalForm.conjugation_form(t, omega=omega, transpose=transpose, mode=mode)
        except ValueError as exc:
            raise UnsupportedInput(f"conjugation form rejected: {exc}") from exc
    raise UnsupportedInput(f"unknown form variant {variant!r}")


def dumps(obj):
    """Canonical text for any of the JSON documents above: sorted keys,
    two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
