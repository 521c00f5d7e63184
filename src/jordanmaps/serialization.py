"""JSON encodings for fields, scalars, matrices, certificates, map tables,
and canonical forms. Every top-level document carries "schema": "1".

Scalars encode as strings over Q and prime fields ("7/2", "3") and as
ascending coefficient arrays over galois fields ([2, 1] = 2 + x). Matrices
are row-major entry lists with explicit dimensions. Loaders also read JSON
integers as scalars, and refuse JSON booleans wherever a number is due. They
validate structure and raise UnsupportedInput on anything malformed.
"""

import json
from fractions import Fraction
from functools import partial

from .errors import UnsupportedInput
from .exact_fields import Field, RingEndo, Scalar
from .generation import Certificate
from .maps import CIRC, DIAMOND, JordanMap, _table_size
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
        return Field("rational")
    if kind == "prime":
        return Field("prime", p=_need(obj, "p", int))
    if kind == "galois":
        modulus = obj.get("modulus")
        if modulus is not None and not (
            isinstance(modulus, list) and all(type(c) is int for c in modulus)
        ):
            raise UnsupportedInput("key 'modulus' must be a list of integers")
        return Field("galois", p=_need(obj, "p", int), k=_need(obj, "k", int), modulus=modulus)
    raise UnsupportedInput(f"unknown field kind {kind!r}")


# -- scalars and matrices --------------------------------------------------------


def scalar_to_json(s):
    f = s.field
    if f.kind == "galois":
        return f.coeffs(s.value)
    return str(s.value)


def _decode_raw(field, obj):
    """The raw value (see exact_fields) of one JSON scalar encoding, decoded
    once, accepting what `field.of` accepts. Q reads strings and integers as
    `Fraction` does ("7/2", "-1", 3); F_p and F_{p^k} read them as `int`
    does, then reduce mod p; F_{p^k} also reads ascending coefficient lists.
    JSON booleans are refused, also inside a coefficient list."""
    galois = field.kind == "galois"
    prefix = "bad galois scalar encoding" if galois else "bad scalar encoding"
    try:
        if isinstance(obj, (str, int)) and not isinstance(obj, bool):
            return Fraction(obj) if field.kind == "rational" else int(obj) % field.p
        if galois and isinstance(obj, list) and not any(isinstance(c, bool) for c in obj):
            return field.of(obj)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UnsupportedInput(f"{prefix} {obj!r}: {exc}") from exc
    raise UnsupportedInput(f"{prefix} {obj!r}")


def _memoized(decode):
    """`decode` remembering each hashable encoding under (type, value), so
    that 1, "1" and 1.0 stay apart; coefficient lists decode every time."""
    memo = {}

    def cached(obj):
        key = (type(obj), obj)
        try:
            return memo[key]
        except KeyError:
            raw = memo[key] = decode(obj)
            return raw
        except TypeError:
            return decode(obj)

    return cached


def scalar_from_json(field, obj):
    return Scalar(field, _decode_raw(field, obj))


def mat_to_json(m):
    return {
        "n": m.nrows,
        "m": m.ncols,
        "entries": [scalar_to_json(Scalar(m.field, v)) for row in m.rows for v in row],
    }


def mat_from_json(field, obj, decode=None):
    """The matrix of a `{"n", "m", "entries"}` object. Each entry is decoded
    once, straight to its raw value, by `decode` (default: `_decode_raw`
    over `field`), and the raw rows become the matrix as they are."""
    n = _need(obj, "n", int)
    m = _need(obj, "m", int)
    entries = _need(obj, "entries", list)
    if n < 1 or m < 1 or len(entries) != n * m:
        raise UnsupportedInput(f"matrix claims {n}x{m} but carries {len(entries)} entries")
    # m references to one iterator: zip deals its entries out m to a row
    raw = [map(decode or partial(_decode_raw, field), entries)] * m
    return Mat._from_raw(field, tuple(zip(*raw)))


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


def map_from_json(obj):
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
    # a table repeats few encodings ("0", "1", ...): each is decoded once
    decode = _memoized(partial(_decode_raw, field))
    pairs = [
        (
            mat_from_json(field, _need(entry, "x", dict), decode),
            mat_from_json(field, _need(entry, "fx", dict), decode),
        )
        for entry in entries
    ]
    return JordanMap.from_table(field, n, pairs, mode=mode, domain=domain)


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
    out = {
        "schema": SCHEMA,
        "variant": form.variant,
        "mode": form.mode,
        "field": field_to_json(form.field),
        "n": form.n,
    }
    if form.m != form.n:
        out["m"] = form.m
    if form.variant == "constant_idempotent":
        out["idempotent"] = mat_to_json(form.idempotent)
    if form.variant == "conjugation":
        out["T"] = mat_to_json(form.t)
        out["omega"] = form.omega.describe()
        out["transpose"] = form.transpose
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
