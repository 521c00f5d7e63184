"""Command-line front end.

Subcommands: certify (build an identity-reaching certificate), classify
(canonical form of a map), verify (replay a certificate, or check a form
against a map), counterexample (emit a hypothesis-sharpness bundle), suite
(run the acceptance criteria).

Every run emits a JSON report (stdout, or --out with an atomic write): the
command, input digests, strategy, outcome, and timing. Exit codes: 0 success,
1 suite failure, 2 the map is provably not Jordan multiplicative (witness
included), 3 a structural invariant broke with no witness pair found, 4
unsupported input. Reports are deterministic for fixed inputs and seeds,
except the timing fields.
"""

import argparse
import json
import random
import sys
import time

from ._util import atomic_write_text, sha256_digest
from .classifier import (
    CanonicalForm,
    _verification_points,
    classify_rectangular,
    classify_with_report,
    forms_equivalent,
)
from .errors import (
    InvariantViolation,
    NotJordanMultiplicative,
    UnsupportedInput,
    UnsupportedSize,
)
from .exact_fields import RingEndo, Scalar, preset_field
from .generation import certify_identity, replay
from .maps import CIRC, DIAMOND, JordanMap, Strategy, _parse_strategy
from .matrices import Mat, random_invertible
from .counterexamples import (
    block_embedding_example,
    char2_example,
    triangular_example,
)
from .serialization import (
    SCHEMA,
    certificate_from_json,
    certificate_to_json,
    dumps,
    field_to_json,
    form_from_json,
    form_to_json,
    map_from_json,
    mat_from_json,
    mat_to_json,
    scalar_to_json,
)


def _read_json(path):
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise UnsupportedInput(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8")), sha256_digest(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UnsupportedInput(f"{path} is not valid JSON: {exc}") from exc


def _json_safe(obj):
    """Best-effort JSON encoding for witnesses and culprits."""
    if isinstance(obj, Mat):
        return mat_to_json(obj)
    if isinstance(obj, Scalar):
        return scalar_to_json(obj)
    if isinstance(obj, (tuple, list)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


def _attempt(core):
    """Run `core` (returns (exit_code, outcome dict)); map errors to the
    documented exit codes with structured outcomes."""
    try:
        return core()
    except NotJordanMultiplicative as exc:
        return 2, {
            "status": "not_jordan_multiplicative",
            "detail": exc.detail,
            "witness": _json_safe(exc.witness),
        }
    except InvariantViolation as exc:
        return 3, {
            "status": "invariant_violation",
            "stage": exc.stage,
            "detail": exc.detail,
            "culprit": _json_safe(exc.witness),
        }
    except (UnsupportedInput, UnsupportedSize, ValueError) as exc:
        return 4, {"status": "unsupported", "detail": str(exc)}


def _emit(args, report, code):
    report["exit_code"] = code
    text = dumps(report)
    if getattr(args, "out", None):
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return code


def _base_report(command, args):
    report = {"schema": SCHEMA, "command": command, "inputs": []}
    if getattr(args, "seed", None) is not None:
        report["seed"] = args.seed
    return report


def cmd_certify(args):
    t0 = time.monotonic()
    report = _base_report("certify", args)

    def core():
        field = preset_field(args.field)
        report["field"] = field_to_json(field)
        if args.matrix:
            obj, digest = _read_json(args.matrix)
            report["inputs"].append({"path": args.matrix, "sha256": digest})
            x = mat_from_json(field, obj)
            if not x.is_square:
                raise UnsupportedInput("certificates need a square matrix")
        elif args.random:
            rng = random.Random(args.seed)
            n = args.n
            x = Mat._from_raw(
                field,
                tuple(tuple(field.random_raw(rng) for _ in range(n)) for _ in range(n)),
            )
            while x.is_zero:
                x = Mat._from_raw(
                    field,
                    tuple(tuple(field.random_raw(rng) for _ in range(n)) for _ in range(n)),
                )
        else:
            raise UnsupportedInput("certify needs --matrix FILE or --random")
        cert = certify_identity(x)
        outcome = {
            "status": "certified",
            "steps": len(cert),
            "step_bound": 3 + 6 * (x.nrows - 1),
            "start": mat_to_json(x),
            "certificate": certificate_to_json(cert),
        }
        return 0, outcome

    code, outcome = _attempt(core)
    report["outcome"] = outcome
    report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    return _emit(args, report, code)


def _load_or_random_map(args, report):
    if args.map:
        obj, digest = _read_json(args.map)
        report["inputs"].append({"path": args.map, "sha256": digest})
        phi = map_from_json(obj)
        report["field"] = field_to_json(phi.field)
        return phi, None
    if args.random:
        field = preset_field(args.field)
        report["field"] = field_to_json(field)
        rng = random.Random(args.seed)
        mode = args.mode
        if field.char2:
            raise UnsupportedInput("random structured maps need characteristic != 2")
        t, t_inv = random_invertible(field, args.n, rng)
        e = rng.randrange(field.k) if field.kind == "galois" else 0
        endo = RingEndo(field, e)
        transpose = bool(rng.getrandbits(1))
        phi = JordanMap.conjugation(t, endo=endo, transpose=transpose, mode=mode, t_inv=t_inv)
        planted = CanonicalForm.conjugation_form(t, omega=endo, transpose=transpose, mode=mode)
        report["random_map"] = {
            "t": mat_to_json(t),
            "omega": {"kind": "identity"} if endo.is_identity else {"kind": "frobenius", "e": e},
            "transpose": transpose,
            "mode": mode,
        }
        return phi, planted
    raise UnsupportedInput("classify needs --map FILE or --random")


def cmd_classify(args):
    t0 = time.monotonic()
    report = _base_report("classify", args)

    def core():
        phi, planted = _load_or_random_map(args, report)
        strategy = _parse_strategy(args.verify) if args.verify else None
        if strategy is not None:
            report["strategy"] = strategy.describe()
        if phi.m < phi.n:
            form = classify_rectangular(phi, strategy)
            detail = {"variant": form.variant, "rectangular": True}
        else:
            form, detail = classify_with_report(phi, strategy)
        outcome = {"status": "classified", "form": form_to_json(form), "report": detail}
        if planted is not None:
            outcome["roundtrip"] = forms_equivalent(form, planted)
        return 0, outcome

    code, outcome = _attempt(core)
    report["outcome"] = outcome
    report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    return _emit(args, report, code)


def cmd_verify(args):
    t0 = time.monotonic()
    report = _base_report("verify", args)

    def core():
        if args.certificate:
            obj, digest = _read_json(args.certificate)
            report["inputs"].append({"path": args.certificate, "sha256": digest})
            cert = certificate_from_json(obj)
            report["field"] = field_to_json(cert.field)
            result = replay(cert)
            if result:
                return 0, {"status": "verified", "steps": len(cert)}
            return 3, {
                "status": "invalid_certificate",
                "failed_step": result.failed_step,
                "reason": result.reason,
            }
        if args.form and args.map:
            form_obj, form_digest = _read_json(args.form)
            report["inputs"].append({"path": args.form, "sha256": form_digest})
            form = form_from_json(form_obj)
            map_obj, map_digest = _read_json(args.map)
            report["inputs"].append({"path": args.map, "sha256": map_digest})
            phi = map_from_json(map_obj)
            report["field"] = field_to_json(phi.field)
            if (form.field, form.n, form.mode) != (phi.field, phi.n, phi.mode):
                raise UnsupportedInput("form and map disagree on field, size, or mode")
            strategy = _parse_strategy(args.verify) if args.verify else Strategy.exhaustive()
            report["strategy"] = strategy.describe()
            points = 0
            for x in _verification_points(phi, strategy):
                points += 1
                if phi(x) != form.evaluate(x):
                    return 3, {"status": "mismatch", "at": mat_to_json(x), "points": points}
            return 0, {"status": "verified", "points": points}
        raise UnsupportedInput("verify needs --certificate FILE, or --form FILE with --map FILE")

    code, outcome = _attempt(core)
    report["outcome"] = outcome
    report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    return _emit(args, report, code)


def cmd_counterexample(args):
    t0 = time.monotonic()
    report = _base_report("counterexample", args)

    def core():
        name = args.name
        if name == "triangular":
            bundle = triangular_example(preset_field(args.field), n=args.n)
        elif name == "char2":
            bundle = char2_example(n=args.n)
        elif name == "block_embedding":
            bundle = block_embedding_example(preset_field(args.field), n=args.n)
        else:
            raise UnsupportedInput(f"unknown counterexample {name!r}")
        report["field"] = field_to_json(bundle.map.field)
        verified = bundle.verify()
        outcome = {
            "status": "verified" if verified else "broken",
            "name": bundle.name,
            "description": bundle.description,
            "mode": bundle.map.mode,
            "evidence": {
                "qualifier": bundle.evidence.qualifier,
                "pairs_checked": bundle.evidence.pairs_checked,
                "ok": bundle.evidence.ok,
            },
            "non_additivity": _json_safe(bundle.non_additivity),
            "non_constancy": _json_safe(bundle.non_constancy),
            "extra": _json_safe(bundle.extra),
        }
        return (0 if verified else 3), outcome

    code, outcome = _attempt(core)
    report["outcome"] = outcome
    report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    return _emit(args, report, code)


def cmd_suite(args):
    from .suite import run_all

    t0 = time.monotonic()
    report = _base_report("suite", args)
    results = run_all(seed=args.seed)
    for res in results:
        sys.stdout.write(res.line() + "\n")
    passed = all(res.passed for res in results)
    report["outcome"] = {
        "status": "passed" if passed else "failed",
        "criteria": [
            {
                "name": res.name,
                "passed": res.passed,
                "detail": res.detail,
                "elapsed_s": round(res.elapsed_s, 3),
                "limit_s": res.limit_s,
            }
            for res in results
        ],
    }
    report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    code = 0 if passed else 1
    report["exit_code"] = code
    text = dumps(report)
    if args.out:
        atomic_write_text(args.out, text)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jordanmaps",
        description="exact certificates and classification for Jordan-product-preserving matrix maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="chain a nonzero matrix to the identity")
    c.add_argument("--field", default="Q", help="field preset (Q, F3, F5, F9, p:<p>, gf:<p>:<k>)")
    c.add_argument("--n", type=int, default=3, help="matrix size for --random")
    c.add_argument("--matrix", help="path to a matrix JSON file")
    c.add_argument("--random", action="store_true", help="certify a random nonzero matrix")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", help="write the report here (atomic)")
    c.set_defaults(fn=cmd_certify)

    c = sub.add_parser("classify", help="canonical form of a Jordan-multiplicative map")
    c.add_argument("--map", help="path to a map-table JSON file")
    c.add_argument("--random", action="store_true", help="classify a random conjugation map")
    c.add_argument("--field", default="F5")
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--mode", choices=[CIRC, DIAMOND], default=CIRC)
    c.add_argument("--verify", help="exhaustive or sampled:COUNT:SEED")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_classify)

    c = sub.add_parser("verify", help="replay a certificate or check a form against a map")
    c.add_argument("--certificate", help="path to a certificate JSON file")
    c.add_argument("--form", help="path to a canonical-form JSON file")
    c.add_argument("--map", help="path to a map-table JSON file")
    c.add_argument("--verify", dest="verify", help="exhaustive or sampled:COUNT:SEED")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_verify)

    c = sub.add_parser("counterexample", help="emit a hypothesis-sharpness bundle")
    c.add_argument("--name", required=True, choices=["triangular", "char2", "block_embedding"])
    c.add_argument("--field", default="F5")
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_counterexample)

    c = sub.add_parser("suite", help="run the acceptance criteria")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_suite)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
