"""Command-line front end.

Subcommands: certify (build an identity-reaching certificate), classify
(canonical form of a map), verify (replay a certificate, or check a form
against a map), counterexample (emit a hypothesis-sharpness bundle), suite
(run the acceptance criteria).

Every run emits one JSON report, on stdout or atomically to --out: the
command, input digests, strategy, outcome, timing and exit code. `suite`
also writes its [PASS|FAIL] ledger, one line per criterion, to stderr. Each
subcommand is a core `cmd_*(args, report) -> (exit_code, outcome)`; `_run`
builds the report around it. Exit codes: 0 success, 1 suite failure, 2 the
map is provably not Jordan multiplicative (witness included), 3 a
structural invariant broke with no witness pair found, 4 unsupported input.
Reports are deterministic for fixed inputs and seeds, except the timing
fields.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
import time

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
from .maps import CIRC, DIAMOND, JordanMap, _parse_strategy
from .matrices import Mat, random_invertible, random_mat
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
        return json.loads(data.decode("utf-8")), hashlib.sha256(data).hexdigest()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UnsupportedInput(f"{path} is not valid JSON: {exc}") from exc


def _write_atomic(path, text):
    """Write text to `path` via a same-directory temp file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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


def _run(args):
    """Run one subcommand: build the base report, call its core through
    `_attempt`, add outcome, timing and exit code, and write the report to
    stdout or --out. Returns the exit code."""
    t0 = time.monotonic()
    report = {"schema": SCHEMA, "command": args.command, "inputs": [], "seed": args.seed}
    code, outcome = _attempt(lambda: args.core(args, report))
    report["outcome"] = outcome
    report["timing_ms"] = int((time.monotonic() - t0) * 1000)
    report["exit_code"] = code
    text = dumps(report)
    if args.out:
        _write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return code


def cmd_certify(args, report):
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
        x = random_mat(field, args.n, rng)
        while x.is_zero:
            x = random_mat(field, args.n, rng)
    else:
        raise UnsupportedInput("certify needs --matrix FILE or --random")
    cert = certify_identity(x)
    return 0, {
        "status": "certified",
        "steps": len(cert),
        "step_bound": 3 + 6 * (x.nrows - 1),
        "start": mat_to_json(x),
        "certificate": certificate_to_json(cert),
    }


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


def cmd_classify(args, report):
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


def cmd_verify(args, report):
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
        strategy = _parse_strategy(args.verify or "exhaustive")
        report["strategy"] = strategy.describe()
        points = 0
        for x in _verification_points(phi, strategy):
            points += 1
            if phi(x) != form.evaluate(x):
                return 3, {"status": "mismatch", "at": mat_to_json(x), "points": points}
        return 0, {"status": "verified", "points": points}
    raise UnsupportedInput("verify needs --certificate FILE, or --form FILE with --map FILE")


def cmd_counterexample(args, report):
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
    return (0 if verified else 3), {
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


def cmd_suite(args, report):
    from . import suite  # imported here: suite imports this module

    results = suite.run_all(seed=args.seed)
    for res in results:
        sys.stderr.write(res.line() + "\n")
    passed = all(res.passed for res in results)
    return (0 if passed else 1), {
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
    c.set_defaults(core=cmd_certify)

    c = sub.add_parser("classify", help="canonical form of a Jordan-multiplicative map")
    c.add_argument("--map", help="path to a map-table JSON file")
    c.add_argument("--random", action="store_true", help="classify a random conjugation map")
    c.add_argument("--field", default="F5")
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--mode", choices=[CIRC, DIAMOND], default=CIRC)
    c.add_argument("--verify", help="exhaustive or sampled:COUNT:SEED")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(core=cmd_classify)

    c = sub.add_parser("verify", help="replay a certificate or check a form against a map")
    c.add_argument("--certificate", help="path to a certificate JSON file")
    c.add_argument("--form", help="path to a canonical-form JSON file")
    c.add_argument("--map", help="path to a map-table JSON file")
    c.add_argument("--verify", dest="verify", help="exhaustive or sampled:COUNT:SEED")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(core=cmd_verify)

    c = sub.add_parser("counterexample", help="emit a hypothesis-sharpness bundle")
    c.add_argument("--name", required=True, choices=["triangular", "char2", "block_embedding"])
    c.add_argument("--field", default="F5")
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(core=cmd_counterexample)

    c = sub.add_parser("suite", help="run the acceptance criteria")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(core=cmd_suite)
    return parser


def main(argv=None):
    return _run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
