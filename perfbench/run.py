"""Benchmark of jordanmaps: four workloads, each run in a closed loop by a
single caller on one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
A run sets up SETUP_REPS times (the import once, then fields, seeded inputs
and a warm-up pass that runs the first operation of each kind and so fills
the product-table cache), then repeats whole rounds of the workload's
operations until --seconds have passed. Every output is judged by the
reference checks in reference.py.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics of tracing.py, per operation, with --trace 1. Details go to stderr
and to .perfbench/ in the checkout. `--workload all` runs the four workloads
in turn, each in a process of its own, and prints a table before the JSON.

Times are scaled to a machine of fixed speed. The machines this
runs on are shared: their speed drops to about half and back within
milliseconds, for seconds at a time, as other tenants' load comes and goes,
and two runs of the same code differ by 25% in raw ops/s. So a fixed piece
of pure-Python work (the probe) runs between consecutive operations, and an
operation's time is its wall time times PROBE_REFERENCE_MS over the mean of
the probes around it; its time in the run is the median over the rounds.
Probes also run between the steps of set-up, which is scaled the same way.
See README.md for the measurements behind this.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 3
WORKLOAD_NAMES = ("exhaustive_tables", "sampled_classify", "reject_witness", "certify_replay")

# about the probe's time at full speed on the 2-core Xeon VM the benchmark
# was built on; scaled times are milliseconds on a machine with this probe time
PROBE_REFERENCE_MS = 0.22
PROBE_WINDOW_NS = 5_000_000

# per-layer metric -> (source, key): a count (span calls, or a counter of
# tracing.py), a span's self time, or a counter of nanoseconds
LAYER_METRICS = {
    "exact_fields.field_eq_calls": ("count", "exact_fields.field_eq"),
    "exact_fields.mul_calls": ("count", "exact_fields.mul"),
    "exact_fields.add_calls": ("count", "exact_fields.add"),
    "matrices.matmul_calls": ("count", "matrices.matmul"),
    "matrices.matmul_ms": ("ms", "matrices.matmul"),
    "matrices.inverse_calls": ("count", "matrices.inverse"),
    "matrices.inverse_ms": ("ms", "matrices.inverse"),
    "matrices.jordan_calls": ("count", "matrices.jordan"),
    "matrices.jordan_ms": ("ms", "matrices.jordan"),
    "maps.check_calls": ("count", "maps.check"),
    "maps.check_ms": ("ms", "maps.check"),
    "maps.pairs_checked": ("count", "maps.pairs_checked"),
    "maps.table_builds": ("count", "maps.table_builds"),
    "maps.table_build_ms": ("count_ms", "maps.table_build_ns"),
    "maps.eval_calls": ("count", "maps.eval"),
    "maps.eval_ms": ("ms", "maps.eval"),
    "jordan_order.diagonalizer_ms": ("ms", "jordan_order.diagonalizer"),
    "classifier.classify_ms": ("ms", "classifier.classify"),
    "classifier.points_checked": ("count", "classifier.points_checked"),
    "classifier.suite_ms": ("ms", "classifier.suite"),
    "classifier.reject_calls": ("count", "classifier.reject"),
    "classifier.reject_ms": ("ms", "classifier.reject"),
    "generation.certify_ms": ("ms", "generation.certify"),
    "generation.replay_ms": ("ms", "generation.replay"),
    "generation.steps": ("count", "generation.steps"),
    "counterexamples.bundle_ms": ("ms", "counterexamples.bundle"),
    "serialization.decode_ms": ("ms", "serialization.decode"),
    "serialization.encode_ms": ("ms", "serialization.encode"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must lie in (0, 600]")
    return args


def make_probe(ref):
    """Wall time in ms of a fixed piece of pure-Python work: twelve products
    of a 4x4 matrix over F_7 in the reference arithmetic."""
    field = ref.RefField("F7")
    a = tuple(tuple((3 * i + j) % 7 for j in range(4)) for i in range(4))

    def probe():
        start = time.perf_counter_ns()
        for _ in range(12):
            ref.matmul(field, a, a)
        return (time.perf_counter_ns() - start) / 1e6

    return probe


def scale(probe_at, probe_ms, spans):
    """Each (start ns, end ns) span's wall time in ms, scaled to the reference
    probe time by the mean probe within a window around it: the probes on
    either side of a short span, and as many as lie within its own length
    before and after a long one."""
    sums = [0.0, *accumulate(probe_ms)]
    out = []
    for start, end in spans:
        reach = max(end - start, PROBE_WINDOW_NS)
        lo = bisect_left(probe_at, start - reach)
        hi = bisect_right(probe_at, end + reach)
        out.append((end - start) / 1e6 * PROBE_REFERENCE_MS * (hi - lo) / (sums[hi] - sums[lo]))
    return out


def layer_values(counts, self_ms, per):
    out = {}
    for metric, (source, key) in LAYER_METRICS.items():
        if source == "ms":
            value, unit = self_ms[key] / per, "ms/op"
        elif source == "count_ms":
            value, unit = counts[key] / 1e6 / per, "ms/op"
        else:
            value, unit = counts[key] / per, "count/op"
        out[metric] = {"value": value, "unit": unit}
    return out


def percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[rank - 1]


def run_workload(args):
    if not (SRC / "jordanmaps" / "__init__.py").is_file():
        print(f"perfbench: no jordanmaps sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reference
    import tracing
    import workloads

    probe = make_probe(reference)
    probe_at, probe_ms = [], []  # midpoint (ns) and length (ms) of each probe

    def take_probe():
        start = time.perf_counter_ns()
        probe_ms.append(probe())
        probe_at.append((start + time.perf_counter_ns()) / 2)

    take_probe()
    start = time.perf_counter_ns()
    import jordanmaps
    import jordanmaps.serialization

    import_span = (start, time.perf_counter_ns())
    take_probe()
    if Path(jordanmaps.__file__).resolve().parent != SRC / "jordanmaps":
        print(f"perfbench: imported jordanmaps from {jordanmaps.__file__}", file=sys.stderr)
        return 2

    build = workloads.WORKLOADS[args.workload]
    table_cache = jordanmaps.maps._product_table
    tracer = tracing.install(jordanmaps) if args.trace else None
    wrong = Counter()

    def judge(op, out, err):
        verdict = op.judge(out, err)
        if verdict == workloads.FAILED and not isinstance(err, jordanmaps.JordanMapsError):
            traceback.print_exception(err, file=sys.stderr)
        elif verdict is not None and verdict != workloads.FAILED:
            wrong[f"{op.kind}: {verdict}"] += 1
        return verdict

    def call(op):
        out = err = None
        start = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # judged by the caller: a fault of the program
            err = exc
        return out, err, start, time.perf_counter_ns()

    # set-up; a traced run reports no set-up time and sets up once
    setup_spans = []  # per set-up: building the inputs, then each warm-up call
    for _ in range(1 if tracer else SETUP_REPS):
        start = time.perf_counter_ns()
        table_cache.cache_clear()
        if tracer:
            tracer.reset()
        ops = build(jordanmaps, args.seed)
        spans = [(start, time.perf_counter_ns())]
        take_probe()
        warmed = set()
        for op in ops:
            if op.kind not in warmed:
                warmed.add(op.kind)
                out, err, start, end = call(op)
                spans.append((start, end))
                take_probe()
                judge(op, out, err)
        setup_spans.append(spans)
    if tracer:
        setup_counts = tracer.snapshot()[0]
        tracer.reset()

    gc.collect()
    runs = []  # (op index, start ns, end ns, layer deltas) of each operation run
    failing = [False] * len(ops)
    rounds = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        take_probe()
        for index, op in enumerate(ops):
            if tracer:
                before = tracer.snapshot()
            out, err, start, end = call(op)
            take_probe()
            deltas = None
            if tracer:
                counts, self_ns = tracer.snapshot()
                deltas = (counts - before[0], self_ns - before[1])
            runs.append((index, start, end, deltas))
            if judge(op, out, err) == workloads.FAILED:
                failing[index] = True
                failed += 1
        rounds += 1
        if time.perf_counter() >= deadline:
            break

    raw = [[] for _ in ops]  # wall ms of each run of each operation
    scaled = [[] for _ in ops]  # the same, scaled to the reference probe time
    layer_counts = {}  # kind -> Counter of span calls and of counters
    layer_ms = {}  # kind -> Counter of span self time, scaled
    run_ms = scale(probe_at, probe_ms, [(start, end) for _, start, end, _ in runs])
    for (index, start, end, deltas), ms in zip(runs, run_ms):
        raw[index].append((end - start) / 1e6)
        scaled[index].append(ms)
        if deltas:
            factor = ms / raw[index][-1]
            kind = ops[index].kind
            layer_counts.setdefault(kind, Counter()).update(deltas[0])
            layer_ms.setdefault(kind, Counter()).update(
                {k: v * factor / 1e6 for k, v in deltas[1].items()})
    import_ms = scale(probe_at, probe_ms, [import_span])[0]
    setup_ms = [sum(scale(probe_at, probe_ms, spans)) for spans in setup_spans]
    setup_raw_s = [sum(end - start for start, end in spans) / 1e9 for spans in setup_spans]

    attempted = rounds * len(ops)
    op_ms = [statistics.median(ms) for ms in scaled]
    all_scaled = sorted(v for ms in scaled for v in ms)
    tail_q = 99 if attempted >= 1000 else 90 if attempted >= 100 else None
    kinds = {}
    for op, ms in zip(ops, op_ms):
        kinds.setdefault(op.kind, []).append(ms)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "raw_import_s": (import_span[1] - import_span[0]) / 1e9,
        "raw_setup_reps_s": setup_raw_s,
        "setup_reps_s": [ms / 1000 for ms in setup_ms],
        "raw_ops_per_s": (attempted - failed) / (sum(map(sum, raw)) / 1000),
        "raw_median_ms": statistics.median(v for ms in raw for v in ms),
        "tail": None if tail_q is None else {
            "percentile": tail_q, "scaled_ms": percentile(all_scaled, tail_q),
            "samples": attempted},
        "kinds": {kind: {"ops": len(ms), "median_ms": statistics.median(ms)}
                  for kind, ms in sorted(kinds.items())},
        "wrong": dict(wrong),
        # each operation of the round, fastest first
        "round_profile": sorted((ms, op.kind, fail) for ms, op, fail in zip(op_ms, ops, failing)),
    }
    end_to_end = {
        "ops_per_s": {"value": (len(ops) - sum(failing)) / (sum(op_ms) / 1000), "unit": "1/s"},
        # an operation that failed misses any latency limit
        "latency_p50_ms": {
            "value": statistics.median(
                float("inf") if fail else ms for ms, fail in zip(op_ms, failing)),
            "unit": "ms"},
        "setup_s": {"value": (import_ms + statistics.median(setup_ms)) / 1000, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    metrics = end_to_end
    if tracer:
        details["end_to_end_traced"] = end_to_end
        total_counts, total_ms = Counter(), Counter()
        for kind in layer_counts:
            total_counts.update(layer_counts[kind])
            total_ms.update(layer_ms[kind])
        metrics = layer_values(total_counts, total_ms, attempted)
        setup = layer_values(setup_counts, Counter(), 1)
        metrics["maps.setup_table_builds"] = {
            "value": setup["maps.table_builds"]["value"], "unit": "count/setup"}
        metrics["maps.setup_table_build_ms"] = {
            "value": setup["maps.table_build_ms"]["value"], "unit": "ms/setup"}
        details["per_kind"] = {
            kind: layer_values(layer_counts[kind], layer_ms[kind], rounds * len(kinds[kind]))
            for kind in sorted(layer_counts)
        }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}

    for line in wrong:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{failed} failed", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    name = f"{'trace' if tracer else 'result'}-{args.workload}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps({**result, "details": details}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a process of its own, one after the other."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Field and Mat hashes include strings: one hash seed gives every run
        # the same dict layouts
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
