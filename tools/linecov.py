"""Which lines of the package's modules a command never ran.

    python3 tools/linecov.py [--src DIR] [--out FILE] -- -m pytest -q tests
    python3 tools/linecov.py [--src DIR] [--out FILE] -- SCRIPT [ARG ...]

Runs the command in this process, as `python3 -m MODULE ...` or
`python3 SCRIPT ...` would, with a line tracer on every thread
(`sys.settrace`, `threading.settrace`). The lines a module could run are
read from its code objects (`co_lines()`). When the command ends, stderr
gets each module under --src (default `src/jordanmaps`) with its count of
lines that never ran and their ranges; --out FILE writes them one per line
as `module:line: source`, sorted, so that two runs compare with `comm`.

Stdlib only. Tracing slows a command several times over, so a test with a
time bound can fail under it; the command's own output shows any failure,
and the tool exits with the command's status.
"""

import argparse
import os
import runpy
import sys
import threading
import traceback
from pathlib import Path


def _executable_lines(path):
    """Every line number some code object of the module at `path` maps an
    instruction to, nested functions and classes included."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(numbers):
    out, numbers = [], sorted(numbers)
    for i, n in enumerate(numbers):
        if i and n == numbers[i - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def _run(argv):
    """Run `argv` as the interpreter would; return its exit status."""
    sys.argv = list(argv)
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            sys.path.insert(0, os.getcwd())
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, str(Path(argv[0]).resolve().parent))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src/jordanmaps", help="package directory to report on")
    parser.add_argument("--out", help="write the lines that never ran here, one per line")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- -m MODULE ... or -- SCRIPT ...")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    src = Path(args.src).resolve()
    modules = {str(p): p for p in sorted(src.rglob("*.py"))}
    hits = {name: set() for name in modules}
    by_filename = {}  # co_filename as imported -> its hit set, or None

    def local(frame, event, arg):
        if event == "line":
            by_filename[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package get a local tracer; the rest run untraced
        name = frame.f_code.co_filename
        if name not in by_filename:
            by_filename[name] = hits.get(os.path.realpath(name))
        return local if by_filename[name] is not None else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = _run(command)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    listing, total, total_missed = [], 0, 0
    for name, path in modules.items():
        executable = _executable_lines(path)
        missed = executable - hits[name]
        total += len(executable)
        total_missed += len(missed)
        rel = os.path.relpath(path, src.parent)
        text = path.read_text().splitlines()
        listing += [f"{rel}:{n}: {text[n - 1].strip()}" for n in sorted(missed)]
        print(f"{rel}: {len(missed)} of {len(executable)} never ran"
              + (f": {_ranges(missed)}" if missed else ""), file=sys.stderr)
    print(f"total: {total_missed} of {total} lines never ran; command exited {status}",
          file=sys.stderr)
    if args.out:
        Path(args.out).write_text("".join(line + "\n" for line in sorted(listing)))
    return status


if __name__ == "__main__":
    sys.exit(main())
