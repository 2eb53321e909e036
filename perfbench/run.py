#!/usr/bin/env python3
"""Builds and runs the DynaQ end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload star_websearch --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all                 # every workload in turn
    python3 perfbench/run.py --self-test                    # the benchmark's own tests

Run from anywhere inside a checkout of the repository: the benchmark
compiles the library from ../src into .bench_build/perfbench at the checkout
root (a Release build), runs one workload in a child process, forwards its
output, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status: 0 when every output check passed, 1 when a check failed or the
program could not be built or run, 2 on a bad command line.
"""

import fcntl
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("star_websearch", "fabric_mixed", "static_manyflows")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175
MAX_BUILD_JOBS = 4  # each compiler process of the -O3 build needs a few hundred MB


class UsageError(Exception):
    """A malformed command line; the message starts with the flag's name."""


def _uint(flag, text):
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
        raise UsageError(f"--{flag}: {text!r} is not a non-negative integer")
    return int(text)


def _positive(flag, text, limit):
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not (0 < value <= limit) or not re.fullmatch(r"[0-9.eE+-]+", text):
        raise UsageError(f"--{flag}: {text!r} is not a positive number (at most {limit:g})")
    return value


def _workload(flag, text):
    if text != "all" and text not in WORKLOADS:
        raise UsageError(f"--{flag}: unknown workload {text!r}; expected one of: "
                         + " ".join(WORKLOADS + ("all",)))
    return text


def _trace(flag, text):
    if text not in ("0", "1"):
        raise UsageError(f"--{flag}: {text!r} is not 0 or 1")
    return text == "1"


FLAGS = {
    "workload": _workload,
    "seed": _uint,
    "seconds": lambda f, t: _positive(f, t, 3600),
    "trace": _trace,
}


def parse_args(argv):
    """Strict parsing: --name=value or --name value; unknown flags are errors."""
    args = {"workload": None, "seed": 1, "seconds": 10.0, "trace": False, "self_test": False}
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--self-test":
            args["self_test"] = True
            continue
        if not arg.startswith("--") or arg == "--":
            raise UsageError(f"{arg!r}: unexpected argument")
        name, eq, value = arg[2:].partition("=")
        if name not in FLAGS:
            raise UsageError(f"--{name}: unknown flag")
        if not eq:
            if i >= len(argv):
                raise UsageError(f"--{name}: missing value")
            value = argv[i]
            i += 1
        args[name] = FLAGS[name](name, value)
    if args["workload"] is None and not args["self_test"]:
        raise UsageError("--workload: required")
    return args


def source_rev():
    """Git revision when the checkout is a git repository, plus a digest of
    the sources the benchmark builds (a checkout need not be a repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    rev = "nogit"
    if (ROOT / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    return f"{rev}+src.{digest.hexdigest()[:16]}"


def build(target):
    """Configures once and (re)builds `target`; build logs go to stderr on failure."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *generator,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = min(os.cpu_count() or 1, MAX_BUILD_JOBS)
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target", target, "-j", str(jobs)])
        for step in steps:
            out = subprocess.run(step, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                return False
    return True


def run_workload(workload, args, rev):
    """Runs one workload in a child process, forwarding its output. Returns
    (exit code, parsed result line or None)."""
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", workload, "--seed", str(args["seed"]),
           "--seconds", repr(args["seconds"]), "--trace", "1" if args["trace"] else "0",
           "--rev", rev]
    if args["trace"]:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args['seed']}.json")]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s\n")
        return 1, None
    lines = out.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out.stdout)
        sys.stderr.write(f"run.py: {workload} exited {out.returncode} without a result line\n")
        return out.returncode or 1, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return out.returncode, result


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 2
    if not (ROOT / "src" / "harness" / "dynamic_experiment.hpp").is_file():
        sys.stderr.write(f"run.py: no DynaQ sources under {ROOT / 'src'}; run the benchmark "
                         "from a checkout of the repository\n")
        return 1
    if args["self_test"]:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([str(BUILD_DIR / "perfbench_test")]).returncode
    if not build("perfbench"):
        return 1

    rev = source_rev()
    workloads = WORKLOADS if args["workload"] == "all" else (args["workload"],)
    results = {}
    code = 0
    for workload in workloads:
        rc, result = run_workload(workload, args, rev)
        code = code or rc
        if result is None:
            return code or 1
        results[workload] = result
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    if not final["correct"]:
        code = code or 1
    print(json.dumps(final), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
