#!/usr/bin/env python3
"""Builds and runs the T3 benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload plan_predict --seed 1 --seconds 10 \
        --trace 0 --model-fnv1a fec90ed7dddc7d37
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake; an up-to-date build is
a no-op. The last line of stdout is the result JSON. Exits non-zero, with
no result line, when the sources or the model are missing, the build
fails, or the benchmark finds a wrong prediction or a failed guard.

setup_s is the time from process start to the first timed operation. An
untraced run times it in SETUP_SAMPLES fresh processes, the measuring one
and SETUP_SAMPLES - 1 that stop after set-up (--setup-only), and reports
the median: every sample is a cold start, and the median damps the
host's noise.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MODEL = ROOT / "data" / "model_loo_airline.txt"
SETUP_SAMPLES = 3
# All of a run's processes together end within this many seconds.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    out = build_dir()
    steps = [["cmake", "--build", str(out), "-j", "4"]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(out)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def source_digest():
    """sha256 over the benchmark's and the program's sources, which
    identifies the code even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_benchmark(command, deadline):
    """Runs t3_perfbench until `deadline` (time.monotonic()); returns its
    stdout lines, or exits with its status when it fails."""
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if run.returncode != 0:
        sys.exit(run.returncode)
    return run.stdout.strip().splitlines()


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--model-fnv1a")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no T3 sources under {ROOT / 'src'}")
    if args.self_test:
        out = build()
        sys.exit(subprocess.run([str(out / "perfbench_generator_test")],
                                timeout=RUN_TIMEOUT_S).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace,
                args.model_fnv1a):
        fail("--workload, --seed, --seconds, --trace and --model-fnv1a are "
             "required")
    if not MODEL.is_file():
        fail(f"no model at {MODEL}")
    expected = metric_names(args.trace)

    out = build()
    command = [
        str(out / "t3_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--model", str(MODEL),
        "--model-fnv1a", args.model_fnv1a,
        "--trace-out", str(out / f"trace_{args.workload}_{args.seed}.json"),
    ]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_s = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            lines = run_benchmark(command + ["--setup-only"], deadline)
            setup_s.append(json.loads(lines[-1])["metrics"]["setup_s"]["value"])
    lines = run_benchmark(command, deadline)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(expected.items())}")
    if setup_s:
        own = result["metrics"]["setup_s"]
        print(f"perfbench: setup_s samples {setup_s + [own['value']]}",
              file=sys.stderr)
        own["value"] = statistics.median(setup_s + [own["value"]])
        lines[-1] = json.dumps(result)
    for i, line in enumerate(lines[:-1]):
        if line.startswith('{"provenance"'):
            provenance = json.loads(line)
            provenance["provenance"]["source_sha256"] = source_digest()
            lines[i] = json.dumps(provenance)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
