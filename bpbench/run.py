#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage, from the root of a checkout:

    python3 bpbench/run.py --workload paper-study --seed 1 --seconds 40 --trace 0

Configures bpbench/ (a stand-alone CMake project over ../src) into
.bench_build/bpbench, builds the bpbench driver when anything changed,
and runs it once. The driver's last stdout line is the result object;
see bpbench/README.md for workloads, metrics and answer checks.

Exit status: the driver's (0 ok, 1 wrong answer, 2 set-up error), or
3 when the build fails, 4 when the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def source_revision():
    """Git revision when the checkout has one, else a digest of src/."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=False)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(extra_cmake_args):
    """Configure once, then build the driver; returns its path or None."""
    suffix = ""
    if extra_cmake_args:
        suffix = "-" + hashlib.sha256(
            " ".join(extra_cmake_args).encode()).hexdigest()[:8]
    build_dir = Path(".bench_build") / ("bpbench" + suffix)
    log_path = Path(".bench_build") / ("build" + suffix + ".log")
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure + extra_cmake_args)
    steps.append(["cmake", "--build", str(build_dir), "--target", "bpbench",
                  "--parallel", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                log.flush()
                sys.stderr.write(Path(log_path).read_text()[-4000:])
                sys.stderr.write("bpbench: build failed, see %s\n" % log_path)
                if step[1] == "-S":
                    shutil.rmtree(build_dir, ignore_errors=True)
                return None
    return build_dir / "bpbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper-study", "serve-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: self-test size")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter one reference answer (self-test)")
    parser.add_argument("--corrupt-corpus", action="store_true",
                        help="serve-mixed: serve a wrong trace for one "
                        "corpus entry (self-test)")
    parser.add_argument("--golden-out",
                        help="directory to write the seed's reference "
                        "answer tables to")
    parser.add_argument("--trace-out",
                        help="Chrome trace path of a traced run")
    args = parser.parse_args()

    os.chdir(ROOT)
    extra = os.environ.get("BPBENCH_CMAKE_ARGS", "").split()
    binary = build(extra)
    if binary is None:
        return 3

    work_dir = Path(".bench_build") / "work" / (
        "%s-%d" % (args.workload, os.getpid()))
    trace_out = args.trace_out or str(
        Path(".bench_build") / "traces" /
        ("%s-seed%d.json" % (args.workload, args.seed)))
    if args.trace:
        Path(trace_out).parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", str(work_dir),
           "--golden-dir", str(BENCH_DIR.relative_to(ROOT) / "golden"),
           "--revision", source_revision()]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    if args.corrupt_corpus:
        cmd.append("--corrupt-corpus")
    if args.golden_out:
        cmd += ["--golden-out", args.golden_out]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("bpbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
