#!/usr/bin/env python3
"""Build and run the feir benchmark.

    python3 feirbench/run.py --workload clean|faulty|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds the program and the feirbench binary from
the checkout's sources into .bench_build/feirbench (build output goes to
stderr), then runs one workload.  The last line of stdout is the result
JSON; a traced run also writes .bench_out/trace-<workload>-<seed>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "feirbench", "feir_serve",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["clean", "faulty", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build", "feirbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("feirbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "feirbench"),
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out-dir", out_dir,
           "--serve-bin", os.path.join(build_dir, "feir", "feir_serve")]
    # The binary's own stdout carries the result line; it is passed through.
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
