#!/usr/bin/env python3
"""End-to-end serving benchmark for hicond.

Builds hicond_serve, hicond_router and the benchmark program from the
checkout this file lives in (Release, into .bench_build/), then runs one
workload against the real binaries and prints every metric; the last line
of standard output is the JSON result.

    python3 perfbench/run.py --workload warm_seeded --seed 1 --seconds 30 --trace 0

--trace 1 prints the per-layer metrics of the traced in-process replay
instead of the end-to-end metrics. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("warm_seeded", "edit_solve", "churn_routed")
TARGETS = ("perfbench", "hicond_serve", "hicond_router")


def build() -> None:
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "hicond"))):
        sys.exit("perfbench: no hicond source tree next to perfbench/; "
                 "run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    cache = os.path.join(BUILD, "CMakeCache.txt")
    lists = os.path.join(ROOT, "perfbench", "CMakeLists.txt")
    if (not os.path.isfile(cache)
            or os.path.getmtime(lists) > os.path.getmtime(cache)):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *TARGETS])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (see .bench_build/build.log)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    build()
    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(BUILD, "hicond", "examples"),
           "--work-dir", work, "--source-dir", ROOT]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: the benchmark exited {proc.returncode} without a result")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    # The result names exactly the metrics BENCHMARK.json lists for this
    # trace mode; the lines above carry everything else that was measured.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        sys.exit(f"perfbench: metrics not measured: {', '.join(missing)}")
    result["metrics"] = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
