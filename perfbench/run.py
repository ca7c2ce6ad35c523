#!/usr/bin/env python3
"""perfbench: starlab's end-to-end benchmark over the paper's data path.

    python3 perfbench/run.py --workload identify|survey|inferred-gen2 \\
        --seed N --seconds S --trace 0|1

Builds the starlab static libraries from the checkout (into .bench_build/,
incremental after the first run) and perfbench_driver against them, runs one
workload, prints every metric by name with its unit, checks the outputs,
and prints one JSON result as the last line of standard output. Exits 1
when a check fails and 2 when the checkout or the build is unusable.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the library and perfbench_driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit(_fail(2, f"no starlab sources under {ROOT}"))
    if shutil.which("cmake") is None:
        raise SystemExit(_fail(2, "cmake not found"))
    jobs = str(min(4, os.cpu_count() or 1))
    lib_dir = BUILD / "starlab"
    drv_dir = BUILD / "perfbench"
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(lib_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(lib_dir), "--target", "starlab_core",
         "-j", jobs],
        ["cmake", "-S", str(HERE), "-B", str(drv_dir),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         f"-DSTARLAB_SOURCE_DIR={ROOT}", f"-DSTARLAB_BUILD_DIR={lib_dir}"],
        ["cmake", "--build", str(drv_dir), "-j", jobs],
    ]
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise SystemExit(_fail(
                    2, f"build step failed: {' '.join(step)} "
                       f"(see {BUILD / 'build.log'})"))
    return drv_dir / "perfbench_driver"


def _fail(code, msg):
    log(f"perfbench: {msg}")
    return code


def run_driver(driver, args, out_dir):
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(_fail(1, "driver timed out"))
    if proc.returncode != 0:
        raise SystemExit(_fail(1, f"driver exited with {proc.returncode}"))
    with open(out_dir / "result.json") as f:
        return json.load(f)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")

    driver = build()
    out_dir = BUILD / "last-run"
    result = run_driver(driver, args, out_dir)

    trace = args.trace == 1
    e2e_units = dict(metrics.END_TO_END, **metrics.WALL_CLOCK,
                     **metrics.WORKLOAD_EXTRAS[args.workload])
    if trace:
        with open(out_dir / "profile.json") as f:
            profile = json.load(f)
        with open(out_dir / "trace.json") as f:
            events = json.load(f)["traceEvents"]
        values = metrics.per_layer(result, profile, events)
        units = metrics.PER_LAYER
        shown = values
    else:
        shown = metrics.end_to_end(result)
        units = e2e_units
        values = {name: shown[name] for name in metrics.END_TO_END}

    failures = metrics.check(result, values, trace)
    attempted, failed = metrics.attempted_failed(result, trace)
    reps = "" if trace else f" reps={len(result['reps'])}"
    print(f"perfbench workload={args.workload} seed={result['seed']} "
          f"check_seed={result['check_seed']} "
          f"trace={args.trace} threads={result['threads']} "
          f"catalog={result['catalog_size']}"
          f" setup_samples={len(result['setup'])}{reps}")
    for name in units:
        print(f"  {name:<38} {shown[name]:>16.6g} {units[name]}")
    seeds = [("check_seed", "check_quality")]
    if trace:
        seeds.insert(0, ("seed", "quality"))
    for seed_key, quality_key in seeds:
        checked = metrics.quality_metrics(args.workload, result[quality_key])
        for name, value in checked.items():
            label = f"seed {result[seed_key]}: {name}"
            print(f"  {label:<38} {value:>16.6g} {e2e_units[name]}")
    for msg in failures:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
