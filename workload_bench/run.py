#!/usr/bin/env python3
"""Builds and runs the workload benchmark.

Run from the repository root:

  python3 workload_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 workload_bench/run.py                    # every workload, seed 1
  python3 workload_bench/run.py --trace 1          # every workload, untraced then traced
  python3 workload_bench/run.py --quick            # 2 s windows, a smoke test

The first run configures and builds `bench_workloads` (Release) under
.bench_build/. Each workload runs in its own process. Every end-to-end
metric is printed as `<workload> <metric> <value> <unit>`; with one
--workload the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"} (per-layer metrics when
--trace 1). Full results, stamped with the host, go to
<out>/<workload>-seed<n>-trace<t>.json and traced runs write a Chrome trace
to <out>/trace_<workload>.json. The exit code is 0 only when every output
check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUICK_SECONDS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "bench_workloads", "-j", jobs], check=True, stdout=sys.stderr)
    cache = (build_dir / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise RuntimeError(f"{build_dir} is not a Release build; refusing to measure it")
    return build_dir / "bench_workloads"


def host_stamp():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            head = proc.stdout.strip()
    return {"nproc": nproc, "cpu_model": cpu, "git_head": head}


def run_workload(binary, workload, seed, seconds, traced, out_dir):
    """Runs one workload in its own process; returns its full result."""
    load_before = os.getloadavg()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        cmd += ["--trace-out", str(out_dir / f"trace_{workload}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench_workloads --workload {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    host = host_stamp()
    result["host"] = dict(host, hardware_concurrency=result["info"].pop("hardware_concurrency"),
                          load_before=load_before, load_after=os.getloadavg(),
                          host_busy=load_before[0] > host["nproc"] - 1)
    result["correct"] = result["failed"] == 0
    name = f"{workload}-seed{seed}-trace{int(traced)}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n")
    return result


def select_metrics(result, traced):
    """The declared metrics of one mode, with units, from a full result."""
    declared = SPEC["per_layer" if traced else "end_to_end"]
    measured = result["layers" if traced else "metrics"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for m in declared:
        if not traced and m["name"] not in measured:
            raise RuntimeError(f"{result['workload']} did not report {m['name']}")
        # A per-layer metric a workload does not report is a layer it
        # bypasses: the layer did no work there.
        metrics[m["name"]] = {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
    return metrics


def print_lines(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s windows; never use the numbers for claims")
    parser.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build" / "workload_bench")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_build" / "results")
    args = parser.parse_args()
    seconds = QUICK_SECONDS if args.quick else args.seconds

    try:
        binary = build(args.build_dir)
    except (subprocess.CalledProcessError, RuntimeError, OSError) as e:
        log(f"run.py: build failed: {e}")
        return 2
    args.out.mkdir(parents=True, exist_ok=True)

    if args.workload != "all":
        try:
            result = run_workload(binary, args.workload, args.seed, seconds,
                                  args.trace == 1, args.out)
            metrics = select_metrics(result, args.trace == 1)
        except (RuntimeError, ValueError, KeyError) as e:
            log(f"run.py: {e}")
            return 1
        for problem in result["problems"]:
            log(f"{args.workload}: FAILED CHECK: {problem}")
        print_lines(args.workload, metrics)
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
        return 0 if result["correct"] else 1

    # Every workload; with --trace 1 each runs untraced and then traced, and
    # the tracing overhead is the traced throughput against the untraced.
    ok = True
    for workload in WORKLOADS:
        try:
            t0 = time.time()
            plain = run_workload(binary, workload, args.seed, seconds, False, args.out)
            print_lines(workload, select_metrics(plain, False))
            if args.trace == 1:
                traced = run_workload(binary, workload, args.seed, seconds, True, args.out)
                ok = ok and traced["correct"]
                print_lines(workload, select_metrics(traced, True))
                base = plain["metrics"]["items_per_s"]
                overhead = 100.0 * (1.0 - traced["layers"]["tracing.items_per_s"] / base)
                print(f"{workload} tracing_overhead {overhead:.2f} %")
            ok = ok and plain["correct"]
            for problem in plain["problems"]:
                log(f"{workload}: FAILED CHECK: {problem}")
            if plain["host"]["host_busy"]:
                log(f"{workload}: host busy (load {plain['host']['load_before'][0]:.2f})")
            log(f"{workload}: done in {time.time() - t0:.1f} s")
        except (RuntimeError, ValueError, KeyError) as e:
            log(f"run.py: {e}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
