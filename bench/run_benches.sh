#!/usr/bin/env bash
# Runs the kernel microbenchmarks + end-to-end model benchmarks and records
# machine-readable results.
#
# The perf trajectory of the kernel library lives in BENCH_*.json files at
# the repo root: run this after a kernel/interpreter change and commit the
# refreshed JSON alongside it, so regressions are visible in review instead
# of discovered later.
#
# Benchmark numbers are only meaningful from a Release build. Configure with:
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
# (Release is the default build type and carries "-O3 -DNDEBUG".) This script
# refuses to record numbers from any other build type — for the project code
# (CMakeCache check below) AND for the benchmark library itself: the
# "library_build_type" context field now comes from the in-tree minibench
# build (third_party/minibench, compiled with the project's Release flags)
# and must read "release"; the Debian-prebuilt libbenchmark it replaced was
# a debug build and stamped library_build_type=debug into every recorded
# JSON. The "mlexray_build_type" field is injected by this script after
# checking CMakeCache.
#
# Usage: bench/run_benches.sh [build_dir] [output_dir]
#   build_dir   defaults to ./build
#   output_dir  defaults to the repo root
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_dir="${2:-${repo_root}}"

# python3 stamps the verified build type into the JSONs below; check before
# running anything so a missing interpreter can't abort mid-way and leave a
# freshly overwritten but unstamped BENCH_*.json behind.
if ! command -v python3 > /dev/null; then
  echo "error: python3 is required to stamp and digest the benchmark JSON" >&2
  exit 1
fi

# --- refuse non-Release builds ---------------------------------------------
cache="${build_dir}/CMakeCache.txt"
if [[ ! -f "${cache}" ]]; then
  echo "error: ${cache} not found; configure first:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "${cache}")"
if [[ "${build_type}" != "Release" ]]; then
  echo "error: build dir '${build_dir}' has CMAKE_BUILD_TYPE='${build_type}'," >&2
  echo "refusing to record benchmark numbers from a non-Release build." >&2
  echo "Reconfigure with: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

for bin in bench_kernels_micro bench_models_e2e bench_serving bench_drift; do
  if [[ ! -x "${build_dir}/${bin}" ]]; then
    echo "${bin} not found in ${build_dir}; build first:" >&2
    echo "  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
done

# Stamps the verified build type into the benchmark JSON context and prints
# a human-readable digest. Refuses a debug-built benchmark library: timing
# through a debug timing layer is as meaningless as timing debug kernels.
digest() {
  python3 - "$1" "${build_type}" <<'EOF'
import json, sys
path, build_type = sys.argv[1], sys.argv[2]
with open(path) as f:
    data = json.load(f)
lib_build = data.get("context", {}).get("library_build_type")
if lib_build is not None and lib_build != "release":
    sys.exit(
        f"error: {path}: benchmark library_build_type is '{lib_build}', not "
        "'release' — rebuild (the in-tree minibench library inherits the "
        "project's Release flags; a debug timing library must not stamp "
        "recorded numbers)")
data.setdefault("context", {})["mlexray_build_type"] = build_type
with open(path, "w") as f:
    json.dump(data, f, indent=1)
    f.write("\n")
print(f"{'benchmark':44s} {'wall':>12s}")
for b in data.get("benchmarks", []):
    print(f"{b['name']:44s} {b['real_time']:10.0f} {b['time_unit']}")
EOF
}

echo "== kernel microbenchmarks (Table 4 shapes) =="
"${build_dir}/bench_kernels_micro" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  > "${out_dir}/BENCH_kernels_micro.json"
echo "wrote ${out_dir}/BENCH_kernels_micro.json"
digest "${out_dir}/BENCH_kernels_micro.json"

# Gates the end-to-end numbers before they replace the committed baseline:
#  - the integer-only elementwise path must keep mobilenet_v3_mini int8 at
#    least as fast as f32 at batch 1 (the PR-8 win: f32/int8 ratio >= 1.0);
#  - no int8 zoo row may regress more than 25% against the committed
#    BENCH_models_e2e.json (noise tolerance; real regressions are 2-10x).
# On violation the fresh JSON is discarded and the committed baseline stays
# in place — the script refuses to stamp a regression into the trajectory.
digest_models() {
  python3 - "$1" "$2" <<'EOF'
import json, os, sys
new_path, baseline_path = sys.argv[1], sys.argv[2]
with open(new_path) as f:
    new = json.load(f)
times = {b["name"]: b["real_time"] for b in new.get("benchmarks", [])}

ratios = {}
print(f"{'model':28s} {'f32 b1 us':>10s} {'int8 b1 us':>11s} {'f32/int8':>9s}")
for name, t in sorted(times.items()):
    parts = name.split("/")
    if len(parts) != 4 or parts[2] != "f32" or parts[3] != "b1":
        continue
    model = parts[1]
    int8_name = f"E2E/{model}/int8/b1"
    if int8_name not in times:
        continue
    ratios[model] = t / times[int8_name]
    print(f"{model:28s} {t:10.0f} {times[int8_name]:11.0f} {ratios[model]:8.2f}x")

v3 = ratios.get("mobilenet_v3_mini")
if v3 is None:
    sys.exit("error: mobilenet_v3_mini b1 rows missing from the e2e bench")
if v3 < 1.0:
    sys.exit(
        f"error: mobilenet_v3_mini int8 is slower than f32 at batch 1 "
        f"(f32/int8 = {v3:.2f}x < 1.0) — the integer-only elementwise path "
        "must keep quantized inference ahead; refusing to stamp")

if os.path.exists(baseline_path):
    with open(baseline_path) as f:
        base = {b["name"]: b["real_time"]
                for b in json.load(f).get("benchmarks", [])}
    regressions = [
        f"  {name}: {base[name]:.0f} -> {t:.0f} us ({t / base[name]:.2f}x)"
        for name, t in sorted(times.items())
        if "/int8/" in name and name in base and t > 1.25 * base[name]]
    if regressions:
        sys.exit("error: int8 rows regressed >25% vs the committed baseline "
                 "(refusing to stamp):\n" + "\n".join(regressions))

new.setdefault("context", {})["mlexray_int8_vs_f32_b1"] = ratios
with open(new_path, "w") as f:
    json.dump(new, f, indent=1)
    f.write("\n")
EOF
}

echo
echo "== end-to-end model benchmarks (batch 1/4/16, f32 + int8) =="
e2e_json="${out_dir}/BENCH_models_e2e.json"
e2e_fresh="$(mktemp "${out_dir}/.BENCH_models_e2e.XXXXXX.json")"
trap 'rm -f "${e2e_fresh}"' EXIT
"${build_dir}/bench_models_e2e" \
  --benchmark_format=json \
  --benchmark_min_time=0.1 \
  > "${e2e_fresh}"
digest_models "${e2e_fresh}" "${e2e_json}"
mv "${e2e_fresh}" "${e2e_json}"
echo "wrote ${e2e_json}"
digest "${e2e_json}"

# Summarizes invoke-throughput scaling per scenario/model/dtype relative to
# its one-thread row and stamps the ratios into the JSON context: serving/*
# rows scale in session count, mtmodel/* rows in the engine's kernel-thread
# cap (both asserted >= 1.2x at t2 on multi-core hosts). Prepared bytes
# must be constant in session count (the prepare-once/serve-many
# contract); fail loudly if the bench recorded otherwise. Multi-thread
# scaling itself is only *asserted*
# when the recorded hardware_concurrency offers real parallelism — on a
# single-core runner the sweep still runs (the concurrency correctness
# checks above stand) but the scaling factor is reported, not enforced.
#
# The openloop/* rows are the FrontDoor overload curve; the digest enforces
# the overload-safety contract: no request may *fail* at any offered load,
# the below-capacity point must have zero deadline violations (a transient
# OS stall on a busy host may still force a handful of proactive
# sheds/rejections — that is the front door refusing to serve late rather
# than missing deadlines, so those are bounded at 1%, not zero), every
# submitted request must be accounted for, and past the knee the excess
# must surface as typed sheds/rejections while the p99 of what was
# admitted stays within 2x the below-capacity p99.
digest_serving() {
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
rows = {}
hotswap = []
openloop = []
for b in data.get("benchmarks", []):
    kind, model, dtype, t = b["name"].split("/")
    if kind == "hotswap":
        hotswap.append(b)
        continue
    if kind == "openloop":
        openloop.append(b)
        continue
    # serving/* rows sweep session count; mtmodel/* rows sweep the engine's
    # kernel-thread cap (sessions fixed) — keep the kind in the key so the
    # two sweeps of the same model/dtype never merge.
    rows.setdefault(f"{kind}/{model}/{dtype}", {})[int(t.lstrip("t"))] = b
hw = data.get("context", {}).get("hardware_concurrency", 1)
scaling = {}
print(f"{'model/dtype':32s} {'t1 inv/s':>10s}  scaling(t2,t4,...)  prepared_kb")
for key, by_t in sorted(rows.items()):
    base = by_t[min(by_t)]
    for b in by_t.values():
        assert b["prepared_kb"] == base["prepared_kb"], \
            f"{b['name']}: prepared bytes changed with session count"
    rel = {t: by_t[t]["invokes_per_second"] / base["invokes_per_second"]
           for t in sorted(by_t)}
    scaling[key] = rel
    if hw >= 2 and 2 in rel:
        if key.startswith("mtmodel/"):
            assert rel[2] >= 1.2, \
                f"{key}: t2 kernel-thread scaling {rel[2]:.2f}x < 1.2x on " \
                f"a {hw}-core host (concurrent parallel_for jobs " \
                "serializing on the engine pool?)"
        else:
            assert rel[2] >= 1.2, \
                f"{key}: t2 scaling {rel[2]:.2f}x < 1.2x on a {hw}-core " \
                "host (sessions are serializing on shared state?)"
    cells = ", ".join(f"t{t}:{r:.2f}x" for t, r in rel.items() if t != min(by_t))
    print(f"{key:32s} {base['invokes_per_second']:10.0f}  {cells:18s}  {base['prepared_kb']:.1f}")
if hw < 2:
    print(f"(hardware_concurrency={hw}: scaling factors reported, not asserted)")
curve = {}
base_p99 = None
for b in openloop:
    rejected = (b["rejected_queue_full"] + b["rejected_infeasible"]
                + b["rejected_breaker_open"])
    assert b["failed_requests"] == 0, \
        f"{b['name']}: requests failed under open-loop load"
    assert b["ok"] + b["shed"] + b["deadline_exceeded"] + b["unknown_model"] \
        + b["failed_requests"] + rejected == b["iterations"], \
        f"{b['name']}: request accounting does not close"
    if b["load_factor"] <= 0.5:
        assert b["deadline_exceeded"] == 0, \
            f"{b['name']}: deadline violations below capacity"
        assert b["shed"] + rejected <= max(2, 0.01 * b["iterations"]), \
            f"{b['name']}: {b['shed'] + rejected} drops below capacity " \
            "(more than a transient stall explains)"
        base_p99 = b["p99_us"]
    elif b["load_factor"] >= 2.0:
        assert base_p99 is not None and b["p99_us"] <= 2.0 * base_p99, \
            f"{b['name']}: admitted p99 {b['p99_us']:.0f}us exceeds 2x " \
            f"below-capacity p99 {base_p99:.0f}us"
        assert b["shed"] + rejected > 0, \
            f"{b['name']}: overload produced no sheds/rejections " \
            "(admission control not engaging)"
    curve[b["name"]] = {
        "offered_qps": b["offered_qps"],
        "achieved_qps": b["achieved_qps"],
        "p50_us": b["p50_us"],
        "p99_us": b["p99_us"],
        "deadline_ms": b["deadline_ms"],
        "ok": b["ok"],
        "shed": b["shed"],
        "rejected": rejected,
        "deadline_exceeded": b["deadline_exceeded"],
        "mean_batch_size": b["mean_batch_size"],
    }
    print(f"{b['name']:44s} offered {b['offered_qps']:7.0f} q/s "
          f"served {b['achieved_qps']:7.0f} q/s  p99 {b['p99_us']:7.0f}us  "
          f"shed+rej {b['shed'] + rejected}")
swap = {}
for b in hotswap:
    assert b["failed_requests"] == 0, \
        f"{b['name']}: requests failed during the hot swap"
    swap[b["name"]] = {
        "steady_p99_us": b["steady_p99_us"],
        "swap_window_p99_us": b["swap_window_p99_us"],
        "swap_load_ms": b["swap_load_ms"],
        "requests": b["iterations"],
        "failed_requests": b["failed_requests"],
    }
    print(f"{b['name']:32s} swap-window p99 {b['swap_window_p99_us']:.0f}us "
          f"(steady {b['steady_p99_us']:.0f}us), "
          f"load {b['swap_load_ms']:.1f}ms, 0 failed")
data.setdefault("context", {})["mlexray_serving_scaling"] = scaling
data["context"]["mlexray_openloop"] = curve
data["context"]["mlexray_hotswap"] = swap
with open(path, "w") as f:
    json.dump(data, f, indent=1)
    f.write("\n")
EOF
}

echo
echo "== concurrent serving (one Model, T threads x pooled sessions) =="
"${build_dir}/bench_serving" > "${out_dir}/BENCH_serving.json"
echo "wrote ${out_dir}/BENCH_serving.json"
digest "${out_dir}/BENCH_serving.json"
digest_serving "${out_dir}/BENCH_serving.json"

# Enforces the always-on capture budget: per-layer digest capture
# (moments + quantile sketch / int8 histogram in the observer path) must
# cost at most 15% over a bare invoke for every model/dtype row, or the
# fresh JSON is discarded and the committed baseline stays in place. The
# raw-trace overhead and aggregation throughput rows ride along for the
# trajectory but are informational.
digest_drift_gate() {
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
overhead = {}
violations = []
print(f"{'model/dtype':36s} {'bare us':>9s} {'digest us':>10s} {'overhead':>9s}")
for b in data.get("benchmarks", []):
    parts = b["name"].split("/")
    if parts[:2] == ["drift", "digest_overhead"]:
        key = "/".join(parts[2:])
        pct = b["digest_overhead_pct"]
        overhead[key] = pct
        print(f"{key:36s} {b['bare_us_per_invoke']:9.1f} "
              f"{b['digest_us_per_invoke']:10.1f} {pct:+8.2f}%")
        if pct > 15.0:
            violations.append(f"  {b['name']}: +{pct:.2f}% > 15%")
    elif parts[:2] == ["drift", "aggregate"]:
        print(f"{b['name']:36s} {b['devices']} devices x "
              f"{b['frames_per_device']} frames: "
              f"{b['frames_per_sec']:.0f} frames/s, "
              f"report {b['report_ms']:.1f} ms")
if not overhead:
    sys.exit("error: no drift/digest_overhead rows in the drift bench")
if violations:
    sys.exit("error: digest capture exceeds the 15% always-on budget "
             "(refusing to stamp):\n" + "\n".join(violations))
data.setdefault("context", {})["mlexray_digest_overhead_pct"] = overhead
with open(path, "w") as f:
    json.dump(data, f, indent=1)
    f.write("\n")
EOF
}

echo
echo "== drift digest capture overhead + fleet aggregation =="
drift_json="${out_dir}/BENCH_drift.json"
drift_fresh="$(mktemp "${out_dir}/.BENCH_drift.XXXXXX.json")"
trap 'rm -f "${e2e_fresh}" "${drift_fresh}"' EXIT
"${build_dir}/bench_drift" > "${drift_fresh}"
digest_drift_gate "${drift_fresh}"
mv "${drift_fresh}" "${drift_json}"
echo "wrote ${drift_json}"
digest "${drift_json}"
