#!/usr/bin/env python3
"""End-to-end benchmark of timpp: load -> solve -> verify, and a serving mix.

Usage (from the repository root):

    python3 e2ebench/run.py --workload tim-ic-dense --seed 1 --seconds 25 --trace 0

Builds the library and the measuring binary (e2ebench/CMakeLists.txt) into
.bench_build/ (or $CARGO_TARGET_DIR), generates the workload's inputs from
--seed, then:

  --trace 0  runs untraced repeats, each in a fresh process, until --seconds
             have passed, and reports the end-to-end metrics as medians;
  --trace 1  runs a cold 1-thread replay, then one traced process that
             replays the solve layer by layer, and reports the per-layer
             metrics.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. A failed correctness gate exits 3 and a refused or broken setup
exits 2, both without printing a result. See README.md for the workloads
and what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tim-ic-dense", "imm-lt", "tim-ic-spill", "serve-mix")
# Metric names and units are declared once, in BENCHMARK.json.
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Each untraced repeat is its own process with an unmodified allocator.
# The library's first solve in a process pays for first-touch page faults
# compounded by RRCollection's exact-size growth; allocator tuning hides
# it (MALLOC_MMAP_THRESHOLD_ took a cold IMM solve on a 20k-node LT graph
# from 7.8 s to 2.65 s on a 4-core container), and a CLI user pays it on
# every run, so the repeats inherit no MALLOC_*, GLIBC_TUNABLES or
# LD_PRELOAD setting.
ALLOCATOR_ENV = ("MALLOC_", "GLIBC_TUNABLES", "LD_PRELOAD")

PROCESS_TIMEOUT_S = 150  # one repeat or traced process
MAX_REPEATS = 64


class Refused(Exception):
    """The benchmark cannot run here; exit 2 without a result."""


class GateFailed(Exception):
    """A correctness gate failed; exit 3 without a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(ALLOCATOR_ENV)}
    dropped = sorted(set(os.environ) - set(env))
    if dropped:
        log("e2ebench: not passing allocator settings to repeats: "
            + ", ".join(dropped))
    return env


def build(build_root, jobs):
    """Configures (once) and builds timpp_e2e; returns the binary path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        raise Refused("cmake not found")
    cmake_dir = os.path.join(build_root, "cmake")
    cache_path = os.path.join(cmake_dir, "CMakeCache.txt")
    if (os.path.exists(cache_path) and
            read_cache(cache_path).get("CMAKE_HOME_DIRECTORY") != HERE):
        shutil.rmtree(cmake_dir)  # configured for another checkout
    if not os.path.exists(cache_path):
        configure = [cmake, "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            raise Refused("cmake configure failed")
    compile_cmd = [cmake, "--build", cmake_dir, "--target", "timpp_e2e",
                   "-j", str(jobs)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise Refused("build failed")
    check_build_flags(read_cache(cache_path))
    return os.path.join(cmake_dir, "timpp_e2e")


def read_cache(cache_path):
    """CMakeCache.txt entries as {name: value}."""
    cache = {}
    with open(cache_path) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def check_build_flags(cache):
    """Refuses debug or sanitizer builds: their timings mean nothing."""
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        raise Refused("build type %r does not define NDEBUG" % build_type)
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_EXE_LINKER_FLAGS", "TIMPP_SANITIZE"))
    if "-fsanitize" in flags or cache.get("TIMPP_SANITIZE", ""):
        raise Refused("sanitizer build: " + flags.strip())


def run_process(argv, env):
    """Runs one measuring process; returns its last stdout line as JSON."""
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Refused("%s timed out" % " ".join(argv[:2]))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode == 3:
        raise GateFailed(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Refused("%s exited %d" % (" ".join(argv[:2]), proc.returncode))
    return json.loads(lines[-1])


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it (p95 at
    200 samples)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def untraced(binary, common, threads, seconds, env, workload, tamper):
    """Fresh-process repeats until `seconds` pass; returns (metrics,
    attempted, failed)."""
    serving = workload == "serve-mix"
    common = common + ["--threads", str(threads)]
    run = [binary, "run"] + common
    if tamper in ("spread", "serve"):
        run += ["--tamper", tamper]
    repeats, runs, failed, attempted = [], 0, 0, 0
    start = time.monotonic()
    longest = 0.0
    while runs < MAX_REPEATS:
        elapsed = time.monotonic() - start
        # At least three repeats; after that, start another only if it is
        # expected to finish inside the measuring window.
        if runs >= 3 and elapsed + longest > seconds:
            break
        t0 = time.monotonic()
        result = run_process(run, env)
        longest = max(longest, time.monotonic() - t0)
        runs += 1
        if serving:
            attempted += result["attempted"]
            failed += result["failed"]
        else:
            attempted += 1
            if not result["ok"]:
                failed += 1
                log("e2ebench: solve failed: %s" % result.get("error"))
                continue
        repeats.append(result)
        print("# repeat %d: setup_s=%.4f solve_s=%.4f verify_s=%.4f "
              "peak_rss_mb=%.1f" % (runs, result["setup_s"],
                                    result["solve_s"], result["verify_s"],
                                    result["peak_rss_mb"]))
    if not repeats:
        raise GateFailed("no repeat succeeded")

    seeds = {tuple(r["seeds"]) for r in repeats}
    if len(seeds) != 1:
        raise GateFailed("repeats returned different seed sets")
    if workload == "tim-ic-spill":
        unbudgeted_run = [binary, "run"] + common + ["--unbudgeted"]
        if tamper == "spill":
            unbudgeted_run += ["--tamper", "spill"]
        unbudgeted = run_process(unbudgeted_run, env)
        if tuple(unbudgeted["seeds"]) not in seeds:
            raise GateFailed("budgeted seeds differ from an unbudgeted solve")

    def median(key):
        return statistics.median(r[key] for r in repeats)

    metrics = {
        "setup_s": median("setup_s"),
        "solve_s": median("solve_s"),
        "verify_s": median("verify_s"),
        "run_s": statistics.median(
            r["setup_s"] + r["solve_s"] + r["verify_s"] for r in repeats),
        "spread": median("spread"),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    if serving:
        # Per mix: throughput and latency percentiles over its requests;
        # reported as the median over the repeats.
        metrics["req_per_s"] = statistics.median(
            len(r["latency_ms"]) / r["solve_s"] for r in repeats)
        metrics["req_p50_ms"] = statistics.median(
            statistics.median(r["latency_ms"]) for r in repeats)
        metrics["req_p95_ms"] = statistics.median(
            tail_percentile(r["latency_ms"]) for r in repeats)
        samples = len(repeats[0]["latency_ms"])
    else:
        # A batch workload's request is its solve: one per fresh process,
        # as a CLI user issues them; throughput is one over the median.
        latencies = [r["solve_s"] * 1e3 for r in repeats]
        metrics["req_p50_ms"] = statistics.median(latencies)
        metrics["req_per_s"] = 1e3 / metrics["req_p50_ms"]
        # A few solves support no percentile with ten samples beyond it;
        # the highest percentile they support is the median. (The slowest
        # solve moved by 30% between runs of one seed.)
        metrics["req_p95_ms"] = metrics["req_p50_ms"]
        samples = len(latencies)
    print("# repeats=%d latency_samples=%d" % (len(repeats), samples))
    return metrics, attempted, failed


def traced(binary, common, threads, env, build_root, workload, seed, tamper):
    """The 1-thread cold replay, then the traced process; returns
    (per-layer metrics, attempted, failed)."""
    serial = run_process([binary, "replay"] + common + ["--threads", "1"], env)
    trace = [binary, "trace"] + common + ["--threads", str(threads)]
    if tamper == "replay":
        trace += ["--tamper", "replay"]
    result = run_process(trace, env)
    if serial["seeds"] != result["seeds"]:
        raise GateFailed("1-thread replay seeds differ from the traced replay")
    metrics = dict(result["metrics"])
    metrics["engine.speedup_4t"] = (serial["replay_total_s"]
                                    / result["replay_total_s"])
    metrics["trace.overhead_s"] = result["trace_overhead_s"]
    print("# spill_io_backend(replay)=%s" % result["spill_io_backend"])
    traces = os.path.join(build_root, "traces")
    os.makedirs(traces, exist_ok=True)
    shutil.copyfile(result["spans"],
                    os.path.join(traces, "%s-%d.json" % (workload, seed)))
    return metrics, 1, 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="compute threads (default: min(4, nproc))")
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: every workload in seconds (self test)")
    parser.add_argument("--tamper", default="",
                        choices=("", "spread", "serve", "spill", "replay"),
                        help="self test: corrupt one gate's input")
    args = parser.parse_args()

    nproc = os.cpu_count() or 1
    if args.threads < 1 or args.threads > nproc:
        raise Refused("--threads=%d but nproc=%d" % (args.threads, nproc))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root, nproc)
    env = child_env()

    work = os.path.join(build_root, "work",
                        "%s-%d-%s" % (args.workload, args.seed, args.scale))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        info = run_process([binary, "info", "--dir", work], env)
        if not info["ndebug"] or info["sanitizers"]:
            raise Refused("binary built without NDEBUG or with sanitizers")
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work, "--scale", args.scale]
        print("# e2ebench workload=%s seed=%d seconds=%g trace=%d scale=%s"
              % (args.workload, args.seed, args.seconds, args.trace,
                 args.scale))
        print("# nproc=%d threads=%d%s kernel=%s spill_io_backend=%s"
              % (nproc, args.threads,
                 " (request workers, 1 sampling thread each)"
                 if args.workload == "serve-mix" else "",
                 info["kernel"], info["spill_io_backend"]))
        run_process([binary, "gen"] + common, env)
        os.sync()  # no writeback of the inputs during the measurements
        if args.trace:
            metrics, attempted, failed = traced(
                binary, common, args.threads, env, build_root, args.workload,
                args.seed, args.tamper)
            declared = "per_layer"
        else:
            metrics, attempted, failed = untraced(
                binary, common, args.threads, args.seconds, env,
                args.workload, args.tamper)
            declared = "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)  # inputs and spill dir

    with open(SPEC_PATH) as f:
        units = {m["name"]: m["unit"] for m in json.load(f)[declared]}
    if set(units) != set(metrics):
        raise Refused("measured metrics differ from BENCHMARK.json: %s"
                      % sorted(set(units) ^ set(metrics)))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Refused as e:
        log("e2ebench: refused: %s" % e)
        sys.exit(2)
    except GateFailed as e:
        log("e2ebench: correctness gate failed: %s" % e)
        sys.exit(3)
