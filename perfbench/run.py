#!/usr/bin/env python3
"""pathsched's repository benchmark.

    python3 perfbench/run.py --workload sweep|paths-icache|gen-mix|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The first call builds the benchmark
(perfbench/CMakeLists.txt, which compiles the program's sources from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that is unset; later calls only re-check the build.

With --trace 0 it prints every end-to-end metric of BENCHMARK.json, from
untraced runPipeline passes.  With --trace 1 it prints every per-layer
metric, from the traced replay.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero on any correctness, replay or determinism failure; the
determinism check also compares each run's deterministic values with the
previous run of the same build and workload (and, for gen-mix, the same
seed) in this checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sweep", "paths-icache", "gen-mix"]
RUN_TIMEOUT_S = 170
# Values the human report prints beside the end-to-end metrics.
EXTRA_UNITS = {
    "sim_cycles_geomean": "cycles",
    "code_bytes_geomean": "B",
    "failed_pct": "%",
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    """Configure once, then bring the binary up to date."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    cmds = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", str(out), "-j", jobs])
    with open(log, "a") as f:
        for cmd in cmds:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT)
            if rc.returncode:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                if not (out / "perfbench").exists():
                    # A failed first configure must not stick.
                    (out / "CMakeCache.txt").unlink(missing_ok=True)
                fail("build failed; see " + str(log))
    return out / "perfbench"


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        fail("BENCHMARK.json not found at " + str(ROOT))
    return json.loads(path.read_text())


def run_binary(exe, workload, seed, seconds, trace):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans-{workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{workload}: no result within {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), []
    except (IndexError, ValueError):
        return None, [f"{workload}: exited {proc.returncode} without a result"]


def check_across_runs(exe, result, workload, seed, trace):
    """Deterministic values must equal those of the previous run of the
    same binary.  sweep and paths-icache use fixed programs, so every seed
    must give the same values; gen-mix is keyed by seed."""
    state_path = build_dir() / "determinism.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    build_id = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    key = f"{build_id}/{workload}/trace{trace}"
    if workload == "gen-mix":
        key += f"/seed{seed}"
    now = result["determinism"]
    problems = []
    before = state.get(key)
    if before is None:
        state[key] = now
        tmp = state_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        tmp.replace(state_path)
    else:
        for name, value in now.items():
            if name in before and before[name] != value:
                problems.append(f"{workload}: {name} is {value!r}, an earlier "
                                f"run in this checkout gave {before[name]!r}")
    return problems


def report(result, specs, trace):
    """Human-readable lines for one workload."""
    w = result["workload"]
    print(f"== {w} (seed {result['seed']}, {result['runs_per_pass']} runs "
          f"per pass, {result['passes']} passes, "
          f"{result['attempted']} runPipeline calls)")
    m = result["metrics"]
    print(f"  host ran the reference kernel {result['host_slowdown']:.3f}x "
          "slower than its reference time; timings below are divided by "
          "that, locally")
    for s in specs:
        print(f"  {s['name']:<26} {m.get(s['name'], float('nan')):>16.6g} "
              f"{s['unit']}  ({s['better']} is better)")
    if not trace:
        det = result["determinism"]
        for name, unit in EXTRA_UNITS.items():
            print(f"  {name:<26} {det[name]:>16.6g} {unit}")
        print(f"  run_ms samples: {result['samples']}; pass_s: "
              + ", ".join(f"{x:.3f}" for x in result["pass_s"]))
    else:
        print(f"  traced replay {result['replay_ms']:.1f} ms vs untraced "
              f"{result['untraced_ms']:.1f} ms: tracing overhead "
              f"{m['trace.overhead_pct']:.2f} %; {result['spans']} spans")
    by_class = result["failures_by_class"]
    print("  failed runs: " + (", ".join(
        f"{k} {v}/{result['runs_per_pass']}" for k, v in by_class.items())
        or "none"))
    for f in result["failures"]:
        print("    " + f)
    for p in result["problems"]:
        print("  PROBLEM: " + p)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured time per workload (default: BENCHMARK.json "
                         "run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    bench = benchmark_spec()
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    seconds = args.seconds or bench["run_seconds"]
    exe = build()

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        result, problems = run_binary(exe, w, args.seed, seconds, args.trace)
        if result is None:
            for p in problems:
                print("PROBLEM: " + p)
            # The call that produced no result counts as one failed attempt.
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        missing = [s["name"] for s in specs
                   if s["name"] not in result["metrics"]]
        result["problems"] += [f"metric {n} not reported" for n in missing]
        result["problems"] += check_across_runs(exe, result, w, args.seed,
                                                args.trace)
        report(result, specs, args.trace)
        correct = correct and result["correct"] and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(workloads) == 1 else w + "."
        for s in specs:
            if s["name"] in result["metrics"]:
                metrics[prefix + s["name"]] = {
                    "value": result["metrics"][s["name"]], "unit": s["unit"]}

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
