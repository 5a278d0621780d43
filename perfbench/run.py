#!/usr/bin/env python3
"""End-to-end benchmark of DejaVu/C++: one guest through record, replay,
analyzed replay, flight record, tail replay, time-travel step back and a
farm run.

    python3 perfbench/run.py --workload compute|mixer|churn --seed N \\
        --seconds T --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout. The first run configures and
builds perfbench_driver (CMake, Release) under $CARGO_TARGET_DIR or
.bench_build; later runs only re-check the build. Traces, tails, the farm
store and analyzer artifacts go to a private directory under .perfbench_tmp
that is removed at exit. With --trace 1 the span trace is kept as Chrome
trace_event JSON under .perfbench_out.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1). Everything else goes to stderr.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compute", "mixer", "churn")
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns its path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench_driver")


# ------------------------------------------------------------------ checks

def artifact_errors(res, art_dir):
    """Analyzer properties that must hold on any verified replay."""
    def load(name):
        with open(os.path.join(art_dir, name + ".json")) as f:
            return json.load(f)

    instrs = res["instrs"]
    prof, locks, heap = load("profile"), load("locks"), load("heap")
    races, crit, cache = load("races"), load("critpath"), load("cachesim")
    errs = []
    for name, doc in (("profile", prof), ("locks", locks), ("heap", heap),
                      ("races", races), ("critpath", crit),
                      ("cachesim", cache)):
        if doc.get("verified") is not True:
            errs.append(name + " artifact not from a verified replay")
    running = [t["running"] for t in crit["threads"]]
    if sum(running) != instrs:
        errs.append("critpath running sum %d != %d instructions"
                    % (sum(running), instrs))
    if not max(running) <= crit["critical_path_instrs"] <= instrs:
        errs.append("critpath length %d outside [%d, %d]"
                    % (crit["critical_path_instrs"], max(running), instrs))
    if cache["accesses"] != heap["reads"] + heap["writes"]:
        errs.append("cachesim accesses %d != heap reads+writes %d"
                    % (cache["accesses"], heap["reads"] + heap["writes"]))
    if prof["total_instructions"] != instrs:
        errs.append("profile total %d != %d instructions"
                    % (prof["total_instructions"], instrs))
    if res["workload"] == "mixer":
        acquires = sum(m["acquires"] for m in locks["monitors"])
        if acquires != res["threads"] * res["size"]:
            errs.append("lock acquires %d != threads x iters %d"
                        % (acquires, res["threads"] * res["size"]))
    if races["race_count"] != 0:
        errs.append("race_count %d on a race-free guest" % races["race_count"])
    return errs


def count_failures(res):
    """Driver-side failed operations plus analyzed replays whose artifacts
    break an analyzer property (counted once per operation)."""
    failed = {tuple(op) for op in res["failed_ops"]}
    messages = list(res["failures"])
    for art_dir in res["artifact_dirs"]:
        rnd = int(os.path.basename(art_dir)[1:])
        if ("analyze", rnd) in failed:
            continue
        try:
            errs = artifact_errors(res, art_dir)
        except (OSError, ValueError, KeyError, TypeError) as e:
            errs = ["artifacts unreadable: %s" % e]
        if errs:
            failed.add(("analyze", rnd))
            messages.append("analyze round %d: %s" % (rnd, "; ".join(errs)))
    return len(failed), messages


# ----------------------------------------------------------------- metrics

def metric_values(res, names):
    samples = res["samples"]
    out = {}
    for name in names:
        if name == "setup_s":
            out[name] = res["setup_s"]
        elif name == "peak_rss_mb":
            out[name] = res["peak_rss_mb"]
        elif name == "trace.overhead_pct":
            on = samples.get("round_s", [])
            off = res["untraced"].get("round_s", [])
            if on and off:
                base = statistics.median(off)
                out[name] = 100.0 * (statistics.median(on) - base) / base
        elif samples.get(name):
            out[name] = statistics.median(samples[name])
    return out


def self_time_table(spans_path):
    with open(spans_path) as f:
        doc = json.load(f)
    rows = sorted(doc["otherData"]["self_ms_median"].items(),
                  key=lambda kv: -kv[1])
    log("span self time (median ms per call, traced rounds):")
    for name, ms in rows:
        log("  %-28s %10.3f" % (name, ms))


def run_driver(driver, args, tmp):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp] + args.extra
    # A run must end within 180 s; a driver that hangs is killed and reaped.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(args, spec, driver):
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed),
                           dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        res = run_driver(driver, args, tmp)
        failed, messages = count_failures(res)
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            kept = os.path.join(out_dir, "spans-%s-%d.json"
                                % (args.workload, args.seed))
            shutil.copyfile(os.path.join(tmp, "spans.json"), kept)
            self_time_table(kept)
            log("chrome trace: %s" % kept)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass
    for m in messages:
        log("FAILED " + m)
    log("%s seed %d: %d instructions, %d rounds, jobs %d, fleet %d"
        % (res["workload"], res["seed"], res["instrs"], res["rounds"],
           res["jobs"], res["fleet"]))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = metric_values(res, [m["name"] for m in declared])
    correct = all(m["name"] in values and math.isfinite(values[m["name"]])
                  for m in declared)
    metrics = {m["name"]: {"value": values.get(m["name"]),
                           "unit": m["unit"]} for m in declared}
    return {"correct": correct, "attempted": res["attempted"],
            "failed": failed, "metrics": metrics}


def selfcheck(spec, driver):
    """Every stage and probe at a small size on every workload: a warm-up
    round, a traced round and an untraced one."""
    ok = True
    for wl in WORKLOADS:
        for trace in (1, 0):
            a = argparse.Namespace(workload=wl, seed=7, seconds=0, trace=trace,
                                   extra=["--small", "--rounds", "3"])
            r = bench(a, spec, driver)
            good = r["correct"] and r["failed"] == 0
            log("selfcheck %-8s trace=%d: %s" % (wl, trace,
                                                 "ok" if good else r))
            ok = ok and good
    print(json.dumps({"selfcheck": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    args.extra = []

    try:
        spec = load_spec()
        driver = build()
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        log("perfbench: cannot set up: %s" % e)
        return 1
    if args.selfcheck:
        return selfcheck(spec, driver)
    try:
        result = bench(args, spec, driver)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
