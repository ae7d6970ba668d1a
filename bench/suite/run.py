#!/usr/bin/env python3
"""Wall-clock benchmark runner for distbc (see bench/suite/README.md).

One workload, the form BENCHMARK.json names (run from the repo root):
  python3 bench/suite/run.py --workload road --seed 1 --seconds 18 --trace 0
  Prints every metric with its unit, then one JSON result as the last line:
  the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Every workload, results to a file:
  python3 bench/suite/run.py run [seed=1] [seeds=1] [seconds=S] [out=FILE]
  python3 bench/suite/run.py trace [seed=1] [seconds=S] [out=FILE]
  (S defaults to BENCHMARK.json's run_seconds)
  python3 bench/suite/run.py compare A.json B.json

The driver is built from source into .bench_build/suite on first use.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "suite"
DRIVER = BUILD / "distbc_suite"
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    steps = [["cmake", "--build", str(BUILD), "--target", "distbc_suite",
              "-j", BUILD_JOBS]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(SUITE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            sys.exit(f"build failed: {' '.join(step)}")


def run_driver(workload, seed, seconds, trace_path=None):
    """Runs one workload in its own process; returns the driver's JSON."""
    cmd = [str(DRIVER), f"workload={workload}", f"seed={seed}",
           f"seconds={seconds}"]
    if trace_path:
        cmd.append(f"trace={trace_path}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{workload}: driver exited {proc.returncode}")
    return json.loads(lines[-1])


# --- Traces -------------------------------------------------------------------

def self_times(spans):
    """Per span name: (count, total self seconds). A span's self time is its
    duration minus the part of it its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    out = defaultdict(lambda: [0, 0.0])
    for span in spans:
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["name"]][0] += 1
        out[span["name"]][1] += max(0.0, end - start - covered)
    return out


def traced_run(workload, seed, seconds):
    """Runs the traced pass; adds trace.unattributed_frac (the share of the
    operations' time no child span covers) and returns (result, self times)."""
    trace_path = ROOT / ".bench_build" / f"trace-{workload}-{seed}.jsonl"
    result = run_driver(workload, seed, seconds, trace_path)
    with open(trace_path) as f:
        spans = [json.loads(line) for line in f]
    selfs = self_times(spans)
    op_total = sum(s["end"] - s["start"] for s in spans if s["name"] == "op")
    result["metrics"]["trace.unattributed_frac"] = (
        selfs["op"][1] / op_total if op_total > 0 else 0.0)
    return result, selfs


# --- One workload (the BENCHMARK.json command) --------------------------------

def select_metrics(result, specs):
    missing = [m["name"] for m in specs if m["name"] not in result["metrics"]]
    if missing:
        sys.exit(f"driver did not report: {', '.join(missing)}")
    return {m["name"]: {"value": result["metrics"][m["name"]],
                        "unit": m["unit"]} for m in specs}


def one_workload(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"unknown workload {args.workload}")
    build()
    if args.trace:
        result, _ = traced_run(args.workload, args.seed, args.seconds)
    else:
        result = run_driver(args.workload, args.seed, args.seconds)
    metrics = select_metrics(
        result, spec["per_layer" if args.trace else "end_to_end"])
    for name, metric in metrics.items():
        print(f"{args.workload:8s} {name:34s} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:8s} operations {result['attempted']} "
          f"failed {result['failed']} exactness checks {result['checks']} "
          f"over eps {result['check_failures']}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


# --- Every workload: run / trace / compare ----------------------------------

def key_values(argv, allowed):
    options = {}
    for arg in argv:
        key, sep, value = arg.partition("=")
        if not sep or key not in allowed:
            sys.exit(f"expected one of {', '.join(k + '=' for k in allowed)}; "
                     f"got {arg!r}")
        options[key] = value
    return options


def host_info(compiler):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    build_type = "unknown"
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    commit = "unknown"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build_type": build_type, "commit": commit}


def summarize(values):
    """Median, quartiles and spread (IQR over median) of one metric."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def write_json(doc, out):
    if out:
        with open(out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        log(f"wrote {out}")


def cmd_run(argv):
    opts = key_values(argv, ("seed", "seeds", "seconds", "out"))
    seed, seeds = int(opts.get("seed", 1)), int(opts.get("seeds", 1))
    seconds = float(opts.get("seconds", load_spec()["run_seconds"]))
    spec = load_spec()
    build()
    runs = defaultdict(list)
    for s in range(seed, seed + seeds):  # workloads interleave per seed
        for workload in (w["name"] for w in spec["workloads"]):
            log(f"run {workload} seed={s}")
            runs[workload].append(run_driver(workload, s, seconds))
    doc = {"host": host_info(runs[spec["workloads"][0]["name"]][0]["compiler"]),
           "seed": seed, "seeds": seeds, "seconds": seconds, "workloads": {}}
    print(f"{'workload':8s} {'metric':16s} {'median':>12s} {'spread':>7s} "
          f"{'bound':>6s} unit")
    for workload, results in runs.items():
        entry = {k: sum(r[k] for r in results)
                 for k in ("attempted", "failed", "checks", "check_failures")}
        entry["metrics"] = {}
        for m in spec["end_to_end"]:
            summary = summarize([r["metrics"][m["name"]] for r in results])
            entry["metrics"][m["name"]] = summary
            print(f"{workload:8s} {m['name']:16s} {summary['median']:12.6g} "
                  f"{summary['spread']:7.3f} {m['bound']:6.2f} {m['unit']}")
        print(f"{workload:8s} operations {entry['attempted']} failed "
              f"{entry['failed']}; exactness checks {entry['checks']}, "
              f"over eps {entry['check_failures']}")
        doc["workloads"][workload] = entry
    write_json(doc, opts.get("out"))


def cmd_trace(argv):
    opts = key_values(argv, ("seed", "seconds", "out"))
    seed = int(opts.get("seed", 1))
    seconds = float(opts.get("seconds", load_spec()["run_seconds"]))
    spec = load_spec()
    build()
    doc = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        log(f"trace {workload} seed={seed}")
        plain = run_driver(workload, seed, seconds)
        traced, selfs = traced_run(workload, seed, seconds)
        doc.setdefault("host", host_info(traced["compiler"]))
        print(f"\n== {workload}: per-layer metrics")
        for m in spec["per_layer"]:
            print(f"  {m['name']:34s} {traced['metrics'][m['name']]:>14.6g} "
                  f"{m['unit']}")
        print(f"== {workload}: self time by span (driver call sites)")
        total = sum(t for _, t in selfs.values())
        for name, (count, seconds_self) in sorted(
                selfs.items(), key=lambda item: -item[1][1]):
            print(f"  {name:22s} {count:7d} spans {seconds_self:10.4f} s "
                  f"{100 * seconds_self / total:6.1f}%")
        print(f"== {workload}: traced vs untraced run (same seed)")
        diff = {}
        for m in spec["end_to_end"]:
            a, b = plain["metrics"][m["name"]], traced["metrics"][m["name"]]
            diff[m["name"]] = (b - a) / a if a else 0.0
            print(f"  {m['name']:16s} {a:12.6g} -> {b:12.6g} "
                  f"({100 * diff[m['name']]:+.1f}%)")
        doc["workloads"][workload] = {
            "per_layer": {m["name"]: traced["metrics"][m["name"]]
                          for m in spec["per_layer"]},
            "self_s": {name: t for name, (_, t) in selfs.items()},
            "traced_vs_untraced": diff}
    write_json(doc, opts.get("out"))


def cmd_compare(argv):
    """Per metric x workload: worse than A by more than the bound is a
    regression, unless either side's spread exceeds the bound (unresolved)."""
    if len(argv) != 2:
        sys.exit("usage: run.py compare A.json B.json")
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    spec = load_spec()
    regressions = 0
    print(f"{'workload':8s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'worse':>7s} {'bound':>6s} verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for m in spec["end_to_end"]:
            ma, mb = wa["metrics"][m["name"]], wb["metrics"][m["name"]]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb["median"] - ma["median"]) / ma["median"]
            all_better = all(sign * (y - x) < 0
                             for x in ma["values"] for y in mb["values"])
            if max(ma["spread"], mb["spread"]) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{workload:8s} {m['name']:16s} {ma['median']:12.6g} "
                  f"{mb['median']:12.6g} {100 * worse:+6.1f}% "
                  f"{100 * m['bound']:5.0f}% {verdict}")
        if wb["failed"] > wa["failed"]:
            print(f"{workload:8s} failed operations {wa['failed']} -> "
                  f"{wb['failed']}: REGRESSION")
            regressions += 1
    sys.exit(1 if regressions else 0)


def main(argv):
    commands = {"run": cmd_run, "trace": cmd_trace, "compare": cmd_compare}
    if argv and argv[0] in commands:
        commands[argv[0]](argv[1:])
    else:
        one_workload(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
