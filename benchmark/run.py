#!/usr/bin/env python3
"""End-to-end benchmark runner (see benchmark/README.md).

Builds the manet_bench harness, runs each workload in a fresh process and
turns the harness's raw samples into the metrics BENCHMARK.json names.

  python3 benchmark/run.py                      all workloads, seed 1
  python3 benchmark/run.py --trace              + traced runs, per-layer metrics
  python3 benchmark/run.py --smoke              toy sizes, same checks
  python3 benchmark/run.py --runs 10 --sets 2 --seed 11 --out sets.json
  python3 benchmark/run.py compare A.json[@K] B.json[@K]
  python3 benchmark/run.py --selftest
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

With a single workload and a single run, the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, holding
the end-to-end metrics untraced and the per-layer metrics traced.
"""

import argparse
import fcntl
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
HARNESS = os.path.join(BUILD, "manet_bench")
TRACE_DIR = os.path.join(BUILD, "trace")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
HARNESS_TIMEOUT_S = 160
SMOKE_SECONDS = 0.5
# About the calibration kernel's median time on an idle 4-vCPU Xeon
# container (see calibration_kernel in manet_bench.cpp). End-to-end times
# are scaled to that speed: wall time x CALIBRATION_REF_MS / the run's
# median.
CALIBRATION_REF_MS = 1.6


class BenchError(Exception):
    """A failure that leaves no result to print."""


# ------------------------------------------------------------ statistics

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def iqr_frac(values):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else (0.0 if q3 == q1 else math.inf)


def percentile(values, p):
    """Nearest-rank percentile; None unless at least 10 samples lie beyond
    it, so the tail it reports is supported by the sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def chunk_rates(op_ms, chunk_ms=1000.0):
    """Operations per second of call time over consecutive stretches of at
    least chunk_ms; a trailing partial stretch is dropped."""
    rates, n, total = [], 0, 0.0
    for ms in op_ms:
        n += 1
        total += ms
        if total >= chunk_ms:
            rates.append(1000.0 * n / total)
            n, total = 0, 0.0
    return rates


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def classify(base, new, better, bound):
    """same / better / worse / unresolved for two sets of one metric.

    Unresolved when either side's IQR is wider than the bound, unless every
    new value beats every base value; otherwise the median change decides.
    """
    lower = better == "lower"
    mb, mn = median(base), median(new)
    spread = max(iqr_frac(base), iqr_frac(new))
    beats_all = max(new) < min(base) if lower else min(new) > max(base)
    if spread > bound:
        return "better" if beats_all else "unresolved"
    if mb == 0:
        change = 0.0 if mn == 0 else math.inf
    else:
        change = (mn - mb) / abs(mb) * (1 if lower else -1)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


# ---------------------------------------------------------------- build

def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Configures and builds the harness (both are quick no-ops once up to
    date); the lock keeps concurrent runs in one checkout from building over
    each other."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "--target", "manet_bench",
                     "-j", jobs]):
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                raise BenchError("build failed: " + " ".join(cmd))


# ------------------------------------------------------------------ runs

def run_harness(workload, seed, seconds, traced, smoke):
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace", TRACE_DIR]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (workload,
                                                      HARNESS_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s: harness exited with %d" % (workload,
                                                         proc.returncode))
    return json.loads(lines[-1])


def scale(raw):
    """Wall time -> time at the reference speed, for this run."""
    return CALIBRATION_REF_MS / median(raw["samples"]["calib_ms"])


def end_to_end(raw):
    s, v, k = raw["samples"], raw["values"], scale(raw)
    return {
        "setup_s": median(s["setup_s"]) * k,
        "op_ms": median(s["op_ms"]) * k,
        "peak_rss_mb": v["peak_rss_mb"],
        "detect_rate": v["detect_rate"],
    }


def reported(raw):
    """Printed and kept in result sets, but not gated: the unscaled wall
    times, the calibration itself, the p90 (on a shared machine the slowest
    tenth of operations is set by other processes' load) and the
    throughput, which repeats op_ms with a noisier estimator."""
    s, k = raw["samples"], scale(raw)
    out = {
        "setup_wall_s": {"value": median(s["setup_s"]), "unit": "s"},
        "op_wall_ms": {"value": median(s["op_ms"]), "unit": "ms"},
        "calib_ms": {"value": median(s["calib_ms"]), "unit": "ms"},
    }
    p90 = percentile(s["op_ms"], 90)
    if p90 is not None:
        out["op_p90_ms"] = {"value": p90 * k, "unit": "ms"}
    # The median over 1 s stretches: a burst of load moves a mean far more.
    rates = chunk_rates(s["op_ms"])
    if rates:
        out["ops_per_s"] = {"value": median(rates) / k, "unit": "1/s"}
    return out


def per_layer(traced, untraced):
    m = dict(traced["layers"])
    samples = traced["layer_samples"]
    for name, values in samples.items():
        m[name] = median(values)
    m["olsr.setup_exponent"] = loglog_slope(samples["ladder.nodes"],
                                            samples["ladder.setup_s"])
    m["obs.overhead_frac"] = (end_to_end(traced)["setup_s"] /
                              end_to_end(untraced)["setup_s"] - 1.0)
    return m


def select(values, entries):
    """The listed metrics with their units; a missing one is an error."""
    out = {}
    for e in entries:
        if values.get(e["name"]) is None:
            raise BenchError("metric %s could not be computed" % e["name"])
        out[e["name"]] = {"value": values[e["name"]], "unit": e["unit"]}
    return out


def run_workload(spec, workload, seed, seconds, trace, smoke):
    """One untraced run and, with trace, one traced run of a workload."""
    raw = run_harness(workload, seed, seconds, False, smoke)
    result = {
        "workload": workload, "seed": seed, "digest": raw["digest"],
        "attempted": raw["attempted"], "failed": raw["failed"],
        "failures": raw["failures"],
        "metrics": select(end_to_end(raw), spec["end_to_end"]),
        "reported": reported(raw),
    }
    if trace:
        traced = run_harness(workload, seed, seconds, True, smoke)
        same = traced["digest"] == raw["digest"]
        result["attempted"] += traced["attempted"] + 1
        result["failed"] += traced["failed"] + (0 if same else 1)
        result["failures"] += traced["failures"]
        if not same:
            result["failures"].append(
                "traced digest %s != untraced %s" % (traced["digest"],
                                                     raw["digest"]))
        result["layers"] = select(per_layer(traced, raw), spec["per_layer"])
        result["self_ms"] = traced["self_ms"]
    result["correct"] = result["failed"] == 0
    return result


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_result(r):
    w = r["workload"]
    for group in ("metrics", "reported", "layers"):
        for name, m in r.get(group, {}).items():
            print("%s %s %s %s" % (w, name, fmt(m["value"]), m["unit"]))
    for name, ms in sorted(r.get("self_ms", {}).items()):
        print("%s self_ms %s %s" % (w, name, fmt(ms)))
    print("%s digest %s" % (w, r["digest"]))
    print("%s error_rate %s (%d of %d attempted)" % (
        w, fmt(r["failed"] / max(1, r["attempted"])), r["failed"],
        r["attempted"]))
    for f in r["failures"]:
        print("%s FAILED %s" % (w, f))


def main_run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    for w in workloads:
        if w not in names:
            raise BenchError("unknown workload %s" % w)
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    trace = bool(args.trace) or args.smoke
    build()

    # Every set runs the same seeds, so the sets' digests must agree.
    sets = []
    for _ in range(args.sets):
        runs = []
        for i in range(args.runs):
            for w in workloads:
                r = run_workload(spec, w, args.seed + i, seconds, trace,
                                 args.smoke)
                print_result(r)
                sys.stdout.flush()
                runs.append(r)
        sets.append({"runs": runs, "summary": summarize(runs)})
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"sets": sets}, f, indent=1)
            f.write("\n")
    results = [r for s in sets for r in s["runs"]]
    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        r = results[0]
        metrics = r["layers"] if args.trace else r["metrics"]
        print(json.dumps({"correct": correct, "attempted": r["attempted"],
                          "failed": r["failed"], "metrics": metrics}))
    return 0 if correct else 1


# --------------------------------------------------------------- compare

def gather(runs):
    values, digests = {}, {}
    for r in runs:
        for name, m in list(r["metrics"].items()) + list(
                r["reported"].items()):
            values.setdefault((r["workload"], name), []).append(m["value"])
        digests[(r["workload"], r["seed"])] = r["digest"]
    return values, digests


def summarize(runs):
    """Median and quartiles of every metric, per workload."""
    out = {}
    for (workload, name), values in sorted(gather(runs)[0].items()):
        q1, q3 = quartiles(values)
        out.setdefault(workload, {})[name] = {
            "median": median(values), "q1": q1, "q3": q3,
            "iqr_frac": iqr_frac(values)}
    return out


def load_set(arg):
    """PATH or PATH@K: the K-th set (1-based, default 1) of an --out file."""
    path, _, index = arg.partition("@")
    with open(path) as f:
        return json.load(f)["sets"][int(index or 1) - 1]


def compare(base_arg, new_arg):
    spec = load_spec()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base, base_digests = gather(load_set(base_arg)["runs"])
    new, new_digests = gather(load_set(new_arg)["runs"])
    worse = 0
    print("%-14s %-12s %11s %11s %11s %11s %11s %11s %8s  %s" % (
        "workload", "metric", "base_med", "base_q1", "base_q3", "new_med",
        "new_q1", "new_q3", "delta", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in bounds:
            continue
        better, bound = bounds[name]
        b, n = base[key], new[key]
        verdict = classify(b, n, better, bound)
        worse += verdict == "worse"
        mb, mn = median(b), median(n)
        delta = (mn - mb) / abs(mb) if mb else 0.0
        print("%-14s %-12s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %+7.1f%%"
              "  %s" % ((workload, name, mb) + quartiles(b) + (mn,) +
                        quartiles(n) + (100 * delta, verdict)))
    shared = set(base_digests) & set(new_digests)
    differ = sorted(k for k in shared if base_digests[k] != new_digests[k])
    print("digests: %d compared, %d differ%s" % (
        len(shared), len(differ),
        "".join(" %s/seed %d" % k for k in differ)))
    return 1 if worse or differ else 0


# -------------------------------------------------------------- selftest

def selftest():
    # Nearest rank: p90 of 1..100 is 90, with exactly 10 samples beyond.
    assert percentile(list(range(1, 101)), 90) == 90
    assert percentile(list(range(1, 100)), 90) is None
    assert percentile(list(range(1, 201)), 90) == 180
    assert percentile([5.0] * 11, 1) == 5.0
    assert percentile([1.0] * 10, 50) is None
    # Median and quartiles (statistics.quantiles, exclusive method).
    assert median([3, 1, 2]) == 2
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (2.25, 6.75)
    assert abs(iqr_frac([1, 2, 3, 4, 5, 6, 7, 8]) - 4.5 / 4.5) < 1e-12
    assert iqr_frac([7.0]) == 0.0
    # The log-log fit recovers t = c * N^3.
    ns = [32, 48, 64]
    assert abs(loglog_slope(ns, [2e-5 * n ** 3 for n in ns]) - 3.0) < 1e-9
    assert abs(loglog_slope([8, 16], [4.0, 4.0])) < 1e-12
    # Throughput stretches: whole seconds of call time, remainder dropped.
    assert chunk_rates([500.0] * 5) == [2.0, 2.0]
    assert chunk_rates([250.0, 750.0, 2000.0]) == [2.0, 0.5]
    assert chunk_rates([100.0]) == []
    # Compare verdicts on synthetic sets.
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert classify(base, [v * 1.02 for v in base], "lower", 0.1) == "same"
    assert classify(base, [v * 1.3 for v in base], "lower", 0.1) == "worse"
    assert classify(base, [v * 0.7 for v in base], "lower", 0.1) == "better"
    assert classify(base, [v * 0.7 for v in base], "higher", 0.1) == "worse"
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert classify(base, noisy, "lower", 0.1) == "unresolved"
    assert classify(noisy, [10, 20, 30, 40, 50], "lower", 0.1) == "better"
    assert classify([1.0] * 4, [1.0] * 4, "higher", 0.05) == "same"
    print("selftest: ok")
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.stderr.write("usage: run.py compare A.json[@K] B.json[@K]\n")
            return 2
        return compare(argv[1], argv[2])
    p = argparse.ArgumentParser(description="end-to-end benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    if args.selftest:
        return selftest()
    return main_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write("run.py: %s\n" % e)
        sys.exit(1)
