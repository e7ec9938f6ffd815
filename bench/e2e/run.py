#!/usr/bin/env python3
"""Runner for the e2e wall-clock benchmark (see README.md).

  run.py --workload W --seed N --seconds S --trace 0|1
      Builds e2e_bench if needed, runs it once and prints, as the last
      stdout line, {"correct", "attempted", "failed", "metrics"} with the
      BENCHMARK.json end-to-end metrics (--trace 0) or per-layer metrics
      (--trace 1).
  run.py all [--runs R] [--seed N] [--seconds S] [--out F]
      Runs every workload R times untraced (alternating the workload order)
      and once traced, prints every metric by name with its unit, and
      writes one JSON report.
  run.py compare OLD NEW
      Compares two reports on medians against the BENCHMARK.json bounds.
      Exits 1 if any end-to-end metric got worse by more than its bound.
  run.py smoke [--bin PATH]
      Every workload untraced and traced at 1/500 of its op count; checks
      exit codes, metric names and units, and that the traced walk
      reproduced the client's counts.

The build goes to build-release/e2e (Release) at the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-release", "e2e")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
SMOKE_SCALE = 0.002


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(SPEC) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (SPEC, e))


def build():
    """Configures (Release) and builds e2e_bench; returns the binary path."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4)])
    for i, cmd in enumerate(steps):
        if i == len(steps) - 1:
            attest(cache)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "e2e_bench")


def attest(cache):
    """Refuses to time an unoptimized build (as scripts/run_all_benches.sh)."""
    build_type = ""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type not in ("Release", "RelWithDebInfo"):
        fail("%s is configured as '%s', not Release; remove it or "
             "reconfigure with -DCMAKE_BUILD_TYPE=Release"
             % (BUILD, build_type or "<empty>"))


def run_bench(binary, workload, seed, seconds, trace, extra=(), echo=True):
    """Runs e2e_bench once; returns (exit code, parsed JSON result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(spans, "%s-seed%d.jsonl" % (workload, seed))]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    return proc.returncode, result


def select(result, entries):
    """The result's metrics named in `entries` (BENCHMARK.json), checked."""
    metrics = {}
    for e in entries:
        m = result["metrics"].get(e["name"])
        if m is None:
            fail("metric %s missing" % e["name"])
        if m["unit"] != e["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (e["name"], m["unit"], e["unit"]))
        metrics[e["name"]] = m
    return metrics


def cmd_single(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %s (have: %s)"
             % (args.workload, ", ".join(names)))
    binary = build()
    rc, result = run_bench(binary, args.workload, args.seed, args.seconds,
                           args.trace == 1)
    entries = spec["per_layer"] if args.trace == 1 else spec["end_to_end"]
    out = {
        "correct": bool(result["correct"]) and rc == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(result, entries),
    }
    print(json.dumps(out))
    return rc


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarize(values):
    """Median, quartiles and IQR/median of a list of numbers."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": spread}


def collect(results, entries):
    out = {}
    for e in entries:
        values = [r["metrics"][e["name"]]["value"] for r in results]
        out[e["name"]] = dict(summarize(values), unit=e["unit"])
    return out


def cmd_all(args):
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    binary = build()
    untraced = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            rc, r = run_bench(binary, w, args.seed, args.seconds, False,
                              echo=False)
            ok &= rc == 0 and r["correct"]
            untraced[w].append(r)
            print("run %d/%d %-26s ops_per_s %.6g  lat_p90_ns %.6g  "
                  "lat_p99_ns %.6g" % (
                      i + 1, args.runs, w,
                      r["metrics"]["ops_per_s"]["value"],
                      r["metrics"]["lat_p90_ns"]["value"],
                      r["metrics"]["lat_p99_ns"]["value"]), flush=True)
    for w in workloads:
        rc, r = run_bench(binary, w, args.seed, args.seconds, True,
                          echo=False)
        ok &= rc == 0 and r["correct"] and r.get("faithful", False)
        traced[w].append(r)
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "host": {"machine": platform.machine(), "cpu": cpu_model(),
                 "cpus": os.cpu_count()},
        "workloads": {},
    }
    extra = [{"name": n, "unit": u} for n, u in (
        ("hit_rate", "ratio"), ("error_rate", "ratio"), ("lat_p50_ns", "ns"),
        ("lat_p999_ns", "ns"), ("lat_samples", "calls"))]
    for w in workloads:
        per_layer = [{"name": n, "unit": m["unit"]}
                     for n, m in traced[w][0]["metrics"].items()]
        report["workloads"][w] = {
            "untraced": collect(untraced[w], spec["end_to_end"] + extra),
            "traced": collect(traced[w], per_layer),
            "faithful": all(r.get("faithful", False) for r in traced[w]),
            "counts": untraced[w][0].get("counts"),
        }
    print_report(report, spec)
    out = args.out or os.path.join(BUILD, "report.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print("wrote " + out)
    return 0 if ok else 1


def print_report(report, spec):
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    for w, data in report["workloads"].items():
        print("== %s (seed %d, %d runs, faithful walk: %s)" % (
            w, report["seed"], report["runs"], data["faithful"]))
        for section in ("untraced", "traced"):
            for name, s in data[section].items():
                bound = bounds.get(name) if section == "untraced" else None
                note = ("  spread %.2f%% (bound %g%%)" % (
                    100 * s["spread"], 100 * bound)
                        if bound is not None else "")
                print("  %-42s %-14.7g %-10s [q1 %.7g, q3 %.7g]%s" % (
                    name, s["median"], s["unit"], s["q1"], s["q3"], note))


def verdict(old, new, better, bound):
    """Classifies new vs old medians for one metric under `bound`."""
    if old["values"] == new["values"]:
        return "identical", 0.0
    mo, mn = old["median"], new["median"]
    if mo == 0:
        return ("unchanged" if mn == 0 else "changed"), 0.0
    change = (mn - mo) / abs(mo)
    worse = change if better == "lower" else -change
    if better == "lower":
        all_better = max(new["values"]) < min(old["values"])
    else:
        all_better = min(new["values"]) > max(old["values"])
    if max(old["spread"], new["spread"]) > bound:
        return ("better" if all_better else "unresolved"), worse
    if worse > bound:
        return "WORSE", worse
    if -worse > bound:
        return "better", worse
    return "unchanged", worse


def cmd_compare(args):
    spec = load_spec()
    reports = []
    for path in (args.old, args.new):
        try:
            with open(path) as f:
                reports.append(json.load(f))
        except (OSError, ValueError) as e:
            fail("cannot read %s: %s" % (path, e))
    old, new = reports
    worse = 0
    for w in spec["workloads"]:
        name = w["name"]
        if name not in old["workloads"] or name not in new["workloads"]:
            print("== %s: missing from a report" % name)
            continue
        print("== " + name)
        o, n = old["workloads"][name], new["workloads"][name]
        for e in spec["end_to_end"]:
            so, sn = o["untraced"].get(e["name"]), n["untraced"].get(e["name"])
            if so is None or sn is None:
                print("  %-26s missing" % e["name"])
                continue
            v, delta = verdict(so, sn, e["better"], e["bound"])
            worse += v == "WORSE"
            print("  %-26s %-14.7g -> %-14.7g %-4s worse by %+7.2f%% "
                  "(bound %g%%, spread %.2f%%/%.2f%%)  %s" % (
                      e["name"], so["median"], sn["median"], e["unit"],
                      100 * delta, 100 * e["bound"], 100 * so["spread"],
                      100 * sn["spread"], v))
        for e in spec["per_layer"]:
            so = o["traced"].get(e["name"])
            sn = n["traced"].get(e["name"])
            if so is not None and sn is not None:
                print("  %-42s %-14.7g -> %-14.7g %s" % (
                    e["name"], so["median"], sn["median"], e["unit"]))
    print("%d metric(s) worse beyond their bound" % worse)
    return 1 if worse else 0


def cmd_smoke(args):
    spec = load_spec()
    binary = args.bin or build()
    extra = ["--ops-scale", str(SMOKE_SCALE), "--setup-reps", "1"]
    problems = []
    failed = 0
    for w in spec["workloads"]:
        for trace in (False, True):
            label = "%s %s" % (w["name"], "traced" if trace else "untraced")
            rc, r = run_bench(binary, w["name"], 1, spec["run_seconds"],
                              trace, extra, echo=False)
            if rc != 0 or not r["correct"] or r["failed"] != 0:
                problems.append("%s: exit %d, correct %s, failed %s" % (
                    label, rc, r["correct"], r["failed"]))
            entries = spec["per_layer"] if trace else spec["end_to_end"]
            for e in entries:
                m = r["metrics"].get(e["name"])
                if m is None or m["unit"] != e["unit"]:
                    problems.append("%s: metric %s missing or not in %s" % (
                        label, e["name"], e["unit"]))
            if trace and (not r.get("faithful") or (
                    r["threads"] == 1
                    and r.get("counts") != r.get("walk_counts"))):
                problems.append(label + ": walk counts differ from the "
                                "client's")
            print("%-40s %s" % (label, "FAIL" if len(problems) > failed
                                else "ok"), flush=True)
            failed = len(problems)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("all", "compare", "smoke"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "all":
            p.add_argument("--runs", type=int, default=5)
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--seconds", type=int,
                           default=load_spec()["run_seconds"])
            p.add_argument("--out", default="")
            return cmd_all(p.parse_args(argv[1:]))
        if argv[0] == "compare":
            p.add_argument("old")
            p.add_argument("new")
            return cmd_compare(p.parse_args(argv[1:]))
        p.add_argument("--bin", default="")
        return cmd_smoke(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
