#!/usr/bin/env python3
"""End-to-end benchmark of the LiPFormer serving and training stack.

Run from the repository root:

  python3 benchmark/run.py --workload steady --seed 1 --seconds 15 --trace 0
      One run of one workload. Prints every metric with its unit, then, as
      the last line, {"correct", "attempted", "failed", "metrics"} holding
      the end-to-end metrics of BENCHMARK.json (--trace 1: the per-layer
      metrics, from a traced run).
  python3 benchmark/run.py [--repeats K] [--traced] [--seed N] [--out FILE]
                           [--history]
      A run set: every workload K times, interleaved, with medians and
      quartiles. --traced follows every untraced run with a traced run of
      the same seed, prints the stage tables and the tracing overhead. The
      set is written to FILE; --history also appends its summary to
      benchmark/history.jsonl.
  python3 benchmark/run.py --smoke
      Every workload, traced, at a tenth of the run length; fails when a
      metric BENCHMARK.json names is missing or a check fails.
  python3 benchmark/run.py compare A.json B.json
      Compares two run sets metric by metric against the bounds.

The benchmark is built from source into build-benchmark/ on every call
(a no-op when nothing changed). Exit status: 0 when every check passed,
1 when a run was incorrect (or compare found a regression), 2 when the
benchmark could not be built or run.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-benchmark"
BINARY = BUILD / "lipf_bench"
HISTORY = BENCH_DIR / "history.jsonl"

# Each invocation must finish within this many seconds once built.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "lipf_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_once(workload, seed, seconds, trace, timeout):
    workdir = BUILD / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={int(trace)}",
           f"--workdir={workdir}"]
    try:
        # On timeout the child is killed and waited for.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {timeout:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if trace and (workdir / "spans.jsonl").exists():
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        target = traces / f"{workload}-seed{seed}.jsonl"
        shutil.move(str(workdir / "spans.jsonl"), str(target))
        result["spans"] = str(target.relative_to(ROOT))
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def run_valid(workload, seed, seconds, trace, deadline):
    """One run, repeated once when lipf_bench marks it invalid: its
    generator ran late (p99 over 2 ms), so it measured the client."""
    start = time.monotonic()
    result = run_once(workload, seed, seconds, trace, deadline - start)
    took = time.monotonic() - start
    if not result["valid"]:
        late = metric(result, "client.late_p99_ms")
        if deadline - time.monotonic() > 1.3 * took:
            log(f"{workload}: generator p99 lateness {late:.2f} ms; run "
                "marked invalid, re-running once")
            result = run_once(workload, seed, seconds, trace,
                              deadline - time.monotonic())
            result["rerun"] = True
        else:
            log(f"{workload}: run invalid (lateness {late:.2f} ms), "
                "no time left to re-run")
    return result


def metric(result, name):
    entry = result["metrics"].get(name)
    return None if entry is None else entry["value"]


def result_line(result, names):
    metrics = {}
    for name in names:
        entry = result["metrics"].get(name)
        if entry is not None and entry["value"] is not None:
            metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    return {"correct": bool(result["correct"]) and len(metrics) == len(names),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def fmt(value):
    if value is None:
        return "-"
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def print_run(result, spec):
    w = result["workload"]
    flags = "correct" if result["correct"] else "INCORRECT"
    flags += "" if result["valid"] else ", INVALID (generator late)"
    print(f"== {w} seed={result['seed']} seconds={result['seconds']:g} "
          f"trace={int(result['trace'])}: {flags}; "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for v in result["violations"]:
        print(f"   violation: {v}")
    print("   end to end:")
    for m in spec["end_to_end"]:
        print(f"     {m['name']:<28} {fmt(metric(result, m['name'])):>12} "
              f"{m['unit']}")
    extras = ["slo_frac", "fail_frac", "reload_s", "train_epoch_s",
              "client.late_p99_ms"]
    for name in extras:
        entry = result["metrics"].get(name)
        if entry is not None:
            print(f"     {name:<28} {fmt(entry['value']):>12} {entry['unit']}")
    tails = []
    for tag in ("p95", "p99", "p999"):
        beyond = metric(result, f"latency.{tag}_beyond")
        if beyond is not None and beyond >= 10:
            tails.append(f"{tag}={fmt(metric(result, f'latency.{tag}_ms'))} ms "
                         f"({beyond:.0f} beyond)")
    if tails:
        print("     tail (no bound): " + ", ".join(tails))
    if result["trace"]:
        print("   per layer:")
        for m in spec["per_layer"]:
            print(f"     {m['name']:<42} {fmt(metric(result, m['name'])):>12} "
                  f"{m['unit']}")
        print_stages(result)


def print_stages(result):
    stages = [("generator lateness", "stage.late_ms", ""),
              ("registry.submit", "stage.submit_ms", ""),
              ("batcher wait", "stage.wait_ms", " (derived)"),
              ("session exec at b={:.0f}", "stage.exec_ms", ""),
              ("delivery", "stage.delivery_ms", " (derived)")]
    if metric(result, "stage.exec_ms") is None:
        return
    print("   stages of tenant 0's client p50, last generation (ms):")
    total = 0.0
    for label, name, note in stages:
        value = metric(result, name)
        total += value
        label = label.format(metric(result, "stage.exec_batch"))
        print(f"     {label + note:<36} {value:10.4f}")
    print(f"     {'sum':<36} {total:10.4f}  "
          f"(client p50 {metric(result, 'stage.client_p50_ms'):.4f})")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, spec):
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for m in spec["end_to_end"]:
            values = [metric(r, m["name"]) for r in results]
            values = [v for v in values if v is not None]
            if not values:
                continue
            q1, _, q3 = quartiles(values)
            summary[workload][m["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "unit": m["unit"]}
    return summary


def git_commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_set(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads} if args.traced else {}
    for i in range(args.repeats):
        # Interleave, rotating the order so no workload always runs first.
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            for trace in ([False, True] if args.traced else [False]):
                # A traced run follows its untraced twin directly (same
                # seed), so both see the same state of the machine.
                r = run_valid(w, args.seed + i, args.seconds, trace,
                              time.monotonic() + RUN_BUDGET_S)
                print_run(r, spec)
                (traced[w] if trace else runs[w]).append(r)
    summary = summarize(runs, spec)

    print("== summary: median [q1, q3] over "
          f"{args.repeats} run(s) per workload")
    for w in workloads:
        cells = []
        for name, s in summary[w].items():
            cells.append(f"{name}={fmt(s['median'])} [{fmt(s['q1'])}, "
                         f"{fmt(s['q3'])}] {s['unit']}")
        print(f"   {w:<20} " + "; ".join(cells))
    for w, pairs in traced.items():
        ratios = [metric(t, "p50_ms") / metric(u, "p50_ms") - 1
                  for u, t in zip(runs[w], pairs)]
        print(f"   tracing overhead {w}: traced/untraced p50 - 1 = "
              f"{statistics.median(ratios):+.1%} (median of {len(ratios)} "
              f"pair(s): {', '.join(f'{x:+.1%}' for x in ratios)})")

    correct = all(r["correct"] for rs in list(runs.values()) +
                  list(traced.values()) for r in rs)
    record = {"commit": git_commit(), "seed": args.seed,
              "seconds": args.seconds, "repeats": args.repeats,
              "correct": correct, "summary": summary, "runs": runs,
              "traced": traced}
    out = Path(args.out) if args.out else (
        BUILD / "results" /
        f"run-{datetime.datetime.now().strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"   wrote {out}")
    if args.history:
        line = {"commit": record["commit"],
                "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
                "seed": args.seed, "seconds": args.seconds,
                "repeats": args.repeats, "correct": correct,
                "medians": {w: {m: s["median"] for m, s in ms.items()}
                            for w, ms in summary.items()},
                "iqrs": {w: {m: s["q3"] - s["q1"] for m, s in ms.items()}
                         for w, ms in summary.items()}}
        with open(HISTORY, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")
        print(f"   appended to {HISTORY.relative_to(ROOT)}")
    return 0 if correct else 1


def smoke(args, spec):
    seconds = spec["run_seconds"] / 10
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    start = time.monotonic()
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        r = run_once(w, args.seed, seconds, True, RUN_BUDGET_S)
        missing = [n for n in names if metric(r, n) is None]
        print(f"   {w:<20} {'correct' if r['correct'] else 'INCORRECT'}"
              f"{'' if not missing else '; missing ' + ', '.join(missing)}")
        ok = ok and r["correct"] and not missing
    took = time.monotonic() - start
    print(f"== smoke: {'ok' if ok else 'FAILED'} in {took:.1f} s "
          f"at {seconds:g} s per workload")
    return 0 if ok else 1


def compare(path_a, path_b, spec):
    """Per (workload, metric): regression when B's median is worse than A's
    by more than the bound; unresolved when either side's spread (IQR over
    median) exceeds the bound, unless every B run beats every A run; gain
    only with >= 10 pairs, B winning >= 9/10 of them, and a median shift
    larger than A's IQR."""
    a_set = json.loads(Path(path_a).read_text())
    b_set = json.loads(Path(path_b).read_text())
    regressions = 0
    for w in [w["name"] for w in spec["workloads"]]:
        runs_a = a_set["runs"].get(w, [])
        runs_b = b_set["runs"].get(w, [])
        if not runs_a or not runs_b:
            print(f"   {w:<20} not in both sets")
            continue
        cells = []
        for m in spec["end_to_end"]:
            a = [metric(r, m["name"]) for r in runs_a]
            b = [metric(r, m["name"]) for r in runs_b]
            if None in a or None in b:
                cells.append(f"{m['name']}=missing")
                continue
            lower = m["better"] == "lower"
            ma, mb = statistics.median(a), statistics.median(b)
            qa1, _, qa3 = quartiles(a)
            qb1, _, qb3 = quartiles(b)
            spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
            change = (mb - ma) / ma
            worse = change if lower else -change

            def better(x, y):
                return x < y if lower else x > y

            if spread > m["bound"]:
                status = ("better" if all(better(y, x) for x in a for y in b)
                          else "unresolved")
            elif worse > m["bound"]:
                status = "REGRESSION"
                regressions += 1
            else:
                pairs = [(x, y) for x, y in zip(a, b) if x != y]
                wins = sum(1 for x, y in pairs if better(y, x))
                status = ("gain" if len(pairs) >= 10 and
                          wins >= 0.9 * len(pairs) and
                          abs(mb - ma) > qa3 - qa1 and worse < 0 else "same")
            cells.append(f"{m['name']}={status}({change:+.1%})")
        print(f"   {w:<20} " + "  ".join(cells))
    return 1 if regressions else 0


def main(argv):
    spec = load_spec()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare A.json B.json")
            return 2
        return compare(argv[1], argv[2], spec)

    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--history", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.history and (args.workload or args.smoke or args.repeats < 5):
        parser.error("--history records run sets of at least 5 repeats")

    build()
    if args.smoke:
        return smoke(args, spec)
    if args.workload is None:
        return run_set(args, spec)

    result = run_valid(args.workload, args.seed, args.seconds,
                       bool(args.trace), time.monotonic() + RUN_BUDGET_S)
    print_run(result, spec)
    section = "per_layer" if args.trace else "end_to_end"
    line = result_line(result, [m["name"] for m in spec[section]])
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"benchmark: {e}")
        sys.exit(2)
