#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads paper-engine,rpc-mixed \
        --seeds 1-10 --seconds 30 --trace 0 --out .bench_build/spread.json

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the
interquartile distance as a share of the median. With --trace 0 it also
compares each spread with a third of the metric's bound in BENCHMARK.json.
With --selfcheck it runs one seed twice with --trace 1 and checks that the
count metrics repeat exactly.
"""
import argparse
import json
import statistics
import subprocess
import sys

EXACT = ["partial.lpm", "lec.features", "lec.retained_ratio",
         "assembly.join_attempts", "fragment.touched"]


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    return res


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="paper-engine,rpc-mixed")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    ok = True
    for w in a.workloads.split(","):
        if a.selfcheck:
            seed = seeds_of(a.seeds)[0]
            pairs = [(name, 1) for name in EXACT]
            if w == "paper-engine":
                pairs.append(("ship_kb_per_query", 0))
            for trace in sorted({t for _, t in pairs}):
                one = run_once(cmd, w, seed, seconds, trace)["metrics"]
                two = run_once(cmd, w, seed, seconds, trace)["metrics"]
                for name in [n for n, t in pairs if t == trace]:
                    v1, v2 = one[name]["value"], two[name]["value"]
                    ok &= v1 == v2
                    print(f"{w:13s} {name:26s} {v1!r:>22} {v2!r:>22} {'same' if v1 == v2 else 'DIFFERENT'}")
            continue
        runs = [run_once(cmd, w, s, seconds, a.trace) for s in seeds_of(a.seeds)]
        rows = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                          "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = ""
            if name in bounds and name != "setup_s":
                if spread > bounds[name]:
                    flag, ok = "OVER BOUND", False
                elif spread > bounds[name] / 3:
                    flag = "over a third of bound"
            print(f"{w:13s} {name:28s} median {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.3f} {flag}")
        report[w] = rows
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
