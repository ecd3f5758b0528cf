"""Run the benchmark on several workloads and seeds, one process per run, and
report every end-to-end metric with its unit, its median and its quartile
spread, the statistic the benchmark's bounds are judged by.

    python3 perfbench/spread.py                                  # every workload, seed 1
    python3 perfbench/spread.py --workload dag-dp --seeds 1 10   # one workload, ten seeds

Runs are sequential and use the `run_seconds` of BENCHMARK.json. A spread is
(Q3 - Q1) / median with the quartiles of `statistics.quantiles(values, n=4)`;
it is flagged when it exceeds a third of the metric's bound. The exit code is
1 when any run failed or reported a wrong output.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_workload(spec, workload, seeds, trace, bounds) -> bool:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in seeds:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"{workload} seed {seed}: FAILED, exit {proc.returncode}\n"
                  f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
            ok = False
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"{workload} seed {seed}: "
              + " ".join(f"{k}={v[-1]:.5g}{units[k]}" for k, v in values.items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        s = spread(vals) if med and len(vals) > 1 else 0.0
        bound = bounds.get(name)
        flag = "  > bound/3" if bound and s > bound / 3 else ""
        print(f"{workload:16s} {name:44s} median {med:12.6g} {units[name]:6s}"
              f" spread {s:7.2%}  bound {bound}{flag}")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 1), metavar=("FIRST", "LAST"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = range(args.seeds[0], args.seeds[1] + 1)
    ok = True
    for workload in args.workload:
        ok &= run_workload(spec, workload, seeds, args.trace, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
