"""smposet benchmark: drives `smposet.cli.main(argv)` in process over seeded
input files, one thread, closed loop (each op starts when the previous one
returned), and checks every output.

    python3 perfbench/run.py --workload random-complete --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`. With
`--trace 0` the last stdout line is a JSON object carrying the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run.
Details (environment stamp, per-op-kind times, all span totals, and the
spans of a traced run) go to `perfbench/out/`. The exit code is 0 when every
output was right, 1 when an output check failed and 2 when the run could not
start. See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import gzip
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as trace  # noqa: E402
import workloads  # noqa: E402
from checks import REFUSED, Result  # noqa: E402

LAYERS = ("cli", "instance", "rotations", "posets", "pathdecomp", "downsets", "fairness", "realize")
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_total_s": "s",
    "count_total_s": "s",
    "peak_rss_mb": "MB",
    "ops_answered_ratio": "ratio",
}

PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.main.errors": "count",
    "instance.parse_instance.self_s": "s",
    "instance.gale_shapley.calls": "count",
    "instance.gale_shapley.self_s": "s",
    "instance.symmetric_shortlists.self_s": "s",
    "instance.compute_range.errors": "count",
    "rotations.rotation_digraph.self_s": "s",
    "rotations.rotation_digraph.n200": "s",
    "rotations.rotation_digraph.n400": "s",
    "rotations.rotation_digraph.doubling": "ratio",
    "rotations.rotation_digraph.calls_per_op": "ratio",
    "rotations.exposed_rotations.calls": "count",
    "rotations.exposed_rotations.self_s": "s",
    "rotations.matching_from_downset.calls": "count",
    "rotations.matching_from_downset.self_s": "s",
    "rotations.eliminate.calls": "count",
    "posets.parse_dag.self_s": "s",
    "posets.Dag.self_s": "s",
    "posets.reachable_from.calls": "count",
    "posets.enumerate_downsets_bruteforce.self_s": "s",
    "pathdecomp.parse_decomposition.self_s": "s",
    "pathdecomp.validate_decomposition.calls_per_op": "ratio",
    "pathdecomp.validate_decomposition.self_s": "s",
    "pathdecomp.to_nice.self_s": "s",
    "pathdecomp.construct_path_decomposition.self_s": "s",
    "pathdecomp.induced_decomposition.calls": "count",
    "pathdecomp.induced_decomposition.self_s": "s",
    "pathdecomp.width.max": "count",
    "downsets.count_downsets.calls": "count",
    "downsets.count_downsets.self_s": "s",
    "downsets.count_downsets.doubling": "ratio",
    "downsets.count_downsets.errors": "count",
    "downsets.count_downsets_within.calls": "count",
    "downsets.count_downsets_within.self_s": "s",
    "downsets.sample_downset.self_s": "s",
    "downsets.sample_downset.errors": "count",
    "fairness.FairnessScores.of.calls": "count",
    "realize.realize_complete.self_s": "s",
    "realize.realize_bounded3.self_s": "s",
    "realize.realize_list2inf.self_s": "s",
    "realize.realize_attr6.self_s": "s",
    "realize.realize_range.self_s": "s",
    "realize.evaluate_profiles.self_s": "s",
    "realize.construct_instance.self_s": "s",
    "ops_refused_ratio": "ratio",
    "trace.overhead_s": "s",
}

# (measure, smaller input, input twice as large) per span name. The rotation
# enumeration is timed inclusive of its traced callees (exposed_rotations,
# eliminate), which are part of the algorithm being scaled; the DP is timed
# by self time, which leaves out its validate_decomposition call.
DOUBLING = {
    "rotations.rotation_digraph": ("total_s", "n200", "n400"),
    "downsets.count_downsets": ("self_s", "band5000", "band10000"),
}
CALLS_PER_OP = ("rotations.rotation_digraph", "pathdecomp.validate_decomposition")
WIDTH_SOURCES = ("pathdecomp.construct_path_decomposition", "pathdecomp.to_nice")


def import_package():
    """Import smposet afresh from src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "smposet" or m.startswith("smposet.")]:
        del sys.modules[name]
    sp = importlib.import_module("smposet")
    if Path(sp.__file__).resolve().parent != (SRC / "smposet").resolve():
        raise ImportError(f"smposet was imported from {sp.__file__}, not from src/")
    return sp, {name: importlib.import_module(f"smposet.{name}") for name in LAYERS}


def traced_members(mods):
    return (
        (mods["posets"].Dag, "__init__", "posets.Dag"),
        (mods["fairness"].FairnessScores, "of", "fairness.FairnessScores.of"),
    )


def set_up(workload: str, seed: int, workdir: Path):
    """Import the package and write the workload's inputs. Repeated, and the
    median reported; the last repetition's package and files are used.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        workdir.mkdir(parents=True)
        sp, mods = import_package()
        plan = workloads.WORKLOADS[workload](workdir, seed)
        times.append(time.perf_counter() - t0)
    return sp, mods, plan, statistics.median(times)


def execute(mods, op):
    """Run one op through cli.main, looked up at call time so that a traced
    run goes through the wrapper. Returns its result and its wall time.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mods["cli"].main(op.argv)
    except Exception:  # a crash is a failed op, reported with its traceback
        dt = time.perf_counter() - t0
        return Result(-1, out.getvalue(), traceback.format_exc()), dt
    dt = time.perf_counter() - t0
    files = tuple(
        Path(p).read_text(encoding="utf-8") if Path(p).exists() else "" for p in op.writes
    )
    return Result(code, out.getvalue(), err.getvalue(), files), dt


class Runner:
    """Runs passes over a plan's ops and keeps the first pass's results."""

    def __init__(self, mods, plan):
        self.mods, self.ops = mods, plan.ops
        self.first: list[Result] = []
        self.samples = [[] for _ in plan.ops]
        self.executions = 0
        self.passes_started = 0
        self.failures: list[str] = []

    def require_untraced(self) -> None:
        left = trace.wrapped_attributes(self.mods, traced_members(self.mods))
        if left:
            raise RuntimeError(f"tracing wrappers left in place: {left}")

    def run_op(self, i, tracer=None) -> float:
        op = self.ops[i]
        if tracer is not None:
            tracer.begin_op((self.passes_started, i))
        res, dt = execute(self.mods, op)
        self.executions += 1
        if len(self.first) == i:
            self.first.append(res)
        elif res != self.first[i]:
            self.failures.append(f"{op.kind} {op.label}: output differs from the first pass")
        if res.code not in (0, *REFUSED):
            self.failures.append(f"{op.kind} {op.label}: exit {res.code}: {res.err[-400:]}")
        return dt

    def full_pass(self, tracer=None) -> float:
        t0 = time.perf_counter()
        for i in range(len(self.ops)):
            self.run_op(i, tracer)
        self.passes_started += 1
        return time.perf_counter() - t0

    def timed(self, seconds: float) -> None:
        """Untraced passes until the deadline, stopping between ops; the
        first pass always completes so every op has a sample.
        """
        self.require_untraced()
        deadline = time.perf_counter() + seconds
        while True:
            for i in range(len(self.ops)):
                if self.passes_started and time.perf_counter() >= deadline:
                    return
                self.samples[i].append(self.run_op(i))
            self.passes_started += 1
            if time.perf_counter() >= deadline:
                return


def op_kind_metrics(ops, samples):
    """Per op kind: sum and median over its ops of each op's median latency."""
    medians = [statistics.median(s) for s in samples]
    by_kind = defaultdict(list)
    for op, m in zip(ops, medians):
        by_kind[op.kind].append(m)
    out = {}
    for kind, ms in by_kind.items():
        out[kind] = {
            "total_s": sum(ms),
            "p50_ms": statistics.median(ms) * 1000,
            "ops": len(ms),
            "samples": sum(len(s) for op, s in zip(ops, samples) if op.kind == kind),
        }
    return medians, out


def end_to_end(runner, setup_s):
    medians, kinds = op_kind_metrics(runner.ops, runner.samples)
    answered = sum(1 for r in runner.first if r.code == 0)
    metrics = {
        "setup_s": setup_s,
        "ops_total_s": sum(medians),
        "count_total_s": kinds["count"]["total_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_answered_ratio": answered / len(runner.ops),
    }
    return metrics, kinds


def pass_layer_values(spans, selfs, ops, first, pass_no):
    """Per-layer values of one traced pass, plus its totals per span name."""
    totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0})
    by_label = defaultdict(float)
    explained = set()
    width = 0
    for span, s in zip(spans, selfs):
        p, i = span[trace.OP]
        if p != pass_no:
            continue
        name = span[trace.NAME]
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += s
        t["total_s"] += span[trace.END] - span[trace.START]
        t["errors"] += span[trace.ERROR]
        if span[trace.ERROR]:
            explained.add(i)
        by_label[(name, ops[i].label, "self_s")] += s
        by_label[(name, ops[i].label, "total_s")] += span[trace.END] - span[trace.START]
        if name in WIDTH_SOURCES and span[trace.VALUE] is not None:
            width = max(width, span[trace.VALUE])
    refused = [i for i, r in enumerate(first) if r.code in REFUSED]
    # a refusal raised inside cli itself leaves no traced span with an error
    totals["cli.main"]["errors"] += sum(1 for i in refused if i not in explained)
    values = {}
    for name, t in totals.items():
        for key, v in t.items():
            values[f"{name}.{key}"] = v
    for name, (measure, small, large) in DOUBLING.items():
        a, b = by_label[(name, small, measure)], by_label[(name, large, measure)]
        values[f"{name}.{small}"], values[f"{name}.{large}"] = a, b
        values[f"{name}.doubling"] = b / a if a else 0.0
    for name in CALLS_PER_OP:
        values[f"{name}.calls_per_op"] = values.get(f"{name}.calls", 0) / len(ops)
    values["pathdecomp.width.max"] = width
    values["ops_refused_ratio"] = len(refused) / len(ops)
    return values, {k: dict(v) for k, v in totals.items()}


def is_time(name: str) -> bool:
    return name.endswith((".self_s", ".doubling", ".n200", ".n400"))


def traced_run(runner, mods, seconds):
    """Pass 0 untraced; then traced and untraced passes alternate, starting
    with a traced one, until the deadline. Returns per-layer metrics, the
    span totals of each traced pass, the tracer, the self time of each span,
    the problems found and the pass times.
    """
    tracer = trace.Tracer(
        mods,
        traced_members(mods),
        observers={
            "pathdecomp.construct_path_decomposition": lambda r: r[1].width,
            "pathdecomp.to_nice": lambda r: r.width,
        },
    )
    deadline = time.perf_counter() + seconds
    runner.require_untraced()
    untraced = [runner.full_pass()]
    traced, traced_passes = [], []
    while True:
        traced_passes.append(runner.passes_started)
        with tracer:
            traced.append(runner.full_pass(tracer))
        if time.perf_counter() >= deadline:
            break
        runner.require_untraced()
        untraced.append(runner.full_pass())
        if time.perf_counter() >= deadline:
            break
    runner.require_untraced()
    selfs = trace.self_times(tracer.spans)
    per_pass, totals = [], []
    for p in traced_passes:
        values, tot = pass_layer_values(tracer.spans, selfs, runner.ops, runner.first, p)
        per_pass.append(values)
        totals.append(tot)
    problems = []
    metrics = {}
    for name in PER_LAYER:
        vals = [v.get(name, 0) for v in per_pass]
        if is_time(name):
            metrics[name] = statistics.median(vals)
        else:
            if len(set(vals)) != 1:
                problems.append(f"{name} differs between traced passes: {vals}")
            metrics[name] = vals[0]
    base = untraced[1:] or untraced
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(base)
    info = {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "spans_per_pass": len(tracer.spans) / len(traced),
    }
    return metrics, totals, tracer, selfs, problems, info


def short(value) -> str:
    """A huge integer as its leading digits and digit count."""
    text = str(value)
    return f"{text[:6]}...({len(text)} digits)" if len(text) > 24 else text


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, stamp):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": stamp,
    }


def write_spans(path: Path, spans, selfs) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as f:
        f.write("name\tstart\tend\tparent\tpass\top\terror\tvalue\tself\n")
        for span, s in zip(spans, selfs):
            p, i = span[trace.OP]
            value = "" if span[trace.VALUE] is None else span[trace.VALUE]
            f.write(
                f"{span[trace.NAME]}\t{span[trace.START]:.9f}\t{span[trace.END]:.9f}\t"
                f"{span[trace.PARENT]}\t{p}\t{i}\t{span[trace.ERROR]}\t{value}\t{s:.9f}\n"
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "smposet" / "__init__.py").is_file():
        print(f"error: no smposet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    try:
        sp, mods, plan, setup_s = set_up(args.workload, args.seed, workdir)
    except ImportError as exc:
        print(f"error: cannot import smposet: {exc}", file=sys.stderr)
        return 2
    try:
        runner = Runner(mods, plan)
        if args.trace:
            metrics, totals, tracer, selfs, problems, info = traced_run(
                runner, mods, args.seconds)
            units = PER_LAYER
        else:
            runner.timed(args.seconds)
            metrics, kinds = end_to_end(runner, setup_s)
            problems, units = [], END_TO_END
        runner.require_untraced()
        found, stamp = checks.CHECKS[args.workload](sp, plan, runner.first)
        problems += found + runner.failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, stamp)
    detail = {"environment": env, "metrics": metrics, "problems": problems,
              "attempted": runner.executions, "ops_per_pass": len(plan.ops)}
    print(f"smposet benchmark: workload {args.workload} seed {args.seed} "
          f"python {env['python']} nproc {env['nproc']} git {env['git_sha'][:12]}")
    for row in stamp:
        print("input " + " ".join(f"{k}={short(v)}" for k, v in row.items()))
    if args.trace:
        write_spans(OUT / f"{tag}.spans.tsv.gz", tracer.spans, selfs)
        detail.update(info, span_totals=totals)
        last = totals[-1]
        print(f"traced passes {len(totals)}, spans per pass {info['spans_per_pass']:.0f}; "
              "self time of the last traced pass:")
        for name, t in sorted(last.items(), key=lambda kv: -kv[1]["self_s"])[:20]:
            print(f"  {name:44s} self {t['self_s']:8.4f} s  total {t['total_s']:8.4f} s"
                  f"  calls {t['calls']:6d}  errors {t['errors']}")
    else:
        detail["op_kinds"] = kinds
        detail["op_samples_s"] = {f"{i}:{op.kind}:{op.label}": s
                                  for i, (op, s) in enumerate(zip(plan.ops, runner.samples))}
        print(f"passes {runner.passes_started}, ops per pass {len(plan.ops)}, "
              f"op executions {runner.executions}")
        for kind, k in kinds.items():
            print(f"  {kind}_total_s {k['total_s']:.4f} s  {kind}_p50_ms {k['p50_ms']:.3f} ms"
                  f"  ({k['ops']} ops, {k['samples']} samples)")
    every = f"  ({len(plan.ops)} ops, {runner.executions} samples)"
    op_counts = {} if args.trace else {
        "ops_total_s": every,
        "ops_answered_ratio": every,
        "count_total_s": f"  ({kinds['count']['ops']} ops, {kinds['count']['samples']} samples)",
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}{op_counts.get(name, '')}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.executions,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
