"""Seeded inputs and operation lists for the three workloads.

Every workload writes its inputs as files and lists the `smposet` command
lines to run on them, in the order one pass runs them. Ops that read a file
written by an earlier op of the same pass (the realized instances) come after
it.

Where an input's cost depends strongly on its random structure (the number
of rotations of a random instance, the number of downsets of a random
poset), the structure is drawn once from a fixed structure seed, and the run
seed relabels it: it permutes agent or vertex names, which changes the bytes
the program reads, its elimination and proposal orders, and every op's
output, but not the amount of work. At n=400 the rotation count of a fresh
uniform instance ranges over 69..91 across seeds, which alone would move the
workload's time by more than its bound. The band DAGs of `dag-dp` are drawn
fresh from the run seed: their DP cost averages over 1e4 vertices and varies
by a few percent between seeds.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

RANDOM_COMPLETE_SIZES = (50, 100, 200, 400)
RANDOM_COMPLETE_DRAWS = 4
LADDER_N = 100_000
BAND_N = (5_000, 10_000)
BAND_WINDOW = 10
BAND_EDGE_PROB = 0.15
# (label, p, window, edge probability); the structure seed is the label
REALIZED_POSETS = (("p20a", 20, 3, 0.5), ("p20b", 20, 3, 0.5), ("p40", 40, 2, 0.5))
REALIZE_MODELS = ("complete", "bounded3", "list2inf", "attr6", "range")
REALIZED_DRAWS = 16
FAIR_MAX_P = 20


@dataclass
class Op:
    kind: str  # the smposet subcommand
    label: str  # which input it works on
    argv: list[str]
    writes: tuple[str, ...] = ()  # files the op produces, compared across passes


@dataclass
class Plan:
    workload: str
    ops: list[Op] = field(default_factory=list)
    # label -> what the checks need to know about that input
    inputs: dict[str, dict] = field(default_factory=dict)


def band_edges(rng: random.Random, n: int, window: int, q: float) -> list[tuple[int, int]]:
    """Edges (i, i+d), 1 <= d <= window, each kept with probability q."""
    return [
        (i, i + d)
        for i in range(1, n + 1)
        for d in range(1, window + 1)
        if i + d <= n and rng.random() < q
    ]


def band_bags(n: int, window: int) -> list[list[int]]:
    """Bags {i..i+window}: a path decomposition of width window for any band."""
    if n <= window + 1:
        return [list(range(1, n + 1))]
    return [list(range(i, i + window + 1)) for i in range(1, n - window + 1)]


def ladder_edges(n: int) -> list[tuple[int, int]]:
    """The width-3 chain ladder: i -> i+1, i+2, i+3. Its downsets are the n+1 prefixes."""
    return [(i, i + d) for i in range(1, n + 1) for d in (1, 2, 3) if i + d <= n]


def dag_text(n: int, edges) -> str:
    return f"DAG {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def decomposition_text(bags) -> str:
    return f"PD {len(bags)}\n" + "".join(" ".join(map(str, b)) + "\n" for b in bags)


def instance_text(men_prefs, women_prefs) -> str:
    out = [f"SM {len(men_prefs)} {len(women_prefs)}"]
    out += [f"m{m + 1}: " + " ".join(f"w{w + 1}" for w in lst) for m, lst in enumerate(men_prefs)]
    out += [f"w{w + 1}: " + " ".join(f"m{m + 1}" for m in lst) for w, lst in enumerate(women_prefs)]
    return "\n".join(out) + "\n"


def random_complete_prefs(n: int, seed: int):
    """A uniform complete instance of size n (fixed per n), with men and
    women renamed by permutations drawn from seed.
    """
    base = random.Random(f"random-complete/{n}")
    men = [base.sample(range(n), n) for _ in range(n)]
    women = [base.sample(range(n), n) for _ in range(n)]
    rng = random.Random(f"{seed}/{n}")
    sigma = rng.sample(range(n), n)  # new index of each man
    tau = rng.sample(range(n), n)  # new index of each woman
    men_new = [None] * n
    women_new = [None] * n
    for m in range(n):
        men_new[sigma[m]] = [tau[w] for w in men[m]]
    for w in range(n):
        women_new[tau[w]] = [sigma[m] for m in women[w]]
    return men_new, women_new


def realized_poset(label: str, p: int, window: int, q: float, seed: int):
    """A random band poset (fixed per label) with its band decomposition,
    vertices renamed by a permutation drawn from seed.
    """
    edges = band_edges(random.Random(f"realized-poset/{label}"), p, window, q)
    bags = band_bags(p, window)
    perm = random.Random(f"{seed}/{label}").sample(range(1, p + 1), p)
    name = {v: perm[v - 1] for v in range(1, p + 1)}
    return (
        [(name[u], name[v]) for u, v in edges],
        [[name[v] for v in bag] for bag in bags],
        edges,
    )


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def plan_random_complete(workdir: Path, seed: int) -> Plan:
    plan = Plan("random-complete")
    for i, n in enumerate(RANDOM_COMPLETE_SIZES):
        label = f"n{n}"
        men, women = random_complete_prefs(n, seed)
        path = _write(workdir / f"{label}.sm", instance_text(men, women))
        plan.inputs[label] = {"n": n, "men": men, "women": women}
        plan.ops += [
            Op("analyze", label, ["analyze", "--instance", path]),
            Op("count", label, ["count", "--instance", path]),
            Op("median", label, ["median", "--instance", path]),
            Op(
                "sample",
                label,
                ["sample", "--instance", path, "--seed", str(seed * 10 + i),
                 "--draws", str(RANDOM_COMPLETE_DRAWS)],
            ),
        ]
    return plan


def plan_dag_dp(workdir: Path, seed: int) -> Plan:
    plan = Plan("dag-dp")
    rng = random.Random(seed)
    inputs = [("ladder", LADDER_N, ladder_edges(LADDER_N),
               [list(range(i, min(i + 4, LADDER_N + 1))) for i in range(1, LADDER_N + 1)], 3)]
    for n in BAND_N:
        inputs.append((f"band{n}", n, band_edges(rng, n, BAND_WINDOW, BAND_EDGE_PROB),
                       band_bags(n, BAND_WINDOW), BAND_WINDOW))
    for label, n, edges, bags, width in inputs:
        dag = _write(workdir / f"{label}.dag", dag_text(n, edges))
        pd = _write(workdir / f"{label}.pd", decomposition_text(bags))
        plan.inputs[label] = {"n": n, "edges": edges, "width": width}
        plan.ops.append(Op("count", label, ["count", "--dag", dag, "--decomp", pd]))
    return plan


def plan_realized_poset(workdir: Path, seed: int) -> Plan:
    plan = Plan("realized-poset")
    for j, (plabel, p, window, q) in enumerate(REALIZED_POSETS):
        edges, bags, base_edges = realized_poset(plabel, p, window, q, seed)
        dag = _write(workdir / f"{plabel}.dag", dag_text(p, edges))
        pd = _write(workdir / f"{plabel}.pd", decomposition_text(bags))
        plan.inputs[plabel] = {
            "p": p, "window": window, "edges": edges, "base_edges": base_edges,
        }
        for k, model in enumerate(REALIZE_MODELS):
            label = f"{plabel}/{model}"
            out = str(workdir / f"{plabel}-{model}.sm")
            argv = ["realize", "--model", model, "--poset", dag, "-o", out]
            writes = [out]
            if model == "range":
                argv += ["--decomp", pd]
            elif model == "attr6":
                writes.append(out + ".profiles")
            elif model == "list2inf":
                writes.append(out + ".masters")
            plan.inputs[label] = {"poset": plabel, "model": model, "path": out}
            plan.ops += [
                Op("realize", label, argv, tuple(writes)),
                Op("sample", label, ["sample", "--instance", out, "--seed",
                                     str(seed * 100 + j * 10 + k), "--draws", str(REALIZED_DRAWS)]),
                Op("median", label, ["median", "--instance", out]),
                Op("count", label, ["count", "--instance", out]),
            ]
            if p <= FAIR_MAX_P:
                plan.ops += [
                    Op("fair", label, ["fair", "--instance", out, "--objective", obj])
                    for obj in ("sexequal", "balanced")
                ]
    return plan


WORKLOADS = {
    "random-complete": plan_random_complete,
    "dag-dp": plan_dag_dp,
    "realized-poset": plan_realized_poset,
}
