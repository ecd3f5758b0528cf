"""Output checks, run after the timed passes on the first pass's outputs.

Each check returns a list of problems (empty when every output is right)
and a stamp describing the inputs. A refusal (exit 2 or 3 with nothing on
stdout) is an allowed answer and is counted, not failed; any other non-zero
exit, or a wrong answer, is a problem.

The oracles share no code with the program's DP: stability is tested by a
blocking-pair scan written here, band DAGs are counted by a transfer count
over windows written here (itself checked against the package's brute-force
downset enumeration on small bands from the same generator), and the ladder
has n+1 downsets.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import workloads as wl

REFUSED = (2, 3)


@dataclass(frozen=True)
class Result:
    code: int
    out: str
    err: str
    files: tuple[str, ...] = ()


def transfer_count(n: int, window: int, edges) -> int:
    """Downsets of a DAG on 1..n whose edges (u, v) have 0 < v - u <= window.

    Vertices are decided in order; the state is which of the last `window`
    vertices are in the downset, and v may join only if all its
    predecessors did.
    """
    need = {}
    for u, v in edges:
        if not 0 < v - u <= window:
            raise ValueError(f"edge ({u},{v}) is not within the window")
        need[v] = need.get(v, 0) | 1 << (v - u - 1)
    full = (1 << window) - 1
    table = {0: 1}
    for v in range(1, n + 1):
        req = need.get(v, 0)
        new: dict[int, int] = {}
        for state, c in table.items():
            out = state << 1 & full
            new[out] = new.get(out, 0) + c
            if state & req == req:
                new[out | 1] = new.get(out | 1, 0) + c
        table = new
    return sum(table.values())


def check_transfer_count(sp) -> list[str]:
    """The transfer count against brute force on small bands of each shape."""
    problems = []
    shapes = [(12, wl.BAND_WINDOW, wl.BAND_EDGE_PROB)]
    shapes += [(min(p, 14), w, q) for _label, p, w, q in wl.REALIZED_POSETS]
    for i, (n, window, q) in enumerate(shapes):
        edges = wl.band_edges(random.Random(f"oracle/{i}"), n, window, q)
        want = len(sp.enumerate_downsets_bruteforce(sp.Dag(n, edges), max_p=n))
        got = transfer_count(n, window, edges)
        if got != want:
            problems.append(f"transfer count {got} != brute force {want} on a band of {n}")
    return problems


def _ranks(prefs):
    return [{x: r for r, x in enumerate(lst, start=1)} for lst in prefs]


def stability_problem(men_prefs, women_prefs, pairs, perfect=True):
    """None when pairs is a stable matching of the instance, else why not."""
    n_men, n_women = len(men_prefs), len(women_prefs)
    men_rank, women_rank = _ranks(men_prefs), _ranks(women_prefs)
    wife, husband = {}, {}
    for m, w in pairs:
        if m in wife or w in husband:
            return "an agent appears in two pairs"
        if w not in men_rank[m]:
            return "a pair is not mutually acceptable"
        wife[m], husband[w] = w, m
    if perfect and (len(wife) != n_men or len(husband) != n_women):
        return "the matching is not perfect"
    for m in range(n_men):
        w0 = wife.get(m)
        limit = men_rank[m][w0] if w0 is not None else len(men_prefs[m]) + 1
        for w in men_prefs[m][: limit - 1]:
            h = husband.get(w)
            if h is None or women_rank[w][m] < women_rank[w][h]:
                return f"blocking pair (m{m + 1}, w{w + 1})"
    return None


def matchings_in(out: str, inst) -> list[list[tuple[int, int]]]:
    """Pairs of each matching printed as `<man> <woman>` lines; blank lines
    separate matchings and lines of other shapes are skipped.
    """
    man = {label: i for i, label in enumerate(inst.men_labels)}
    woman = {label: i for i, label in enumerate(inst.women_labels)}
    blocks, cur = [], []
    for line in out.splitlines():
        parts = line.split()
        if not parts:
            if cur:
                blocks.append(cur)
            cur = []
        elif len(parts) == 2 and parts[0] in man and parts[1] in woman:
            cur.append((man[parts[0]], woman[parts[1]]))
    if cur:
        blocks.append(cur)
    return blocks


def _keyed(out: str) -> dict[str, str]:
    """Lines `<key> <value>` with a single-word key, last one wins."""
    vals = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2:
            vals[parts[0]] = parts[1]
    return vals


class _Checker:
    """Collects problems and refusal counts over one plan's first-pass results."""

    def __init__(self, sp, plan, results):
        self.sp, self.plan, self.results = sp, plan, results
        self.problems: list[str] = []

    def ops(self, label):
        return [(op, self.results[i]) for i, op in enumerate(self.plan.ops) if op.label == label]

    def fail(self, op, why: str) -> None:
        self.problems.append(f"{op.kind} {op.label}: {why}")

    def answered(self, op, res) -> bool:
        """True for exit 0; a refusal is allowed, anything else is a problem."""
        if res.code == 0:
            return True
        if res.code not in REFUSED or res.out:
            self.fail(op, f"exit {res.code}: {res.err.strip()[:200]}")
        return False

    def matchings(self, op, res, inst, expect: int, perfect=True):
        blocks = matchings_in(res.out, inst)
        if len(blocks) != expect:
            self.fail(op, f"{len(blocks)} matchings printed, expected {expect}")
        for pairs in blocks:
            why = stability_problem(inst.men_prefs, inst.women_prefs, pairs, perfect)
            if why:
                self.fail(op, why)
        return blocks

    def instance_ops(self, label, inst, downsets: int, perfect=True) -> None:
        """count, median, sample and fair outputs on one instance."""
        for op, res in self.ops(label):
            if op.kind in ("analyze", "realize") or not self.answered(op, res):
                continue
            if op.kind == "count" and res.out.strip() != str(downsets):
                self.fail(op, f"count {res.out.strip()} != {downsets} downsets")
            elif op.kind == "median":
                self.matchings(op, res, inst, 1, perfect)
                if _keyed(res.out).get("N") != str(downsets):
                    self.fail(op, f"median N is not the {downsets} downsets")
            elif op.kind == "sample":
                self.matchings(op, res, inst, int(op.argv[op.argv.index("--draws") + 1]), perfect)
            elif op.kind == "fair":
                self.fair(op, res, inst)

    def fair(self, op, res, inst) -> None:
        blocks = self.matchings(op, res, inst, 1)
        if not blocks:
            return
        men_rank, women_rank = _ranks(inst.men_prefs), _ranks(inst.women_prefs)
        s_men = sum(men_rank[m][w] for m, w in blocks[0])
        s_women = sum(women_rank[w][m] for m, w in blocks[0])
        want = {"SM": s_men, "SW": s_women, "delta": abs(s_men - s_women),
                "beta": max(s_men, s_women)}
        got = _keyed(res.out)
        for key, value in want.items():
            if got.get(key) != str(value):
                self.fail(op, f"{key} {got.get(key)} != {value} from the printed matching")


def check_random_complete(sp, plan, results):
    ck = _Checker(sp, plan, results)
    stamp = []
    for n in wl.RANDOM_COMPLETE_SIZES:
        label = f"n{n}"
        data = plan.inputs[label]
        inst = sp.Instance(data["men"], data["women"])
        dg = sp.rotation_digraph(inst)
        downsets = len(sp.enumerate_downsets_bruteforce(dg.dag(), max_p=len(dg.rotations)))
        row = {"input": label, "n": n, "r": len(dg.rotations), "edges": len(dg.edges),
               "downsets": downsets}
        (op, res), = [(o, r) for o, r in ck.ops(label) if o.kind == "analyze"]
        if ck.answered(op, res):
            vals = _keyed(res.out)
            if vals.get("rotations") != str(row["r"]) or vals.get("edges") != str(row["edges"]):
                ck.fail(op, "rotation or edge count differs from rotation_digraph")
            width = [line.split() for line in res.out.splitlines()
                     if line.startswith("decomposition width")]
            if not width or width[0][4] != str(2 * row["r"]):
                ck.fail(op, "decomposition must have 2r bags")
            else:
                row["width"] = int(width[0][2])
        ck.instance_ops(label, inst, downsets)
        stamp.append(row)
    return ck.problems, stamp


def check_dag_dp(sp, plan, results):
    ck = _Checker(sp, plan, results)
    problems = check_transfer_count(sp)
    stamp = []
    for label, data in plan.inputs.items():
        n, edges = data["n"], data["edges"]
        if label == "ladder":
            want = n + 1
        else:
            want = transfer_count(n, wl.BAND_WINDOW, edges)
        stamp.append({"input": label, "n": n, "edges": len(edges), "width": data["width"],
                      "downsets": want})
        for op, res in ck.ops(label):
            if ck.answered(op, res) and res.out.strip() != str(want):
                ck.fail(op, f"count {res.out.strip()} != {want}")
    return problems + ck.problems, stamp


def check_realized_poset(sp, plan, results):
    ck = _Checker(sp, plan, results)
    problems = check_transfer_count(sp)
    stamp = []
    for plabel, p, window, _q in wl.REALIZED_POSETS:
        data = plan.inputs[plabel]
        poset = sp.Dag(p, data["edges"])
        downsets = transfer_count(p, window, data["base_edges"])
        if p <= wl.FAIR_MAX_P and downsets != len(sp.enumerate_downsets_bruteforce(poset)):
            problems.append(f"{plabel}: transfer count differs from brute force")
        stamp.append({"input": plabel, "p": p, "edges": len(data["edges"]), "width": window,
                      "downsets": downsets})
        for model in wl.REALIZE_MODELS:
            label = f"{plabel}/{model}"
            (op, res), = [(o, r) for o, r in ck.ops(label) if o.kind == "realize"]
            if not ck.answered(op, res):
                ck.fail(op, "realization refused")
                continue
            inst = sp.parse_instance(res.files[0])
            if not sp.check_realization(poset, inst):
                ck.fail(op, "instance does not realize the poset")
            stamp.append({"input": label, "n": inst.n_men, "r": p,
                          "complete": inst.is_complete})
            ck.instance_ops(label, inst, downsets, perfect=inst.is_complete)
    return problems + ck.problems, stamp


CHECKS = {
    "random-complete": check_random_complete,
    "dag-dp": check_dag_dp,
    "realized-poset": check_realized_poset,
}
