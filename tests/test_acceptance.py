"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import random
import statistics
import time
from collections import Counter

from smposet import (
    MAN,
    Dag,
    Matching,
    PathDecomposition,
    all_stable_matchings_bruteforce,
    bitonic_sequence,
    blocking_pairs,
    check_realization,
    compute_range,
    construct_instance,
    construct_path_decomposition,
    count_downsets,
    count_stable_matchings,
    downset_from_matching,
    enumerate_downsets_bruteforce,
    evaluate_profiles,
    format_instance,
    gale_shapley,
    median_stable_matching,
    parse_instance,
    pathwidth_exact_tiny,
    realize_attr6,
    realize_bounded3,
    realize_complete,
    realize_list2inf,
    realize_range,
    rotation_digraph,
    sample_stable_matchings,
    to_nice,
    transitive_closure,
    validate_decomposition,
)

from conftest import (
    data_text,
    posets_upto_isomorphism,
    random_complete_instance,
    random_dag,
)

DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
DIAMOND_LIST = Dag(4, [(4, 2), (4, 3), (2, 1), (3, 1)])
DIAMOND_X = PathDecomposition.of(
    [{1}, {1, 2}, {1, 2, 3}, {2, 3}, {2, 3, 4}, {3, 4}, {4}, set()]
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} [{detail}]")
    assert ok, f"criterion {number} failed: {detail}"


def nice_decomposition(g: Dag, max_p: int = 10) -> PathDecomposition:
    _w, x = pathwidth_exact_tiny(g, max_p=max_p)
    return to_nice(g, x)


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    inst = parse_instance(data_text("example_rotation_poset.sm"))
    ok = count_stable_matchings(inst) == 4
    dg = rotation_digraph(inst)
    cycles = [r.pairs for r in dg.rotations]
    ok &= cycles == [((0, 0), (1, 1)), ((2, 2), (3, 3)), ((0, 1), (2, 3))]
    closure = transitive_closure(dg.dag())
    ok &= closure.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    mu0 = Matching([(0, 0), (1, 1), (2, 2), (3, 3)])
    mu1 = Matching([(0, 1), (1, 0), (2, 2), (3, 3)])
    mu2 = Matching([(0, 1), (1, 0), (2, 3), (3, 2)])
    mu3 = Matching([(0, 3), (1, 0), (2, 1), (3, 2)])
    table = {mu0: frozenset(), mu1: frozenset({0}), mu2: frozenset({0, 1}),
             mu3: frozenset({0, 1, 2})}
    for mu, downset in table.items():
        ok &= downset_from_matching(inst, dg, mu) == downset
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"4 matchings, 3 rotations, chain closure, table; {elapsed:.2f}s")


def test_criterion_2_round_trip_realization():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for p in range(1, 6):
        for g in posets_upto_isomorphism(p):
            nice = nice_decomposition(g)
            for name, inst in (
                ("complete", realize_complete(g)),
                ("bounded3", realize_bounded3(g)),
                ("attr6", realize_attr6(g).instance),
                ("list2inf", realize_list2inf(g).instance),
                ("range", realize_range(g, nice)),
            ):
                if not check_realization(g, inst):
                    ok = False
                    print(f"  mismatch: p={p} model={name} edges={sorted(g.edges)}")
                checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(2, ok, f"{checked} construction round-trips over posets p<=5; {elapsed:.1f}s")


def test_criterion_3_model_constraints():
    rng = random.Random(2024)
    trials = 100
    ok = True
    for _ in range(trials):
        g = random_dag(rng, rng.randint(1, 8), rng.choice([0.2, 0.35, 0.5]))
        b = realize_bounded3(g)
        ok &= max((len(l) for l in b.men_prefs), default=0) <= 3
        ok &= max((len(l) for l in b.women_prefs), default=0) <= 3
        attr = realize_attr6(g)
        again = evaluate_profiles(
            attr.men_profiles,
            attr.women_profiles,
            attr.instance.men_labels,
            attr.instance.women_labels,
        )
        ok &= again == attr.instance
        lst = realize_list2inf(g)
        masters = {tuple(lst.lm1), tuple(lst.lm2)}
        ok &= all(tuple(l) in masters for l in lst.instance.men_prefs)
        nice = nice_decomposition(g)
        rng_inst = realize_range(g, nice)
        ok &= compute_range(rng_inst).k <= 9 * (nice.width + 2)
        if not ok:
            break
    report(3, ok, f"bounded/attr/list/range constraints over {trials} posets p<=8")


def test_criterion_4_figure_fixtures():
    ok = format_instance(construct_instance(DIAMOND)) == data_text("golden_generic.sm")
    ok &= format_instance(realize_bounded3(DIAMOND)) == data_text("golden_bounded3.sm")
    res = realize_list2inf(DIAMOND_LIST)
    ok &= format_instance(res.incomplete) == data_text("golden_list_incomplete.sm")
    wl, ml = res.incomplete.women_labels, res.incomplete.men_labels
    masters = "\n".join(
        [
            "LM1: " + " ".join(wl[i] for i in res.lm1),
            "LM2: " + " ".join(wl[i] for i in res.lm2),
            "LW1: " + " ".join(ml[i] for i in res.lm1),
            "LW2: " + " ".join(ml[i] for i in res.lm2),
        ]
    ) + "\n"
    ok &= masters == data_text("golden_list_masters.txt")
    pis = "\n".join(
        f"pi{v}: " + " ".join(str(c) for c in bitonic_sequence(a, b))
        for v, (a, b) in {1: (1, 4), 2: (2, 6), 3: (3, 7), 4: (5, 8)}.items()
    ) + "\n"
    ok &= pis == data_text("golden_range_pis.txt")
    report(4, ok, "generic/bounded/list tables and bitonic orderings byte-for-byte")


def test_criterion_5_extent_decomposition():
    t0 = time.perf_counter()
    rng = random.Random(555)
    trials = 100
    ok = True
    for _ in range(trials):
        n = rng.randint(2, 40)
        inst = random_complete_instance(rng, n)
        dg, x = construct_path_decomposition(inst)
        k = compute_range(inst).k
        ok &= validate_decomposition(dg.dag(), x)
        ok &= x.width <= 50 * k * k
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(5, ok, f"{trials} instances n<=40 validate with width <= 50k^2; {elapsed:.1f}s")


def test_criterion_6_counting_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(666)
    ok = True
    for _ in range(200):
        g = random_dag(rng, rng.randint(0, 12), rng.choice([0.2, 0.35, 0.5]))
        nice = nice_decomposition(g, max_p=12)
        if count_downsets(g, nice) != len(enumerate_downsets_bruteforce(g)):
            ok = False
            break
    for _ in range(100):
        inst = random_complete_instance(rng, rng.randint(1, 7))
        if count_stable_matchings(inst) != len(all_stable_matchings_bruteforce(inst)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(6, ok, f"200 DAGs p<=12 + 100 instances n<=7 match brute force; {elapsed:.1f}s")


def test_criterion_7_sampling_uniformity():
    t0 = time.perf_counter()
    inst = parse_instance(data_text("example_rotation_poset.sm"))
    rng = random.Random(20240817)  # documented fixed seed
    draws = 40000
    samples = sample_stable_matchings(inst, rng, draws)
    ok = all(blocking_pairs(inst, mu) == [] for mu in samples)
    counts = Counter(mu.sorted_pairs() for mu in samples)
    ok &= len(counts) == 4
    sigma = (draws * 0.25 * 0.75) ** 0.5
    worst = max(abs(v - draws / 4) for v in counts.values())
    ok &= worst <= 4 * sigma
    tv = sum(abs(v / draws - 0.25) for v in counts.values()) / 2
    ok &= tv < 0.02
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(
        7,
        ok,
        f"{draws} draws, worst dev {worst:.0f} <= {4 * sigma:.0f}, TV {tv:.4f}; {elapsed:.1f}s",
    )


def test_criterion_8_median_correctness():
    rng = random.Random(888)
    trials = 100
    ok = True
    for _ in range(trials):
        inst = random_complete_instance(rng, rng.randint(2, 6))
        dg = rotation_digraph(inst)
        downsets = enumerate_downsets_bruteforce(dg.dag())
        n = len(downsets)
        threshold = (n + 1) // 2 if n % 2 else n // 2 + 1
        expected = frozenset(
            rho.id
            for rho in dg.rotations
            if sum(1 for z in downsets if rho.id + 1 in z) >= threshold
        )
        mu = median_stable_matching(inst)
        ok &= downset_from_matching(inst, dg, mu) == expected
        matchings = all_stable_matchings_bruteforce(inst)
        npos = {n // 2, n // 2 + 1} if n % 2 == 0 else {(n + 1) // 2}
        for m in range(inst.n_men):
            ranks = sorted(inst.men_rank[m][x.woman_of(m)] for x in matchings)
            ok &= any(ranks[pos - 1] == inst.men_rank[m][mu.woman_of(m)] for pos in npos)
        for w in range(inst.n_women):
            ranks = sorted(inst.women_rank[w][x.man_of(w)] for x in matchings)
            ok &= any(ranks[pos - 1] == inst.women_rank[w][mu.man_of(w)] for pos in npos)
        if not ok:
            break
    report(8, ok, f"median downset + per-agent medians over {trials} instances n<=6")


def _width3_instance(n: int):
    edges = []
    for i in range(1, n + 1):
        for d in (1, 2, 3):
            if i + d <= n:
                edges.append((i, i + d))
    g = Dag(n, edges)
    bags = [frozenset(range(i, min(i + 4, n + 1))) for i in range(1, n + 1)]
    return g, to_nice(g, PathDecomposition(tuple(bags)))


def _timed_counts(instances, runs=9):
    """The count of each (g, x) and the median time of `runs` counts of it,
    timed in turns (first, second, ..., first, second, ...), so that a slow
    spell on a shared machine falls on every size alike.
    """
    times = [[] for _ in instances]
    counts = [None] * len(instances)
    for _ in range(runs):
        for i, (g, x) in enumerate(instances):
            t0 = time.perf_counter()
            counts[i] = count_downsets(g, x)
            times[i].append(time.perf_counter() - t0)
    return counts, [statistics.median(ts) for ts in times]


def test_criterion_9_performance_scaling():
    # medians of nine interleaved runs per size: single timings on a shared
    # machine spread enough to cross the ratio bound on unchanged code, and
    # medians of five still crossed it now and then
    (c_half, c_full), (t_half, t_full) = _timed_counts(
        [_width3_instance(50_000), _width3_instance(100_000)]
    )
    ok = c_half == 50_001 and c_full == 100_001  # downsets of the ladder are prefixes
    ok &= t_full < 5.0
    ratio = t_full / t_half
    ok &= ratio <= 2.0 * 1.25
    report(
        9,
        ok,
        f"width-3 ladder: n=1e5 in {t_full:.2f}s (<5s), doubling ratio {ratio:.2f} <= 2.5",
    )


def test_criterion_9_dp_cost_is_linear_in_n():
    # the cost behind criterion 9, counted instead of timed: on the ladder's
    # 4-bags the DP takes 2n steps over tables of at most five states. The
    # table grows to 2, 3, 4, 5 over the first four inserts, then holds 4
    # after each forget and 5 after each insert, and shrinks to 4, 3, 2, 1
    # over the last four forgets: 14 + 9(n - 4) + 10 = 9n - 12 in all
    from smposet.downsets import _dp, _insert_order

    for n in (50_000, 100_000):
        g, x = _width3_instance(n)
        sizes = [len(t) for _v, _vbit, _i, t in _dp(_insert_order(g, x), g.in_adj, g.out_adj)]
        assert (len(sizes), sum(sizes), max(sizes)) == (2 * n, 9 * n - 12, 5)


def test_criterion_9_dp_cost_on_bands_is_linear_in_n():
    # the same count on seeded window-10 bands (edge i -> i+d, 1 <= d <= 10,
    # kept with probability 0.15) over their bags {i..i+10}: 2n steps, no
    # table above the 2^11 masks of one bag, and a summed table size that
    # doubles with n
    from smposet.downsets import _dp, _insert_order

    totals = []
    for n in (5000, 10_000):
        rng = random.Random(n)
        edges = [
            (i, i + d)
            for i in range(1, n + 1)
            for d in range(1, 11)
            if i + d <= n and rng.random() < 0.15
        ]
        g = Dag(n, edges)
        x = PathDecomposition.of([range(i, i + 11) for i in range(1, n - 9)])
        sizes = [len(t) for _v, _vbit, _i, t in _dp(_insert_order(g, x), g.in_adj, g.out_adj)]
        assert len(sizes) == 2 * n
        assert max(sizes) <= 2**11
        totals.append(sum(sizes))
    assert totals[1] / totals[0] <= 2.2


def _stable_pairs(inst, dg):
    pairs = set(gale_shapley(inst, MAN).pairs)
    for rho in dg.rotations:
        n = len(rho.pairs)
        for i, (m, _w) in enumerate(rho.pairs):
            pairs.add((m, rho.pairs[(i + 1) % n][1]))
    return pairs


def test_criterion_10_k_range_structural_lemmas():
    rng = random.Random(1010)
    trials = 0
    ok = True
    sources = []
    for _ in range(50):
        g = random_dag(rng, rng.randint(1, 6))
        sources.append(realize_range(g, nice_decomposition(g)))
    for _ in range(50):
        sources.append(random_complete_instance(rng, rng.randint(2, 25)))
    for inst in sources:
        trials += 1
        profile = compute_range(inst)
        k = profile.k
        dg = rotation_digraph(inst)
        pairs = _stable_pairs(inst, dg)
        ok &= all(
            abs(profile.orank_men[m] - profile.orank_women[w]) <= 2 * k - 2
            for m, w in pairs
        )
        for rho in dg.rotations:
            n = len(rho.pairs)
            for i in range(n):
                m_a = rho.pairs[i][0]
                m_b = rho.pairs[(i + 1) % n][0]
                w_a = rho.pairs[i][1]
                w_b = rho.pairs[(i + 1) % n][1]
                ok &= abs(profile.orank_men[m_a] - profile.orank_men[m_b]) <= 4 * k - 4
                ok &= abs(profile.orank_women[w_a] - profile.orank_women[w_b]) <= 4 * k - 4
        partners = Counter(m for m, _w in pairs)
        partners_w = Counter(w for _m, w in pairs)
        ok &= all(v <= 5 * k - 4 for v in partners.values())
        ok &= all(v <= 5 * k - 4 for v in partners_w.values())
        if not ok:
            break
    report(10, ok, f"stable-pair gap, rotation density, partner bound over {trials} instances")
