import random
import re

import pytest

from smposet import (
    CapExceededError,
    Dag,
    ParseError,
    ValidationError,
    check_realization,
    enumerate_downsets_bruteforce,
    format_dag,
    is_downset,
    parse_dag,
    poset_isomorphic_small,
    realize_bounded3,
    realize_complete,
    realize_list2inf,
    rotation_digraph,
    transitive_closure,
    transitive_reduction,
)
from smposet.posets import _topological_order

from conftest import (
    data_text,
    downsets_by_subset_scan,
    posets_upto_isomorphism,
    random_complete_instance,
    random_dag,
    reachable_from,
)


def test_cycle_rejected():
    with pytest.raises(ValidationError, match="cycle"):
        Dag(2, [(1, 2), (2, 1)])


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        Dag(2, [(1, 1)])


def test_bad_edge_named_is_the_smallest():
    with pytest.raises(ValidationError, match=r"edge \(0,2\) out of range"):
        Dag(3, [(4, 1), (2, 2), (0, 2), (1, 5)])
    with pytest.raises(ValidationError, match="self-loop at 2"):
        Dag(3, [(3, 3), (2, 2), (3, 1)])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(1, 2), (0, 3)], "edge (0,3) out of range 1..4"),
        ([(1, 2), (5, 3)], "edge (5,3) out of range 1..4"),
        ([(2, 0), (1, 2)], "edge (2,0) out of range 1..4"),
        ([(1, 2), (2, 5), (3, 4)], "edge (2,5) out of range 1..4"),
        ([(1, 2), (3, 3), (3, 4)], "self-loop at 3"),
        ([(3, 3), (1, 5)], "edge (1,5) out of range 1..4"),
    ],
)
def test_each_end_of_the_range_is_checked(edges, message):
    # one fault at each end of the tail and head ranges, so that none of the
    # four bounds of the one-pass range test can be dropped
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Dag(4, edges)
    text = f"DAG 4 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_dag(text)


def _adjacency_reference(p, edges):
    # the earlier construction: sort the deduplicated edge set
    outs = {v: [] for v in range(1, p + 1)}
    ins = {v: [] for v in range(1, p + 1)}
    for u, v in sorted(set(edges)):
        outs[u].append(v)
        ins[v].append(u)
    return (
        {v: tuple(ws) for v, ws in outs.items()},
        {v: tuple(us) for v, us in ins.items()},
    )


def test_adjacency_matches_reference_on_shuffled_and_repeated_edges():
    rng = random.Random(151)
    for _ in range(200):
        p = rng.randint(0, 12)
        edges = sorted(random_dag(rng, p, rng.choice([0.2, 0.5, 0.8])).edges)
        names = rng.sample(range(1, p + 1), p)  # vertex order no longer topological
        edges = [(names[u - 1], names[v - 1]) for u, v in edges]
        if edges and rng.random() < 0.5:
            edges += rng.choices(edges, k=rng.randint(1, len(edges)))
        rng.shuffle(edges)
        g = Dag(p, edges)
        assert g.edges == frozenset(edges)
        assert (g.out_adj, g.in_adj) == _adjacency_reference(p, edges)
        assert list(g.out_adj) == list(g.in_adj) == list(range(1, p + 1))


def test_lazy_edges_equal_the_eager_set():
    # `edges` is built from out_adj on first access; it must equal the set
    # the constructor once built from its input, whatever form that took
    rng = random.Random(163)
    for _ in range(300):
        p = rng.randint(0, 12)
        names = rng.sample(range(1, p + 1), p)
        base = sorted(random_dag(rng, p, rng.choice([0.2, 0.5, 0.8])).edges)
        pairs = [(names[u - 1], names[v - 1]) for u, v in base]
        if pairs and rng.random() < 0.5:
            pairs += rng.choices(pairs, k=rng.randint(1, len(pairs)))
        rng.shuffle(pairs)
        form = rng.randrange(4)
        if form == 0:
            edges = pairs
        elif form == 1:
            edges = set(pairs)
        elif form == 2:
            edges = [[u, v] for u, v in pairs]
        else:
            edges = [(str(u), v) for u, v in pairs]
        colors = {e: rng.randint(1, 3) for e in pairs if rng.random() < 0.3}
        g = Dag(p, edges, colors)
        assert "edges" not in vars(g)
        eager = frozenset((int(u), int(v)) for u, v in edges)
        assert g.edges == eager and g.edges is g.edges
        assert g == Dag(p, sorted(eager)) and hash(g) == hash((p, eager))
        assert g.colors == colors


def test_color_on_a_missing_edge_is_refused():
    with pytest.raises(
        ValidationError, match=r"^color assigned to missing edge \(2, 1\)$"
    ):
        Dag(2, [(1, 2)], {(1, 2): 1, (2, 1): 3})
    assert Dag(2, [(1, 2), (1, 2)], {(1, 2): 3}).colors == {(1, 2): 3}


def test_parse_dag_shares_one_int_per_vertex():
    # ids above 256 are not cached by the interpreter, so each parsed token
    # would otherwise be its own int object
    p = 600
    rng = random.Random(167)
    edges = [(u, u + d) for u in range(1, p) for d in (1, 2, 3) if u + d <= p and rng.random() < 0.7]
    g = parse_dag(f"DAG {p} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    assert "edges" not in vars(g)
    objects: dict[int, set[int]] = {}
    for adj in (g.in_adj, g.out_adj):
        for ws in adj.values():
            for w in ws:
                objects.setdefault(w, set()).add(id(w))
    assert len(objects) > 500
    assert all(len(ids) == 1 for ids in objects.values())
    assert g.edges == frozenset(edges)
    # relabelled and shuffled, so the edges do not all ascend and the
    # cycle check runs Kahn's sweep; some edges carry colors
    perm = rng.sample(range(1, p + 1), p)
    moved = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    rng.shuffle(moved)
    colors = {e: rng.randint(1, 3) for e in moved if rng.random() < 0.2}
    lines = [f"{u} {v} {colors[(u, v)]}" if (u, v) in colors else f"{u} {v}" for u, v in moved]
    g = parse_dag(f"DAG {p} {len(moved)}\n" + "\n".join(lines) + "\n")
    direct = Dag(p, moved, colors)
    assert list(g.out_adj.items()) == list(direct.out_adj.items())
    assert list(g.in_adj.items()) == list(direct.in_adj.items())
    assert g.colors == direct.colors == colors
    objects = {}
    for adj in (g.in_adj, g.out_adj):
        for ws in adj.values():
            for w in ws:
                objects.setdefault(w, set()).add(id(w))
    assert len(objects) > 500
    assert all(len(ids) == 1 for ids in objects.values())
    # an ascending file with one edge reversed: (u + 2, u) closes a cycle
    # with the path u -> u + 1 -> u + 2
    u = next(u for u, v in edges if v == u + 2 and {(u, u + 1), (u + 1, v)} <= set(edges))
    cyclic = [(w, v) if (v, w) == (u, u + 2) else (v, w) for v, w in edges]
    with pytest.raises(ParseError, match="^graph contains a cycle$"):
        parse_dag(f"DAG {p} {len(cyclic)}\n" + "".join(f"{v} {w}\n" for v, w in cyclic))


def test_dag_adjacency_dicts_share_their_key_ints():
    # one int object per vertex id above 256 for the keys of both dicts
    p = 600
    g = Dag(p, [(v, v + 1) for v in range(1, p)])
    assert list(g.in_adj) == list(g.out_adj) == list(range(1, p + 1))
    assert all(a is b for a, b in zip(g.in_adj, g.out_adj))


def test_parse_dag_and_round_trip():
    g = parse_dag(data_text("diamond.dag"))
    assert g.p == 4 and g.edges == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
    assert parse_dag(format_dag(g)) == g


def test_parse_dag_with_colors():
    g = parse_dag("DAG 2 1\n1 2 7\n")
    assert g.colors == {(1, 2): 7}
    assert parse_dag(format_dag(g)) == g


def test_parse_dag_bad_inputs():
    with pytest.raises(ParseError, match="^expected 2 edge lines, found 1$"):
        parse_dag("DAG 1 2\n1 1\n")
    with pytest.raises(ParseError, match="^bad header: 'WRONG 1 0'$"):
        parse_dag("WRONG 1 0\n")


def test_closure_chain():
    g = Dag(3, [(1, 2), (2, 3)])
    assert transitive_closure(g).edges == frozenset({(1, 2), (2, 3), (1, 3)})


def test_closure_edgeless():
    g = Dag(5, [])
    assert transitive_closure(g).edges == frozenset()


def test_closure_matches_dfs_oracle():
    rng = random.Random(17)
    graphs = [random_dag(rng, 8) for _ in range(25)]
    for g in graphs + [g for g, _ in _search_graphs()]:
        closure = transitive_closure(g)
        for v in g.vertices():
            reach = reachable_from(g, v) - {v}
            assert {x for u, x in closure.edges if u == v} == reach


def test_reduction_removes_shortcut():
    g = Dag(3, [(1, 2), (2, 3), (1, 3)])
    assert transitive_reduction(g).edges == frozenset({(1, 2), (2, 3)})


def test_reduction_fixed_point_on_hasse():
    g = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert transitive_reduction(g) == g


def test_reduction_preserves_closure():
    rng = random.Random(23)
    for _ in range(25):
        g = random_dag(rng, 8, 0.5)
        red = transitive_reduction(g)
        assert red.edges <= g.edges
        assert transitive_closure(red) == transitive_closure(g)


def _reduction_reference(g: Dag) -> Dag:
    """The earlier transitive_reduction, kept verbatim as the oracle for the
    bitset one: an edge (u, v) stays unless another vertex reachable from u
    reaches v.
    """
    closure_sets = {v: reachable_from(g, v) - {v} for v in g.vertices()}
    edges = set()
    for u, v in g.edges:
        if not any(v in closure_sets[w] for w in closure_sets[u] if w != v):
            edges.add((u, v))
    return Dag(g.p, edges)


def test_reduction_matches_reference():
    # random DAGs whose ids are not a topological order, and rotation
    # digraphs, whose many transitive edges the DP's reduction removes
    rng = random.Random(53)
    graphs = []
    for _ in range(300):
        p = rng.randint(0, 14)
        base = random_dag(rng, p, rng.choice([0.1, 0.3, 0.6, 0.9]))
        names = rng.sample(range(1, p + 1), p)
        graphs.append(Dag(p, [(names[u - 1], names[v - 1]) for u, v in base.edges]))
    for n in (10, 20, 40, 60):
        graphs.append(rotation_digraph(random_complete_instance(rng, n)).dag())
    for g in graphs:
        assert transitive_reduction(g) == _reduction_reference(g), (g.p, sorted(g.edges))


def _topological_relabel(h: Dag) -> dict[int, int]:
    """Relabel so that (p, p-1, ..., 1) is a topological order; the identity
    whenever the input already has that property.
    """
    import heapq

    indeg = {v: len(h.in_adj[v]) for v in h.vertices()}
    heap = [-v for v in h.vertices() if indeg[v] == 0]
    heapq.heapify(heap)
    new: dict[int, int] = {}
    label = h.p
    while heap:
        u = -heapq.heappop(heap)
        new[u] = label
        label -= 1
        for w in h.out_adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, -w)
    return new


def _search_graphs():
    """Label-shuffled random DAGs, an antichain, a chain, and DAGs labelled
    so that (p, p-1, ..., 1) is already a topological order; the last come
    with a True flag.
    """
    rng = random.Random(59)
    graphs = []
    for _ in range(300):
        p = rng.randint(0, 14)
        base = random_dag(rng, p, rng.choice([0.1, 0.3, 0.6, 0.9]))
        names = rng.sample(range(1, p + 1), p)
        graphs.append((Dag(p, [(names[u - 1], names[v - 1]) for u, v in base.edges]), False))
    graphs.append((Dag(40, []), True))
    graphs.append((Dag(40, [(v, v + 1) for v in range(1, 40)]), False))
    graphs.append((Dag(40, [(v + 1, v) for v in range(1, 40)]), True))
    for _ in range(50):
        p = rng.randint(1, 14)
        base = random_dag(rng, p, rng.choice([0.1, 0.3, 0.6, 0.9]))  # ids ascend along edges
        graphs.append((Dag(p, [(p + 1 - u, p + 1 - v) for u, v in base.edges]), True))
    return graphs


def test_topological_order_takes_the_largest_ready_vertex():
    for g, reverse_labelled in _search_graphs():
        order = _topological_order(g)
        assert sorted(order) == list(g.vertices())
        placed: set[int] = set()
        for u in order:
            ready = [v for v in g.vertices() if v not in placed and set(g.in_adj[v]) <= placed]
            assert u == max(ready), (g.p, sorted(g.edges), order)
            placed.add(u)
        if reverse_labelled:
            assert order == list(range(g.p, 0, -1))


def test_list2inf_relabel_matches_reference():
    for k, (g, reverse_labelled) in enumerate(_search_graphs()):
        relabel = {v: g.p - i for i, v in enumerate(_topological_order(g))}
        assert relabel == _topological_relabel(g), (g.p, sorted(g.edges))
        if reverse_labelled:
            assert relabel == {v: v for v in g.vertices()}
        if k % 10 == 0:
            # realize_list2inf labels its agents m[c,v] with the caller's
            # vertex ids, the relabelled vertices 1..p in turn
            back = {nv: v for v, nv in relabel.items()}
            labels = realize_list2inf(g).incomplete.men_labels
            seen = [int(label[:-1].split(",")[1]) for label in labels]
            assert list(dict.fromkeys(seen)) == [back[v] for v in g.vertices()]


def _unchecked_graph(p, edges):
    """A Dag built without the constructor, and so without its cycle check."""
    g = Dag.__new__(Dag)
    g.p = p
    g.out_adj = {v: tuple(sorted(y for x, y in edges if x == v)) for v in range(1, p + 1)}
    g.in_adj = {v: tuple(sorted(x for x, y in edges if y == v)) for v in range(1, p + 1)}
    return g


def test_topological_order_raises_on_a_cycle():
    rng = random.Random(61)
    for _ in range(100):
        p = rng.randint(2, 12)
        g = random_dag(rng, p, rng.choice([0.2, 0.5]))
        u = rng.randint(1, p - 1)
        # an edge back to u from a vertex u reaches, or else a self-loop
        v = rng.choice(sorted(reachable_from(g, u) - {u}) or [u])
        names = rng.sample(range(1, p + 1), p)
        cyclic = [(names[a - 1], names[b - 1]) for a, b in g.edges | {(v, u)}]
        with pytest.raises(ValidationError, match="^graph contains a cycle$"):
            _topological_order(_unchecked_graph(p, cyclic))
        acyclic = [(names[a - 1], names[b - 1]) for a, b in g.edges]
        assert len(_topological_order(_unchecked_graph(p, acyclic))) == p


def test_is_downset_reads_only_in_adjacency():
    rng = random.Random(67)
    for _ in range(100):
        g = random_dag(rng, rng.randint(0, 10), 0.4)
        g = Dag(g.p, sorted(g.edges))  # a fresh Dag, edges not yet built
        z = {v for v in g.vertices() if rng.random() < 0.5}
        got = is_downset(g, z)
        assert "edges" not in vars(g)
        assert got == all(u in z for u, v in g.edges if v in z)
    assert not is_downset(Dag(2, []), {3})


def test_is_downset_chain():
    g = Dag(3, [(1, 2), (2, 3)])
    assert is_downset(g, {1, 2})
    assert not is_downset(g, {2})
    assert is_downset(g, set())


def test_downset_invariant_under_closure():
    rng = random.Random(29)
    for _ in range(20):
        g = random_dag(rng, 7)
        closure = transitive_closure(g)
        for _ in range(10):
            z = {v for v in g.vertices() if rng.random() < 0.5}
            assert is_downset(g, z) == is_downset(closure, z)


def test_enumerate_downsets_small_shapes():
    assert len(enumerate_downsets_bruteforce(Dag(3, [(1, 2), (2, 3)]))) == 4
    assert len(enumerate_downsets_bruteforce(Dag(10, []))) == 1024
    assert enumerate_downsets_bruteforce(Dag(0, [])) == [frozenset()]


def test_enumerate_downsets_matches_subset_scan():
    rng = random.Random(37)
    for _ in range(30):
        g = random_dag(rng, rng.randint(0, 9))
        assert enumerate_downsets_bruteforce(g) == downsets_by_subset_scan(g)


def test_enumerate_downsets_all_distinct_and_closed():
    rng = random.Random(43)
    g = random_dag(rng, 9)
    sets = enumerate_downsets_bruteforce(g)
    assert len(set(sets)) == len(sets)
    assert all(is_downset(g, z) for z in sets)


def test_downset_count_invariant_under_reduction():
    rng = random.Random(47)
    for _ in range(10):
        g = random_dag(rng, rng.randint(1, 12), 0.4)
        red = transitive_reduction(g)
        assert len(enumerate_downsets_bruteforce(g)) == len(
            enumerate_downsets_bruteforce(red)
        )


def test_enumerate_downsets_cap():
    with pytest.raises(CapExceededError):
        enumerate_downsets_bruteforce(Dag(25, []), max_p=20)


def test_poset_isomorphic_relabeling():
    rng = random.Random(53)
    for _ in range(15):
        p = rng.randint(1, 7)
        g = random_dag(rng, p, 0.4)
        perm = rng.sample(range(1, p + 1), p)
        relabel = {v: perm[v - 1] for v in g.vertices()}
        h = Dag(p, {(relabel[u], relabel[v]) for u, v in g.edges})
        assert poset_isomorphic_small(g, h)


def test_poset_isomorphic_negative():
    chain = Dag(3, [(1, 2), (2, 3)])
    antichain = Dag(3, [])
    assert not poset_isomorphic_small(chain, antichain)
    vee = Dag(3, [(1, 2), (1, 3)])
    wedge = Dag(3, [(1, 3), (2, 3)])
    assert not poset_isomorphic_small(vee, wedge)


def test_poset_isomorphic_cap():
    with pytest.raises(CapExceededError):
        poset_isomorphic_small(Dag(11, []), Dag(11, []))


def test_poset_enumeration_counts():
    # known counts of posets up to isomorphism
    assert [len(posets_upto_isomorphism(p)) for p in range(1, 5)] == [1, 2, 5, 16]


def test_check_realization_positive_and_negative():
    diamond = parse_dag(data_text("diamond.dag"))
    chain = parse_dag(data_text("chain3.dag"))
    inst = realize_complete(diamond)
    assert check_realization(diamond, inst)
    inst3 = realize_bounded3(Dag(3, []))  # realizes the antichain
    assert not check_realization(chain, inst3)


def test_check_realization_requires_labels(example_instance):
    diamond = parse_dag(data_text("diamond.dag"))
    with pytest.raises(ValidationError, match="label"):
        check_realization(diamond, example_instance)


def test_check_realization_all_posets_up_to_4():
    for p in range(1, 5):
        for g in posets_upto_isomorphism(p):
            assert check_realization(g, realize_complete(g))
