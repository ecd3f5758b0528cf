import random
from collections import deque

import pytest

from smposet import (
    MAN,
    CapExceededError,
    Instance,
    Matching,
    RULE_1,
    RULE_2,
    ValidationError,
    all_stable_matchings_bruteforce,
    blocking_pairs,
    construct_instance,
    downset_from_matching,
    eliminate,
    enumerate_downsets_bruteforce,
    exposed_rotations,
    gale_shapley,
    matching_from_downset,
    parse_instance,
    pathwidth_exact_tiny,
    realize_attr6,
    realize_bounded3,
    realize_complete,
    realize_list2inf,
    realize_range,
    rotation_digraph,
    to_nice,
    transitive_closure,
)

from conftest import (
    DATA,
    random_complete_instance,
    random_dag,
    random_incomplete_instance,
    stable_matchings_by_permutation_scan,
)

MU0 = Matching([(0, 0), (1, 1), (2, 2), (3, 3)])
MU1 = Matching([(0, 1), (1, 0), (2, 2), (3, 3)])
MU2 = Matching([(0, 1), (1, 0), (2, 3), (3, 2)])
MU3 = Matching([(0, 3), (1, 0), (2, 1), (3, 2)])


def test_exposed_in_man_optimal(example_instance):
    # only rho1: rho2 is blocked until rho1 moves w2 above m4
    rots = exposed_rotations(example_instance, MU0)
    assert [r.pairs for r in rots] == [((0, 0), (1, 1))]


def test_elimination_chain_visits_all_matchings(example_instance):
    mu = MU0
    seen = [mu]
    for expected in (((0, 0), (1, 1)), ((2, 2), (3, 3)), ((0, 1), (2, 3))):
        (rho,) = exposed_rotations(example_instance, mu)
        assert rho.pairs == expected
        mu = eliminate(example_instance, mu, rho)
        seen.append(mu)
    assert seen == [MU0, MU1, MU2, MU3]


def test_exposed_in_woman_optimal_is_empty(example_instance):
    assert exposed_rotations(example_instance, MU3) == []


def test_exposed_in_mu2(example_instance):
    rots = exposed_rotations(example_instance, MU2)
    assert [r.pairs for r in rots] == [((0, 1), (2, 3))]


def test_exposed_requires_stability(example_instance):
    bad = Matching([(0, 1), (1, 3), (2, 2), (3, 0)])
    with pytest.raises(ValidationError):
        exposed_rotations(example_instance, bad)


def test_eliminate_example_steps(example_instance):
    rho1 = exposed_rotations(example_instance, MU0)[0]
    assert eliminate(example_instance, MU0, rho1) == MU1
    rho3 = exposed_rotations(example_instance, MU2)[0]
    assert eliminate(example_instance, MU2, rho3) == MU3


def test_eliminate_twice_fails(example_instance):
    rho1 = exposed_rotations(example_instance, MU0)[0]
    mu = eliminate(example_instance, MU0, rho1)
    with pytest.raises(ValidationError, match="not exposed"):
        eliminate(example_instance, mu, rho1)


def test_rotation_digraph_example(example_instance):
    dg = rotation_digraph(example_instance)
    assert [r.pairs for r in dg.rotations] == [
        ((0, 0), (1, 1)),
        ((2, 2), (3, 3)),
        ((0, 1), (2, 3)),
    ]
    assert dg.edges == {
        (0, 2): frozenset({RULE_1}),
        (1, 2): frozenset({RULE_1, RULE_2}),
        (0, 1): frozenset({RULE_2}),
    }


def test_rotation_digraph_master_list_has_no_rotations():
    order = [3, 1, 0, 2]
    inst = Instance([order] * 4, [order] * 4)
    assert rotation_digraph(inst).rotations == ()


def test_pair_uniqueness_across_rotations():
    rng = random.Random(61)
    for _ in range(20):
        inst = random_complete_instance(rng, rng.randint(2, 7))
        seen = set()
        for rho in rotation_digraph(inst).rotations:
            for pair in rho.pairs:
                assert pair not in seen
                seen.add(pair)


def _precedence_by_definition(inst):
    """Brute-force the rotation precedence: rho precedes sigma when rho is in
    the eliminated set of every stable matching exposing sigma. Eliminated
    sets come from BFS over eliminations, independent of the digraph rules.
    """
    mu0 = gale_shapley(inst, MAN)
    eliminated = {mu0: frozenset()}
    exposed_here = {}
    queue = deque([mu0])
    key = lambda rho: rho.pairs
    while queue:
        mu = queue.popleft()
        rots = exposed_rotations(inst, mu)
        exposed_here[mu] = {key(r) for r in rots}
        for rho in rots:
            nxt = eliminate(inst, mu, rho)
            if nxt not in eliminated:
                eliminated[nxt] = eliminated[mu] | {key(rho)}
                queue.append(nxt)
            else:
                assert eliminated[nxt] == eliminated[mu] | {key(rho)}
    all_rots = set().union(*exposed_here.values()) if exposed_here else set()
    prec = set()
    for rho in all_rots:
        for sigma in all_rots:
            if rho == sigma:
                continue
            if all(rho in eliminated[mu] for mu in exposed_here if sigma in exposed_here[mu]):
                prec.add((rho, sigma))
    return prec


def test_digraph_closure_matches_definition():
    rng = random.Random(67)
    for _ in range(15):
        inst = random_complete_instance(rng, rng.randint(2, 7))
        dg = rotation_digraph(inst)
        closure = transitive_closure(dg.dag())
        got = {
            (dg.rotations[a - 1].pairs, dg.rotations[b - 1].pairs)
            for a, b in closure.edges
        }
        assert got == _precedence_by_definition(inst)


def test_matching_from_downset_example(example_instance):
    dg = rotation_digraph(example_instance)
    assert matching_from_downset(example_instance, dg, set()) == MU0
    assert matching_from_downset(example_instance, dg, {0}) == MU1
    assert matching_from_downset(example_instance, dg, {0, 1}) == MU2
    assert matching_from_downset(example_instance, dg, {0, 1, 2}) == MU3


def test_matching_from_downset_rejects_non_downset(example_instance):
    dg = rotation_digraph(example_instance)
    with pytest.raises(ValidationError, match="downset"):
        matching_from_downset(example_instance, dg, {1})


def test_downset_from_matching_example(example_instance):
    dg = rotation_digraph(example_instance)
    assert downset_from_matching(example_instance, dg, MU2) == {0, 1}
    assert downset_from_matching(example_instance, dg, MU0) == frozenset()


def test_downset_from_matching_rejects_unstable(example_instance):
    dg = rotation_digraph(example_instance)
    bad = Matching([(0, 1), (1, 3), (2, 2), (3, 0)])
    with pytest.raises(ValidationError):
        downset_from_matching(example_instance, dg, bad)


def test_downset_matching_round_trip():
    rng = random.Random(71)
    for _ in range(15):
        inst = random_complete_instance(rng, 6)
        dg = rotation_digraph(inst)
        for mu in all_stable_matchings_bruteforce(inst):
            z = downset_from_matching(inst, dg, mu)
            assert matching_from_downset(inst, dg, z) == mu


def test_bruteforce_matches_permutation_scan():
    rng = random.Random(73)
    for _ in range(15):
        inst = random_complete_instance(rng, rng.randint(1, 5))
        assert all_stable_matchings_bruteforce(inst) == stable_matchings_by_permutation_scan(inst)


def test_bruteforce_incomplete_matches_matching_scan():
    from conftest import random_incomplete_instance, stable_matchings_by_matching_scan

    rng = random.Random(75)
    # 200 draws include instances where a single woman stops a man's move
    for _ in range(200):
        inst = random_incomplete_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        got = all_stable_matchings_bruteforce(inst)
        assert got == stable_matchings_by_matching_scan(inst)
        # every stable matching covers the same agents (so dropping the
        # never-matched ones, as the constructions assume, is harmless)
        matched_men = {frozenset(m for m, _ in mu.pairs) for mu in got}
        matched_women = {frozenset(w for _, w in mu.pairs) for mu in got}
        assert len(matched_men) == 1 and len(matched_women) == 1


def test_single_woman_stops_a_rotation():
    # w0 accepts only m0 and stays single; m0 ranks her between his two
    # partners in the 2x2 cycle, so moving him down would let (m0, w0) block
    inst = Instance([[1, 0, 2], [2, 1]], [[0], [1, 0], [0, 1]])
    mu0 = gale_shapley(inst, MAN)
    assert exposed_rotations(inst, mu0) == []
    assert rotation_digraph(inst).rotations == ()
    assert all_stable_matchings_bruteforce(inst) == [mu0]


def test_bruteforce_example(example_instance):
    assert all_stable_matchings_bruteforce(example_instance) == sorted(
        [MU0, MU1, MU2, MU3], key=lambda m: m.sorted_pairs()
    )


def test_bruteforce_opposed_two_by_two():
    inst = Instance([[0, 1], [1, 0]], [[1, 0], [0, 1]])
    assert len(all_stable_matchings_bruteforce(inst)) == 2


def test_bruteforce_cap():
    inst = Instance([[0]] * 1 * 9 and [list(range(9))] * 9, [list(range(9))] * 9)
    with pytest.raises(CapExceededError):
        all_stable_matchings_bruteforce(inst, max_size=8)


def test_bijection_with_downsets():
    from smposet import enumerate_downsets_bruteforce

    rng = random.Random(79)
    for _ in range(15):
        inst = random_complete_instance(rng, rng.randint(1, 7))
        dg = rotation_digraph(inst)
        n_downsets = len(enumerate_downsets_bruteforce(dg.dag()))
        assert n_downsets == len(all_stable_matchings_bruteforce(inst))


def test_to_dot_mentions_rules(example_instance):
    dg = rotation_digraph(example_instance)
    dot = dg.to_dot(example_instance)
    assert "rule=12" in dot and "rule=1" in dot and "digraph" in dot


def _reference_rotation_digraph(inst):
    """Rotation pairs by id and rule-tagged edges, computed by the oracles:
    repeated exposed_rotations, eliminate on exposed[0], then the Rule 1 /
    Rule 2 edges from the recorded moves.
    """
    mu = gale_shapley(inst, MAN)
    rotations = []
    # (man, woman) -> (id, exact), and the women's mirror
    move_down, move_up = {}, {}
    while True:
        exposed = exposed_rotations(inst, mu)
        if not exposed:
            break
        rho, rid = exposed[0], len(rotations)
        rotations.append(rho.pairs)
        n = len(rho.pairs)
        for i, (m, w) in enumerate(rho.pairs):
            w_next = rho.pairs[(i + 1) % n][1]
            m_prev = rho.pairs[(i - 1) % n][0]
            lo, hi = inst.men_rank[m][w], inst.men_rank[m][w_next]
            for w_mid in inst.men_prefs[m][lo : hi - 1]:
                move_down[(m, w_mid)] = (rid, False)
            move_down[(m, w_next)] = (rid, True)
            lo_w, hi_w = inst.women_rank[w][m_prev], inst.women_rank[w][m]
            for m_mid in inst.women_prefs[w][lo_w : hi_w - 1]:
                move_up[(w, m_mid)] = (rid, False)
            move_up[(w, m_prev)] = (rid, True)
        mu = eliminate(inst, mu, rho)
    edges = {}
    for rid, pairs in enumerate(rotations):
        for m, w in pairs:
            hit = move_down.get((m, w))
            if hit is not None and hit[1] and hit[0] != rid:
                edges.setdefault((hit[0], rid), set()).add(RULE_1)
    for (m, w), (rid, exact) in move_down.items():
        if exact:
            continue
        hit = move_up.get((w, m))
        if hit is not None and not hit[1] and hit[0] != rid:
            edges.setdefault((hit[0], rid), set()).add(RULE_2)
    return rotations, {e: frozenset(rules) for e, rules in edges.items()}


def _realized_instances(rng, count):
    for _ in range(count):
        g = random_dag(rng, rng.randint(1, 7))
        _w, x = pathwidth_exact_tiny(g)
        yield construct_instance(g)
        yield realize_complete(g)
        yield realize_bounded3(g)
        yield realize_attr6(g).instance
        yield realize_list2inf(g).instance
        yield realize_range(g, to_nice(g, x))


def test_rotation_digraph_matches_reference():
    rng = random.Random(83)
    corpus = [parse_instance(path.read_text(encoding="utf-8")) for path in sorted(DATA.glob("*.sm"))]
    for i in range(240):
        if i % 3 == 0:
            corpus.append(
                random_incomplete_instance(
                    rng, rng.randint(1, 40), rng.randint(1, 40), rng.choice((0.3, 0.6, 0.9))
                )
            )
        else:
            corpus.append(random_complete_instance(rng, rng.randint(1, 40)))
    corpus += _realized_instances(rng, 8)
    for inst in corpus:
        dg = rotation_digraph(inst)
        assert [rho.id for rho in dg.rotations] == list(range(len(dg.rotations)))
        pairs, edges = _reference_rotation_digraph(inst)
        assert [rho.pairs for rho in dg.rotations] == pairs
        # the same edges in the same order, so every later set and dict
        # built from them iterates alike
        assert list(dg.edges.items()) == list(edges.items())
        assert dg.man_optimal == gale_shapley(inst, MAN)


def test_matching_from_downset_matches_elimination_chain():
    rng = random.Random(89)
    corpus = [random_complete_instance(rng, rng.randint(1, 9)) for _ in range(25)]
    corpus += [
        random_incomplete_instance(rng, rng.randint(1, 9), rng.randint(1, 9), 0.7)
        for _ in range(25)
    ]
    corpus += _realized_instances(rng, 3)
    for inst in corpus:
        dg = rotation_digraph(inst)
        for zs in enumerate_downsets_bruteforce(dg.dag()):
            ids = sorted(v - 1 for v in zs)
            want = gale_shapley(inst, MAN)
            for rid in ids:
                want = eliminate(inst, want, dg.rotations[rid])
            mu = matching_from_downset(inst, dg, ids)
            assert mu == want
            assert not blocking_pairs(inst, mu)
            assert downset_from_matching(inst, dg, mu) == frozenset(ids)
