import random
from collections import Counter

import pytest

from smposet import (
    MAN,
    WOMAN,
    CapExceededError,
    Dag,
    FairnessScores,
    Instance,
    Matching,
    PathDecomposition,
    ValidationError,
    all_stable_matchings_bruteforce,
    balanced_bruteforce,
    blocking_pairs,
    compute_range,
    construct_instance,
    count_stable_matchings,
    downset_from_matching,
    enumerate_downsets_bruteforce,
    extent_of,
    gale_shapley,
    matching_from_downset,
    median_and_count,
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
    sex_equal_bruteforce,
    to_nice,
    validate_decomposition,
)
from smposet.fairness import _extent_order, _optimize, _prepare
from smposet.instance import _min_ranks
from smposet.pathdecomp import _layout_bags

from conftest import (
    band_poset,
    data_text,
    grid_poset,
    minrank_instances,
    posets_upto_isomorphism,
    random_complete_instance,
    random_dag,
    random_incomplete_instance,
    stable_matchings_by_matching_scan,
)

MU1 = Matching([(0, 1), (1, 0), (2, 2), (3, 3)])


def unique_instance(n=4):
    order = list(range(n))
    return Instance([order] * n, [order] * n)


def test_count_example(example_instance):
    assert count_stable_matchings(example_instance) == 4


def test_count_master_list():
    assert count_stable_matchings(unique_instance()) == 1


def test_count_matches_bruteforce():
    rng = random.Random(211)
    for _ in range(20):
        inst = random_complete_instance(rng, rng.randint(1, 7))
        assert count_stable_matchings(inst) == len(all_stable_matchings_bruteforce(inst))


def test_sample_unique_instance_is_constant():
    inst = unique_instance()
    mu = sample_stable_matchings(inst, random.Random(5), 1)[0]
    assert mu == gale_shapley(inst, MAN)


def test_samples_are_stable(example_instance):
    rng = random.Random(7)
    for mu in sample_stable_matchings(example_instance, rng, 50):
        assert blocking_pairs(example_instance, mu) == []


def test_sample_frequencies_example(example_instance):
    rng = random.Random(20240817)
    draws = 4000
    counts = Counter(
        mu.sorted_pairs() for mu in sample_stable_matchings(example_instance, rng, draws)
    )
    assert len(counts) == 4
    sigma = (draws * 0.25 * 0.75) ** 0.5
    for v in counts.values():
        assert abs(v - draws / 4) <= 4 * sigma


def test_median_example_lower(example_instance):
    assert median_stable_matching(example_instance) == MU1


def test_median_example_upper(example_instance):
    # borderline rotations have n_rho = N/2 = 2: only rho2; upper keeps it
    mu = median_stable_matching(example_instance, upper=True)
    z = downset_from_matching(
        example_instance, rotation_digraph(example_instance), mu
    )
    assert z == {0, 1}


def test_median_unique_instance():
    inst = unique_instance()
    assert median_stable_matching(inst) == gale_shapley(inst, MAN)


def _median_positions(inst, mu):
    """Check mu gives every agent a lower or upper median stable partner."""
    matchings = all_stable_matchings_bruteforce(inst)
    n = len(matchings)
    ok_positions = {n // 2, n // 2 + 1} if n % 2 == 0 else {(n + 1) // 2}
    for m in range(inst.n_men):
        partners = sorted(
            (inst.men_rank[m][x.woman_of(m)] for x in matchings)
        )
        got = inst.men_rank[m][mu.woman_of(m)]
        if not any(partners[pos - 1] == got for pos in ok_positions):
            return False
    for w in range(inst.n_women):
        partners = sorted(
            (inst.women_rank[w][x.man_of(w)] for x in matchings)
        )
        got = inst.women_rank[w][mu.man_of(w)]
        if not any(partners[pos - 1] == got for pos in ok_positions):
            return False
    return True


def test_median_gives_median_partners():
    rng = random.Random(223)
    for _ in range(20):
        inst = random_complete_instance(rng, 6)
        mu = median_stable_matching(inst)
        assert blocking_pairs(inst, mu) == []
        assert _median_positions(inst, mu)


def test_median_matches_bruteforce_characterization():
    rng = random.Random(227)
    for _ in range(20):
        inst = random_complete_instance(rng, 6)
        dg = rotation_digraph(inst)
        downsets = enumerate_downsets_bruteforce(dg.dag())
        n = len(downsets)
        threshold = (n + 1) // 2 if n % 2 else n // 2 + 1
        expected = {
            rho.id
            for rho in dg.rotations
            if sum(1 for z in downsets if rho.id + 1 in z) >= threshold
        }
        got = downset_from_matching(inst, dg, median_stable_matching(inst))
        assert got == expected


def test_scores_of_example(example_instance):
    scores = FairnessScores.of(example_instance, MU1)
    assert (scores.s_men, scores.s_women) == (7, 10)
    assert scores.delta == 3
    assert scores.beta == 10


def test_sex_equal_example(example_instance):
    mu, scores = sex_equal_bruteforce(example_instance)
    assert mu == MU1
    assert scores.delta == 3


def test_balanced_example(example_instance):
    mu, scores = balanced_bruteforce(example_instance)
    assert mu == MU1  # beta 10, tie with mu2 broken by least downset
    assert scores.beta == 10


def test_fair_unique_instance():
    inst = unique_instance()
    mu, scores = balanced_bruteforce(inst)
    assert mu == gale_shapley(inst, MAN)
    # agent i is matched to its rank-(i+1) partner under a shared master list
    assert scores.s_men == scores.s_women == 1 + 2 + 3 + 4


def test_optimizers_beat_extremes():
    rng = random.Random(229)
    for _ in range(15):
        inst = random_complete_instance(rng, 6)
        mu0 = gale_shapley(inst, MAN)
        muz = gale_shapley(inst, WOMAN)
        d0 = FairnessScores.of(inst, mu0)
        dz = FairnessScores.of(inst, muz)
        _, se = sex_equal_bruteforce(inst)
        _, ba = balanced_bruteforce(inst)
        assert se.delta <= min(d0.delta, dz.delta)
        assert ba.beta <= min(d0.beta, dz.beta)


def test_prepare_cut_follows_extent_lower_ends():
    # the order of least minranks is the order of extent lower ends, which
    # fixes every seeded draw
    for inst in minrank_instances():
        dg, g, got = _prepare(inst)
        x = _layout_bags(g, got)
        by_id = _layout_bags(g, g.vertices())
        if inst.is_complete:
            profile = compute_range(inst)
            lo = [extent_of(rho, profile).lo for rho in dg.rotations]
            order = sorted(g.vertices(), key=lambda v: (lo[v - 1], v))
            orank = (_min_ranks(inst.women_prefs, inst.n_men), _min_ranks(inst.men_prefs, inst.n_women))
            assert _extent_order(dg, *orank) == order
            y = _layout_bags(g, order)
            assert x == (y if y.width < by_id.width else by_id)
            assert got == (order if y.width < by_id.width else list(g.vertices()))
        else:
            assert x == by_id and got == list(g.vertices())


def test_fair_matches_exhaustive_scan():
    # the DP's optimum against a scan of every stable matching and against
    # the brute force, and its matching against the scan's least (score,
    # sum of 2^id over the rotation ids of its downset): random complete
    # instances, random incomplete ones in which every agent is matched, and
    # band posets realized under the five models, whose matchings come from
    # their listed downsets
    rng = random.Random(233)
    complete = [random_complete_instance(rng, 6) for _ in range(15)]
    complete += [random_complete_instance(rng, rng.randint(1, 9)) for _ in range(25)]
    # found by a seed search: the extent cuts of these insert a rotation
    # after one of its successors, so an insert must drop the states that
    # hold a live out-neighbour
    for seed in (2893, 3517):
        found = random.Random(seed)
        complete.append(random_complete_instance(found, found.randint(4, 16)))
    cases = [(inst, all_stable_matchings_bruteforce(inst, max_size=inst.n_men)) for inst in complete]
    incomplete = 0
    while incomplete < 30:
        n = rng.randint(2, 6)
        inst = random_incomplete_instance(rng, n, n, rng.choice([0.5, 0.7, 0.9]))
        if not inst.is_complete and len(gale_shapley(inst, MAN).pairs) == n:
            incomplete += 1
            cases.append((inst, stable_matchings_by_matching_scan(inst)))
    for p in (12, 20):
        g = band_poset(rng, p)
        bags = PathDecomposition.of([range(i, i + 4) for i in range(1, p - 2)])
        for inst in (
            realize_complete(g),
            realize_bounded3(g),
            realize_list2inf(g).instance,
            realize_attr6(g).instance,
            realize_range(g, bags),
        ):
            dg = rotation_digraph(inst)
            downsets = enumerate_downsets_bruteforce(dg.dag(), max_p=p)
            matchings = [matching_from_downset(inst, dg, {v - 1 for v in z}) for z in downsets]
            cases.append((inst, matchings))
    for inst, matchings in cases:
        dg = rotation_digraph(inst)
        bits = [sum(1 << i for i in downset_from_matching(inst, dg, mu)) for mu in matchings]
        for key, bruteforce in (("delta", sex_equal_bruteforce), ("beta", balanced_bruteforce)):
            scores = [getattr(FairnessScores.of(inst, mu), key) for mu in matchings]
            best = min(range(len(matchings)), key=lambda i: (scores[i], bits[i]))
            mu, got = _optimize(inst, key)
            brute_mu, brute = bruteforce(inst)
            assert getattr(got, key) == scores[best] == getattr(brute, key)
            assert mu == matchings[best] == brute_mu


def test_fair_cap(monkeypatch):
    # an antichain of 5 rotations has 2^5 downsets
    from smposet import oracles

    monkeypatch.setattr(oracles, "MAX_MATCHINGS", 10)
    inst = realize_complete(Dag(5, []))
    with pytest.raises(CapExceededError, match="^32 stable matchings exceed cap 10$"):
        sex_equal_bruteforce(inst)


def test_fair_cap_fires_before_listing(monkeypatch):
    # 2^40 downsets: the DP counts them, and none is ever listed
    from smposet import oracles

    def refuse(*_args, **_kwargs):
        raise AssertionError("downsets listed before the cap check")

    monkeypatch.setattr(oracles, "_stable_matchings", refuse)
    inst = realize_complete(Dag(40, []))
    for optimize in (sex_equal_bruteforce, balanced_bruteforce):
        with pytest.raises(
            CapExceededError, match=f"^{2**40} stable matchings exceed cap {10**6}$"
        ):
            optimize(inst)


def test_width_refusal_surfaces_through_every_instance_op(monkeypatch):
    # a wide rotation poset is refused by the DP's width cap, with the same
    # message, whichever instance op runs it
    from smposet import downsets

    inst = realize_complete(grid_poset(6))
    assert inst.n_men == inst.n_women == 72
    assert count_stable_matchings(inst) == 924
    monkeypatch.setattr(downsets, "HARD_WIDTH_CAP", 4)
    for call in (
        lambda: count_stable_matchings(inst),
        lambda: sample_stable_matchings(inst, random.Random(1), 2),
        lambda: median_and_count(inst),
        lambda: _optimize(inst, "delta"),
        lambda: _optimize(inst, "beta"),
    ):
        with pytest.raises(CapExceededError, match="^6 live vertices exceed width cap 4$"):
            call()


def test_state_cap_sees_the_optimizer_tables(monkeypatch):
    # the optimizer keys its tables on a summed weight as well as the live
    # mask, so they outgrow the count's: under a state cap that the count
    # passes, each objective is refused at its own table's size
    from smposet import downsets

    inst = realize_complete(grid_poset(4))
    monkeypatch.setattr(downsets, "MAX_STATES", 88)
    assert count_stable_matchings(inst) == 70
    for key, states in (("delta", 98), ("beta", 100)):
        with pytest.raises(CapExceededError, match=f"^{states} DP states exceed cap 88$"):
            _optimize(inst, key)


def test_sample_checks_draws_before_any_analysis(monkeypatch):
    from smposet import fairness

    def refuse(*_args, **_kwargs):
        raise AssertionError("rotations found before the draws check")

    monkeypatch.setattr(fairness, "_prepare", refuse)
    inst = parse_instance(data_text("example_rotation_poset.sm"))
    for draws in (0, -3):
        with pytest.raises(ValidationError, match=f"^draws must be positive, got {draws}$"):
            sample_stable_matchings(inst, random.Random(1), draws)


def _median_by_scan(inst, matchings, upper=False):
    """The median from the stable matchings alone (Teo & Sethuraman 1998):
    each matched man gets his k-th best partner over all N matchings, where
    k = N - t + 1 for the threshold t that median_stable_matching keeps a
    rotation at.
    """
    n = len(matchings)
    if n % 2:
        t = (n + 1) // 2
    else:
        t = n // 2 if upper else n // 2 + 1
    pairs = []
    for m in range(inst.n_men):
        ws = [mu.woman_of(m) for mu in matchings if mu.woman_of(m) is not None]
        if ws:
            pairs.append((m, sorted(ws, key=lambda w: inst.men_rank[m][w])[n - t]))
    return Matching(pairs)


def _check_against_scan(inst):
    matchings = stable_matchings_by_matching_scan(inst)
    _dg, g, order = _prepare(inst)
    assert sorted(order) == list(g.vertices())
    assert validate_decomposition(g, _layout_bags(g, order))
    assert count_stable_matchings(inst) == len(matchings)
    for upper in (False, True):
        mu, total = median_and_count(inst, upper)
        assert total == len(matchings)
        assert mu == _median_by_scan(inst, matchings, upper)
    return len(matchings)


def test_count_and_median_on_random_incomplete_instances():
    rng = random.Random(239)
    incomplete = 0
    for _ in range(60):
        inst = random_incomplete_instance(
            rng, rng.randint(1, 6), rng.randint(1, 6), rng.choice([0.3, 0.6, 0.85])
        )
        incomplete += not inst.is_complete
        _check_against_scan(inst)
    assert incomplete > 40


def _realizations(g):
    yield "complete", realize_complete(g)
    yield "bounded3", realize_bounded3(g)
    yield "list2inf", realize_list2inf(g).instance
    yield "attr6", realize_attr6(g).instance
    yield "range", realize_range(g, to_nice(g, pathwidth_exact_tiny(g)[1]))
    yield "generic", construct_instance(g)


def test_count_and_median_on_every_realize_model():
    # the matching scan wherever it is cheap: every poset on at most 3
    # elements, and random posets on 4 for the short-list models; otherwise
    # the realized poset's downsets, which the instance has by construction
    rng = random.Random(241)
    posets = [g for p in range(4) for g in posets_upto_isomorphism(p)]
    posets += [random_dag(rng, p, 0.4) for p in (4, 4, 5, 6)]
    scanned = set()
    for g in posets:
        downsets = len(enumerate_downsets_bruteforce(g))
        for model, inst in _realizations(g):
            n = max(inst.n_men, inst.n_women)
            if n <= 6 or (n <= 8 and not inst.is_complete):
                assert _check_against_scan(inst) == downsets, (model, g)
                scanned.add(model)
            assert count_stable_matchings(inst) == downsets, (model, g)
            assert median_and_count(inst)[1] == downsets, (model, g)
    assert scanned == {"complete", "bounded3", "list2inf", "attr6", "range", "generic"}


def test_median_on_incomplete_matches_downset_characterization():
    rng = random.Random(251)
    for _ in range(20):
        g = random_dag(rng, rng.randint(1, 8), 0.3)
        for inst in (realize_bounded3(g), construct_instance(g)):
            assert not inst.is_complete or g.p == 1
            dg = rotation_digraph(inst)
            downsets = enumerate_downsets_bruteforce(dg.dag())
            n = len(downsets)
            threshold = (n + 1) // 2 if n % 2 else n // 2 + 1
            expected = {
                rho.id
                for rho in dg.rotations
                if sum(1 for z in downsets if rho.id + 1 in z) >= threshold
            }
            mu, total = median_and_count(inst)
            assert total == n
            assert downset_from_matching(inst, dg, mu) == expected


def test_sample_frequencies_incomplete_instance():
    inst = parse_instance(data_text("golden_list_incomplete.sm"))
    assert not inst.is_complete
    expected = {mu.sorted_pairs() for mu in stable_matchings_by_matching_scan(inst)}
    draws = 24000
    counts = Counter(
        mu.sorted_pairs()
        for mu in sample_stable_matchings(inst, random.Random(20240817), draws)
    )
    assert set(counts) == expected and len(expected) == 6
    p = 1 / 6
    sigma = (draws * p * (1 - p)) ** 0.5
    for v in counts.values():
        assert abs(v - draws * p) <= 4 * sigma
    tv = sum(abs(v / draws - p) for v in counts.values()) / 2
    assert tv < 0.02

