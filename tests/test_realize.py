import random
from fractions import Fraction

import pytest

from smposet import (
    Dag,
    MAN,
    WOMAN,
    PathDecomposition,
    ValidationError,
    all_stable_matchings_bruteforce,
    AttributeProfile,
    Instance,
    bitonic_sequence,
    check_realization,
    compute_range,
    construct_instance,
    count_downsets,
    count_stable_matchings,
    evaluate_profiles,
    format_instance,
    gale_shapley,
    parse_dag,
    pathwidth_exact_tiny,
    realize_attr6,
    realize_bounded3,
    realize_complete,
    realize_list2inf,
    realize_range,
    rotation_digraph,
    to_nice,
    transitive_reduction,
    validate_decomposition,
)
from smposet import realize

from conftest import corrupt_bags, data_text, posets_upto_isomorphism, random_dag, renamed_band

DIAMOND = Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
DIAMOND_LIST = Dag(4, [(4, 2), (4, 3), (2, 1), (3, 1)])
DIAMOND_X = PathDecomposition.of(
    [{1}, {1, 2}, {1, 2, 3}, {2, 3}, {2, 3, 4}, {3, 4}, {4}, set()]
)


def all_realizers(g: Dag):
    _w, x = pathwidth_exact_tiny(g, max_p=max(10, g.p))
    nice = to_nice(g, x)
    yield "generic", construct_instance(g)
    yield "complete", realize_complete(g)
    yield "bounded3", realize_bounded3(g)
    yield "attr6", realize_attr6(g).instance
    yield "list2inf", realize_list2inf(g).instance
    yield "range", realize_range(g, nice)


# --- golden figures -------------------------------------------------------


def test_golden_generic_figure():
    assert format_instance(construct_instance(DIAMOND)) == data_text("golden_generic.sm")


def test_golden_bounded3_figure():
    assert format_instance(realize_bounded3(DIAMOND)) == data_text("golden_bounded3.sm")


def test_golden_list_figure():
    res = realize_list2inf(DIAMOND_LIST)
    assert format_instance(res.incomplete) == data_text("golden_list_incomplete.sm")
    wl = res.incomplete.women_labels
    ml = res.incomplete.men_labels
    lines = [
        "LM1: " + " ".join(wl[i] for i in res.lm1),
        "LM2: " + " ".join(wl[i] for i in res.lm2),
        "LW1: " + " ".join(ml[i] for i in res.lm1),
        "LW2: " + " ".join(ml[i] for i in res.lm2),
    ]
    assert "\n".join(lines) + "\n" == data_text("golden_list_masters.txt")


def test_golden_range_bitonic_orderings():
    spans = {1: (1, 4), 2: (2, 6), 3: (3, 7), 4: (5, 8)}
    lines = [
        f"pi{v}: " + " ".join(str(c) for c in bitonic_sequence(*spans[v]))
        for v in sorted(spans)
    ]
    assert "\n".join(lines) + "\n" == data_text("golden_range_pis.txt")
    # the spans themselves come from the printed decomposition
    first = {}
    last = {}
    for i, bag in enumerate(DIAMOND_X.bags, start=1):
        for v in bag:
            first.setdefault(v, i)
            last[v] = i
    assert {v: (first[v], last[v] + 1) for v in first} == spans


# --- generic construction -------------------------------------------------


def test_construct_single_vertex():
    inst = construct_instance(Dag(1, []))
    assert inst.n_men == inst.n_women == 2
    dg = rotation_digraph(inst)
    assert len(dg.rotations) == 1
    assert len(dg.rotations[0].pairs) == 2


def test_construct_empty_poset():
    inst = construct_instance(Dag(0, []))
    assert inst.n_men == inst.n_women == 0


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"colors": {}}, "edge (1, 2) has no color"),
        ({"colors": {(1, 2): 0}}, "edge colors must be positive"),
        ({"color_sets": {1: (1, 2)}}, "no color set for vertex 2"),
        ({"color_sets": {1: (1, 1), 2: (1, 2)}},
         "color set of vertex 1 must have >= 2 distinct colors"),
        ({"color_sets": {1: (1, 2), 2: (2,)}},
         "color set of vertex 2 must have >= 2 distinct colors"),
        ({"color_sets": {1: (2, 3), 2: (1, 2)}}, "edge (1,2) color 1 missing from a color set"),
    ],
)
def test_construct_rejects_missing_color(kwargs, message):
    with pytest.raises(ValidationError) as info:
        construct_instance(Dag(2, [(1, 2)]), **kwargs)
    assert str(info.value) == message


def test_construct_rejects_bad_ordering():
    with pytest.raises(ValidationError, match="permutation"):
        construct_instance(Dag(1, []), orderings={1: (1, 3)})


def test_construct_optimal_matchings_shape():
    rng = random.Random(139)
    for _ in range(10):
        g = random_dag(rng, rng.randint(1, 6))
        inst = construct_instance(g)
        mu0 = gale_shapley(inst, MAN)
        assert all(mu0.woman_of(i) == i for i in range(inst.n_men))
        names = dict(zip(inst.men_labels, inst.women_labels))
        muz = gale_shapley(inst, WOMAN)
        for m in range(inst.n_men):
            # woman-optimal partner carries the successor color at the vertex
            assert muz.woman_of(m) is not None
            assert muz.woman_of(m) != mu0.woman_of(m) or inst.n_men == 0


def test_construct_realizes_any_five_element_poset():
    rng = random.Random(149)
    for _ in range(10):
        g = random_dag(rng, 5)
        assert check_realization(g, construct_instance(g))


def test_construct_agent_count_bound():
    rng = random.Random(151)
    for _ in range(10):
        g = random_dag(rng, rng.randint(1, 7), 0.5)
        inst = construct_instance(g)
        p, q = g.p, len(g.edges)
        assert inst.n_men <= 2 * p + 2 * q
        assert inst.n_men == inst.n_women


# --- complete -------------------------------------------------------------


def test_realize_complete_size_and_count():
    inst = realize_complete(DIAMOND)
    assert inst.n_men == inst.n_women == 8
    assert inst.is_complete
    assert check_realization(DIAMOND, inst)


def test_realize_complete_empty():
    inst = realize_complete(Dag(0, []))
    assert inst.n_men == 0


def test_realize_complete_chain3_has_four_matchings():
    chain = parse_dag(data_text("chain3.dag"))
    inst = realize_complete(chain)
    assert inst.n_men == 6
    assert len(all_stable_matchings_bruteforce(inst)) == 4


# --- bounded3 -------------------------------------------------------------


def test_bounded3_list_lengths():
    rng = random.Random(157)
    for _ in range(15):
        g = random_dag(rng, rng.randint(1, 6), 0.5)
        inst = realize_bounded3(g)
        assert max(len(l) for l in inst.men_prefs) <= 3
        assert max(len(l) for l in inst.women_prefs) <= 3
        assert check_realization(g, inst)


def test_bounded3_antichain_lists_have_length_two():
    inst = realize_bounded3(Dag(3, []))
    assert all(len(l) == 2 for l in inst.men_prefs)
    assert all(len(l) == 2 for l in inst.women_prefs)


def test_complete_preferences_preserves_bounded3_digraph():
    from smposet import complete_preferences

    rng = random.Random(163)
    for _ in range(8):
        g = random_dag(rng, 5)
        inst = realize_bounded3(g)
        full = complete_preferences(inst)
        before = [r.pairs for r in rotation_digraph(inst).rotations]
        after = [r.pairs for r in rotation_digraph(full).rotations]
        assert before == after
        assert check_realization(g, full)


# --- attr6 ----------------------------------------------------------------


def test_attr6_prefix_matches_bounded_lists(monkeypatch):
    res = realize_attr6(DIAMOND)
    base = realize_bounded3(DIAMOND)
    for m in range(base.n_men):
        got = list(res.instance.men_prefs[m][: len(base.men_prefs[m])])
        assert got == list(base.men_prefs[m])
    for w in range(base.n_women):
        got = list(res.instance.women_prefs[w][: len(base.women_prefs[w])])
        assert got == list(base.women_prefs[w])
    # a ranking that misorders one agent's bounded prefix, on either side, is caught
    rank = realize._rank_by_roots
    for side in ("man", "woman"):
        def misordered(roots, n, who, side=side):
            lists = rank(roots, n, who)
            if who == side:
                lists[0] = lists[0][::-1]
            return lists

        monkeypatch.setattr(realize, "_rank_by_roots", misordered)
        with pytest.raises(ValidationError, match="does not honor the bounded prefix"):
            realize_attr6(DIAMOND)


def test_attr6_total_and_strict_for_n3():
    g = Dag(1, [])  # two agents per side; exercise the short-polynomial path
    res = realize_attr6(g)
    assert res.instance.is_complete
    g2 = transitive_reduction(Dag(3, [(1, 2)]))
    res2 = realize_attr6(g2)
    assert res2.instance.is_complete
    assert check_realization(g2, res2.instance)


def test_attr6_round_trip_through_profiles():
    # evaluate_profiles is the oracle: it ranks by the printed functionals
    rng = random.Random(167)
    posets = [random_dag(rng, rng.randint(1, 5)) for _ in range(6)]
    posets += [renamed_band(random.Random(p), random.Random(p + 1), p)[0] for p in (8, 20, 40, 60)]
    for g in posets:
        res = realize_attr6(g)
        again = evaluate_profiles(
            res.men_profiles,
            res.women_profiles,
            res.instance.men_labels,
            res.instance.women_labels,
        )
        assert again == res.instance
        assert check_realization(g, res.instance)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fraction_ranking_functional(listed, n):
    """The functional built by Fraction polynomial products, kept as the
    reference for the integer one.
    """
    d2 = Fraction(1, 4 * n**4)
    d3 = Fraction(1, 2 * n**2)
    shifts = [Fraction(0), d2, d3]
    poly = [Fraction(1)]
    for i, root in enumerate(listed):
        r = Fraction(root) - shifts[i]
        factor = [r * r, -2 * r, Fraction(1)]  # (t - r)^2
        poly = _poly_mul(poly, factor)
    coeffs = poly + [Fraction(0)] * (7 - len(poly))
    weights = tuple(-coeffs[j] for j in range(1, 7))
    return weights, -coeffs[0]


def test_attr6_integer_functional_matches_fraction_products():
    rng = random.Random(181)
    for k in range(300):
        n = k + 1 if k < 3 else rng.randint(1, 700)
        listed = rng.sample(range(n), min(3, n))
        got = realize._root_functional(realize._scaled_roots(listed, n), n)
        assert got == _fraction_ranking_functional([j + 1 for j in listed], n)


def test_attr6_ranking_detects_ties():
    # with n = 3, the points 1 and 3 lie at equal distance from the root 2
    d = 4 * 3**4
    with pytest.raises(ValidationError, match="tie in woman 0's ranking"):
        realize._rank_by_roots([[2 * d]], 3, "woman")


@pytest.mark.parametrize("p, count", [(100, 15839232), (200, 22092801638400)])
def test_attr6_realize_then_count(p, count):
    # the reduction end to end at sizes no brute force reaches: the stable
    # matchings of the realization are counted as the poset's downsets are
    g, x = renamed_band(random.Random(7), random.Random(1), p)
    assert count_stable_matchings(realize_attr6(g).instance) == count_downsets(g, x) == count


def test_attr6_points_on_moment_curve():
    res = realize_attr6(DIAMOND)
    for i, prof in enumerate(res.men_profiles, start=1):
        assert prof.point == tuple(Fraction(i) ** j for j in range(1, 7))


def test_evaluate_profiles_two_attribute_smoke():
    # four men at (2,3), (3,1), (1,1), (4,2); phi(x, y) = x + y ranks m4 m1 m2 m3
    def lift(x, y):
        return (Fraction(x), Fraction(y), Fraction(0), Fraction(0), Fraction(0), Fraction(0))

    ones = (Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    men = [
        AttributeProfile(lift(2, 3), ones, Fraction(0)),
        AttributeProfile(lift(3, 1), ones, Fraction(0)),
        AttributeProfile(lift(1, 1), ones, Fraction(0)),
        AttributeProfile(lift(4, 2), ones, Fraction(0)),
    ]
    women = [
        AttributeProfile(lift(i + 1, 2 * i + 1), ones, Fraction(0)) for i in range(4)
    ]
    inst = evaluate_profiles(men, women)
    assert list(inst.women_prefs[0]) == [3, 0, 1, 2]  # m4, m1, m2, m3


def test_evaluate_profiles_identical_weights_give_identical_lists():
    pts = [
        tuple(Fraction(v) for v in (i + 1, 1, 0, 0, 0, 0)) for i in range(3)
    ]
    w = (Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    men = [AttributeProfile(p, w, Fraction(0)) for p in pts]
    women = [AttributeProfile(p, w, Fraction(0)) for p in pts]
    inst = evaluate_profiles(men, women)
    assert inst.men_prefs[0] == inst.men_prefs[1] == inst.men_prefs[2]


def test_evaluate_profiles_detects_ties():
    pt = tuple(Fraction(v) for v in (1, 1, 0, 0, 0, 0))
    pt2 = tuple(Fraction(v) for v in (2, 0, 0, 0, 0, 0))
    w = (Fraction(1), Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    men = [AttributeProfile(pt, w, Fraction(0)), AttributeProfile(pt2, w, Fraction(0))]
    with pytest.raises(ValidationError, match="tie"):
        evaluate_profiles(men, men)


def test_evaluate_profiles_matches_rational_ranking():
    # integer scoring against ranking by AttributeProfile.value, on
    # fractional points, weights and constants, with ties made on purpose
    rng = random.Random(179)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def profile(pool):
        point = rng.choice(pool) if pool and rng.random() < 0.2 else tuple(
            frac() for _ in range(6)
        )
        pool.append(point)
        return AttributeProfile(point, tuple(frac() for _ in range(6)), frac())

    def reference(profiles, others):
        lists = []
        for prof in profiles:
            values = [prof.value(o.point) for o in others]
            if len(set(values)) != len(values):
                return None
            lists.append(sorted(range(len(others)), key=lambda i: -values[i]))
        return lists

    ties = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        pool: list = []
        men = [profile(pool) for _ in range(n)]
        pool = []
        women = [profile(pool) for _ in range(n)]
        men_lists, women_lists = reference(men, women), reference(women, men)
        if men_lists is None or women_lists is None:
            ties += 1
            with pytest.raises(ValidationError, match="tie"):
                evaluate_profiles(men, women)
            continue
        inst = evaluate_profiles(men, women)
        assert [list(lst) for lst in inst.men_prefs] == men_lists
        assert [list(lst) for lst in inst.women_prefs] == women_lists
    assert 0 < ties < 300


# --- list2inf -------------------------------------------------------------


def test_list2inf_men_lists_are_master_lists():
    rng = random.Random(173)
    for _ in range(10):
        g = random_dag(rng, rng.randint(1, 5))
        res = realize_list2inf(g)
        masters = {tuple(res.lm1), tuple(res.lm2)}
        assert all(tuple(lst) in masters for lst in res.instance.men_prefs)
        assert check_realization(g, res.instance)


def test_list2inf_antichain_still_two_lists():
    res = realize_list2inf(Dag(3, []))
    assert {tuple(l) for l in res.instance.men_prefs} == {tuple(res.lm1), tuple(res.lm2)}
    assert set(res.man_group.values()) == {1, 2}


def test_list2inf_incomplete_women_lists_are_master_sublists():
    rng = random.Random(179)
    for _ in range(10):
        g = random_dag(rng, rng.randint(1, 5))
        res = realize_list2inf(g)

        def is_sublist(lst, master):
            pos = [master.index(x) for x in lst]
            return pos == sorted(pos)

        for w in range(res.incomplete.n_women):
            lst = res.incomplete.women_prefs[w]
            assert is_sublist(list(lst), list(res.lm1)) or is_sublist(
                list(lst), list(res.lm2)
            )


def test_list2inf_man_optimal_is_diagonal():
    rng = random.Random(181)
    for _ in range(10):
        g = random_dag(rng, rng.randint(1, 5))
        res = realize_list2inf(g)
        mu0 = gale_shapley(res.instance, MAN)
        assert all(mu0.woman_of(i) == i for i in range(res.instance.n_men))
        assert gale_shapley(res.incomplete, MAN) == mu0


def test_list2inf_women_master_variant():
    rng = random.Random(191)
    for _ in range(6):
        g = random_dag(rng, rng.randint(1, 5))
        res = realize_list2inf(g, master_side="w")
        masters = {tuple(res.lm1), tuple(res.lm2)}
        assert all(tuple(lst) in masters for lst in res.instance.women_prefs)
        assert check_realization(g, res.instance)


def test_list2inf_rejects_bad_side():
    with pytest.raises(ValidationError):
        realize_list2inf(DIAMOND, master_side="x")


# --- bitonic / range ------------------------------------------------------


def test_bitonic_printed_example():
    assert bitonic_sequence(3, 7) == (3, 5, 7, 6, 4)


def test_bitonic_trivial():
    assert bitonic_sequence(1, 2) == (1, 2)
    assert bitonic_sequence(4, 4) == (4,)


def test_bitonic_gap_exhaustive():
    for a in range(1, 6):
        for b in range(a, a + 13):
            seq = bitonic_sequence(a, b)
            assert sorted(seq) == list(range(a, b + 1))
            for i in range(len(seq)):
                assert abs(seq[i] - seq[(i + 1) % len(seq)]) <= 2


def test_realize_range_single_vertex():
    g = Dag(1, [])
    x = PathDecomposition.of([{1}, set()])
    inst = realize_range(g, x)
    assert inst.is_complete
    assert compute_range(inst).k <= 9 * (x.width + 2)
    assert check_realization(g, inst)


def test_realize_range_accepts_any_valid_decomposition():
    # colors are bag indices of the nice form, so a valid decomposition that
    # is not nice gives the instance its nice form gives
    rng = random.Random(199)
    non_nice = rejected = 0
    for _ in range(16):
        g = random_dag(rng, rng.randint(1, 6))
        _w, x = pathwidth_exact_tiny(g)
        non_nice += not x.is_nice
        assert realize_range(g, x) == realize_range(g, to_nice(g, x))
        bad = PathDecomposition(tuple(corrupt_bags(rng, g, list(x.bags))))
        if not validate_decomposition(g, bad):
            rejected += 1
            with pytest.raises(ValidationError, match="^decomposition is not valid for the poset$"):
                realize_range(g, bad)
    assert non_nice > 8 and rejected > 6
    inst = realize_range(DIAMOND, PathDecomposition.of([{1, 2, 3, 4}]))
    assert inst == realize_range(DIAMOND, to_nice(DIAMOND, PathDecomposition.of([{1, 2, 3, 4}])))
    assert check_realization(DIAMOND, inst)
    with pytest.raises(ValidationError, match="^decomposition is not valid for the poset$"):
        realize_range(DIAMOND, PathDecomposition.of([{1, 2, 3}, {4}]))


def test_realize_range_empty_poset():
    assert realize_range(Dag(0, []), PathDecomposition(())) == Instance([], [])
    with pytest.raises(ValidationError, match="^decomposition is not valid for the poset$"):
        realize_range(Dag(0, []), PathDecomposition.of([{1}]))


def test_realize_range_diamond_range_bound():
    inst = realize_range(DIAMOND, DIAMOND_X)
    assert compute_range(inst).k <= 9 * (DIAMOND_X.width + 2)
    assert check_realization(DIAMOND, inst)


def test_realize_range_agent_count_bound():
    rng = random.Random(193)
    for _ in range(8):
        g = random_dag(rng, rng.randint(1, 5))
        _w, x0 = pathwidth_exact_tiny(g)
        x = to_nice(g, x0)
        inst = realize_range(g, x)
        assert inst.n_men <= 2 * g.p * (x.width + 2)
        assert compute_range(inst).k <= 9 * (x.width + 2)
        assert check_realization(g, inst)


# --- cross-construction round trip ----------------------------------------


def test_round_trip_posets_up_to_four_all_constructions():
    for p in range(1, 5):
        for g in posets_upto_isomorphism(p):
            for name, inst in all_realizers(g):
                assert check_realization(g, inst), (p, name, sorted(g.edges))


def test_man_and_woman_optimal_form_all_constructions():
    rng = random.Random(197)
    for _ in range(5):
        g = random_dag(rng, 4)
        for name, inst in all_realizers(g):
            mu0 = gale_shapley(inst, MAN)
            assert all(mu0.woman_of(i) == i for i in range(inst.n_men)), name
