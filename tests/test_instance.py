import random
import re

import pytest

from smposet import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    ParseError,
    RangeProfile,
    ValidationError,
    all_stable_matchings_bruteforce,
    blocking_pairs,
    complete_preferences,
    compute_range,
    format_instance,
    gale_shapley,
    parse_instance,
    symmetric_shortlists,
)
from smposet.instance import _min_ranks, gale_shapley as _gs

from conftest import minrank_instances, random_complete_instance, random_incomplete_instance

MU0 = Matching([(0, 0), (1, 1), (2, 2), (3, 3)])
MU3 = Matching([(0, 3), (1, 0), (2, 1), (3, 2)])


def test_parse_example(example_instance):
    inst = example_instance
    assert inst.n_men == inst.n_women == 4
    assert inst.is_complete
    assert inst.men_prefs[1] == (1, 3, 0, 2)  # m2: w2 w4 w1 w3


def test_parse_empty_instance():
    inst = parse_instance("SM 0 0\n")
    assert inst.n_men == inst.n_women == 0
    assert inst.is_complete


def test_parse_duplicate_entry_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance("SM 1 1\nm1: w1 w1\nw1: m1\n")


def test_parse_inconsistent_lists_rejected():
    text = "SM 2 2\nm1: w1 w2\nm2: w1\nw1: m1 m2\nw2: m2\n"
    with pytest.raises(ParseError, match="inconsistent"):
        parse_instance(text)


def test_parse_reports_offending_agents():
    text = "SM 2 2\nm1: w1 w2\nm2: w1\nw1: m1 m2\nw2: m2\n"
    with pytest.raises(ParseError, match="w2.*m2|m2.*w2"):
        parse_instance(text)


def _two_pass_validate(men_prefs, women_prefs, men_labels, women_labels):
    """The list checks of an Instance as they were written before the rank
    dicts were built inside them: membership sets in one pass, rank dicts in
    two more. Returns the first error message and the rank dicts.
    """
    n_men, n_women = len(men_prefs), len(women_prefs)
    if len(men_labels) != n_men or len(women_labels) != n_women:
        return "label count does not match agent count", None
    for side, labels in ((MAN, men_labels), (WOMAN, women_labels)):
        if len(set(labels)) != len(labels):
            return f"duplicate label on side {side!r}", None
    men_sets = []
    listed_by = [0] * n_women
    for m, lst in enumerate(men_prefs):
        s = set(lst)
        if len(s) != len(lst):
            return f"duplicate entry in {men_labels[m]}'s list", None
        for w in lst:
            if not 0 <= w < n_women:
                return f"{men_labels[m]} ranks unknown woman {w}", None
            listed_by[w] += 1
        men_sets.append(s)
    for w, lst in enumerate(women_prefs):
        s = set(lst)
        if len(s) != len(lst):
            return f"duplicate entry in {women_labels[w]}'s list", None
        for m in lst:
            if not 0 <= m < n_men:
                return f"{women_labels[w]} ranks unknown man {m}", None
            if w not in men_sets[m]:
                return (
                    f"inconsistent lists: {women_labels[w]} ranks "
                    f"{men_labels[m]} but not vice versa"
                ), None
        if listed_by[w] == len(lst):
            continue
        for m in range(n_men):
            if w in men_sets[m] and m not in s:
                return (
                    f"inconsistent lists: {men_labels[m]} ranks "
                    f"{women_labels[w]} but not vice versa"
                ), None
    ranks = (
        tuple({w: r + 1 for r, w in enumerate(lst)} for lst in men_prefs),
        tuple({m: r + 1 for r, m in enumerate(lst)} for lst in women_prefs),
    )
    return None, ranks


def _random_list_pair(rng):
    """Consistent lists over a random acceptability graph, then up to two
    random faults: a repeated entry, an entry out of range, an entry dropped
    from or added to one side, or a repeated or missing label.
    """
    n_men, n_women = rng.randint(0, 4), rng.randint(0, 4)
    men = [[] for _ in range(n_men)]
    women = [[] for _ in range(n_women)]
    for m in range(n_men):
        for w in range(n_women):
            if rng.random() < 0.6:
                men[m].append(w)
                women[w].append(m)
    for lst in men + women:
        rng.shuffle(lst)
    men_labels = [f"m{i + 1}" for i in range(n_men)]
    women_labels = [f"w{i + 1}" for i in range(n_women)]
    for _ in range(rng.randint(0, 2)):
        lists, n_other = rng.choice([(men, n_women), (women, n_men)])
        if not lists:
            continue
        lst = rng.choice(lists)
        kind = rng.randrange(5)
        if kind == 0 and lst:
            lst.insert(rng.randint(0, len(lst)), rng.choice(lst))
        elif kind == 1:
            lst.insert(rng.randint(0, len(lst)), rng.choice([-1, n_other, n_other + 2]))
        elif kind == 2 and lst:
            del lst[rng.randrange(len(lst))]
        elif kind == 3 and n_other:
            lst.insert(rng.randint(0, len(lst)), rng.randrange(n_other))
        elif kind == 4:
            labels = rng.choice([men_labels, women_labels])
            if len(labels) >= 2:
                labels[1] = labels[0]
            elif labels:
                labels.pop()
    return men, women, men_labels, women_labels


def _complete_list_pair(rng):
    """Complete lists for up to 8 agents a side, which the C-speed checks
    accept, then at most one fault that sends them back to the per-entry
    loops: a repeated entry, an entry out of range, an entry dropped from or
    added to one side, or a repeated label.
    """
    n_men, n_women = rng.randint(0, 8), rng.randint(0, 8)
    men = [rng.sample(range(n_women), n_women) for _ in range(n_men)]
    women = [rng.sample(range(n_men), n_men) for _ in range(n_women)]
    men_labels = [f"m{i + 1}" for i in range(n_men)]
    women_labels = [f"w{i + 1}" for i in range(n_women)]
    lists, n_other = rng.choice([(men, n_women), (women, n_men)])
    kind = rng.randrange(6)
    if not lists or kind == 5:
        return men, women, men_labels, women_labels
    lst = rng.choice(lists)
    at = rng.randrange(len(lst) + 1)
    if kind == 0 and lst:
        # in place, the list keeps its complete length
        if rng.random() < 0.5 and len(lst) >= 2:
            lst[at % len(lst)] = lst[(at + 1) % len(lst)]
        else:
            lst.insert(at, rng.choice(lst))
    elif kind == 1:
        bad = rng.choice([-1, n_other, n_other + 2])
        if rng.random() < 0.5 and lst:
            lst[at % len(lst)] = bad
        else:
            lst.insert(at, bad)
    elif kind == 2 and lst:
        del lst[at % len(lst)]
    elif kind == 3 and n_men and n_women:
        # drop one pair from both sides, then list it again on one side
        m, w = rng.randrange(n_men), rng.randrange(n_women)
        men[m].remove(w)
        women[w].remove(m)
        if rng.random() < 0.5:
            men[m].insert(rng.randint(0, len(men[m])), w)
        else:
            women[w].insert(rng.randint(0, len(women[w])), m)
    elif kind == 4:
        labels = rng.choice([men_labels, women_labels])
        if len(labels) >= 2:
            labels[rng.randrange(1, len(labels))] = labels[0]
    return men, women, men_labels, women_labels


def _check_against_two_pass(men, women, men_labels, women_labels):
    """Assert that building and parsing these lists give the two-pass
    outcome word for word; returns that outcome with its numbers masked.
    """
    expected, ranks = _two_pass_validate(men, women, men_labels, women_labels)
    try:
        inst = Instance(men, women, men_labels, women_labels)
    except ValidationError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert (inst.men_rank, inst.women_rank) == ranks
    masked = expected and re.sub(r"-?\d+", "#", expected)
    if len(men_labels) != len(men) or len(women_labels) != len(women):
        return masked
    if len(set(men_labels)) != len(men) or len(set(women_labels)) != len(women):
        return masked
    if any(not 0 <= w < len(women) for lst in men for w in lst):
        return masked
    if any(not 0 <= m < len(men) for lst in women for m in lst):
        return masked
    lines = [f"SM {len(men)} {len(women)}"]
    lines += [f"{a}: " + " ".join(women_labels[w] for w in lst) for a, lst in zip(men_labels, men)]
    lines += [f"{a}: " + " ".join(men_labels[m] for m in lst) for a, lst in zip(women_labels, women)]
    try:
        inst = parse_instance("\n".join(lines) + "\n")
    except ParseError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert (inst.men_rank, inst.women_rank) == ranks
    return masked


def test_validation_messages_match_the_two_pass_checks():
    # built directly and parsed from text, every outcome of the one-pass
    # checks matches the two-pass reference word for word
    rng = random.Random(163)
    seen = set()
    for _ in range(3000):
        seen.add(_check_against_two_pass(*_random_list_pair(rng)))
    # complete lists pass the C-speed checks, and one fault in them must
    # still be named as the per-entry loops name it
    seen_complete = set()
    for _ in range(1500):
        seen_complete.add(_check_against_two_pass(*_complete_list_pair(rng)))
    messages = {
        None,
        "label count does not match agent count",
        "duplicate label on side 'm'",
        "duplicate label on side 'w'",
        "duplicate entry in m#'s list",
        "duplicate entry in w#'s list",
        "m# ranks unknown woman #",
        "w# ranks unknown man #",
        "inconsistent lists: w# ranks m# but not vice versa",
        "inconsistent lists: m# ranks w# but not vice versa",
    }
    assert seen == messages
    assert seen_complete == messages - {"label count does not match agent count"}


def test_entries_become_tuples_of_exact_ints():
    # entries that are not exact ints go through int(), as they always did
    class Two:
        def __int__(self):
            return 2

    men = [[True, "0", Two()], [2, 1, 0], (0, 1, 2)]
    women = [["1", 0, 2], [0, 1, 2], [False, 1, Two()]]
    inst = Instance(men, women)
    assert inst.men_prefs == ((1, 0, 2), (2, 1, 0), (0, 1, 2))
    assert inst.women_prefs == ((1, 0, 2), (0, 1, 2), (0, 1, 2))
    # lists of exact ints given as tuples are kept as they are
    exact = Instance(inst.men_prefs, inst.women_prefs)
    assert exact.men_prefs[0] is inst.men_prefs[0]
    parsed = parse_instance(format_instance(random_complete_instance(random.Random(9), 5)))
    for inst in (inst, exact, parsed):
        for prefs in (inst.men_prefs, inst.women_prefs):
            assert type(prefs) is tuple
            for lst in prefs:
                assert type(lst) is tuple
                assert {type(x) for x in lst} <= {int}


def test_format_round_trip(example_instance):
    assert parse_instance(format_instance(example_instance)) == example_instance


def test_format_round_trip_random():
    # incomplete lists are the only ones on which a parsed instance still
    # runs the consistency test, so they are drawn too
    rng = random.Random(11)
    cases = [random_complete_instance(rng, rng.randint(1, 6)) for _ in range(20)]
    cases += [random_complete_instance(rng, rng.randint(7, 60)) for _ in range(5)]
    cases += [
        random_incomplete_instance(rng, rng.randint(0, 60), rng.randint(0, 60), rng.random())
        for _ in range(25)
    ]
    for inst in cases:
        parsed = parse_instance(format_instance(inst))
        assert parsed == inst
        assert parsed.men_rank == inst.men_rank and parsed.women_rank == inst.women_rank


def test_ranks_above_256_built_and_parsed():
    # at n=300 most ranks are ints Python does not cache
    built = random_complete_instance(random.Random(12), 300)
    parsed = parse_instance(format_instance(built))
    assert parsed == built
    for inst in (built, parsed):
        for prefs, ranks in ((inst.men_prefs, inst.men_rank), (inst.women_prefs, inst.women_rank)):
            for lst, rank in zip(prefs, ranks):
                assert rank == {x: r for r, x in enumerate(lst, 1)}
                assert list(rank) == list(lst)


def test_gale_shapley_example(example_instance):
    assert gale_shapley(example_instance, MAN) == MU0
    assert gale_shapley(example_instance, WOMAN) == MU3


def test_gale_shapley_mutual_first_choices():
    n = 4
    men = [[i] + [j for j in range(n) if j != i] for i in range(n)]
    women = [[i] + [j for j in range(n) if j != i] for i in range(n)]
    inst = Instance(men, women)
    ident = Matching((i, i) for i in range(n))
    assert gale_shapley(inst, MAN) == ident
    assert gale_shapley(inst, WOMAN) == ident


def test_gale_shapley_order_independent():
    rng = random.Random(5)
    for _ in range(25):
        inst = random_complete_instance(rng, rng.randint(1, 7))
        forward = _gs(inst, MAN)
        reverse = _gs(inst, MAN, _order=list(range(inst.n_men))[::-1])
        assert forward == reverse


def test_blocking_pairs_example(example_instance):
    assert blocking_pairs(example_instance, MU0) == []


def test_blocking_pairs_detects_swap():
    # both men rank w2 first, both women rank m1 first
    inst = Instance([[1, 0], [1, 0]], [[0, 1], [0, 1]])
    ident = Matching([(0, 0), (1, 1)])
    assert (0, 1) in blocking_pairs(inst, ident)
    # brute force over both perfect matchings: exactly one is stable
    other = Matching([(0, 1), (1, 0)])
    assert blocking_pairs(inst, other) == []


def test_blocking_pairs_empty_matching():
    rng = random.Random(3)
    inst = random_complete_instance(rng, 4)
    blocks = set(blocking_pairs(inst, Matching([])))
    assert blocks == {(m, w) for m in range(4) for w in range(4)}


def test_blocking_pairs_rejects_unacceptable_pair():
    inst = parse_instance("SM 2 2\nm1: w1\nm2: w2\nw1: m1\nw2: m2\n")
    with pytest.raises(ValidationError, match="acceptable"):
        blocking_pairs(inst, Matching([(0, 1), (1, 0)]))


def test_gale_shapley_output_always_stable():
    # the rotation digraph starts from this output without re-checking it
    rng = random.Random(9)
    insts = [random_complete_instance(rng, rng.randint(1, 7)) for _ in range(30)]
    insts += [
        random_incomplete_instance(rng, rng.randint(0, 7), rng.randint(0, 7), rng.choice([0.3, 0.6]))
        for _ in range(30)
    ]
    for inst in insts:
        assert blocking_pairs(inst, gale_shapley(inst, MAN)) == []
        assert blocking_pairs(inst, gale_shapley(inst, WOMAN)) == []


def test_optimality_across_all_stable_matchings():
    rng = random.Random(13)
    for _ in range(10):
        inst = random_complete_instance(rng, 5)
        mu0 = gale_shapley(inst, MAN)
        muz = gale_shapley(inst, WOMAN)
        for mu in all_stable_matchings_bruteforce(inst):
            for m in range(inst.n_men):
                rank = inst.men_rank[m]
                assert rank[mu0.woman_of(m)] <= rank[mu.woman_of(m)] <= rank[muz.woman_of(m)]


def test_min_ranks_match_rank_dicts():
    def least(ranks, n):
        out = [0] * n
        for rank in ranks:
            for j, r in rank.items():
                if not out[j] or r < out[j]:
                    out[j] = r
        return out

    for inst in minrank_instances():
        assert _min_ranks(inst.women_prefs, inst.n_men) == least(inst.women_rank, inst.n_men)
        assert _min_ranks(inst.men_prefs, inst.n_women) == least(inst.men_rank, inst.n_women)


def test_compute_range_matches_rank_dicts():
    # every field against the least and greatest rank read straight from the
    # rank dicts: the complete minrank instances and seeded rectangular
    # complete ones with 0..9 agents per side, SM 2 0 and SM 0 0 among them
    def bounds(ranks, n):
        seen = [[r[j] for r in ranks] for j in range(n)]
        return tuple(min(rs, default=0) for rs in seen), tuple(max(rs, default=0) for rs in seen)

    rng = random.Random(179)
    insts = [inst for inst in minrank_instances() if inst.is_complete]
    sizes = [(a, b) for a in range(10) for b in range(10) if a != b]
    for n_men, n_women in sizes * 4:
        men = [rng.sample(range(n_women), n_women) for _ in range(n_men)]
        women = [rng.sample(range(n_men), n_men) for _ in range(n_women)]
        insts.append(Instance(men, women))
    assert len(insts) > 400
    for inst in insts:
        orank_men, maxrank_men = bounds(inst.women_rank, inst.n_men)
        orank_women, maxrank_women = bounds(inst.men_rank, inst.n_women)
        spreads = [hi - lo for lo, hi in zip(orank_men + orank_women, maxrank_men + maxrank_women)]
        assert compute_range(inst) == RangeProfile(
            max(spreads, default=0) + 1, orank_men, maxrank_men, orank_women, maxrank_women
        )


def test_compute_range_example(example_instance):
    profile = compute_range(example_instance)
    assert profile.orank_women[0] == 1
    assert profile.maxrank_women[0] == 4
    assert profile.k == 4


def test_compute_range_master_list():
    order = [2, 0, 1, 3]
    inst = Instance([order] * 4, [order] * 4)
    assert compute_range(inst).k == 1


def test_compute_range_incomplete_rejected():
    inst = parse_instance("SM 1 1\nm1:\nw1:\n")
    with pytest.raises(ValidationError):
        compute_range(inst)


def test_range_bound_and_population_bound():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(1, 8)
        inst = random_complete_instance(rng, n)
        profile = compute_range(inst)
        k = profile.k
        for m in range(n):
            for r, w in enumerate(inst.men_prefs[m], start=1):
                assert profile.orank_women[w] <= r <= profile.orank_women[w] + k - 1
        for i in range(1, n + 1):
            women_low = sum(1 for w in range(n) if profile.orank_women[w] <= i)
            men_low = sum(1 for m in range(n) if profile.orank_men[m] <= i)
            assert i <= women_low <= i + k - 1
            assert i <= men_low <= i + k - 1


def test_shortlists_example(example_instance):
    short = symmetric_shortlists(example_instance)
    labels_w = short.women_labels
    labels_m = short.men_labels
    assert [labels_w[w] for w in short.men_prefs[1]] == ["w2", "w1"]
    assert [labels_m[m] for m in short.women_prefs[0]] == ["m2", "m1"]
    # full printed table
    assert [labels_w[w] for w in short.men_prefs[0]] == ["w1", "w2", "w3", "w4"]
    assert [labels_w[w] for w in short.men_prefs[2]] == ["w3", "w4", "w2"]
    assert [labels_w[w] for w in short.men_prefs[3]] == ["w4", "w2", "w3"]
    assert [labels_m[m] for m in short.women_prefs[1]] == ["m3", "m1", "m4", "m2"]
    assert [labels_m[m] for m in short.women_prefs[2]] == ["m4", "m1", "m3"]
    assert [labels_m[m] for m in short.women_prefs[3]] == ["m1", "m3", "m4"]


def test_shortlists_symmetry_and_idempotence():
    rng = random.Random(31)
    for _ in range(20):
        inst = random_complete_instance(rng, rng.randint(1, 6))
        short = symmetric_shortlists(inst)
        for m in range(inst.n_men):
            for w in short.men_prefs[m]:
                assert m in short.women_prefs[w]
        assert symmetric_shortlists(short) == short


def test_shortlists_unique_stable_matching():
    order = [1, 0, 2]
    inst = Instance([order] * 3, [order] * 3)  # master lists: unique stable matching
    short = symmetric_shortlists(inst)
    assert all(len(lst) == 1 for lst in short.men_prefs)
    assert all(len(lst) == 1 for lst in short.women_prefs)


def test_shortlists_preserve_stable_matchings():
    rng = random.Random(41)
    complete = [random_complete_instance(rng, 5) for _ in range(15)]
    incomplete = [
        random_incomplete_instance(rng, rng.randint(1, 5), rng.randint(1, 5), 0.4)
        for _ in range(40)
    ]
    unmatched = 0
    for inst in complete + incomplete:
        short = symmetric_shortlists(inst)
        assert all_stable_matchings_bruteforce(inst) == all_stable_matchings_bruteforce(short)
        # the same agents are single in every stable matching; they keep nothing
        mu0 = gale_shapley(inst, MAN)
        single_men = [m for m in range(inst.n_men) if mu0.woman_of(m) is None]
        single_women = [w for w in range(inst.n_women) if mu0.man_of(w) is None]
        assert all(short.men_prefs[m] == () for m in single_men)
        assert all(short.women_prefs[w] == () for w in single_women)
        unmatched += len(single_men) + len(single_women)
    assert unmatched > 0


def test_complete_preferences_identity_on_complete(example_instance):
    assert complete_preferences(example_instance) == example_instance


def test_complete_preferences_preserves_stable_set(example_instance):
    short = symmetric_shortlists(example_instance)
    completed = complete_preferences(short)
    assert completed.is_complete
    assert all_stable_matchings_bruteforce(completed) == all_stable_matchings_bruteforce(
        example_instance
    )


def test_complete_preferences_rejects_uneven_sides():
    inst = Instance([[0], [0]], [[0, 1]])
    with pytest.raises(ValidationError):
        complete_preferences(inst)
