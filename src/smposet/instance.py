"""Stable matching instances: data model, file format, Gale-Shapley, stability,
range/minrank computation, and symmetric shortlists.

Agents are identified by (side, index) with 0-based indices internally; the
file format and display labels are 1-based (``m1``, ``w3``) or construction
labels (``m[c,v]``). The file's comments, blank lines and header follow `_text`.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Iterable, Optional, Sequence

from . import _text
from .errors import ParseError, ValidationError

MAN = "m"
WOMAN = "w"


def _labels(given: Optional[Sequence[str]], prefix: str, n: int) -> tuple[str, ...]:
    """The given labels, or the default ``m1``, ``w3`` style ones."""
    if given is not None:
        return tuple(given)
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def _exact_int_lists(lists: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The lists as tuples of exact ints. Tuples pass through as they are,
    and `int()` runs only when some entry is not an exact int (a bool, a
    digit string, an object with `__int__`).
    """
    lists = tuple(map(tuple, lists))
    if set(map(type, chain.from_iterable(lists))) <= {int}:
        return lists
    return tuple(tuple(map(int, lst)) for lst in lists)


def _in_range(lists: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Whether every entry of some lists of exact ints lies in {0..n-1}."""
    lowest = min(chain.from_iterable(lists), default=0)
    return lowest >= 0 and max(chain.from_iterable(lists), default=-1) < n


class Matching:
    """A set of man-woman pairs in which each agent appears at most once."""

    __slots__ = ("pairs", "_woman_of", "_man_of")

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        ps = frozenset((int(m), int(w)) for m, w in pairs)
        woman_of: dict[int, int] = {}
        man_of: dict[int, int] = {}
        for m, w in ps:
            if m in woman_of:
                raise ValidationError(f"man {m} appears in two pairs")
            if w in man_of:
                raise ValidationError(f"woman {w} appears in two pairs")
            woman_of[m] = w
            man_of[w] = m
        self.pairs = ps
        self._woman_of = woman_of
        self._man_of = man_of

    def woman_of(self, m: int) -> Optional[int]:
        return self._woman_of.get(m)

    def man_of(self, w: int) -> Optional[int]:
        return self._man_of.get(w)

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    def __eq__(self, other) -> bool:
        return isinstance(other, Matching) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"({m},{w})" for m, w in self.sorted_pairs())
        return f"Matching({{{inner}}})"


class Instance:
    """A stable matching instance with possibly incomplete preference lists.

    Lists must be consistent: woman w appears on man m's list if and only if
    m appears on w's. Ranks are 1-based, matching the usual P_a(b) notation.

    `Instance(...)` takes outside input and checks all of it (`_validate`).
    `parse_instance` and `realize_attr6` build through `_parsed`, which
    skips the checks their lists have already passed; both paths run
    `_index`, and a fault is named the same way on either.
    """

    def __init__(
        self,
        men_prefs: Sequence[Sequence[int]],
        women_prefs: Sequence[Sequence[int]],
        men_labels: Optional[Sequence[str]] = None,
        women_labels: Optional[Sequence[str]] = None,
    ):
        self._fill(_exact_int_lists(men_prefs), _exact_int_lists(women_prefs), men_labels, women_labels)
        self._validate()

    @classmethod
    def _parsed(
        cls,
        men_prefs: tuple[tuple[int, ...], ...],
        women_prefs: tuple[tuple[int, ...], ...],
        men_labels: Sequence[str],
        women_labels: Sequence[str],
    ) -> "Instance":
        """An instance built from lists already known to be tuples of exact
        ints in range, with labels already counted and distinct: only the
        checks of `_index` run. Two callers meet that precondition:
        `parse_instance`, which has checked what it read, and `realize_attr6`,
        whose lists are permutations of range(n) under the labels of a
        checked instance.
        """
        inst = cls.__new__(cls)
        inst._fill(men_prefs, women_prefs, men_labels, women_labels)
        inst._index(True)
        return inst

    def _fill(
        self,
        men_prefs: tuple[tuple[int, ...], ...],
        women_prefs: tuple[tuple[int, ...], ...],
        men_labels: Optional[Sequence[str]],
        women_labels: Optional[Sequence[str]],
    ) -> None:
        self.men_prefs = men_prefs
        self.women_prefs = women_prefs
        self.n_men = len(men_prefs)
        self.n_women = len(women_prefs)
        self.men_labels = _labels(men_labels, MAN, self.n_men)
        self.women_labels = _labels(women_labels, WOMAN, self.n_women)

    def _validate(self) -> None:
        """The checks for outside input, which `parse_instance` has already
        made on what it reads: label counts, distinct labels, and each side's
        entries in range by one min and one max. Then `_index`.
        """
        if len(self.men_labels) != self.n_men or len(self.women_labels) != self.n_women:
            raise ValidationError("label count does not match agent count")
        for side, labels in ((MAN, self.men_labels), (WOMAN, self.women_labels)):
            if len(set(labels)) != len(labels):
                raise ValidationError(f"duplicate label on side {side!r}")
        self._index(
            _in_range(self.men_prefs, self.n_women) and _in_range(self.women_prefs, self.n_men)
        )

    def _index(self, in_range: bool) -> None:
        """The checks both paths share: build the rank dicts and check the
        lists, given whether every entry is in range (a parsed one always
        is). One C-speed test accepts them: no repeats, in range, and equal
        pair sets on the two sides (complete lists, or equal totals and every
        man on a woman's list listing her). Only when it fails does
        `_first_fault` walk the lists to name the fault.
        """
        men, women = self.men_prefs, self.women_prefs
        # one int per rank, shared by every list: ranks above 256 are not
        # cached by Python, so each list would otherwise hold its own
        ranks = tuple(range(1, max(map(len, men + women), default=0) + 1))
        self.men_rank = men_rank = tuple(dict(zip(lst, ranks)) for lst in men)
        self.women_rank = women_rank = tuple(dict(zip(lst, ranks)) for lst in women)
        if not (
            list(map(len, men_rank)) == list(map(len, men))
            and list(map(len, women_rank)) == list(map(len, women))
            and in_range
            and (
                self.is_complete
                or sum(map(len, men)) == sum(map(len, women))
                and all(w in men_rank[m] for w, lst in enumerate(women) for m in lst)
            )
        ):
            self._first_fault()

    def _first_fault(self) -> None:
        """Raise the first fault of lists the accept test refused: each man's
        list for repeats, then range; each woman's for repeats, then entry by
        entry for range and the man listing her back, then the converse.
        """
        for m, (lst, rank) in enumerate(zip(self.men_prefs, self.men_rank)):
            if len(rank) != len(lst):
                raise ValidationError(f"duplicate entry in {self.men_labels[m]}'s list")
            for w in lst:
                if not 0 <= w < self.n_women:
                    raise ValidationError(f"{self.men_labels[m]} ranks unknown woman {w}")
        for w, (lst, rank) in enumerate(zip(self.women_prefs, self.women_rank)):
            if len(rank) != len(lst):
                raise ValidationError(f"duplicate entry in {self.women_labels[w]}'s list")
            for m in lst:
                if not 0 <= m < self.n_men:
                    raise ValidationError(f"{self.women_labels[w]} ranks unknown man {m}")
                if w not in self.men_rank[m]:
                    raise ValidationError(
                        f"inconsistent lists: {self.women_labels[w]} ranks "
                        f"{self.men_labels[m]} but not vice versa"
                    )
            for m in range(self.n_men):
                if w in self.men_rank[m] and m not in rank:
                    raise ValidationError(
                        f"inconsistent lists: {self.men_labels[m]} ranks "
                        f"{self.women_labels[w]} but not vice versa"
                    )

    @property
    def is_complete(self) -> bool:
        return all(len(lst) == self.n_women for lst in self.men_prefs) and all(
            len(lst) == self.n_men for lst in self.women_prefs
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Instance)
            and self.men_prefs == other.men_prefs
            and self.women_prefs == other.women_prefs
            and self.men_labels == other.men_labels
            and self.women_labels == other.women_labels
        )

    def __hash__(self) -> int:
        return hash((self.men_prefs, self.women_prefs))

    def __repr__(self) -> str:
        return f"Instance({self.n_men}x{self.n_women})"


@dataclass(frozen=True)
class RangeProfile:
    """Minrank/maxrank per agent and the overall range k of a complete instance."""

    k: int
    orank_men: tuple[int, ...]
    maxrank_men: tuple[int, ...]
    orank_women: tuple[int, ...]
    maxrank_women: tuple[int, ...]


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance file format.

    Header ``SM <nMen> <nWomen>``, then one line per man and one per woman in
    index order: ``<name>: <space-separated opposite-side names>``. Names are
    free-form tokens without whitespace or ':'.
    """
    (n_men, n_women), body = _text.header(text, "SM", 2, "instance")
    if n_men < 0 or n_women < 0:
        raise ParseError("negative agent count")
    found = len(body) - body.count("")
    if found != n_men + n_women:
        raise ParseError(f"expected {n_men + n_women} agent lines, found {found}")
    labels: list[str] = []
    rests: list[str] = []  # split one at a time below, never all at once
    for line in body:
        if not line:
            continue
        name, colon, rest = line.partition(":")
        if not colon:
            raise ParseError(f"missing ':' in line {line!r}")
        name = name.strip()
        if not name:
            raise ParseError(f"missing agent name in line {line!r}")
        labels.append(name)
        rests.append(rest)
    men_labels, women_labels = labels[:n_men], labels[n_men:]
    for name in men_labels:
        if not name.startswith(MAN):
            raise ParseError(f"expected a man line, got {name!r}")
    for name in women_labels:
        if not name.startswith(WOMAN):
            raise ParseError(f"expected a woman line, got {name!r}")
    man_idx = {name: i for i, name in enumerate(men_labels)}
    woman_idx = {name: i for i, name in enumerate(women_labels)}
    if len(man_idx) != n_men or len(woman_idx) != n_women:
        raise ParseError("duplicate agent name")
    prefs = []
    for i, (name, rest) in enumerate(zip(labels, rests)):
        table = woman_idx if i < n_men else man_idx
        try:
            prefs.append(tuple(map(table.__getitem__, rest.split())))
        except KeyError as exc:
            raise ParseError(f"{name} ranks unknown agent {exc.args[0]!r}") from None
    try:
        return Instance._parsed(tuple(prefs[:n_men]), tuple(prefs[n_men:]), men_labels, women_labels)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def format_instance(inst: Instance) -> str:
    """Serialize an instance to the file format; inverse of parse_instance."""
    out = [f"SM {inst.n_men} {inst.n_women}"]
    for own, other, prefs in (
        (inst.men_labels, inst.women_labels, inst.men_prefs),
        (inst.women_labels, inst.men_labels, inst.women_prefs),
    ):
        for label, lst in zip(own, prefs):
            names = " ".join(other[j] for j in lst)
            out.append(f"{label}: {names}".rstrip())
    return "\n".join(out) + "\n"


def gale_shapley(inst: Instance, side: str = MAN, _order: Optional[Sequence[int]] = None) -> Matching:
    """Return the man-optimal (side=MAN) or woman-optimal (side=WOMAN) stable
    matching. The result does not depend on the internal proposal order.
    """
    if side == MAN:
        prop_prefs, recv_rank = inst.men_prefs, inst.women_rank
    elif side == WOMAN:
        prop_prefs, recv_rank = inst.women_prefs, inst.men_rank
    else:
        raise ValidationError(f"unknown side {side!r}")
    n_prop = len(prop_prefs)
    next_idx = [0] * n_prop
    fiance: dict[int, int] = {}  # receiver -> proposer
    queue = deque(range(n_prop) if _order is None else _order)
    while queue:
        p = queue.popleft()
        prefs = prop_prefs[p]
        while next_idx[p] < len(prefs):
            r = prefs[next_idx[p]]
            next_idx[p] += 1
            cur = fiance.get(r)
            if cur is None:
                fiance[r] = p
                break
            ranks = recv_rank[r]
            if ranks[p] < ranks[cur]:
                fiance[r] = p
                queue.append(cur)
                break
        # a proposer with an exhausted list stays unmatched
    if side == MAN:
        return Matching((p, r) for r, p in fiance.items())
    return Matching((r, p) for r, p in fiance.items())


def _check_matching(inst: Instance, mu: Matching) -> None:
    for m, w in mu.pairs:
        if not (0 <= m < inst.n_men and 0 <= w < inst.n_women):
            raise ValidationError(f"pair ({m},{w}) out of range")
        if w not in inst.men_rank[m]:
            raise ValidationError(
                f"pair ({inst.men_labels[m]},{inst.women_labels[w]}) is not mutually acceptable"
            )


def blocking_pairs(inst: Instance, mu: Matching) -> list[tuple[int, int]]:
    """All blocking pairs of mu, in (man, woman) index order.

    With incomplete lists, an unmatched agent prefers any acceptable partner
    to staying single. Empty result means mu is stable.
    """
    _check_matching(inst, mu)
    out = []
    for m in range(inst.n_men):
        pm = mu.woman_of(m)
        prefs = inst.men_prefs[m]
        better = prefs if pm is None else prefs[: inst.men_rank[m][pm] - 1]
        for w in better:
            pw = mu.man_of(w)
            if pw is None or inst.women_rank[w][m] < inst.women_rank[w][pw]:
                out.append((m, w))
    return out


def _min_ranks(lists: Sequence[Iterable[int]], n: int) -> list[int]:
    """Each of the n agents' least rank on one side's lists, 0 for an agent
    that no one ranks. Sweeps the rank columns top-down, lazily, and stops
    once every agent has been seen: on uniform complete lists that is after
    about ln n columns, O(n log n) entries, and never more than all of them.
    A list that has run out fills its column with n, a slot never fresh.
    """
    orank = [0] * n + [-1]
    left = n
    if left:
        for r, column in enumerate(zip_longest(*lists, fillvalue=n), start=1):
            for j in column:
                if not orank[j]:
                    orank[j] = r
                    left -= 1
            if not left:
                break
    del orank[n]
    return orank


def compute_range(inst: Instance) -> RangeProfile:
    """Exact range k and per-agent minrank/maxrank of a complete instance.

    Both bounds come from `_min_ranks`' column sweep: the minranks from the
    lists as they are, the maxranks from the lists read bottom-up. Complete
    lists on one side all have length n, so rank r from the bottom is
    n + 1 - r; an agent that no one ranks keeps 0 for both.
    """
    if not inst.is_complete:
        raise ValidationError("range is defined for complete instances only")
    bounds = []
    for lists, n in ((inst.women_prefs, inst.n_men), (inst.men_prefs, inst.n_women)):
        from_bottom = _min_ranks(list(map(reversed, lists)), n)
        bounds.append((_min_ranks(lists, n), [r and n + 1 - r for r in from_bottom]))
    (orank_m, maxrank_m), (orank_w, maxrank_w) = bounds
    spreads = [mx - mn for mn, mx in zip(orank_m + orank_w, maxrank_m + maxrank_w)]
    k = (max(spreads) if spreads else 0) + 1
    return RangeProfile(
        k=k,
        orank_men=tuple(orank_m),
        maxrank_men=tuple(maxrank_m),
        orank_women=tuple(orank_w),
        maxrank_women=tuple(maxrank_w),
    )


def symmetric_shortlists(inst: Instance) -> Instance:
    """Trim every list to the window between the agent's man-optimal and
    woman-optimal stable partners, keeping only mutually retained entries.

    Agents unmatched in the stable matchings get empty lists.
    """
    mu0 = gale_shapley(inst, MAN)
    muz = gale_shapley(inst, WOMAN)

    def windows(prefs, ranks, best, worst):
        return [
            set() if (b := best(i)) is None else set(lst[rank[b] - 1 : rank[worst(i)]])
            for i, (lst, rank) in enumerate(zip(prefs, ranks))
        ]

    def trim(prefs, keep, other_keep):
        return [
            [j for j in lst if j in own and i in other_keep[j]]
            for i, (lst, own) in enumerate(zip(prefs, keep))
        ]

    men_keep = windows(inst.men_prefs, inst.men_rank, mu0.woman_of, muz.woman_of)
    women_keep = windows(inst.women_prefs, inst.women_rank, muz.man_of, mu0.man_of)
    men_prefs = trim(inst.men_prefs, men_keep, women_keep)
    women_prefs = trim(inst.women_prefs, women_keep, men_keep)
    return Instance(men_prefs, women_prefs, inst.men_labels, inst.women_labels)


def complete_preferences(inst: Instance) -> Instance:
    """Append every missing opposite-side agent, in ascending index order, to
    the end of each list. Preserves the rotation poset for instances in which
    every agent is matched in every stable matching.
    """
    if inst.n_men != inst.n_women:
        raise ValidationError("completion requires equally many men and women")

    def completed(prefs, ranks, n_other):
        return [
            list(lst) + [j for j in range(n_other) if j not in rank]
            for lst, rank in zip(prefs, ranks)
        ]

    men_prefs = completed(inst.men_prefs, inst.men_rank, inst.n_women)
    women_prefs = completed(inst.women_prefs, inst.women_rank, inst.n_men)
    return Instance(men_prefs, women_prefs, inst.men_labels, inst.women_labels)
