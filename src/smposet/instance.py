"""Stable matching instances: data model, file format, Gale-Shapley, stability,
range/minrank computation, and symmetric shortlists.

Agents are identified by (side, index) with 0-based indices internally; the
file format and display labels are 1-based (``m1``, ``w3``) or construction
labels (``m[c,v]``).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import ParseError, ValidationError

MAN = "m"
WOMAN = "w"


def _default_labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


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

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.sorted_pairs())

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

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
    """

    def __init__(
        self,
        men_prefs: Sequence[Sequence[int]],
        women_prefs: Sequence[Sequence[int]],
        men_labels: Optional[Sequence[str]] = None,
        women_labels: Optional[Sequence[str]] = None,
    ):
        self.men_prefs = tuple(tuple(map(int, lst)) for lst in men_prefs)
        self.women_prefs = tuple(tuple(map(int, lst)) for lst in women_prefs)
        self.n_men = len(self.men_prefs)
        self.n_women = len(self.women_prefs)
        self.men_labels = (
            tuple(men_labels) if men_labels is not None else _default_labels(MAN, self.n_men)
        )
        self.women_labels = (
            tuple(women_labels)
            if women_labels is not None
            else _default_labels(WOMAN, self.n_women)
        )
        self._validate()
        self.men_rank = tuple(
            {w: r + 1 for r, w in enumerate(lst)} for lst in self.men_prefs
        )
        self.women_rank = tuple(
            {m: r + 1 for r, m in enumerate(lst)} for lst in self.women_prefs
        )

    def _validate(self) -> None:
        if len(self.men_labels) != self.n_men or len(self.women_labels) != self.n_women:
            raise ValidationError("label count does not match agent count")
        for side, labels in ((MAN, self.men_labels), (WOMAN, self.women_labels)):
            if len(set(labels)) != len(labels):
                raise ValidationError(f"duplicate label on side {side!r}")
        men_sets = []
        listed_by = [0] * self.n_women  # how many men list each woman
        for m, lst in enumerate(self.men_prefs):
            s = set(lst)
            if len(s) != len(lst):
                raise ValidationError(f"duplicate entry in {self.men_labels[m]}'s list")
            for w in lst:
                if not 0 <= w < self.n_women:
                    raise ValidationError(f"{self.men_labels[m]} ranks unknown woman {w}")
                listed_by[w] += 1
            men_sets.append(s)
        for w, lst in enumerate(self.women_prefs):
            s = set(lst)
            if len(s) != len(lst):
                raise ValidationError(f"duplicate entry in {self.women_labels[w]}'s list")
            for m in lst:
                if not 0 <= m < self.n_men:
                    raise ValidationError(f"{self.women_labels[w]} ranks unknown man {m}")
                if w not in men_sets[m]:
                    raise ValidationError(
                        f"inconsistent lists: {self.women_labels[w]} ranks "
                        f"{self.men_labels[m]} but not vice versa"
                    )
            # every man she lists lists her, so equal counts mean the converse
            if listed_by[w] == len(lst):
                continue
            for m in range(self.n_men):
                if w in men_sets[m] and m not in s:
                    raise ValidationError(
                        f"inconsistent lists: {self.men_labels[m]} ranks "
                        f"{self.women_labels[w]} but not vice versa"
                    )

    @property
    def is_complete(self) -> bool:
        return all(len(lst) == self.n_women for lst in self.men_prefs) and all(
            len(lst) == self.n_men for lst in self.women_prefs
        )

    def man_index(self, label: str) -> int:
        try:
            return self.men_labels.index(label)
        except ValueError:
            raise KeyError(label) from None

    def woman_index(self, label: str) -> int:
        try:
            return self.women_labels.index(label)
        except ValueError:
            raise KeyError(label) from None

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
    index order: ``<name>: <space-separated opposite-side names>``. ``#``
    starts a comment. Names are free-form tokens without whitespace or ':'.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty instance file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "SM":
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        n_men, n_women = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError(f"bad header counts: {lines[0]!r}") from None
    if n_men < 0 or n_women < 0:
        raise ParseError("negative agent count")
    body = lines[1:]
    if len(body) != n_men + n_women:
        raise ParseError(
            f"expected {n_men + n_women} agent lines, found {len(body)}"
        )

    def split_line(line: str) -> tuple[str, list[str]]:
        if ":" not in line:
            raise ParseError(f"missing ':' in line {line!r}")
        name, rest = line.split(":", 1)
        name = name.strip()
        if not name:
            raise ParseError(f"missing agent name in line {line!r}")
        return name, rest.split()

    men_lines = [split_line(line) for line in body[:n_men]]
    women_lines = [split_line(line) for line in body[n_men:]]
    for name, _ in men_lines:
        if not name.startswith(MAN):
            raise ParseError(f"expected a man line, got {name!r}")
    for name, _ in women_lines:
        if not name.startswith(WOMAN):
            raise ParseError(f"expected a woman line, got {name!r}")
    men_labels = [name for name, _ in men_lines]
    women_labels = [name for name, _ in women_lines]
    man_idx = {name: i for i, name in enumerate(men_labels)}
    woman_idx = {name: i for i, name in enumerate(women_labels)}
    if len(man_idx) != n_men or len(woman_idx) != n_women:
        raise ParseError("duplicate agent name")

    def resolve(tokens: list[str], table: dict[str, int], owner: str) -> list[int]:
        try:
            return [table[tok] for tok in tokens]
        except KeyError as exc:
            raise ParseError(f"{owner} ranks unknown agent {exc.args[0]!r}") from None

    men_prefs = [resolve(toks, woman_idx, name) for name, toks in men_lines]
    women_prefs = [resolve(toks, man_idx, name) for name, toks in women_lines]
    try:
        return Instance(men_prefs, women_prefs, men_labels, women_labels)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def format_instance(inst: Instance) -> str:
    """Serialize an instance to the file format; inverse of parse_instance."""
    out = [f"SM {inst.n_men} {inst.n_women}"]
    for m in range(inst.n_men):
        names = " ".join(inst.women_labels[w] for w in inst.men_prefs[m])
        out.append(f"{inst.men_labels[m]}: {names}".rstrip())
    for w in range(inst.n_women):
        names = " ".join(inst.men_labels[m] for m in inst.women_prefs[w])
        out.append(f"{inst.women_labels[w]}: {names}".rstrip())
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


def is_stable(inst: Instance, mu: Matching) -> bool:
    return not blocking_pairs(inst, mu)


def compute_range(inst: Instance) -> RangeProfile:
    """Exact range k and per-agent minrank/maxrank of a complete instance."""
    if not inst.is_complete:
        raise ValidationError("range is defined for complete instances only")
    INF = float("inf")
    orank_w = [INF] * inst.n_women
    maxrank_w = [0] * inst.n_women
    for m in range(inst.n_men):
        for r, w in enumerate(inst.men_prefs[m], start=1):
            if r < orank_w[w]:
                orank_w[w] = r
            if r > maxrank_w[w]:
                maxrank_w[w] = r
    orank_m = [INF] * inst.n_men
    maxrank_m = [0] * inst.n_men
    for w in range(inst.n_women):
        for r, m in enumerate(inst.women_prefs[w], start=1):
            if r < orank_m[m]:
                orank_m[m] = r
            if r > maxrank_m[m]:
                maxrank_m[m] = r
    spreads = [mx - mn for mn, mx in zip(orank_m, maxrank_m)]
    spreads += [mx - mn for mn, mx in zip(orank_w, maxrank_w)]
    k = (max(spreads) if spreads else 0) + 1
    return RangeProfile(
        k=k,
        orank_men=tuple(int(x) for x in orank_m),
        maxrank_men=tuple(maxrank_m),
        orank_women=tuple(int(x) for x in orank_w),
        maxrank_women=tuple(maxrank_w),
    )


def symmetric_shortlists(inst: Instance) -> Instance:
    """Trim every list to the window between the agent's man-optimal and
    woman-optimal stable partners, keeping only mutually retained entries.

    Agents unmatched in the stable matchings get empty lists.
    """
    mu0 = gale_shapley(inst, MAN)
    muz = gale_shapley(inst, WOMAN)

    def window(prefs, rank, best_partner, worst_partner):
        if best_partner is None:
            return set()
        lo = rank[best_partner]
        hi = rank[worst_partner]
        return set(prefs[lo - 1 : hi])

    men_keep = [
        window(inst.men_prefs[m], inst.men_rank[m], mu0.woman_of(m), muz.woman_of(m))
        for m in range(inst.n_men)
    ]
    women_keep = [
        window(inst.women_prefs[w], inst.women_rank[w], muz.man_of(w), mu0.man_of(w))
        for w in range(inst.n_women)
    ]
    men_prefs = [
        [w for w in inst.men_prefs[m] if w in men_keep[m] and m in women_keep[w]]
        for m in range(inst.n_men)
    ]
    women_prefs = [
        [m for m in inst.women_prefs[w] if m in women_keep[w] and w in men_keep[m]]
        for w in range(inst.n_women)
    ]
    return Instance(men_prefs, women_prefs, inst.men_labels, inst.women_labels)


def complete_preferences(inst: Instance) -> Instance:
    """Append every missing opposite-side agent, in ascending index order, to
    the end of each list. Preserves the rotation poset for instances in which
    every agent is matched in every stable matching.
    """
    if inst.n_men != inst.n_women:
        raise ValidationError("completion requires equally many men and women")
    men_prefs = [
        list(lst) + [w for w in range(inst.n_women) if w not in inst.men_rank[m]]
        for m, lst in enumerate(inst.men_prefs)
    ]
    women_prefs = [
        list(lst) + [m for m in range(inst.n_men) if m not in inst.women_rank[w]]
        for w, lst in enumerate(inst.women_prefs)
    ]
    return Instance(men_prefs, women_prefs, inst.men_labels, inst.women_labels)
