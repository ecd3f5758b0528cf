"""The four readers against references: verbatim copies of the readers that
each held their own copy of the comment, blank-line and header rules, before
those rules moved to `smposet._text`. On seeded, mutated texts of each format
the reader must return the same object, or raise the same exception type
with the same message. Three differences are allowed. In the decomposition
format, a message that quotes a line now quotes it without its leading
whitespace, and a negative bag count is refused as such, where the
reference crashed with IndexError or asked for a negative number of bag
lines. In the coloring format, a line for a pair that is not an edge, or a
second line for an edge, is now refused where the reference read on.

The last three tests check what the readers hold, not what they return.
"""
from __future__ import annotations

import ast
import gc
import random
import re
import tracemalloc

from smposet import (
    MAN,
    WOMAN,
    Dag,
    Instance,
    ParseError,
    PathDecomposition,
    ValidationError,
    format_instance,
    parse_dag,
    parse_decomposition,
    parse_instance,
)
from smposet.cli import _load_coloring, _read

from conftest import random_complete_instance

CASES = 3000

# references: the readers as they were, renamed and otherwise unchanged


def parent_parse_instance(text: str) -> Instance:
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


def parent_parse_dag(text: str) -> Dag:
    """Parse the DAG file format: ``DAG <p> <q>`` then q lines ``u v [color]``."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty DAG file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "DAG":
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        p, q = int(header[1]), int(header[2])
    except ValueError:
        raise ParseError(f"bad header counts: {lines[0]!r}") from None
    body = lines[1:]
    if len(body) != q:
        raise ParseError(f"expected {q} edge lines, found {len(body)}")
    edges = []
    colors = {}
    for line in body:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"bad edge line: {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge line: {line!r}") from None
        edges.append((u, v))
        if len(parts) == 3:
            try:
                c = int(parts[2])
            except ValueError:
                raise ParseError(f"bad color in line: {line!r}") from None
            if c <= 0:
                raise ParseError(f"colors must be positive: {line!r}")
            colors[(u, v)] = c
    if len(set(edges)) != len(edges):
        raise ParseError("duplicate edge")
    try:
        return Dag(p, edges, colors)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def parent_parse_decomposition(text: str) -> PathDecomposition:
    """Parse the decomposition format: ``PD <numBags>`` then one line per bag
    of space-separated vertex ids; an empty line is an empty bag.
    """
    raw_lines = text.splitlines()
    lines: list[str] = []
    for raw in raw_lines:
        if raw.lstrip().startswith("#"):
            continue
        lines.append(raw.split("#", 1)[0].rstrip())
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise ParseError("empty decomposition file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "PD":
        raise ParseError(f"bad header: {lines[0]!r}")
    try:
        count = int(header[1])
    except ValueError:
        raise ParseError(f"bad header count: {lines[0]!r}") from None
    body = lines[1:]
    while len(body) > count and not body[-1].strip():
        body.pop()
    if len(body) != count:
        raise ParseError(f"expected {count} bag lines, found {len(body)}")
    bags = []
    for line in body:
        try:
            bags.append(frozenset(map(int, line.split())))
        except ValueError:
            raise ParseError(f"bad bag line: {line!r}") from None
    return PathDecomposition(tuple(bags))


def parent_load_coloring(path: str, g: Dag) -> dict[tuple[int, int], int]:
    colors = {}
    for raw in _read(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"bad coloring line: {line!r}")
        try:
            u, v, c = (int(t) for t in parts)
        except ValueError:
            raise ParseError(f"bad coloring line: {line!r}") from None
        colors[(u, v)] = c
    for e in g.edges:
        if e not in colors:
            raise ParseError(f"coloring file misses edge {e}")
    return colors


COMMENTS = ["#", "# note", "  # indented", "\t#1 2 3", "#SM 1 1", "#PD 0"]
BLANKS = ["", " ", "\t", " \t  "]
INDENTS = [" ", "\t", "  \t"]
TRAILERS = [" # c", "#", "\t# 1 2", "##"]
INTS = ["a", "1.5", "0", "-1", "-2", "1", "2", "3", "9", "1_0", "+2"]
NAMES = ["w9", "m9", "a", "m1", "w1", "m2", "w2", "m1:", "w2:", ":", "m[1,2]", "1.5", "-1"]
HEADS = ["XX", "sm", "dag", "pd", "SM", "DAG", "PD"]


def _mutate(rng, lines, tokens, header):
    """One random formatting change or fault, applied to lines in place:
    a comment-only, blank or whitespace-only line; a trailing comment;
    leading or trailing whitespace; a line dropped or repeated; a token
    replaced, dropped or added; or a changed header tag or count.
    """
    kind = rng.randrange(10)
    if kind == 0:
        lines.insert(rng.randint(0, len(lines)), rng.choice(COMMENTS))
        return
    if kind == 1:
        lines.insert(rng.randint(0, len(lines)), rng.choice(BLANKS))
        return
    if not lines:
        return
    j = rng.randrange(len(lines))
    if kind == 2:
        lines[j] += rng.choice(TRAILERS)
    elif kind == 3:
        lines[j] = rng.choice(INDENTS) + lines[j]
    elif kind == 4:
        lines[j] += rng.choice(BLANKS[1:])
    elif kind == 5:
        del lines[j]
    elif kind == 6:
        lines.insert(rng.randint(0, len(lines)), lines[j])
    elif kind == 7:
        toks = lines[j].split(" ")
        toks[rng.randrange(len(toks))] = rng.choice(tokens)
        lines[j] = " ".join(toks)
    elif kind == 8:
        toks = lines[j].split()
        if toks and rng.random() < 0.5:
            del toks[rng.randrange(len(toks))]
        else:
            toks.insert(rng.randint(0, len(toks)), rng.choice(tokens))
        lines[j] = " ".join(toks)
    elif header:
        toks = lines[0].split()
        k = rng.randrange(len(toks) + 1)
        if k == len(toks):
            toks.append(rng.choice(INTS))
        elif k == 0:
            toks[0] = rng.choice(HEADS)
        elif rng.random() < 0.3:
            del toks[k]
        else:
            toks[k] = rng.choice(INTS + [str(int(toks[k]) + 1) if toks[k].isdigit() else "1"])
        lines[0] = " ".join(toks)


def _text(rng, lines, tokens, header=True):
    """lines after up to three mutations, joined by LF or CRLF; now and then
    a text with no data line at all.
    """
    if rng.random() < 0.02:
        return rng.choice(["", "\n", "# only a comment\n", "  \n\t\n", "\r\n#\r\n"])
    for _ in range(rng.randint(0, 3)):
        _mutate(rng, lines, tokens, header)
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + rng.choice([end, ""])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _kind(outcome):
    """The message of a failed outcome with quoted text and numbers masked."""
    if isinstance(outcome, tuple) and len(outcome) == 2 and isinstance(outcome[1], str):
        return re.sub(r"-?\d+", "#", re.sub(r"'[^']*'|\"[^\"]*\"|\([^)]*\)", "Q", outcome[1]))
    return None


def _random_instance_lines(rng):
    n_men, n_women = rng.randint(0, 3), rng.randint(0, 3)
    men = [[] for _ in range(n_men)]
    women = [[] for _ in range(n_women)]
    for m in range(n_men):
        for w in range(n_women):
            if rng.random() < 0.7:
                men[m].append(w)
                women[w].append(m)
    for lst in men + women:
        rng.shuffle(lst)
    if rng.random() < 0.3:
        men_labels = [f"m[1,{i + 1}]" for i in range(n_men)]
        women_labels = [f"w[1,{i + 1}]" for i in range(n_women)]
    else:
        men_labels = [f"{MAN}{i + 1}" for i in range(n_men)]
        women_labels = [f"{WOMAN}{i + 1}" for i in range(n_women)]
    lines = [f"SM {n_men} {n_women}"]
    lines += [f"{a}: " + " ".join(women_labels[w] for w in lst) for a, lst in zip(men_labels, men)]
    lines += [f"{a}: " + " ".join(men_labels[m] for m in lst) for a, lst in zip(women_labels, women)]
    return lines


def _random_dag(rng):
    p = rng.randint(0, 5)
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1) if rng.random() < 0.4]
    rng.shuffle(edges)
    return p, edges


def _random_descending_dag(rng):
    """A random DAG of two to six vertices and at least one edge, with its
    vertices renamed so that some edge descends.
    """
    p = rng.randint(2, 6)
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, p + 1) if rng.random() < 0.5]
    edges = edges or [(1, p)]
    name = rng.sample(range(1, p + 1), p)
    if all(name[u - 1] < name[v - 1] for u, v in edges):
        name = [p + 1 - x for x in name]  # now every edge descends
    edges = [(name[u - 1], name[v - 1]) for u, v in edges]
    rng.shuffle(edges)
    return p, edges


def _has_cycle(p, edges):
    """Whether the edges on vertices 1..p close a cycle: one remains after
    removing vertices with no in-edge for as long as there are any.
    """
    left = set(edges)
    alive = set(range(1, p + 1))
    while True:
        sources = alive - {v for _u, v in left}
        if not sources:
            return bool(alive)
        alive -= sources
        left = {(u, v) for u, v in left if u in alive}


def _random_dag_lines(rng):
    p, edges = _random_dag(rng)
    lines = [f"DAG {p} {len(edges)}"]
    for u, v in edges:
        lines.append(f"{u} {v} {rng.randint(1, 3)}" if rng.random() < 0.3 else f"{u} {v}")
    return lines


def _random_decomposition_lines(rng):
    p = rng.randint(0, 5)
    bags = [sorted(rng.sample(range(1, p + 1), rng.randint(0, p))) for _ in range(rng.randint(0, 5))]
    return [f"PD {len(bags)}"] + [" ".join(map(str, bag)) for bag in bags]


def test_instance_reader_matches_reference():
    rng = random.Random(701)
    seen = set()
    for _ in range(CASES):
        text = _text(rng, _random_instance_lines(rng), NAMES)
        expected = _outcome(parent_parse_instance, text)
        assert _outcome(parse_instance, text) == expected, text
        seen.add(_kind(expected))
    assert seen >= {
        None,
        "empty instance file",
        "bad header: Q",
        "bad header counts: Q",
        "negative agent count",
        "expected # agent lines, found #",
        "missing Q in line Q",
        "missing agent name in line Q",
        "expected a man line, got Q",
        "expected a woman line, got Q",
        "duplicate agent name",
        "m# ranks unknown agent Q",
        "w# ranks unknown agent Q",
        "duplicate entry in m#'s list",
    }


def test_dag_reader_matches_reference():
    rng = random.Random(702)
    seen = set()
    for _ in range(CASES):
        text = _text(rng, _random_dag_lines(rng), INTS)
        expected = _outcome(parent_parse_dag, text)
        got = _outcome(parse_dag, text)
        if isinstance(expected, Dag):
            assert isinstance(got, Dag) and (got, got.colors) == (expected, expected.colors), text
        else:
            assert got == expected, text
        seen.add(_kind(expected))
    assert seen >= {
        None,
        "empty DAG file",
        "bad header: Q",
        "bad header counts: Q",
        "expected # edge lines, found #",
        "bad edge line: Q",
        "bad color in line: Q",
        "colors must be positive: Q",
        "duplicate edge",
        "negative vertex count",
        "edge Q out of range #..#",
        "self-loop at #",
    }
    # relabelled DAGs, whose edges do not all ascend, so that the cycle
    # check cannot accept them by their order; now and then one edge is
    # reversed, which may close a cycle
    rng = random.Random(706)
    seen = set()
    for _ in range(CASES // 3):
        p, edges = _random_descending_dag(rng)
        if rng.random() < 0.4:
            j = rng.randrange(len(edges))
            edges[j] = edges[j][::-1]
        lines = [f"DAG {p} {len(edges)}"]
        for u, v in edges:
            lines.append(f"{u} {v} {rng.randint(1, 3)}" if rng.random() < 0.3 else f"{u} {v}")
        text = _text(rng, lines, INTS)
        expected = _outcome(parent_parse_dag, text)
        got = _outcome(parse_dag, text)
        if isinstance(expected, Dag):
            assert isinstance(got, Dag) and (got, got.colors) == (expected, expected.colors), text
            assert not _has_cycle(got.p, got.edges), text
        else:
            assert got == expected, text
            if expected == (ParseError, "graph contains a cycle"):
                rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
                rows = [r for r in rows if r]
                edges = [(int(r[0]), int(r[1])) for r in rows[1:]]
                assert _has_cycle(int(rows[0][1]), edges), text
        seen.add(_kind(expected))
    assert seen >= {None, "graph contains a cycle", "duplicate edge", "bad edge line: Q"}


def test_decomposition_reader_matches_reference():
    rng = random.Random(703)
    seen = set()
    unindented = negative = 0
    for _ in range(CASES):
        text = _text(rng, _random_decomposition_lines(rng), INTS)
        expected = _outcome(parent_parse_decomposition, text)
        got = _outcome(parse_decomposition, text)
        seen.add(_kind(expected))
        if got == expected:
            continue
        if got == (ParseError, "negative bag count"):
            # the reference crashed on an empty body, or asked for -N lines
            assert expected[0] is IndexError or re.fullmatch(
                r"expected -\d+ bag lines, found \d+", expected[1]
            ), text
            negative += 1
            continue
        # otherwise a quoted line loses its leading whitespace
        head, quoted = re.fullmatch(
            r"(bad header|bad header count|bad bag line): (.*)", expected[1]
        ).groups()
        line = ast.literal_eval(quoted)
        assert line != line.lstrip(), text
        assert got == (ParseError, f"{head}: {line.strip()!r}"), text
        unindented += 1
    assert unindented > 0 and negative > 0
    assert seen >= {
        None,
        "empty decomposition file",
        "bad header: Q",
        "bad header count: Q",
        "expected # bag lines, found #",
        "bad bag line: Q",
    }


def test_coloring_reader_matches_reference(tmp_path):
    rng = random.Random(704)
    path = str(tmp_path / "coloring.txt")
    seen = set()
    refused = set()
    for _ in range(CASES):
        p, edges = _random_dag(rng)
        g = Dag(p, edges)
        lines = [f"{u} {v} {rng.randint(1, 3)}" for u, v in edges]
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(_text(rng, lines, INTS, header=False))
        expected = _outcome(parent_load_coloring, path, g)
        got = _outcome(_load_coloring, path, g)
        seen.add(_kind(expected))
        if got == expected:
            continue
        text = _read(path)
        assert isinstance(got, tuple) and got[0] is ParseError, text
        kind = _kind(got)
        refused.add(kind)
        if kind == "coloring line for a non-edge: Q":
            u, v, _c = map(int, ast.literal_eval(got[1].split(": ", 1)[1]).split())
            assert (u, v) not in g.edges, text
        else:
            assert kind == "duplicate coloring line for edge Q", text
            pair = ast.literal_eval(got[1].split("edge ", 1)[1])
            named = []
            for line in text.splitlines():
                try:
                    named.append(tuple(map(int, line.split("#", 1)[0].split()[:2])))
                except ValueError:
                    pass
            assert named.count(pair) >= 2, text
    assert seen >= {None, "bad coloring line: Q", "coloring file misses edge Q"}
    assert refused == {
        "coloring line for a non-edge: Q",
        "duplicate coloring line for edge Q",
    }


def test_instance_reader_peak_memory_is_near_what_it_keeps():
    # splitting every line before the lookups held all n^2 name tokens at
    # once: 2.35 times what the Instance keeps at n=200
    text = format_instance(random_complete_instance(random.Random(705), 200))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst = parse_instance(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.n_men == 200
    assert peak - base <= 1.5 * (kept - base)


def test_decomposition_reader_peak_memory_is_near_what_it_keeps():
    # holding every bag line until the last bag was built peaked at 1.64
    # times what the decomposition keeps, on 2000 bags of four ids
    bags = [range(i, i + 4) for i in range(1, 2001)]
    text = f"PD {len(bags)}\n" + "".join(" ".join(map(str, bag)) + "\n" for bag in bags)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        x = parse_decomposition(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(x.bags) == 2000
    assert peak - base <= 1.5 * (kept - base)


def test_graph_readers_keep_one_int_per_vertex_id():
    # ids above 256, which Python does not cache, each named by many edges
    # and bags
    p = 600
    edges = [(u, v) for u in range(1, p + 1) for v in range(u + 1, min(u + 4, p + 1))]
    g = parse_dag(f"DAG {p} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    named = [x for adj in (g.out_adj, g.in_adj) for xs in adj.values() for x in xs]
    assert len(named) == 2 * len(edges)
    assert len(set(map(id, named))) == len(set(named)) == p
    bags = [range(i, i + 4) for i in range(1, p - 2)]
    lines = [f"PD {len(bags)}"] + [" ".join(map(str, bag)) for bag in bags]
    x = parse_decomposition("\n".join(lines) + "\n")
    named = [v for bag in x.bags for v in bag]
    assert len(named) == 4 * len(bags)
    assert len(set(map(id, named))) == len(set(named)) == p
