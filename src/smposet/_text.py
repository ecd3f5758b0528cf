"""The line grammar of the four input formats: instances, DAGs, path
decompositions and edge colorings. ``#`` starts a comment that runs to the
end of the line. Lines are stripped, lines holding only a comment are
dropped, and blank lines are kept as "" for the reader to skip or, in a
decomposition, to read as an empty bag. A header is the first non-blank
line, ``TAG <count>...``. The two graph readers map vertex ids to ints
through one `VertexIds` table each.
"""
from __future__ import annotations

from .errors import ParseError


class VertexIds(dict):
    """Vertex id token -> int, made on first lookup, so a graph reader keeps
    one int per vertex however many edges or bags name it. `int` raises
    ValueError on a token that is not an integer.
    """

    def __missing__(self, token: str) -> int:
        self[token] = v = int(token)
        return v


def lines(text: str) -> list[str]:
    if "#" not in text:
        # the same list as the loop below gives: no line is cut or dropped
        return list(map(str.strip, text.splitlines()))
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line or "#" not in raw:
            out.append(line)
    return out


def header(text: str, tag: str, arity: int, what: str) -> tuple[list[int], list[str]]:
    """The arity int counts of the header ``tag <count>...`` of text (an
    empty ``what`` file without one), and the `lines` after it.
    """
    body = lines(text)
    for i, head in enumerate(body):
        if head:
            break
    else:
        raise ParseError(f"empty {what} file")
    fields = head.split()
    if len(fields) != arity + 1 or fields[0] != tag:
        raise ParseError(f"bad header: {head!r}")
    try:
        counts = [int(f) for f in fields[1:]]
    except ValueError:
        noun = "counts" if arity > 1 else "count"
        raise ParseError(f"bad header {noun}: {head!r}") from None
    return counts, body[i + 1 :]
