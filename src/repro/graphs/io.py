"""Edge-list I/O for the CLI and for interchange with other tools.

Format: one edge per line, two whitespace-separated vertex tokens; ``#``
starts a comment; isolated vertices can be declared on a line of their own.
Tokens that parse as integers become ints (so files written by us round-trip
through the canonical integer relabelling); anything else stays a string.
"""

from __future__ import annotations

import pathlib
from typing import Hashable, Union

import networkx as nx

from ..runtime import durable

__all__ = ["read_edgelist", "write_edgelist"]


def _token(s: str) -> Hashable:
    try:
        return int(s)
    except ValueError:
        return s


def read_edgelist(path: Union[str, pathlib.Path]) -> nx.Graph:
    """Parse an edge-list file into a graph."""
    g = nx.Graph()
    text = pathlib.Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            g.add_node(_token(parts[0]))
        elif len(parts) == 2:
            u, v = _token(parts[0]), _token(parts[1])
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop {u!r}")
            g.add_edge(u, v)
        else:
            raise ValueError(
                f"{path}:{lineno}: expected 1 or 2 tokens, got {len(parts)}"
            )
    return g


def write_edgelist(g: nx.Graph, path: Union[str, pathlib.Path]) -> None:
    """Write a graph as an edge list (isolated vertices included)."""
    lines = [f"# {g.number_of_nodes()} nodes, {g.number_of_edges()} edges"]
    covered = set()
    for u, v in sorted(g.edges(), key=repr):
        lines.append(f"{_fmt(u)} {_fmt(v)}")
        covered.update((u, v))
    for v in sorted(g.nodes(), key=repr):
        if v not in covered:
            lines.append(_fmt(v))
    durable.atomic_write(path, "\n".join(lines) + "\n")


def _fmt(v: Hashable) -> str:
    s = str(v)
    if any(c.isspace() for c in s) or "#" in s:
        raise ValueError(f"vertex label {v!r} cannot be serialized")
    return s
