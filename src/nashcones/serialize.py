"""Tree rendering (text, JSON, Graphviz dot) and the persistent cache.

Text mirrors the tabular convention: depth-indented lines carrying the
presentation rows and the bracketed index pair. JSON encodes all integers
as decimal strings so consumers with 64-bit parsers never truncate. The
cache is an append-only JSON-lines log of resolved subtrees keyed by
canonical form; a line that is not a record is skipped on load.
"""

from __future__ import annotations

import json
import os
from itertools import count

from .cones import dual_index, index
from .nash import MEMOIZED, PRUNED_DEPTH, PRUNED_KNOWN, SMOOTH, MemoEntry

_TEXT_MARKERS = {
    PRUNED_KNOWN: " (pruned)",
    PRUNED_DEPTH: " (depth)",
    MEMOIZED: " *",
}


def _row_str(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def node_line(node) -> str:
    rows = ",".join(_row_str(f) for f in node.cone.facets)
    return f"{rows} [{index(node.cone)},{dual_index(node.cone)}]"


def render_text(tree) -> str:
    """Depth-indented listing, two spaces per level.

    Pruned and memoized leaves carry a trailing marker so the output stays
    unambiguous; fully expanded trees match the plain convention.
    """
    out = []
    _text_lines(tree.root, 0, out)
    return "\n".join(out) + "\n"


def _text_lines(node, depth, out):
    out.append("  " * depth + node_line(node) + _TEXT_MARKERS.get(node.status, ""))
    for ch in node.children:
        _text_lines(ch, depth + 1, out)


# ------------------------------------------------------------------ JSON


def _node_to_obj(node):
    return {
        "dim": node.cone.dim,
        "rays": [[str(x) for x in r] for r in node.cone.rays],
        "facets": [[str(x) for x in f] for f in node.cone.facets],
        "I": str(index(node.cone)),
        "Istar": str(dual_index(node.cone)),
        "status": node.status,
        "children": [_node_to_obj(ch) for ch in node.children],
    }


def render_json(tree) -> str:
    return json.dumps(_node_to_obj(tree.root), indent=1) + "\n"


# ------------------------------------------------------------------ DOT


def _subtree_shape(node):
    """Label shape of a subtree; memoized leaves stand in by their key."""
    c = node.cone
    label = (c.dim, len(c.facets), index(c), dual_index(c), node.status)
    if node.status == MEMOIZED:
        return (label, node.key)
    return (label, tuple(sorted(_subtree_shape(ch) for ch in node.children)))


def _group_children(children):
    """Sibling groups per the diagram convention, as [rep, count] pairs.

    Equivalent cones always merge (same canonical key means the same
    canonical subtree); a key's rep is its first sibling that is not
    memoized, else its first sibling. Non-simplicial reps additionally
    merge when their subtree shapes coincide, into the first such group.
    Groups keep the order in which their first sibling appears.
    """
    by_key = {}
    for ch in children:
        by_key.setdefault(ch.key, []).append(ch)
    merged = {}
    for key, members in by_key.items():
        rep = next((m for m in members if m.status != MEMOIZED), members[0])
        tag = key if rep.cone.is_simplicial else _subtree_shape(rep)
        merged.setdefault(tag, [rep, 0])[1] += len(members)
    return list(merged.values())


def render_dot(tree) -> str:
    """Graphviz output with identical sibling subtrees collapsed.

    Siblings with equal subtree canonical form merge into one branch with a
    multiplicity prefix; bundles of smooth leaves render as a circled
    count. Non-simplicial cones are double-outlined with their facet count.
    """
    lines = ["digraph resolution {", '  node [shape=box, fontname="monospace"];']
    _dot_nodes(tree.root, 1, lines, count(1))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_label(node, mult):
    prefix = f"{mult}× " if mult > 1 else ""
    body = node_line(node)
    if not node.cone.is_simplicial:
        body += f" ({len(node.cone.facets)} facets)"
    return prefix + body


def _dot_nodes(node, mult, lines, ids):
    """Append the dot lines of node's subtree, its node ids drawn from the
    counter ``ids``; returns node's id."""
    nid = f"n{next(ids)}"
    attrs = [f'label="{_dot_label(node, mult)}"']
    if not node.cone.is_simplicial:
        attrs.append("peripheries=2")
    if node.status == MEMOIZED:
        attrs.append("style=dashed")
    lines.append(f"  {nid} [{', '.join(attrs)}];")
    smooth_count = 0
    for rep, k in _group_children(node.children):
        if rep.status == SMOOTH:
            smooth_count += k
            continue
        cid = _dot_nodes(rep, k, lines, ids)
        lines.append(f"  {nid} -> {cid};")
    if smooth_count:
        cid = f"n{next(ids)}"
        lines.append(f'  {cid} [label="{smooth_count}", shape=circle];')
        lines.append(f"  {nid} -> {cid};")
    return nid


# ------------------------------------------------------------------ cache


def _record_from_entry(key, entry, prune):
    return {
        "key": key.hex(),
        "dim": entry.dim,
        "I": str(entry.index),
        "Istar": str(entry.dual_index),
        "status": "pruned" if entry.has_pruned else "resolved",
        "depth": entry.depth_below,
        "size": entry.size,
        "max_facets": entry.max_facets,
        "child_keys": [k.hex() for k in entry.child_keys],
        "prune": prune,
    }


def _positive_decimal(s):
    """Whether s is what str() writes for a positive int: ASCII digits with
    no sign, space or leading zero."""
    return type(s) is str and s.isascii() and s.isdigit() and s[0] != "0"


def _entry_from_record(rec) -> MemoEntry:
    if any(type(rec[k]) is not int or rec[k] < 0 for k in ("dim", "depth", "size", "max_facets")):
        raise ValueError("cache record counts must be non-negative ints")  # bool is not accepted
    if not (_positive_decimal(rec["I"]) and _positive_decimal(rec["Istar"])):
        raise ValueError("cache record indices must be decimal strings of positive ints")
    if rec["status"] not in ("resolved", "pruned"):
        raise ValueError(f"unknown cache record status {rec['status']!r}")
    children = rec["child_keys"]
    if type(children) is not list:  # bytes.fromhex rejects any item but a hex str
        raise ValueError("cache record child keys must be a list")
    return MemoEntry(
        rec["dim"],
        int(rec["I"]),
        int(rec["Istar"]),
        rec["depth"],
        rec["size"],
        rec["max_facets"],
        rec["status"] == "pruned",
        tuple(bytes.fromhex(k) for k in children),
    )


def load_cache(path, prune=None) -> dict:
    """Replay a cache log into a memo map for the given pruning threshold.

    A line that is not a record (blank, not UTF-8 or JSON, nested past the
    decoder's limit, or misshapen, as older versions' ``"status": "budget"``
    records) is skipped, and so is a record whose subtree lost one, so no
    loaded subtree has a hole; duplicate keys must carry identical payloads.
    """
    memo = {}
    try:  # a byte that is not UTF-8 reads as a lone surrogate, which no record field accepts
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return memo
    for line in lines:
        try:
            rec = json.loads(line)
            key = bytes.fromhex(rec["key"])
            entry = _entry_from_record(rec)
        except (KeyError, TypeError, ValueError, RecursionError):
            continue
        # records go out children first and a child with no record is a
        # leaf, so the sizes add up only if no record of the subtree is lost
        sizes = (memo[k].size if k in memo else 1 for k in entry.child_keys)
        if rec.get("prune") != prune or entry.size != 1 + sum(sizes):
            continue
        if key in memo and memo[key] != entry:
            raise ValueError(f"cache {path}: conflicting records for key {rec['key'][:16]}...")
        memo[key] = entry
    return memo


def append_cache(path, tree) -> int:
    """Append this run's new memo entries; returns the number written.

    All records go out in one ``os.write`` on an ``O_APPEND`` descriptor, so
    lines from concurrent appenders to the same file never interleave. The
    write starts with a newline when the file's last byte is not one, so a
    last line that lost its tail does not swallow the first record.
    """
    if not tree.new_memo_keys:
        return 0
    data = "".join(
        json.dumps(_record_from_entry(key, tree.memo[key], tree.prune_below_index)) + "\n"
        for key in tree.new_memo_keys
    ).encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"short write to cache {path}: {written} of {len(data)} bytes")
    return len(tree.new_memo_keys)
