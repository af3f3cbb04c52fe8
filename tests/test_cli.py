import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from nashcones import checks, nash, serialize
from nashcones.classify import classify
from nashcones.cli import main
from nashcones.cones import canonical_key, cone_from_facets, dual_index, index
from nashcones.errors import BudgetExceeded
from nashcones.nash import resolution_tree

from tabledata import GOLDEN_TREES, presentation


def run_cli(*argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    old = {}
    env = env or {}
    for k, v in env.items():
        old[k] = os.environ.get(k)
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def test_hilbert_command():
    code, out, _ = run_cli("hilbert", "--rays", "1 0; 4 7")
    assert code == 0
    assert out.splitlines() == ["1 0", "1 1", "2 3", "3 5", "4 7"]


def test_hilbert_facets_orthant():
    code, out, _ = run_cli("hilbert", "--facets", "1 0 0; 0 1 0; 0 0 1")
    assert code == 0
    assert sorted(out.split()) == sorted("100010001")
    assert len(out.splitlines()) == 3


def test_hilbert_improper_exit_2():
    code, _, err = run_cli("hilbert", "--rays", "1 0; -1 0")
    assert code == 2
    assert "NotProper" in err


@pytest.mark.parametrize(
    "flag, rows, message",
    [
        ("--rays", "1 0 0; 0 1 0", "NotProper: rays do not span the ambient space"),
        ("--rays", "1 0; -1 0; 0 1", "NotProper: cone contains a line"),
        ("--facets", "1 0 0; 0 1 0", "NotProper: cone contains a line"),
        ("--facets", "1 0; -1 0; 0 1", "NotProper: cone is not full-dimensional"),
        ("--rays", "1 0; 0 1 1", "ValueError: rays have mixed dimensions"),
        ("--facets", "1 0; 0 1 1", "ValueError: facets have mixed dimensions"),
    ],
)
def test_improper_input_messages(flag, rows, message):
    code, out, err = run_cli("hilbert", flag, rows)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_malformed_input_exit_2():
    code, _, err = run_cli("hilbert", "--rays", "1 0; nope")
    assert code == 2


@pytest.mark.parametrize("command", ["hilbert", "resolve"])
def test_index_past_maxsize_exit_2(command):
    # an HNF box side past 2^63 fails before any box point is listed
    code, out, err = run_cli(command, "--rays", "99999999999999999999 1; 0 1")
    assert (code, out) == (2, "")
    assert err.startswith("error: BoxTooLarge: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_resolve_text_matches_block():
    code, out, err = run_cli("resolve", "--facets", "1 0 0; 0 1 0; 1 1 2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "(0,1,0),(1,0,0),(1,1,2) [2,4]"
    assert all(line.startswith("  ") and line.endswith("[1,1]") for line in lines[1:])
    assert "depth 1" in err and "size 4" in err


def test_resolve_by_name():
    code, out, err = run_cli("resolve", "--name", "C_3_3")
    assert code == 0
    assert "depth 2" in err and "size 9" in err


def test_resolve_budget_exit_3():
    code, out, err = run_cli("resolve", "--name", "C_3_3", "--max-nodes", "3")
    assert code == 3
    assert out  # partial tree still printed


def test_resolve_depth_cap_exit_3():
    code, _, err = run_cli("resolve", "--name", "C_3_3", "--max-depth", "1")
    assert code == 3
    assert "resolved False" in err


@pytest.mark.parametrize(
    "name, flag, value",
    [
        ("C_3_3", "--max-depth", "-1"),
        ("C_1_1", "--max-depth", "-1"),  # a smooth root needs no depth, but -1 is still bad
        ("C_3_3", "--max-nodes", "0"),
        ("C_1_1", "--max-nodes", "0"),
        ("C_3_3", "--max-nodes", "-5"),
    ],
)
def test_resolve_bad_budget_exit_2(tmp_path, name, flag, value):
    cache = tmp_path / "cache.jsonl"
    code, out, err = run_cli("resolve", "--name", name, flag, value, "--cache", str(cache))
    assert code == 2
    assert out == ""
    option = flag[2:].replace("-", "_")
    want = ">= 0" if option == "max_depth" else ">= 1"
    assert err == f"error: ValueError: {option} must be {want}, got {value}\n"
    assert not cache.exists()


@dataclass
class ParsedNode:
    cone: object
    index: int
    dual_index: int
    status: str
    children: list


def tree_from_json(text) -> ParsedNode:
    """Rebuild a tree of cones from rendered JSON, for the round trip below.

    Cones are reconstructed from their facet rows; ray sets and the index
    pair are verified against the recorded values.
    """

    def build(obj):
        cone = cone_from_facets([[int(x) for x in f] for f in obj["facets"]])
        rays = tuple(tuple(int(x) for x in r) for r in obj["rays"])
        if tuple(sorted(rays)) != cone.rays:
            raise ValueError("recorded rays disagree with the facet description")
        if index(cone) != int(obj["I"]) or dual_index(cone) != int(obj["Istar"]):
            raise ValueError("recorded indices disagree with the cone")
        return ParsedNode(cone, int(obj["I"]), int(obj["Istar"]), obj["status"], [build(c) for c in obj["children"]])

    return build(json.loads(text))


def test_resolve_json_round_trip():
    code, out, _ = run_cli("resolve", "--name", "C_3_3", "--format", "json", "--no-memo")
    assert code == 0
    parsed = tree_from_json(out)
    tree = resolution_tree(cone_from_facets(presentation("C_3_3")), memoize=False)

    def keys(node):
        return (canonical_key(node.cone), tuple(keys(c) for c in node.children))

    def stats(node):
        return ((node.index, node.dual_index), tuple(stats(c) for c in node.children))

    assert keys(parsed) == keys(tree.root)
    assert stats(parsed) == stats(tree.root)


def test_resolve_dot_output():
    code, out, _ = run_cli("resolve", "--name", "C_4_4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph resolution {")
    assert "4×" in out  # four identical pruned-free subtrees collapse
    assert 'shape=circle' in out


def test_dot_groups_match_the_two_stage_oracle():
    # every node of every tree of dim 3 with index <= 9 and dim 4 with index
    # <= 4, under four depth caps, with no memo, a fresh memo, or a memo
    # prefilled by full runs: the same rep objects, counts and order
    cones = [cls.cone for d, top in ((3, 9), (4, 4)) for i in range(1, top + 1) for cls in classify(d, i)]
    full = {}
    for c in cones:
        resolution_tree(c, memo=full)
    nodes = 0
    for memoize, prefilled in ((False, False), (True, False), (True, True)):
        for cap in (1, 2, 3, 32):
            for c in cones:
                memo = dict(full) if prefilled else None
                try:
                    tree = resolution_tree(c, memoize=memoize, max_depth=cap, memo=memo)
                except BudgetExceeded as exc:
                    tree = exc.tree
                stack = [tree.root]
                while stack:
                    node = stack.pop()
                    nodes += 1
                    got = serialize._group_children(node.children)
                    want = oracles.group_children(node.children)
                    assert [(id(r), k) for r, k in got] == [(id(r), k) for r, k in want]
                    stack.extend(node.children)
    assert nodes == 13423


def test_resolve_jobs_byte_identical():
    args = ("resolve", "--name", "C_4_3", "--format", "text")
    _, out1, _ = run_cli(*args, "--jobs", "1")
    _, out8, _ = run_cli(*args, "--jobs", "8")
    assert out1 == out8


def test_resolve_cache_replay(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    args = ("resolve", "--name", "C_3_3", "--cache", cache)
    code, out1, err1 = run_cli(*args)
    assert code == 0 and os.path.exists(cache)
    code, out2, err2 = run_cli(*args)
    assert code == 0
    # replayed run does no blow-up work: the root is served from the cache
    assert err2.endswith("nodes-created 1\n")
    n_lines = len(open(cache).read().splitlines())
    code, _, _ = run_cli(*args)
    assert len(open(cache).read().splitlines()) == n_lines  # nothing re-appended


def test_append_cache_bytes_and_single_write(tmp_path, monkeypatch):
    trees = [
        resolution_tree(cone_from_facets(presentation("C_3_3")), memoize=True),
        resolution_tree(
            cone_from_facets(presentation("C_5_4")), memoize=True, prune_below_index=5
        ),
    ]
    writes = []
    real_write = os.write

    def recording_write(fd, data):
        writes.append(data)
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", recording_write)
    cache = tmp_path / "cache.jsonl"
    for tree in trees:
        assert serialize.append_cache(str(cache), tree) == 2
    # every run's records go out in one write
    assert [data.count(b"\n") for data in writes] == [2, 2]
    data = cache.read_bytes()
    assert b"".join(writes) == data
    # same bytes as a line-by-line text-mode writer
    ref = tmp_path / "ref.jsonl"
    with open(ref, "a", encoding="utf-8") as fh:
        for tree in trees:
            for key in tree.new_memo_keys:
                rec = serialize._record_from_entry(key, tree.memo[key], tree.prune_below_index)
                fh.write(json.dumps(rec) + "\n")
    assert ref.read_bytes() == data
    # pinned record format and key bytes
    assert len(data) == 2915
    assert hashlib.sha256(data).hexdigest() == (
        "b79e5ddbaa47af2514591f96d6b60b9772cd468c6f0412b7f6015642cb180dfa"
    )


def test_depth_capped_run_does_not_poison_cache(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    args = ("resolve", "--facets", "1 0 0; 1 3 0; 1 0 3", "--cache", cache)
    code, _, err = run_cli(*args, "--max-depth", "1")
    assert code == 3 and "resolved False" in err
    code, _, err = run_cli(*args)
    assert code == 0
    assert "depth 3  size 49" in err and "resolved True" in err


def test_cache_skips_unresolved_records(tmp_path):
    # caches written by older versions may hold unresolved subtrees; such a
    # record, a blank line and a line that is not a record are each skipped
    # mid-log, and the records after them load
    cache = str(tmp_path / "cache.jsonl")
    tree = resolution_tree(cone_from_facets(presentation("C_3_3")), memoize=True)
    serialize.append_cache(cache, tree)
    with open(cache) as fh:
        lines = fh.read().splitlines()
    records = [json.loads(line) for line in lines]
    stale = dict(records[-1], status="budget", size=1)
    bad = ["", '{"key": "00", "dim": 3}', json.dumps(stale)]
    with open(cache, "w") as fh:
        fh.write("\n".join(lines[:1] + bad + lines[1:]) + "\n")
    memo = serialize.load_cache(cache, None)
    assert len(memo) == len(records)
    assert all(entry.size > 1 for entry in memo.values())


def test_cache_tolerates_corrupt_tail(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    run_cli("resolve", "--name", "C_3_3", "--cache", cache)
    with open(cache, "a") as fh:
        fh.write('{"key": "zzzz", truncated')
    memo = serialize.load_cache(cache, None)
    assert memo  # earlier records survive
    code, _, _ = run_cli("resolve", "--name", "C_3_3", "--cache", cache)
    assert code == 0


def test_cache_ignores_misshapen_records(tmp_path):
    # valid JSON that is not a record is a line skipped on load, not a crash
    args = ("resolve", "--name", "C_2_2")
    code, want, _ = run_cli(*args)
    assert code == 0
    good = tmp_path / "good.jsonl"
    run_cli(*args, "--cache", str(good))
    record = json.loads(good.read_text().splitlines()[0])
    for i, line in enumerate(("[1, 2]", json.dumps(dict(record, child_keys=None)))):
        cache = tmp_path / f"bad{i}.jsonl"
        cache.write_text(line + "\n")
        assert serialize.load_cache(str(cache), None) == {}
        code, out, _ = run_cli(*args, "--cache", str(cache))
        assert code == 0, line
        assert out == want


@pytest.mark.parametrize(
    "field, value",
    [
        ("depth", "1"),
        ("size", "4"),
        ("max_facets", True),
        ("dim", 3.0),
        ("depth", -1),
        ("status", "done"),
        ("I", 7.9),
        ("I", True),
        ("I", 7),
        ("Istar", "-3"),
        ("Istar", "0"),
        ("I", "+7"),
        ("I", " 7"),
        ("Istar", "07"),
        ("child_keys", {}),
        ("child_keys", {"00": "00"}),
        ("child_keys", [0]),
        ("child_keys", "00"),
    ],
)
def test_cache_ignores_mistyped_records(tmp_path, field, value):
    # a count that is not a non-negative int would reach the resolver's
    # arithmetic, an index must be what the writer writes (the decimal
    # string of a positive int), child keys a list of strings, and an
    # unknown status means nothing: each makes a line that is not a record
    args = ("resolve", "--facets", "1 0 0; 0 1 0; 1 1 2")
    code, want, _ = run_cli(*args)
    assert code == 0
    cache = tmp_path / "cache.jsonl"
    run_cli(*args, "--cache", str(cache))
    lines = cache.read_text().splitlines()
    records = [dict(json.loads(line), **{field: value}) for line in lines]
    cache.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    assert serialize.load_cache(str(cache), None) == {}
    code, out, _ = run_cli(*args, "--cache", str(cache))
    assert (code, out) == (0, want)


def test_cache_skips_a_garbage_first_line(tmp_path):
    # a line that is not a record does not end the log: the records a run
    # appends after it load, and the next run is served from them
    args = ("resolve", "--name", "C_6_3")
    clean = tmp_path / "clean.jsonl"
    run_cli(*args, "--cache", str(clean))
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"garbage": 1}\n')
    code, _, _ = run_cli(*args, "--cache", str(cache))
    assert code == 0
    memo = serialize.load_cache(str(cache), None)
    assert len(memo) == 4 and memo == serialize.load_cache(str(clean), None)
    code, _, err = run_cli(*args, "--cache", str(cache))
    assert code == 0 and err.endswith("nodes-created 1\n")


@pytest.mark.parametrize(
    "line", [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe"], ids=["too-deep", "not-utf-8"]
)
def test_cache_skips_a_line_json_cannot_read(tmp_path, line):
    # a line nested past the JSON decoder's limit, or one that is not
    # UTF-8, is a line that is not a record like any other: the records
    # after it load, and the run is served from them
    args = ("resolve", "--name", "C_6_3")
    clean = tmp_path / "clean.jsonl"
    run_cli(*args, "--cache", str(clean))
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes(line + b"\n" + clean.read_bytes())
    memo = serialize.load_cache(str(cache), None)
    assert len(memo) == 4 and memo == serialize.load_cache(str(clean), None)
    code, _, err = run_cli(*args, "--cache", str(cache))
    assert code == 0 and err.endswith("nodes-created 1\n")


@pytest.mark.parametrize(
    "name, damage",
    [
        ("C_3_3", lambda lines: lines[:-1] + [lines[-1][:-20]]),  # the last line lost its tail
        ("C_6_1", lambda lines: lines[:1] + ["{\n"] + lines[2:]),  # a record mid-log is corrupt
    ],
)
def test_cache_with_a_lost_record(tmp_path, name, damage):
    # a record whose subtree lost a record is skipped on load, so no memo
    # has a hole that would hide classes from the unique count: the next
    # runs resolve that subtree again, the log heals, and every stats line
    # is that of a clean cached run
    args = ("resolve", "--name", "C_6_1")
    clean = tmp_path / "clean.jsonl"
    run_cli(*args, "--cache", str(clean))
    _, _, want = run_cli(*args, "--cache", str(clean))
    assert want.endswith("nodes-created 1\n")
    cache = tmp_path / "cache.jsonl"
    run_cli("resolve", "--name", name, "--cache", str(cache))
    with open(cache) as fh:
        lines = fh.readlines()
    cache.write_text("".join(damage(lines)))
    for _ in range(3):
        code, _, err = run_cli(*args, "--cache", str(cache))
        assert code == 0
        assert err.split("nodes-created")[0] == want.split("nodes-created")[0]
    assert err == want


def test_cache_appends_after_a_truncated_last_line(tmp_path):
    # a run appending to a log whose last line lost its tail starts its
    # write with a newline: the truncated line is skipped on load, the
    # records after it load whole, and the next run is served from them
    args = ("resolve", "--name", "C_6_3")
    clean = tmp_path / "clean.jsonl"
    run_cli(*args, "--cache", str(clean))
    cache = tmp_path / "cache.jsonl"
    truncated = clean.read_bytes()[:20]
    cache.write_bytes(truncated)
    code, _, _ = run_cli(*args, "--cache", str(cache))
    assert code == 0
    assert cache.read_bytes() == truncated + b"\n" + clean.read_bytes()
    assert serialize.load_cache(str(cache), None) == serialize.load_cache(str(clean), None)
    code, _, err = run_cli(*args, "--cache", str(cache))
    assert code == 0 and err.endswith("nodes-created 1\n")


def test_cache_conflicting_records_exit_2(tmp_path):
    # two different records under one key fail the load with the
    # documented message; an identical duplicate record loads
    args = ("resolve", "--name", "C_3_3")
    cache = tmp_path / "cache.jsonl"
    run_cli(*args, "--cache", str(cache))
    lines = cache.read_text().splitlines()
    rec = json.loads(lines[0])
    cache.write_text("\n".join(lines + [lines[0]]) + "\n")
    code, _, err = run_cli(*args, "--cache", str(cache))
    assert code == 0 and err.endswith("nodes-created 1\n")
    changed = json.dumps(dict(rec, max_facets=rec["max_facets"] + 1))
    cache.write_text("\n".join(lines + [changed]) + "\n")
    code, out, err = run_cli(*args, "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err == (
        f"error: ValueError: cache {cache}: conflicting records for key {rec['key'][:16]}...\n"
    )


def test_cache_env_override(tmp_path):
    cache = str(tmp_path / "env_cache.jsonl")
    code, _, _ = run_cli(
        "resolve", "--name", "C_2_2", "--cache", str(tmp_path / "ignored.jsonl"),
        env={"NASH_CACHE": cache},
    )
    assert code == 0
    assert os.path.exists(cache)
    assert not os.path.exists(str(tmp_path / "ignored.jsonl"))


@pytest.mark.parametrize("where", ["flag", "env"])
@pytest.mark.parametrize(
    "path, error",
    [(".", "IsADirectoryError"), ("missing/cache.jsonl", "FileNotFoundError")],
)
def test_unusable_cache_path_exit_2(tmp_path, monkeypatch, where, path, error):
    # a directory fails on load, a path under a missing directory before
    # resolving; neither reaches a blow-up
    def no_blowup(cone):
        raise AssertionError("resolved before the cache path was checked")

    monkeypatch.setattr(nash, "nash_blowup", no_blowup)
    cache = str(tmp_path / path)
    if where == "flag":
        code, out, err = run_cli("resolve", "--name", "C_2_2", "--cache", cache)
    else:
        code, out, err = run_cli("resolve", "--name", "C_2_2", env={"NASH_CACHE": cache})
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["flag", "env"])
@pytest.mark.parametrize("path", [".", "missing/cache.jsonl", "cache.jsonl"])
def test_no_memo_never_touches_the_cache(tmp_path, where, path):
    # --no-memo neither reads nor writes the cache, so a directory or a
    # path under a missing directory changes nothing, and no file appears
    args = ("resolve", "--name", "C_2_2", "--no-memo")
    want = run_cli(*args)
    cache = str(tmp_path / path)
    if where == "flag":
        got = run_cli(*args, "--cache", cache)
    else:
        got = run_cli(*args, env={"NASH_CACHE": cache})
    assert got == want
    assert want[0] == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["C_3_3\n", "C_03_1", "B_2_01", "A_1_1", "C_3_03", "D_04_1"])
def test_resolve_name_alias_exit_2(name):
    code, out, err = run_cli("resolve", "--name", name)
    assert code == 2
    assert out == ""
    assert err == f"error: ValueError: malformed class name {name!r} (expected like C_3_3)\n"


@pytest.mark.parametrize("command", ["hilbert", "resolve"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--rays", "ValueError: empty matrix"),
        ("--facets", "ValueError: empty matrix"),
        ("--name", "ValueError: malformed class name '' (expected like C_3_3)"),
    ],
)
def test_empty_cone_option_exit_2(command, flag, message):
    # an empty option value is that option given, not left out: one error
    # line and no traceback
    code, out, err = run_cli(command, flag, "")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------- exit codes
# Small generated command lines for every subcommand; none enumerates much.
# Huge values belong to the limit tests, and `verify --suite surface` (about
# a second a run) to its own test.

# The entry range by row width, kept small so that no cone's parallelepiped
# is large: a simplex of rays has |det| <= 50, and the rays of d facets have
# lattice index <= |det|^(d - 1) <= 625.
_RAY_RANGES = ((-5, 5), (-5, 5), (-2, 2), (-1, 1), (-1, 1))
_FACET_RANGES = ((-5, 5), (-5, 5), (-1, 1), (0, 1), (0, 1))


@st.composite
def _matrix_text(draw, ranges):
    """0-6 rows of 1-5 integers, most rows as long as the first, joined by
    ';' with blanks and stray ';', and now and then a token that is not an
    integer."""
    width = draw(st.integers(1, 5))
    entries = st.integers(*ranges[width - 1]).map(str)
    row = st.lists(entries, min_size=width, max_size=width)
    ragged = st.lists(entries, min_size=1, max_size=5)
    rows = draw(st.lists(st.one_of(row, row, row, ragged), max_size=6))
    if rows and not draw(st.integers(0, 4)):
        draw(st.sampled_from(rows)).append(draw(st.sampled_from(["x", "1.5", "-", "1/2", "--1"])))
    sep = draw(st.sampled_from([";", "; ", " ; ", ";;"]))
    ends = st.sampled_from(["", ";", " "])
    return draw(ends) + sep.join(map(" ".join, rows)) + draw(ends)


_NAME = st.one_of(
    st.sampled_from(["A", "B_2_1", "B_5_2", "C_3_3", "C_4_7", "D_2_2", "D_4_15", "E_2_1"]),
    st.builds("{}_{}_{}".format, st.sampled_from("ABCDEZ"), st.integers(0, 4), st.integers(0, 9)),
    st.sampled_from(["C_03_1", "A_1_1", "C_3", "c_3_3", "C_3_3\n", " C_3_3"]),
)


def _options(draw, pairs):
    """Each (flag, values) pair, given or left out; a value of None is a
    flag with no argument."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, str(value)]
    return argv


@st.composite
def _command_lines(draw, cache_paths):
    commands = ["hilbert", "resolve", "enumerate", "hj", "verify", "bogus", ""]
    command = draw(st.sampled_from(commands))
    argv = [command] if command else []
    if command in ("hilbert", "resolve"):
        # one of the three exclusive options as a rule, now and then none or
        # two, and now and then given empty
        specs = {
            "--rays": _matrix_text(_RAY_RANGES),
            "--facets": _matrix_text(_FACET_RANGES),
            "--name": _NAME,
        }
        flags = draw(st.permutations(list(specs)))
        for flag in flags[: draw(st.sampled_from([1, 1, 1, 1, 0, 2]))]:
            argv += [flag, draw(specs[flag]) if draw(st.integers(0, 5)) else ""]
    if command == "resolve":  # always a node budget: a random cone may have a deep tree
        argv += ["--max-nodes", str(draw(st.integers(0, 50)))]
        argv += _options(draw, [
            ("--max-depth", st.integers(-1, 3)),
            ("--prune-index", st.integers(-2, 6)),
            ("--format", st.sampled_from(["text", "json", "dot", "xml"])),
            ("--no-memo", st.none()),
            ("--cache", st.sampled_from(cache_paths)),
            ("--jobs", st.integers(-1, 2)),
        ])
    elif command == "enumerate":
        argv += _options(draw, [
            ("--dim", st.integers(-1, 4)),
            ("--index-max", st.integers(-1, 4)),
            ("--table", st.none()),
        ])
    elif command == "hj":
        pair = [str(draw(st.integers(-200, 200))) for _ in "pq"]
        action = draw(st.sampled_from(["expand", "basis", "blowup", "resolve", "bogus"]))
        argv += (pair + [action])[: draw(st.sampled_from([3, 3, 3, 2, 0]))]
    elif command == "verify":
        suites = st.sampled_from(["tables", "anomalies", "bogus", ""])
        argv += _options(draw, [("--suite", suites)])
    if not draw(st.integers(0, 4)):
        stray = draw(st.sampled_from(["-h", "--bogus", "7"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_every_command_line_exits_with_a_documented_code(tmp_path, monkeypatch, data):
    # 0, 2, 3 or 4, never a traceback, and an input error says so on one line
    monkeypatch.delenv("NASH_CACHE", raising=False)
    (tmp_path / "junk.jsonl").write_text("not a record\n[1, 2]\n")
    caches = ["cache.jsonl", "junk.jsonl", "missing/c.jsonl", ""]
    argv = data.draw(_command_lines([str(tmp_path / p) for p in caches]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error: " in line for line in err.splitlines()) == 1, (argv, err)


def test_closed_stdout_pipe_exit_0():
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    with redirect_stdout(ClosedPipe()), redirect_stderr(io.StringIO()):
        assert main(["resolve", "--name", "C_2_2"]) == 0


def test_cache_separated_by_prune_threshold(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    run_cli("resolve", "--name", "C_5_4", "--cache", cache, "--prune-index", "5")
    _, _, err = run_cli("resolve", "--name", "C_5_4", "--cache", cache)
    # unpruned run may not reuse pruned records
    created = int(err.split("nodes-created")[1].split()[0])
    assert created > 1


def test_resolve_d_5_14_unpruned_size():
    code, _, err = run_cli("resolve", "--name", "D_5_14")
    assert code == 0
    assert "depth 8  size 14253 " in err


def test_enumerate_counts():
    code, out, _ = run_cli("enumerate", "--dim", "3", "--index-max", "12")
    assert code == 0
    counts = [int(line.split()[1]) for line in out.splitlines()]
    assert counts == checks.T3_REFERENCE[:12]


def test_enumerate_single_class():
    code, out, _ = run_cli("enumerate", "--dim", "3", "--index-max", "1", "--table")
    assert code == 0
    assert len(out.splitlines()) == 1
    assert "C_{1,1}" in out


def test_enumerate_dimension_without_letter_exit_2():
    code, out, err = run_cli("enumerate", "--dim", "9", "--index-max", "1")
    assert code == 2
    assert out == ""
    assert err == "error: ValueError: no class letter for dimension 9\n"


def test_enumerate_index_max_below_one_exit_2():
    # also when the dimension is bad: the index bound is checked first
    for dim in ("3", "0"):
        code, out, err = run_cli("enumerate", "--dim", dim, "--index-max", "0")
        assert code == 2, dim
        assert out == ""
        assert err == "error: ValueError: --index-max must be at least 1\n"


def test_enumerate_table_lists_reducibility():
    code, out, _ = run_cli("enumerate", "--dim", "4", "--index-max", "2", "--table")
    assert code == 0
    assert "B_{2,1}" in out and "C_{2,2}" in out


def test_hj_commands():
    code, out, _ = run_cli("hj", "4", "7", "basis")
    assert code == 0
    assert out.splitlines() == ["1 0", "1 1", "2 3", "3 5", "4 7"]
    code, out, _ = run_cli("hj", "0", "1", "resolve")
    assert out.splitlines()[0] == "0 steps"
    code, out, _ = run_cli("hj", "2", "3", "blowup")
    assert out.strip() == "(1,3) (1,3)"
    code, out, err = run_cli("hj", "0", "1", "blowup")
    assert (code, out) == (2, "")
    assert err == "error: ValueError: cone is smooth; nothing to blow up\n"
    code, out, _ = run_cli("hj", "4", "7", "expand")
    assert out.strip() == "1 3 2 2"
    code, _, _ = run_cli("hj", "2", "4", "expand")
    assert code == 2  # not coprime


# SHA-256 over the stdout of `hj P Q resolve` for every coprime pair
# 0 <= p < q <= 60, ordered by q then p, taken before the blow-ups ran on
# integer pairs; never regenerate.
HJ_RESOLVE_DIGEST = "99eb6a9eaec4bbaf7dba8463b6c60eda9bc32a14c1e2f7e48740259d0b0b8b61"


def test_hj_resolve_golden_digest():
    pairs = [(p, q) for q in range(1, 61) for p in range(q) if math.gcd(p, q) == 1]
    assert len(pairs) == 1102
    digest = hashlib.sha256()
    for p, q in pairs:
        code, out, _ = run_cli("hj", str(p), str(q), "resolve")
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == HJ_RESOLVE_DIGEST


def test_python_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ("hj", "4", "7", "blowup")
    command = [sys.executable, "-m", "nashcones", *argv]
    proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    code, out, err = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == 0 and out.strip()


def test_verify_anomalies():
    code, out, err = run_cli("verify", "--suite", "anomalies")
    assert code == 0
    assert out == (
        "PASS  index 6 cone blows up to a simplicial index-9 cone\n"
        "PASS  dual index 3 -> 4 after two blow-ups\n"
        "PASS  dual index 1 -> 2 through a 4-facet cone\n"
    )
    assert err == "all 3 checks passed\n"


def test_verify_anomalies_fails_on_doubled_blowups(monkeypatch):
    # each anomaly pins an exact number of children, so a blow-up that
    # lists every child twice fails all three checks
    blowup = checks.nash_blowup
    monkeypatch.setattr(checks, "nash_blowup", lambda c: blowup(c) * 2)
    code, out, err = run_cli("verify", "--suite", "anomalies")
    assert code == 4
    assert out == (
        "FAIL  index 6 cone blows up to a simplicial index-9 cone\n"
        "FAIL  dual index 3 -> 4 after two blow-ups\n"
        "FAIL  dual index 1 -> 2 through a 4-facet cone\n"
    )
    assert err == "3 of 3 checks failed\n"


def test_verify_tables_stdout():
    code, out, err = run_cli("verify", "--suite", "tables")
    assert code == 0
    assert out == (
        "PASS  3-D class counts, index <= 27\n"
        "PASS  3-D total class count 1602\n"
        "PASS  4-D class counts, index <= 8\n"
        "PASS  4-D total class count 201\n"
    )
    assert err == "all 4 checks passed\n"


def test_text_output_deterministic_across_runs():
    args = ("resolve", "--name", "C_6_5", "--format", "text", "--prune-index", "6")
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_enumerate_table_golden_digests():
    # full T_3 and T_4 listings, and dimension 5 up to index 6 (labels of up
    # to five factors): names, invariants, presentations, labels
    for dim, top, lines, digest in (
        ("3", "27", 1602, "4274da56d3a69df5c3a57aff4faf54fefc85274adba038e11689209e564a4e19"),
        ("4", "8", 201, "3d3dc54b9624f367184f0587e0b083a54378db951950ff1c67debb312a09a366"),
        ("5", "6", 165, "35f98206f392eef0b34e29ddf1065d206e7439fa5b99c53ac20ebad522fce7df"),
    ):
        code, out, _ = run_cli("enumerate", "--dim", dim, "--index-max", top, "--table")
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, dim


# SHA-256 over `resolve --name N --format F` stdout for every dim-3 class of
# index <= 6 in table order, with and without --no-memo. Taken before the
# double description kept incidence bitsets; never regenerate.
RESOLVE_DIGESTS = {
    ("text", False): "b4836767e7b8cc4b103cf9baca4c7a4d300d3cb2856f3c30d09eff80a57e01eb",
    ("json", False): "e66e51947e203cc97958220729d9cccf0ea010ae1ec8a3c10408b5934868606a",
    ("dot", False): "08284f08db5aed0f15a86e0b8449bcc599009a45dc16ea7c944a67cd40533b12",
    ("text", True): "28e72061f0ae4052e8456eb1836b70fdca1e19e9822de1eba7c37bbf1c52d173",
    ("json", True): "ae2129faa37a5941e86e3941c03e74be5a7640848d5d2d5333d01240152da9ce",
    ("dot", True): "9f2f581f13483d482d026094ab0cc82c82f1680c61e27b096a64d5bb3e3ff799",
}


def test_resolve_output_golden_digests():
    names = [cls.name for i in range(1, 7) for cls in classify(3, i)]
    assert len(names) == 33
    got = {}
    for fmt, no_memo in RESOLVE_DIGESTS:
        h = hashlib.sha256()
        for name in names:
            args = ("resolve", "--name", name, "--format", fmt) + (("--no-memo",) if no_memo else ())
            code, out, _ = run_cli(*args)
            assert code == 0, args
            h.update(out.encode("utf-8"))
        got[(fmt, no_memo)] = h.hexdigest()
    assert got == RESOLVE_DIGESTS


# SHA-256 over `resolve --name N --format F --no-memo` stdout for the 12
# dim-4 golden-tree classes (D_2_3 ... D_4_16) in table order. Taken before
# canonical_key dropped the HNF transform; never regenerate.
DIM4_NO_MEMO_DIGESTS = {
    "text": "f9d3895fb3ec13777a6ef7177dbec2069ed6fb848f9bd62c47ba4988f4b0f425",
    "json": "fca6c43940b1d71bb56a94f2a66c89c7df3bb05bc893a87971a4f01d43cc7b04",
    "dot": "bc6ca3e50727d2c1836779a47c1131b6ac020f1e995ba83423661d7b5062939b",
}


def test_resolve_dim4_no_memo_golden_digests():
    names = [name for name in GOLDEN_TREES if name.startswith("D")]
    assert len(names) == 12
    got = {}
    for fmt in DIM4_NO_MEMO_DIGESTS:
        h = hashlib.sha256()
        for name in names:
            code, out, _ = run_cli("resolve", "--name", name, "--format", fmt, "--no-memo")
            assert code == 0, (name, fmt)
            h.update(out.encode("utf-8"))
        got[fmt] = h.hexdigest()
    assert got == DIM4_NO_MEMO_DIGESTS
