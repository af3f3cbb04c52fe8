"""Command-line interface.

Subcommands: hilbert (basis of a cone), resolve (iterated blow-up tree),
enumerate (classification tables), hj (2-D fast path), verify (built-in
check suites). Exit codes: 0 ok, 2 input error (an unreadable or
unwritable cache path included), 3 budget exhausted, 4 verification
failure; a closed stdout pipe ends the run with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from math import gcd

from . import checks, serialize
from .classify import classify, class_counts, cone_by_name
from .cones import cone_from_facets, cone_from_rays
from .errors import BudgetExceeded
from .hilbert import hilbert_basis
from .nash import resolution_tree, tree_stats, unique_cone_count
from .surface import StdCone2D, hilbert_basis_2d, hj_expand, nash_blowup_2d, resolve_2d

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4


def _parse_rows(text):
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append(tuple(int(tok) for tok in chunk.split()))
    if not rows:
        raise ValueError("empty matrix")
    return rows


def _add_cone_spec(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--rays", help="generating rays, e.g. '1 0; 4 7'")
    group.add_argument("--facets", help="inward facet normals, e.g. '1 0 0; 0 1 0; 1 1 2'")
    group.add_argument("--name", help="classifier name, e.g. C_3_3")


def _cone_from_args(args):
    if args.name is not None:
        return cone_by_name(args.name)
    if args.rays is not None:
        return cone_from_rays(_parse_rows(args.rays))
    return cone_from_facets(_parse_rows(args.facets))


def _cmd_hilbert(args):
    cone = _cone_from_args(args)
    basis = hilbert_basis(cone)
    for row in basis.elements:
        print(" ".join(str(x) for x in row))
    return EXIT_OK


def _cmd_resolve(args):
    cone = _cone_from_args(args)
    # the cache only feeds and keeps the memo, so --no-memo never touches it
    cache_path = None if args.no_memo else os.environ.get("NASH_CACHE") or args.cache
    memo = serialize.load_cache(cache_path, args.prune_index) if cache_path else None
    if cache_path:  # a missing directory fails now, not after resolving
        os.stat(os.path.dirname(cache_path) or ".")

    budget = False
    try:
        tree = resolution_tree(
            cone,
            prune_below_index=args.prune_index,
            memoize=not args.no_memo,
            max_depth=args.max_depth,
            max_nodes=args.max_nodes,
            memo=memo,
        )
    except BudgetExceeded as exc:
        tree = exc.tree
        budget = True

    if cache_path:
        serialize.append_cache(cache_path, tree)

    if args.format == "text":
        sys.stdout.write(serialize.render_text(tree))
    elif args.format == "json":
        sys.stdout.write(serialize.render_json(tree))
    else:
        sys.stdout.write(serialize.render_dot(tree))

    stats = tree_stats(tree)
    print(
        f"depth {stats.depth}  size {stats.size}  unique {unique_cone_count(tree)}  "
        f"max-facets {stats.max_facets}  resolved {stats.resolved}  "
        f"nodes-created {tree.nodes_created}",
        file=sys.stderr,
    )
    if budget or not stats.resolved:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_enumerate(args):
    if args.index_max < 1:
        raise ValueError("--index-max must be at least 1")
    if args.table:
        for i in range(1, args.index_max + 1):
            for cls in classify(args.dim, i):
                rows = ",".join(serialize._row_str(r) for r in cls.presentation)
                label = cls.reducibility_label
                suffix = f"  {label}" if label else ""
                print(f"{cls.display}  [{cls.index},{cls.dual_index}]  {rows}{suffix}")
    else:
        for i, count in enumerate(class_counts(args.dim, args.index_max), start=1):
            print(f"{i} {count}")
    return EXIT_OK


def _cmd_hj(args):
    p, q = args.p, args.q
    if q < 1 or not 0 <= p < q or gcd(p, q) != 1:
        raise ValueError("need 0 <= p < q with p, q coprime")
    s = StdCone2D(p, q)
    if args.action == "expand":
        print(" ".join(str(t) for t in hj_expand(Fraction(p, q)).terms))
    elif args.action == "basis":
        for v in hilbert_basis_2d(s):
            print(" ".join(str(x) for x in v))
    elif args.action == "blowup":
        print(" ".join(f"({c.p},{c.q})" for c in nash_blowup_2d(s)))
    else:
        steps, levels = resolve_2d(s)
        print(f"{steps} steps")
        for lvl, cones in enumerate(levels[1:], start=1):
            print(f"  step {lvl}: " + " ".join(f"({c.p},{c.q})" for c in cones))
    return EXIT_OK


def _cmd_verify(args):
    if args.suite == "tables":
        report = checks.tables_suite()
    elif args.suite == "surface":
        report = checks.surface_suite()
    else:
        report = checks.anomaly_suite()
    failed = [name for name, ok in report if not ok]
    if failed:
        print(f"{len(failed)} of {len(report)} checks failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(report)} checks passed", file=sys.stderr)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nashcones",
        description="Iterated Nash blow-ups of rational polyhedral cones, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert basis of a cone")
    _add_cone_spec(p)
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("resolve", help="expand the resolution tree of a cone")
    _add_cone_spec(p)
    p.add_argument("--prune-index", type=int, default=None, metavar="I",
                   help="stop at simplicial cones with index strictly below I")
    p.add_argument("--no-memo", action="store_true", help="disable subtree memoization")
    p.add_argument("--max-depth", type=int, default=32)
    p.add_argument("--max-nodes", type=int, default=100_000)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p.add_argument("--cache", default=None, metavar="PATH",
                   help="append-only resolution cache (env NASH_CACHE overrides)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored; resolution is single-threaded")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("enumerate", help="count or list simplicial cone classes")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--index-max", type=int, required=True)
    p.add_argument("--table", action="store_true", help="list class representatives")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("hj", help="2-D cones via continued fractions")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("action", choices=("expand", "basis", "blowup", "resolve"))
    p.set_defaults(func=_cmd_hj)

    p = sub.add_parser("verify", help="run a built-in check suite")
    p.add_argument("--suite", choices=("tables", "surface", "anomalies"), required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except (ValueError, OSError) as exc:  # NotProper and LatticeError included
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
