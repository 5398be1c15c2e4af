"""Command-line interface.

Conventions:
* graph-producing commands print the edge list to stdout (pipeable into
  ``verify -``) and a short human summary to stderr; files are written only
  when ``--out``/``--provenance``/``--dot`` are given;
* ``--json`` switches stdout to a single JSON document;
* exit status 0 means the checked property holds, 1 means it does not,
  2 means the input was unusable, 141 that the reader closed stdout early.

Each command handler imports the modules it computes with when it runs, so
parsing the command line loads only this module, ``graph`` and the fixture
catalog.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .fixtures import FIXTURE_NAMES, fixture_catalog, load_fixture
from .graph import (
    CospectraError,
    Graph,
    _check_order,
    _parse_edge_list,
    adjacency_matrix,
    format_edge_list,
    to_dot,
)

if TYPE_CHECKING:
    from .construct import ConstructedGraph

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left

# reduce-multiplicity takes --eigenvalue x for the nearest eigenvalue only
# within EIGENVALUE_MATCH * max(1, |x|) of it
EIGENVALUE_MATCH = 1e-6


def _read_graph(path: str, check_order=_check_order) -> Graph:
    """The graph at ``path`` ('-' for stdin); ``check_order`` may refuse the
    declared order before the graph, of size linear in it, is built.  By
    default it refuses an order the exact kernels do not take."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    n, edges = _parse_edge_list(text)
    check_order(n)
    return Graph(n, edges)


def _read_json_arg(value: str):
    """A JSON literal (starts with '[' or '{') or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith(("[", "{")):
        text = Path(value).read_text()
    return json.loads(text)


def _int_rows(raw, flag: str, width: int) -> list:
    """The rows of a JSON array of ``width``-integer rows such as ``--attach``.
    A row holding anything but JSON integers is refused, as int() would
    truncate 0.9 to 0 and read true or "1" as 1."""
    if not isinstance(raw, list):
        raise ValueError(f"{flag} must be a JSON array of rows")
    for row in raw:
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            raise ValueError(f"{flag} entry {json.dumps(row)} is not a list of integers")
        if len(row) != width:
            raise ValueError(f"{flag} entry {json.dumps(row)} has {len(row)} integers, not {width}")
    return raw


def _is_decimal(text: str) -> bool:
    """An optional '-' and ASCII digits alone: int() would also read '1_0' as
    10, and surrounding blanks or non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _decimal_id(text: str) -> int:
    """A vertex or orbit id given as a flag value."""
    if not _is_decimal(text):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {text!r}")
    return int(text)


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2 or not all(map(_is_decimal, parts)):
        raise ValueError(f"expected 'u,v' of two decimal integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _emit_graph(
    args, graph: Graph, summary: str, provenance: dict | None, pair=None, blocks=None
) -> None:
    text = format_edge_list(graph)
    if args.out:
        Path(args.out).write_text(text)
    if getattr(args, "provenance_out", None):
        if provenance is None:
            raise CospectraError("this graph has no construction provenance")
        Path(args.provenance_out).write_text(json.dumps(provenance, indent=2) + "\n")
    if args.dot:
        Path(args.dot).write_text(
            to_dot(graph, highlight=pair or (), blocks=blocks)
        )
    if args.json:
        doc: dict = {"edge_list": text}
        if pair is not None:
            doc["pair"] = list(pair)
        if provenance is not None:
            doc["provenance"] = provenance
        print(json.dumps(doc, indent=2))
    elif not args.out:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def constructed_from_json(graph: Graph, doc: dict) -> ConstructedGraph:
    """Re-derive a ConstructedGraph from an edge list and its provenance JSON
    through the builders.  Rejected unless the maps are the builders' layout,
    copy 2 is copy 1 shifted by n, every other edge passes its kind's rule and
    the ``orbits`` are the cells of the equitable partition of copy 1."""
    from dataclasses import replace

    from .construct import (
        A_KIND,
        L_KIND,
        AttachmentEdge,
        CrossEdge,
        _build_a_cospectral,
        _build_l_cospectral,
        _check_cross_edges,
    )
    from .orbits import equitable_partition

    def shaped(value, part: str, json_type: type):
        if not isinstance(value, json_type):
            shape = "an object" if json_type is dict else "an array"
            raise CospectraError(f"provenance document is malformed: {part} is not {shape}")
        return value

    shaped(doc, "the document", dict)
    try:
        kind = doc["kind"]
        pair = tuple(shaped(doc["pair"], "pair", list))
        g1 = tuple(shaped(doc["g1_map"], "g1_map", list))
        g2 = tuple(shaped(doc["g2_map"], "g2_map", list))
        h = tuple(shaped(doc.get("h_map", []), "h_map", list))
        part = shaped(doc["orbits"], "orbits", dict)
        orbits = [
            shaped(o, "an orbit", list) for o in shaped(part["orbits"], "orbits.orbits", list)
        ]
        fixed = part["fixed"]
        cross = doc.get("cross_connected", False)
    except KeyError as exc:
        raise CospectraError(f"provenance document is missing field {exc}") from None
    if kind not in (A_KIND, L_KIND):
        raise CospectraError(f"provenance kind must be {A_KIND!r} or {L_KIND!r}")
    n = len(g1)
    if g1 + g2 + h != tuple(range(graph.n)) or len(g2) != n or (kind == L_KIND and h):
        raise CospectraError(
            "provenance maps are not the builders' layout: copy 1 = 0..n-1, "
            "copy 2 = n..2n-1, H = 2n.. (none for L)"
        )
    if type(cross) is not bool:  # the string "false" would read as true
        raise CospectraError("provenance cross_connected must be true or false")
    if type(fixed) is not int or not 0 <= fixed < n:  # JSON true is no vertex
        raise CospectraError("provenance must name the distinguished base vertex")
    if not all(type(w) is int for w in pair) or pair != (fixed, n + fixed):
        raise CospectraError("provenance pair does not match the distinguished vertex")
    blocks: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for a, b in graph.sorted_edges():  # block (0 copy 1 | 1 copy 2 | 2 H) of each end
        blocks.setdefault((min(a // n, 2), min(b // n, 2)), []).append((a, b))
    copy1 = blocks.get((0, 0), [])
    if sorted((a + n, b + n) for a, b in copy1) != blocks.get((1, 1), []):
        raise CospectraError("copy check failed: copy 2 is not copy 1 shifted by n")
    base = Graph.from_edges(n, copy1)
    cross_edges = [CrossEdge(a, b - n) for a, b in blocks.get((0, 1), [])]
    if kind == A_KIND and cross_edges and not cross:
        raise CospectraError("edges join the two copies but cross_connected is false")
    partition = equitable_partition(base, fixed)
    if kind == L_KIND:
        rebuilt = _build_l_cospectral(base, fixed, cross_edges, partition, graph)
    else:
        # staying within one orbit is the cross-edge rule of both kinds
        _check_cross_edges(base, cross_edges, partition)
        h_graph = Graph.from_edges(
            len(h), [(a - 2 * n, b - 2 * n) for a, b in blocks.get((2, 2), [])]
        )
        attachments = [
            AttachmentEdge(1 + a // n, a % n, b - 2 * n)
            for a, b in blocks.get((0, 2), []) + blocks.get((1, 2), [])
        ]
        rebuilt = _build_a_cospectral(base, fixed, h_graph, attachments, partition, graph)
    cells = [list(c) for c in rebuilt.orbit_partition.orbits]
    if orbits != cells:
        raise CospectraError(
            f"orbits check failed: provenance orbits {orbits} differ from {cells}, "
            "the equitable partition of copy 1"
        )
    return replace(rebuilt, cross_connected=cross)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_construct(args) -> int:
    from .construct import AttachmentEdge, CrossEdge, build_a_cospectral, build_l_cospectral

    g = _read_graph(args.g)
    if args.which == "a":
        h = _read_graph(args.h)
        raw = _int_rows(_read_json_arg(args.attach), "--attach", 3)
        attachments = [AttachmentEdge(s, gv, hv) for s, gv, hv in raw]
        cg = build_a_cospectral(g, args.fixed, h, attachments)
    else:
        raw = _int_rows(_read_json_arg(args.cross), "--cross", 2)
        cross = [CrossEdge(a, b) for a, b in raw]
        cg = build_l_cospectral(g, args.fixed, cross)
    _emit_graph(
        args,
        cg.graph,
        f"built {cg.kind}-construction on {cg.graph.n} vertices; "
        f"certified pair {cg.pair}",
        cg.to_json(),
        pair=cg.pair,
        blocks=cg.dot_blocks(),
    )
    return EXIT_HOLDS


def _cmd_modify(args) -> int:
    from .construct import check_a_claims, connect_orbits

    cg = constructed_from_json(_read_graph(args.graph), _read_json_arg(args.provenance))
    if args.bijection is not None:
        pairs = [(a, b) for a, b in _int_rows(_read_json_arg(args.bijection), "--bijection", 2)]
    else:
        import random as _random

        if not 0 <= args.orbit < cg.orbit_partition.count:
            raise ValueError(f"orbit index {args.orbit} out of range")
        orbit = cg.orbit_partition.orbits[args.orbit]
        side1 = [cg.g1_map[b] for b in orbit]
        side2 = [cg.g2_map[b] for b in orbit]
        _random.Random(args.seed).shuffle(side2)
        pairs = list(zip(side1, side2))
    out = connect_orbits(cg, args.orbit, pairs)
    violation = check_a_claims(out)
    if violation is not None:
        print(
            f"pair {out.pair} not preserved: claim {violation.claim} fails; "
            f"{violation.detail}",
            file=sys.stderr,
        )
        return EXIT_FAILS
    _emit_graph(
        args,
        out.graph,
        f"cross-connected orbit {args.orbit} with {len(pairs)} edges; "
        f"pair {out.pair} preserved",
        out.to_json(),
        pair=out.pair,
        blocks=out.dot_blocks(),
    )
    return EXIT_HOLDS


def _report_lines(report) -> list[str]:
    from .verify import ADJACENCY

    lines = [f"{report.matrix_kind} cospectral: {report.cospectral}"]
    if report.matrix_kind == ADJACENCY:
        lines.append(f"deleted-vertex char polys equal: {report.cospectral}")
        lines.append(f"power diagonals equal: {report.cospectral}")
    lines.append(f"krylov orthogonal: {report.cospectral}")
    if report.note:
        lines.append(f"note: {report.note}")
    return lines


def _cmd_verify(args) -> int:
    from .spectral import STRONG
    from .verify import strong_cospectrality, verify_a_cospectral, verify_l_cospectral

    g = _read_graph(args.graph)
    u, v = _parse_pair(args.pair)
    reports = []  # --strong classifies the first: A for --matrix both
    if args.matrix != "l":
        reports.append(verify_a_cospectral(g, u, v))
    if args.matrix != "a":
        reports.append(verify_l_cospectral(g, u, v))
    holds = all(r.cospectral for r in reports)
    if len(reports) == 1:
        doc, lines = reports[0].to_json(), _report_lines(reports[0])
        strong_label = "strong cospectrality"
    else:
        doc = {r.matrix_kind: r.to_json() for r in reports}
        lines = [f"{r.matrix_kind} cospectral: {r.cospectral}" for r in reports]
        strong_label = f"{reports[0].matrix_kind} strong cospectrality"
    if args.strong:
        strong = strong_cospectrality(reports[0])
        holds = holds and strong.verdict == STRONG
        doc["strong"] = strong.to_json()
        lines.append(f"{strong_label}: {strong.verdict}")
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print("\n".join(lines))
    return EXIT_HOLDS if holds else EXIT_FAILS


def _cmd_orbits(args) -> int:
    from .orbits import _check_search_order, automorphism_orbits

    g = _read_graph(args.graph, _check_search_order)
    partition = automorphism_orbits(g, args.fixed)
    if args.json:
        print(json.dumps(partition.to_json(), indent=2))
    else:
        for orbit in partition.orbits:
            print(" ".join(str(v) for v in orbit))
    return EXIT_HOLDS


def _cmd_induced(args) -> int:
    from .spectral import STRONG_CERTIFIED, strong_via_simplicity

    cg = constructed_from_json(_read_graph(args.graph), _read_json_arg(args.provenance))
    verdict = strong_via_simplicity(cg)
    if args.json:
        print(json.dumps(verdict.to_json(), indent=2))
    else:
        for p in verdict.induced:
            mult = p.multiplicity_in_big
            flag = "simple" if mult == 1 else f"multiplicity {mult}"
            print(
                f"eigenvalue {p.eigenvalue!r}  coefficient {p.base_coefficient:.6f}  {flag}"
            )
        print(f"verdict: {verdict.verdict}")
        print(f"direct check: {verdict.direct.verdict}")
    return EXIT_HOLDS if verdict.verdict == STRONG_CERTIFIED else EXIT_FAILS


def _cmd_reduce(args) -> int:
    from .spectral import attach_pendant_reduce, eigendecompose_symmetric

    if not math.isfinite(args.eigenvalue):
        raise ValueError(f"--eigenvalue must be a finite number, got {args.eigenvalue}")
    g = _read_graph(args.graph)
    dec = eigendecompose_symmetric(adjacency_matrix(g))
    if not dec.clusters:
        raise CospectraError("no adjacency eigenvalue: the graph has no vertices")
    cluster = dec.cluster_nearest(args.eigenvalue)
    if abs(cluster.value - args.eigenvalue) > EIGENVALUE_MATCH * max(1.0, abs(args.eigenvalue)):
        raise CospectraError(
            f"no adjacency eigenvalue near {args.eigenvalue}; closest is {cluster.value!r}"
        )
    if cluster.multiplicity < 2:
        raise CospectraError(f"eigenvalue {args.eigenvalue} is simple; nothing to reduce")
    grown, report = attach_pendant_reduce(g, dec, cluster)
    text = format_edge_list(grown)
    if args.out:
        Path(args.out).write_text(text)
    if args.json:
        print(json.dumps({"edge_list": text, "report": report.to_json()}, indent=2))
    else:
        if not args.out:
            sys.stdout.write(text)
        print(
            f"attached pendant at vertex {report.attach_vertex}; multiplicity of "
            f"{report.eigenvalue:.6f}: {report.old_multiplicity} -> {report.new_multiplicity}"
            f" (certified: {report.certified}; strict interlacing: {report.certified})",
            file=sys.stderr,
        )
    return EXIT_HOLDS if report.certified else EXIT_FAILS


def _cmd_example(args) -> int:
    if args.list or args.name is None:
        for name, description in fixture_catalog().items():
            print(f"{name}: {description}")
        return EXIT_HOLDS
    fx = load_fixture(args.name)
    blocks = fx.constructed.dot_blocks() if fx.constructed else None
    _emit_graph(
        args,
        fx.graph,
        f"{fx.name}: {fx.description}",
        fx.constructed.to_json() if fx.constructed else None,
        pair=fx.pair,
        blocks=blocks,
    )
    return EXIT_HOLDS


def _cmd_random(args) -> int:
    from .construct import A_KIND, L_KIND, random_instance

    kind = A_KIND if args.kind == "a" else L_KIND
    cg = random_instance(
        args.seed, max_g=args.max_g, max_h=args.max_h, density=args.density, kind=kind
    )
    _emit_graph(
        args,
        cg.graph,
        f"seed {args.seed}: {cg.kind}-construction on {cg.graph.n} vertices; "
        f"certified pair {cg.pair}",
        cg.to_json(),
        pair=cg.pair,
        blocks=cg.dot_blocks(),
    )
    return EXIT_HOLDS


# ---------------------------------------------------------------------------


def _add_output_flags(
    p: argparse.ArgumentParser, provenance_flag: str = "--provenance"
) -> None:
    p.add_argument("--out", help="write the edge list to this file")
    p.add_argument(
        provenance_flag,
        dest="provenance_out",
        help="write the construction provenance JSON to this file",
    )
    p.add_argument("--dot", help="write a DOT rendering to this file")
    p.add_argument("--json", action="store_true", help="print a JSON document instead")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cospectra",
        description="Construct and verify graphs with certified cospectral vertex pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a certified construction")
    pcs = pc.add_subparsers(dest="which", required=True)
    pa = pcs.add_parser("a", help="adjacency construction: two copies of G glued to H")
    pa.add_argument("--g", required=True, help="base graph file ('-' for stdin)")
    pa.add_argument("--fixed", type=_decimal_id, required=True, help="distinguished vertex of G")
    pa.add_argument("--h", required=True, help="glue graph file")
    pa.add_argument(
        "--attach",
        required=True,
        help="attachments as JSON [[side, g_vertex, h_vertex], ...] (literal or file), "
        "balanced on every orbit: a cell of G's equitable partition with --fixed alone",
    )
    pa.set_defaults(func=_cmd_construct)
    _add_output_flags(pa)
    pl = pcs.add_parser("l", help="laplacian construction: two copies of G cross-joined")
    pl.add_argument("--g", required=True, help="base graph file ('-' for stdin)")
    pl.add_argument("--fixed", type=_decimal_id, required=True, help="distinguished vertex of G")
    pl.add_argument(
        "--cross",
        required=True,
        help="cross edges as JSON [[g1_vertex, g2_vertex], ...] (literal or file), "
        "each inside one orbit (equitable cell)",
    )
    pl.set_defaults(func=_cmd_construct)
    _add_output_flags(pl)

    pm = sub.add_parser("modify", help="modify an existing construction")
    pms = pm.add_subparsers(dest="which", required=True)
    pco = pms.add_parser(
        "connect-orbits",
        help="join the two copies of one orbit by a perfect matching; exit 1 if the "
        "exact walk claims then fail",
    )
    pco.add_argument("graph", help="constructed graph file ('-' for stdin)")
    pco.add_argument(
        "--provenance", required=True, help="provenance JSON (literal or file)"
    )
    pco.add_argument(
        "--orbit",
        type=_decimal_id,
        required=True,
        help="index of an orbit (equitable cell) as the provenance lists it",
    )
    pco.add_argument(
        "--bijection", help="matching as JSON [[copy1_id, copy2_id], ...] (literal or file)"
    )
    pco.add_argument(
        "--seed", type=int, default=0, help="seed for a random matching when --bijection is absent"
    )
    pco.set_defaults(func=_cmd_modify)
    _add_output_flags(pco, provenance_flag="--provenance-out")

    pv = sub.add_parser("verify", help="verify cospectrality of a vertex pair")
    pv.add_argument("graph", help="graph file ('-' for stdin)")
    pv.add_argument("--pair", required=True, help="vertex pair 'u,v'")
    pv.add_argument(
        "--matrix", choices=("a", "l", "both"), default="a", help="which matrix to test"
    )
    pv.add_argument(
        "--strong",
        action="store_true",
        help="also require strong cospectrality for the tested matrix "
        "(the adjacency matrix for --matrix both); the only verify path that "
        "decomposes numerically, and only for a cospectral pair",
    )
    pv.add_argument("--json", action="store_true", help="print the report as JSON")
    pv.set_defaults(func=_cmd_verify)

    orbits_help = (
        "orbits of automorphisms fixing a vertex (n <= COSPECTRA_MAX_N); they can be "
        "finer than the equitable cells that construct balances on and --orbit indexes"
    )
    po = sub.add_parser("orbits", help=orbits_help, description=orbits_help)
    po.add_argument("graph", help="graph file ('-' for stdin)")
    po.add_argument(
        "--fixed", type=_decimal_id, default=None, help="distinguished vertex (omit for the full group)"
    )
    po.add_argument("--json", action="store_true")
    po.set_defaults(func=_cmd_orbits)

    pi = sub.add_parser(
        "induced", help="induced eigenvalues and the simplicity certificate"
    )
    pi.add_argument("graph", help="constructed graph file ('-' for stdin)")
    pi.add_argument("--provenance", required=True, help="provenance JSON (literal or file)")
    pi.add_argument("--json", action="store_true")
    pi.set_defaults(func=_cmd_induced)

    pr = sub.add_parser(
        "reduce-multiplicity", help="attach a pendant to split off one eigenvalue copy"
    )
    pr.add_argument("graph", help="graph file ('-' for stdin)")
    pr.add_argument(
        "--eigenvalue",
        type=float,
        required=True,
        help="repeated eigenvalue x, matched to the nearest adjacency eigenvalue "
        f"when within {EIGENVALUE_MATCH:g} * max(1, |x|) of it",
    )
    pr.add_argument("--out", help="write the grown graph to this file")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=_cmd_reduce)

    pe = sub.add_parser("example", help="emit a bundled example graph")
    pe.add_argument("name", nargs="?", choices=FIXTURE_NAMES, help="fixture name")
    pe.add_argument("--list", action="store_true", help="list available fixtures")
    pe.set_defaults(func=_cmd_example)
    _add_output_flags(pe)

    pg = sub.add_parser("random", help="seeded random certified construction")
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("--kind", choices=("a", "l"), default="a")
    pg.add_argument("--max-g", type=int, default=6, help="max base graph size")
    pg.add_argument("--max-h", type=int, default=4, help="max glue graph size")
    pg.add_argument("--density", type=float, default=0.5, help="attachment density in [0,1]")
    pg.set_defaults(func=_cmd_random)
    _add_output_flags(pg)

    return parser


# the BLAS thread-count variables: one thread unless the user chose otherwise,
# as the products here are small enough that thread start-up dominates; the
# BLAS reads them when numpy first loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # not bad input: print nothing, and point stdout at devnull so that
        # the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (CospectraError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics is not None:
            print(json.dumps(diagnostics), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
