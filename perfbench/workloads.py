"""Seeded inputs for the three workloads, their known answers, and the gate.

A workload is a pool of rounds; a round is a fixed list of item slots (graph
order and command), filled with fresh seeded graphs.  Runs pass over the
whole pool, so every run measures the same mix of orders and commands
whatever the seed.  Answers come from how an input was made and are
confirmed here, in exact Python ints, before anything is timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

from graphs import (
    cells,
    circulant,
    complete_bipartite,
    cycle,
    distances,
    edge_text,
    exact_orbits,
    hypercube,
    norm,
    parse_edge_text,
    path,
    petersen,
    random_cubic,
    relabel,
    star,
    walk_cospectral,
    with_twins,
)

FIXTURES = ("figure1", "figure3", "figure4", "figure5-left", "figure5-right",
            "figure6-a", "figure6-b", "figure6-c")


class GateError(Exception):
    """A generated input does not have the answer it was made to have."""


@dataclass
class Item:
    kind: str
    argv: list[str]
    order: int
    expect: dict
    positive: bool = True  # the input is a certified pair or a valid construction


@dataclass
class Inputs:
    workload: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    warmup: list[Item] = field(default_factory=list)
    rounds: list[list[Item]] = field(default_factory=list)
    probe: list[Item] = field(default_factory=list)

    def add_file(self, text: str, suffix: str = "txt") -> str:
        name = f"in-{hashlib.sha256(text.encode()).hexdigest()[:12]}.{suffix}"
        self.files[name] = text
        return name

    def digest(self) -> str:
        doc = {
            "workload": self.workload,
            "files": self.files,
            "items": [
                [[i.kind, i.argv, i.order, i.expect, i.positive] for i in rnd]
                for rnd in [self.warmup, *self.rounds, self.probe]
            ],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# constructions made by the benchmark itself


def glue_a(rng, b, base, v_c, parts, r, h_edges, cross_cell=None):
    """Two copies of ``base`` glued to an r-vertex H, balanced on ``parts``.

    Every H vertex gets the same number of neighbours in both copies of every
    part, so the images of v_c are A-cospectral whenever ``parts`` is
    equitable with {v_c} a part (orbits of Aut(G, v_c) are such a partition).
    ``cross_cell`` additionally joins the copies of that part by a matching.
    """
    edges = list(base) + [(b + u, b + v) for u, v in base]
    edges += [(2 * b + u, 2 * b + v) for u, v in h_edges]
    for hv in range(r):
        for part in rng.sample(parts, min(3, len(parts))):
            k = rng.randint(1, min(2, len(part)))
            edges += [(x, 2 * b + hv) for x in rng.sample(part, k)]
            edges += [(b + x, 2 * b + hv) for x in rng.sample(part, k)]
    if cross_cell is not None:
        edges += [tuple(p) for p in matching(rng, b, cross_cell)]
    return 2 * b + r, norm(edges), (v_c, b + v_c)


def matching(rng, b, part):
    """A random perfect matching between the copy-1 and copy-2 images of a part."""
    images = [b + x for x in part]
    rng.shuffle(images)
    return [[x, y] for x, y in zip(part, images)]


def attachments(b, edges):
    """The ``--attach`` triples [side, base vertex, H vertex] of a glued graph."""
    return sorted([1 if x < b else 2, x % b, y - 2 * b] for x, y in edges if y >= 2 * b > x)


def random_h(rng, r):
    return [(u, v) for u in range(r) for v in range(u + 1, r) if rng.random() < 0.4]


def control_pair(rng, n, edges):
    """Two vertices of different degree, never cospectral for A or for L;
    None when the graph is regular."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    pairs = [(u, v) for u in range(n) for v in range(n) if deg[u] != deg[v]]
    return rng.choice(pairs) if pairs else None


def provenance(b, r, pair, v_c, parts):
    """Provenance JSON of a pure A-construction, as `construct a` writes it."""
    return json.dumps({
        "kind": "A", "pair": list(pair), "g1_map": list(range(b)),
        "g2_map": list(range(b, 2 * b)), "h_map": list(range(2 * b, 2 * b + r)),
        "orbits": {"fixed": v_c, "orbits": sorted(parts)}, "cross_connected": False,
    })


def verdict(matrix, file, pair, cospectral):
    return {"check": "verdict", "matrix": matrix, "file": file, "pair": list(pair),
            "cospectral": cospectral}


# ---------------------------------------------------------------------------
# verify-adj


def adjacency_instance(rng, b, r, cross):
    """A certified A-construction of order 2b + r on a base with twins."""
    base = with_twins(rng, b, max(2, b // 5))
    v_c = rng.randrange(b)
    parts = cells(b, base, v_c)
    big = [c for c in parts if len(c) > 1]
    cross_cell = rng.choice(big) if cross and big else None
    n, edges, pair = glue_a(rng, b, base, v_c, parts, r, random_h(rng, r), cross_cell)
    return n, edges, pair, v_c, parts


def verify_adj_round(inp: Inputs, rng: random.Random, tiny: bool) -> list[Item]:
    # (base order, glue order, cross-connect one cell): orders 24 and 32.
    # Every item gets its own graph, so a run averages over as many graphs as
    # it has items.  Order 40 is left out: `induced` raises on some graphs of
    # that order (the numeric defect ROADMAP names), and no workload here may
    # hold an operation that fails.
    slots = [(5, 2, False), (6, 2, True)] if tiny else [(11, 2, False), (15, 2, True)]
    items = []
    for b, r, cross in slots:
        n, edges, pair, _, _ = adjacency_instance(rng, b, r, cross)
        f = inp.add_file(edge_text(n, edges))
        items.append(Item("verify-a-strong", ["verify", f, "--pair", f"{pair[0]},{pair[1]}", "--matrix", "a",
                                              "--strong"], n, verdict("adjacency", f, pair, True)))
        ctrl = None
        while ctrl is None:
            n, edges, _, _, _ = adjacency_instance(rng, b, r, cross)
            ctrl = control_pair(rng, n, edges)
        f = inp.add_file(edge_text(n, edges))
        items.append(Item("verify-a-control", ["verify", f, "--pair", f"{ctrl[0]},{ctrl[1]}", "--matrix", "a",
                                               "--strong"], n, verdict("adjacency", f, ctrl, False),
                          positive=False))
        n, edges, pair, v_c, parts = adjacency_instance(rng, b, r, False)
        f = inp.add_file(edge_text(n, edges))
        prov = inp.add_file(provenance(b, r, pair, v_c, parts), "json")
        items.append(Item("induced", ["induced", f, "--provenance", prov], n,
                          {"check": "induced", "matrix": "adjacency", "file": f,
                           "pair": list(pair), "cospectral": True}))
    return items


# ---------------------------------------------------------------------------
# the Laplacian defect probe


def laplacian_instance(rng, b):
    """Two copies of a base with twins, cross-joined inside equitable cells."""
    base = with_twins(rng, b, 1)
    v_c = rng.randrange(b)
    cross = set()
    for part in cells(b, base, v_c):
        if rng.random() < 0.6:
            pool = [(x, y) for x in part for y in part]
            cross.update(rng.sample(pool, rng.randint(1, len(part))))
    if not cross:
        cross.add((v_c, v_c))
    edges = norm(list(base) + [(b + u, b + v) for u, v in base] + [(x, b + y) for x, y in cross])
    return 2 * b, edges, (v_c, b + v_c)


def laplacian_item(inp: Inputs, rng: random.Random, b: int, ok: bool) -> Item:
    p = None
    while p is None:
        n, edges, pair = laplacian_instance(rng, b)
        p = pair if ok else control_pair(rng, n, edges)
    f = inp.add_file(edge_text(n, edges))
    return Item("verify-l" if ok else "verify-l-control",
                ["verify", f, "--pair", f"{p[0]},{p[1]}", "--matrix", "l"],
                n, verdict("laplacian", f, p, ok), positive=ok)


PROBE_ORDERS = (20, 24, 28, 32)


def laplacian_probe(inp: Inputs, seed: int, tiny: bool) -> list[Item]:
    """The known Laplacian defect, sized: `verify --matrix l` on graphs of
    order 20 to 32, on which the numeric path raises on valid input (from
    order 16 on it raises on some graphs).  Run once per traced run and
    reported as per-layer counts, apart from the workload's operations."""
    rng = random.Random(f"probe/{seed}")
    orders = PROBE_ORDERS[:1] if tiny else PROBE_ORDERS
    return [laplacian_item(inp, rng, n // 2, ok) for n in orders for ok in (True, False)]


# ---------------------------------------------------------------------------
# construct-orbits


def known_base(rng: random.Random, family: str, tiny: bool):
    """A base graph, a fixed vertex, and orbits of Aut(G, v) (exact where
    ``exact``; for circulants the reflection orbits, a finer partition)."""
    if family == "cycle":
        n = rng.randint(4, 6) if tiny else rng.randint(8, 16)
        edges, exact = cycle(n), True
    elif family == "hypercube":
        n, edges, exact = (8, hypercube(3), True) if tiny or rng.random() < 0.5 else (16, hypercube(4), True)
    elif family == "circulant":
        n = rng.randint(7, 9) if tiny else rng.randint(9, 16)
        edges, exact = circulant(n, (1, rng.randint(2, (n - 1) // 2))), False
    elif family == "petersen":
        n, edges, exact = 10, petersen(), True
    else:  # complete bipartite
        a, c = rng.randint(2, 4 if tiny else 8), rng.randint(2, 4 if tiny else 8)
        n, edges, exact = a + c, complete_bipartite(a, c), True
    perm, edges = relabel(rng, n, edges)
    v_c = rng.randrange(n)
    if exact:  # all five exact families are distance-transitive about v_c
        dist = distances(n, edges, v_c)
        parts = [[x for x in range(n) if dist[x] == d] for d in range(max(dist) + 1)]
    else:
        zero = perm.index(v_c)
        parts = [sorted({perm[(zero + i) % n], perm[(zero - i) % n]}) for i in range(n // 2 + 1)]
    return n, edges, v_c, sorted(parts), exact


def construct_a_item(inp, rng, family, tiny, reject=False):
    b, base, v_c, parts, _ = known_base(rng, family, tiny)
    r = rng.randint(1, 3)
    h_edges = random_h(rng, r)
    n, edges, pair = glue_a(rng, b, base, v_c, parts, r, h_edges)
    attach = attachments(b, edges)
    if reject:  # H vertex 0 gets one neighbour more in copy 1 than in copy 2
        free = [x for x in range(b) if [1, x, 0] not in attach]
        if free:
            attach.append([1, rng.choice(free), 0])
        else:
            attach.remove([2, 0, 0])
    g = inp.add_file(edge_text(b, base))
    h = inp.add_file(edge_text(r, h_edges))
    argv = ["construct", "a", "--g", g, "--fixed", str(v_c), "--h", h,
            "--attach", json.dumps(attach), "--json"]
    if reject:
        return Item("construct-a-reject", argv, n, {"check": "reject", "message": "attachment rule violated"},
                    positive=False)
    return Item("construct-a", argv, n, {"check": "graph", "edge_list": edge_text(n, edges),
                                         "pair": list(pair), "matrix": "adjacency", "cospectral": True})


def construct_l_item(inp, rng, family, tiny, reject=False):
    b, base, v_c, parts, _ = known_base(rng, family, tiny)
    cross = set()
    for part in parts:
        if rng.random() < 0.6:
            pool = [(x, y) for x in part for y in part]
            cross.update(rng.sample(pool, rng.randint(1, len(part))))
    if reject:  # endpoints at different distances from v_c lie in different orbits
        dist = distances(b, base, v_c)
        cross.add(rng.choice([(x, y) for x in range(b) for y in range(b) if dist[x] != dist[y]]))
    cross = sorted(cross)
    edges = norm(list(base) + [(b + u, b + v) for u, v in base] + [(x, b + y) for x, y in cross])
    g = inp.add_file(edge_text(b, base))
    argv = ["construct", "l", "--g", g, "--fixed", str(v_c), "--cross",
            json.dumps([list(c) for c in cross]), "--json"]
    if reject:
        return Item("construct-l-reject", argv, 2 * b,
                    {"check": "reject", "message": "cross edges must stay within one orbit"}, positive=False)
    return Item("construct-l", argv, 2 * b, {"check": "graph", "edge_list": edge_text(2 * b, edges),
                                             "pair": [v_c, b + v_c], "matrix": "laplacian", "cospectral": True})


def modify_item(inp, rng, family, tiny):
    b, base, v_c, parts, exact = known_base(rng, family, tiny)
    if not exact:
        raise ValueError("provenance must carry the true orbits")
    r = rng.randint(1, 3)
    n, edges, pair = glue_a(rng, b, base, v_c, parts, r, random_h(rng, r))
    f = inp.add_file(edge_text(n, edges))
    prov = inp.add_file(provenance(b, r, pair, v_c, parts), "json")
    return connect_item(rng, b, n, edges, pair, parts, f, prov, ["--json"])


def connect_item(rng, b, n, edges, pair, parts, f, prov, flags):
    """`modify connect-orbits` on one orbit of a pure construction."""
    index = rng.choice([i for i, p in enumerate(parts) if len(p) > 1])
    bijection = matching(rng, b, parts[index])
    out = norm(edges + [tuple(p) for p in bijection])
    argv = ["modify", "connect-orbits", f, "--provenance", prov, "--orbit", str(index),
            "--bijection", json.dumps(bijection), *flags]
    return Item("modify", argv, n, {"check": "graph", "edge_list": edge_text(n, out),
                                    "pair": list(pair), "matrix": "adjacency", "cospectral": True})


def random_item(rng, kind, max_g, max_h):
    argv = ["random", "--seed", str(rng.randrange(10**6)), "--kind", kind,
            "--max-g", str(max_g), "--max-h", str(max_h), "--json"]
    return Item(f"random-{kind}", argv, 0, {"check": "random", "matrix":
                                             "adjacency" if kind == "a" else "laplacian"})


def orbits_item(inp, rng, n):
    while True:
        edges = random_cubic(rng, n)
        orbits = exact_orbits(n, edges)
        if orbits is not None:
            break
    f = inp.add_file(edge_text(n, edges))
    return Item("orbits", ["orbits", f], n, {"check": "orbits", "orbits": orbits})


def construct_orbits_round(inp: Inputs, rng: random.Random, tiny: bool) -> list[Item]:
    # two passes of construction commands take about as long as the two orbit searches
    families = ("cycle", "hypercube", "circulant", "petersen", "bipartite")
    items = []
    for _ in range(2):
        items += [construct_a_item(inp, rng, fam, tiny) for fam in families]
        items += [construct_l_item(inp, rng, fam, tiny) for fam in ("cycle", "circulant", "bipartite")]
        items.append(construct_a_item(inp, rng, rng.choice(families), tiny, reject=True))
        items.append(construct_l_item(inp, rng, rng.choice(("cycle", "hypercube", "petersen")), tiny,
                                      reject=True))
        items += [modify_item(inp, rng, fam, tiny) for fam in ("cycle", "hypercube", "petersen", "bipartite")]
        items += [random_item(rng, "a", 5 if tiny else 10, 4), random_item(rng, "l", 5 if tiny else 10, 4)]
    items += [orbits_item(inp, rng, n) for n in ((16, 18) if tiny else (20, 26))]
    return items


# ---------------------------------------------------------------------------
# cli-small: the README commands on graphs of at most 11 vertices


def small_base(rng):
    """A base of at most 4 vertices with a vertex whose orbits are its distance classes."""
    choice = rng.choice(("star2", "star3", "cycle4", "path3"))
    if choice == "star2":
        b, base = 3, star(2)
    elif choice == "star3":
        b, base = 4, star(3)
    elif choice == "cycle4":
        b, base = 4, cycle(4)
    else:
        b, base = 3, path(3)
    v_c = rng.choice((0, 1)) if choice == "path3" else rng.randrange(b)  # end or middle
    dist = distances(b, base, v_c)
    parts = sorted([x for x in range(b) if dist[x] == d] for d in range(max(dist) + 1))
    return b, base, v_c, parts


def cli_small_round(inp: Inputs, rng: random.Random, tiny: bool) -> list[Item]:
    name = rng.choice(FIXTURES)
    items = [
        Item("example", ["example", name, "--json"], 0, {"check": "example"}),
        Item("example-list", ["example", "--list"], 0, {"check": "lines", "lines": len(FIXTURES)}),
    ]
    ctrl = None
    while ctrl is None:
        b, base, v_c, parts = small_base(rng)
        r = rng.randint(1, 3)
        h_edges = random_h(rng, r)
        n, edges, pair = glue_a(rng, b, base, v_c, parts, r, h_edges)
        ctrl = control_pair(rng, n, edges)
    f = inp.add_file(edge_text(n, edges))
    items += [
        Item("verify", ["verify", f, "--pair", f"{pair[0]},{pair[1]}"], n,
             verdict("adjacency", f, pair, True)),
        Item("verify-control", ["verify", f, "--pair", f"{ctrl[0]},{ctrl[1]}"], n,
             verdict("adjacency", f, ctrl, False), positive=False),
    ]
    g = inp.add_file(edge_text(b, base))
    h = inp.add_file(edge_text(r, h_edges))
    items.append(Item("construct-a", ["construct", "a", "--g", g, "--fixed", str(v_c), "--h", h,
                                      "--attach", json.dumps(attachments(b, edges))], n,
                      {"check": "graph", "edge_list": edge_text(n, edges), "pair": list(pair),
                       "matrix": "adjacency", "cospectral": True}))
    prov = inp.add_file(provenance(b, r, pair, v_c, parts), "json")
    items.append(Item("induced", ["induced", f, "--provenance", prov], n,
                      {"check": "induced", "matrix": "adjacency", "file": f, "pair": list(pair),
                       "cospectral": True}))
    if any(len(p) > 1 for p in parts):
        items.append(connect_item(rng, b, n, edges, pair, parts, f, prov, []))
    else:  # keep the round length fixed
        items.append(Item("example-list", ["example", "--list"], 0, {"check": "lines", "lines": len(FIXTURES)}))
    items.append(random_item(rng, "a", 4, 3))
    items.append(Item("orbits", ["orbits", g, "--fixed", str(v_c)], b, {"check": "orbits", "orbits": parts}))
    return items


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    why: str
    make_round: object
    round_s: float  # rough round length today; sizes the input pool and traced runs
    subprocess: bool = False
    traced_round_s: float = 0.0  # when traced rounds run in-process unlike the timed ones
    probe: object = None  # makes the untimed defect probe of a traced run


WORKLOADS = {
    "verify-adj": Workload(
        "exact char polys and squarefree splits plus the Jacobi advisory path do the work at "
        "orders 24 and 32; the traced run sizes the Laplacian crash at orders 20-32 apart",
        verify_adj_round, 2.4, probe=laplacian_probe),
    "construct-orbits": Workload(
        "orbit search, construction, validation and exact claim checks; no char poly and "
        "no floating point", construct_orbits_round, 0.6),
    "cli-small": Workload(
        "one process per README command on <= 11 vertices: interpreter start, import numpy "
        "and argparse dominate; kernel gains should show nothing", cli_small_round, 2.1,
        subprocess=True, traced_round_s=0.2),
}


PASSES = 10  # passes over the pool of rounds that fill a run at today's speed


def build(workload: str, seed: int, seconds: float, tiny: bool = False) -> Inputs:
    """Every input of one run: a small warm-up round, then a pool of rounds
    that the run passes over about PASSES times."""
    spec = WORKLOADS[workload]
    inp = Inputs(workload, seed)
    count = 1 if tiny else max(2, round(seconds / (PASSES * spec.round_s)))
    inp.warmup = spec.make_round(inp, random.Random(f"{workload}/{seed}/warmup"), True)
    inp.rounds = [spec.make_round(inp, random.Random(f"{workload}/{seed}/{i}"), tiny)
                  for i in range(count)]
    if spec.probe:
        inp.probe = spec.probe(inp, seed, tiny)
    return inp


# ---------------------------------------------------------------------------
# known-answer gate and output checks


def _graph_of(inp: Inputs, expect: dict) -> tuple[int, list]:
    return parse_edge_text(inp.files[expect["file"]] if "file" in expect else expect["edge_list"])


def gate(inp: Inputs) -> int:
    """Confirm every known answer before timing; returns the number checked."""
    checked = 0
    for item in [*inp.warmup, *(i for rnd in inp.rounds for i in rnd), *inp.probe]:
        e = item.expect
        if "cospectral" in e:
            n, edges = _graph_of(inp, e)
            got = walk_cospectral(n, edges, *e["pair"], laplacian=e["matrix"] == "laplacian")
            if got != e["cospectral"]:
                raise GateError(f"{item.kind} {item.argv}: walk counts say cospectral={got}, "
                                f"expected {e['cospectral']}")
            checked += 1
        elif e["check"] == "reject":
            _gate_reject(inp, item)
            checked += 1
    return checked


def _gate_reject(inp: Inputs, item: Item) -> None:
    """A reject item must break the construction rule under every partition."""
    args = dict(zip(item.argv[2::2], item.argv[3::2]))
    b, base = parse_edge_text(inp.files[args["--g"]])
    if "--attach" in args:
        totals: dict[int, list[int]] = {}
        for side, _, hv in json.loads(args["--attach"]):
            totals.setdefault(hv, [0, 0])[side - 1] += 1
        if all(c1 == c2 for c1, c2 in totals.values()):
            raise GateError(f"{item.argv}: attachments are balanced, so not surely rejected")
    else:
        dist = distances(b, base, int(args["--fixed"]))
        if all(dist[x] == dist[y] for x, y in json.loads(args["--cross"])):
            raise GateError(f"{item.argv}: every cross edge stays within a distance class")


def check(inp: Inputs, item: Item, code: int, out: str, err: str) -> tuple[str, str]:
    """Judge one finished item: ("decided" | "failed" | "wrong", detail)."""
    e = item.expect
    kind = e["check"]
    if kind == "reject":
        if code != 2:
            return "wrong", f"invalid input accepted (exit {code})"
        if e["message"] in err:
            return "decided", "rejected"
    if code == 2:
        return "failed", "exit 2: " + (err.strip().splitlines() or [""])[-1]
    if kind == "verdict":
        line = next((ln for ln in out.splitlines() if ln.startswith(f"{e['matrix']} cospectral: ")), None)
        if line is None:
            return "wrong", "no verdict line"
        said = line.split(": ", 1)[1] == "True"
        strict = "--strong" not in item.argv  # without --strong the exit code is the verdict
        if said != e["cospectral"] or (code == 0 and not said) or (strict and code != int(not said)):
            return "wrong", f"said cospectral={said}, exit {code}, known {e['cospectral']}"
        strong = next((ln.split(": ", 1)[1] for ln in out.splitlines()
                       if ln.startswith("strong cospectrality: ")), None)
        return "decided", f"strong={strong}" if strong else "verdict"
    if kind == "induced":
        line = next((ln for ln in out.splitlines() if ln.startswith("verdict: ")), None)
        if code not in (0, 1) or line is None:
            return "wrong", f"exit {code} without a verdict"
        return "decided", line.split(": ", 1)[1]
    if code != 0:
        return "wrong", f"exit {code}"
    if kind == "graph":
        text = json.loads(out)["edge_list"] if out.startswith("{") else out
        if parse_edge_text(text) != parse_edge_text(e["edge_list"]):
            return "wrong", "constructed graph differs from the expected one"
        if out.startswith("{") and json.loads(out)["pair"] != e["pair"]:
            return "wrong", "certified pair differs from the expected one"
        return "decided", "graph"
    if kind in ("random", "example"):
        doc = json.loads(out)
        n, edges = parse_edge_text(doc["edge_list"])
        lap = e.get("matrix") == "laplacian"
        if not walk_cospectral(n, edges, *doc["pair"], laplacian=lap):
            return "wrong", f"printed pair {doc['pair']} is not cospectral"
        return "decided", "pair"
    if kind == "orbits":
        got = sorted(sorted(int(x) for x in ln.split()) for ln in out.splitlines() if ln.strip())
        if got != sorted(e["orbits"]):
            return "wrong", f"orbits {got} differ from the known {e['orbits']}"
        return "decided", "orbits"
    if kind == "lines":
        if len(out.splitlines()) != e["lines"]:
            return "wrong", f"{len(out.splitlines())} lines, expected {e['lines']}"
        return "decided", "lines"
    raise ValueError(f"unknown check {kind!r}")
