"""One digest over the exact output of the whole pipeline.

The digest covers, for the 8 fixtures and ``random_instance`` seeds 0-199
of both kinds:

* ``verify --matrix both --json`` (exit code and stdout) on the certified
  pair and on (0, n - 1); the JSON report holds exact fields only, so the
  bytes do not depend on the machine or its BLAS;
* the characteristic polynomials of A and L.

A second digest covers the exact fields of the numeric commands on the
same graphs: the exit code, verdict and sign pattern of
``verify --matrix both|l --strong --json`` on both pairs, and, on every
pure adjacency construction, the exit code, verdicts and per-eigenvalue
``multiplicity_in_big`` and ``simple`` of ``induced --json``.  The LAPACK
floats (eigenvalues, base coefficients) are left out, as they may differ
in the last bits between machines.

A third digest covers ``reduce-multiplicity --json`` on every repeated
adjacency eigenvalue of the same graphs, named by ``--eigenvalue=<repr>``:
the exit code, the old and new multiplicity, ``certified`` and
``strict_interlacing``.  The attach vertex and the LAPACK floats are left
out for the same reason.

A kernel change that alters any certificate integer, verdict or byte of
the report changes the digest.  Regenerate the digest only for a change
that is meant to alter output, and say so where the change is recorded.
"""

import hashlib
import json

from cospectra import (
    FIXTURE_NAMES,
    adjacency_matrix,
    char_poly,
    eigendecompose_symmetric,
    format_edge_list,
    laplacian_matrix,
    load_fixture,
    random_instance,
)
from cospectra.cli import main
from cospectra.construct import A_KIND, L_KIND

GOLDEN_SHA256 = "24951c69664cce588a1d4652014784c1381d6d6ef002be197faa0ddaeabdf3e0"
STRONG_INDUCED_SHA256 = "817a3b96da55a0adccca5ced61fcd9647e9949dd3a189b568e80b96486d6248d"
REDUCE_SHA256 = "e5fc0e6ead4cb5bc177e7b6cc407b599c06760b0ac2ff555bd35028c0db25fb5"


def _graphs():
    """(name, graph, pair, construction or None) of every covered graph."""
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        yield name, fx.graph, fx.pair, fx.constructed
    for kind in (A_KIND, L_KIND):
        for seed in range(200):
            cg = random_instance(seed, kind=kind)
            yield f"{kind}{seed}", cg.graph, cg.pair, cg


def test_verify_reports_and_char_polys_match_the_golden_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "g.txt"
    for name, g, pair, _ in _graphs():
        path.write_text(format_edge_list(g))
        for u, v in (pair, (0, g.n - 1)):
            code = main(["verify", str(path), "--pair", f"{u},{v}", "--matrix", "both", "--json"])
            out = capsys.readouterr().out
            digest.update(f"{name} {u},{v} exit {code}\n{out}".encode())
        for matrix in (adjacency_matrix, laplacian_matrix):
            digest.update(f"{name} {matrix.__name__} {char_poly(matrix(g)).coeffs}\n".encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def _strong_fields(strong: dict) -> tuple:
    return strong["verdict"], [s["sign"] for s in strong["signs"]]


def test_strong_and_induced_verdicts_match_the_golden_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path, prov = tmp_path / "g.txt", tmp_path / "prov.json"
    for name, g, pair, cg in _graphs():
        path.write_text(format_edge_list(g))
        for u, v in (pair, (0, g.n - 1)):
            for matrix in ("both", "l"):
                argv = ["verify", str(path), "--pair", f"{u},{v}", "--matrix", matrix]
                code = main([*argv, "--strong", "--json"])
                fields = _strong_fields(json.loads(capsys.readouterr().out)["strong"])
                digest.update(f"{name} {u},{v} {matrix} exit {code} {fields}\n".encode())
        if cg is not None and cg.kind == A_KIND and not cg.cross_connected:
            prov.write_text(json.dumps(cg.to_json()))
            code = main(["induced", str(path), "--provenance", str(prov), "--json"])
            doc = json.loads(capsys.readouterr().out)
            induced = [(p["multiplicity_in_big"], p["simple"]) for p in doc["induced"]]
            direct = _strong_fields(doc["direct"])
            digest.update(f"{name} induced exit {code} {doc['verdict']} {induced} {direct}\n".encode())
    assert digest.hexdigest() == STRONG_INDUCED_SHA256


def test_multiplicity_reductions_match_the_golden_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "g.txt"
    runs = 0
    for name, g, _, _ in _graphs():
        path.write_text(format_edge_list(g))
        for cl in eigendecompose_symmetric(adjacency_matrix(g)).clusters:
            if cl.multiplicity < 2:
                continue
            argv = ["reduce-multiplicity", str(path), f"--eigenvalue={cl.value!r}", "--json"]
            code = main(argv)
            report = json.loads(capsys.readouterr().out)["report"]
            fields = [
                report[key]
                for key in ("old_multiplicity", "new_multiplicity", "certified", "strict_interlacing")
            ]
            digest.update(f"{name} {cl.multiplicity} exit {code} {fields}\n".encode())
            runs += 1
    assert runs == 304
    assert digest.hexdigest() == REDUCE_SHA256
