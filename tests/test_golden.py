"""One digest over the exact output of the whole pipeline.

The digest covers, for the 8 fixtures and ``random_instance`` seeds 0-199
of both kinds:

* ``verify --matrix both --json`` (exit code and stdout) on the certified
  pair and on (0, n - 1); the JSON report holds exact fields only, so the
  bytes do not depend on the machine or its BLAS;
* the characteristic polynomials of A and L.

A kernel change that alters any certificate integer, verdict or byte of
the report changes the digest.  Regenerate the digest only for a change
that is meant to alter output, and say so where the change is recorded.
"""

import hashlib

from cospectra import (
    FIXTURE_NAMES,
    adjacency_matrix,
    char_poly,
    format_edge_list,
    laplacian_matrix,
    load_fixture,
    random_instance,
)
from cospectra.cli import main
from cospectra.construct import A_KIND, L_KIND

GOLDEN_SHA256 = "24951c69664cce588a1d4652014784c1381d6d6ef002be197faa0ddaeabdf3e0"


def _graphs():
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        yield name, fx.graph, fx.pair
    for kind in (A_KIND, L_KIND):
        for seed in range(200):
            cg = random_instance(seed, kind=kind)
            yield f"{kind}{seed}", cg.graph, cg.pair


def test_verify_reports_and_char_polys_match_the_golden_digest(tmp_path, capsys):
    digest = hashlib.sha256()
    path = tmp_path / "g.txt"
    for name, g, pair in _graphs():
        path.write_text(format_edge_list(g))
        for u, v in (pair, (0, g.n - 1)):
            code = main(["verify", str(path), "--pair", f"{u},{v}", "--matrix", "both", "--json"])
            out = capsys.readouterr().out
            digest.update(f"{name} {u},{v} exit {code}\n{out}".encode())
        for matrix in (adjacency_matrix, laplacian_matrix):
            digest.update(f"{name} {matrix.__name__} {char_poly(matrix(g)).coeffs}\n".encode())
    assert digest.hexdigest() == GOLDEN_SHA256
