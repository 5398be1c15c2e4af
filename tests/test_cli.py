import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cospectra
from cospectra import (
    FIXTURE_NAMES,
    AttachmentEdge,
    Graph,
    adjacency_matrix,
    build_a_cospectral,
    char_poly,
    eigendecompose_symmetric,
    format_edge_list,
    laplacian_matrix,
    load_fixture,
    parse_edge_list,
    random_instance,
)
from cospectra.cli import EIGENVALUE_MATCH, EXIT_FAILS, EXIT_HOLDS, EXIT_INPUT, main
from cospectra.verify import PYTHON_INT_MAX_ORDER

P3 = "3 2\n0 1\n1 2\n"
C4 = "4 4\n0 1\n1 2\n2 3\n0 3\n"
STAR3 = "3 2\n0 1\n0 2\n"


@pytest.fixture
def star_file(tmp_path):
    p = tmp_path / "star.txt"
    p.write_text(STAR3)
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# verify


def test_verify_holds_exit_0(tmp_path, capsys):
    g = write(tmp_path, "c4.txt", C4)
    assert main(["verify", g, "--pair", "0,2"]) == EXIT_HOLDS
    out = capsys.readouterr().out
    assert "cospectral" in out


def test_verify_fails_exit_1(tmp_path, capsys):
    g = write(tmp_path, "p3.txt", P3)
    assert main(["verify", g, "--pair", "0,1"]) == EXIT_FAILS


def test_verify_bad_pair_exit_2(tmp_path, capsys):
    g = write(tmp_path, "p3.txt", P3)
    assert main(["verify", g, "--pair", "0,9"]) == EXIT_INPUT
    assert main(["verify", g, "--pair", "zebra"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err


# int() reads "1_0" as 10, and " 1", "+1" and non-ASCII digits as numbers
NOT_DECIMAL = ["1_0", " 1", "+1", "\u0661", "0x1", ""]


def test_verify_pair_takes_decimal_integers_alone(tmp_path, capsys):
    """``--pair 1_0,0_1`` used to verify the pair (10, 1)."""
    g = _cycle(tmp_path, 12)
    for value in [f"{x},1" for x in NOT_DECIMAL] + ["1_0,0_1", "0,1,2"]:
        assert main(["verify", g, "--pair", value]) == EXIT_INPUT
        assert repr(value) in capsys.readouterr().err
    assert main(["verify", g, "--pair=-1,2"]) == EXIT_INPUT  # read, and out of range
    assert "out of range" in capsys.readouterr().err
    assert main(["verify", g, "--pair", "10,1"]) == EXIT_HOLDS


@pytest.mark.parametrize("value", NOT_DECIMAL)
@pytest.mark.parametrize("command", ["orbits", "construct-a", "construct-l"])
def test_fixed_takes_decimal_integers_alone(tmp_path, capsys, command, value):
    """``orbits g12.txt --fixed 1_0`` used to fix vertex 10."""
    g = _cycle(tmp_path, 12)
    h = write(tmp_path, "h.txt", "1 0\n")
    argv = {
        "orbits": ["orbits", g],
        "construct-a": ["construct", "a", "--g", g, "--h", h, "--attach", "[[1,1,0],[2,1,0]]"],
        "construct-l": ["construct", "l", "--g", g, "--cross", "[]"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--fixed", value])
    assert exc.value.code == EXIT_INPUT
    assert f"argument --fixed: expected a decimal integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", NOT_DECIMAL)
def test_orbit_takes_decimal_integers_alone(tmp_path, capsys, value):
    built, prov = _build_for_modify(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["modify", "connect-orbits", built, "--provenance", prov, "--orbit", value])
    assert exc.value.code == EXIT_INPUT
    assert f"argument --orbit: expected a decimal integer, got {value!r}" in capsys.readouterr().err


def test_verify_missing_file_exit_2(tmp_path):
    assert main(["verify", str(tmp_path / "nope.txt"), "--pair", "0,1"]) == EXIT_INPUT


def test_verify_malformed_graph_exit_2(tmp_path, capsys):
    g = write(tmp_path, "bad.txt", "2 1\n0 0\n")
    assert main(["verify", g, "--pair", "0,1"]) == EXIT_INPUT
    assert "line" in capsys.readouterr().err


def test_verify_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(C4))
    assert main(["verify", "-", "--pair", "0,2"]) == EXIT_HOLDS


def test_verify_json_report(tmp_path, capsys):
    g = write(tmp_path, "c4.txt", C4)
    assert main(["verify", g, "--pair", "0,2", "--matrix", "both", "--json"]) == EXIT_HOLDS
    doc = json.loads(capsys.readouterr().out)
    assert doc["adjacency"]["cospectral"] is True
    assert doc["laplacian"]["cospectral"] is True


def test_verify_strong_flag(tmp_path):
    c4 = write(tmp_path, "c4.txt", C4)
    assert main(["verify", c4, "--pair", "0,2", "--strong"]) == EXIT_HOLDS
    assert main(["verify", c4, "--pair", "0,1", "--strong"]) == EXIT_FAILS


def test_verify_matrix_both_requires_both(tmp_path):
    # figure1's pair passes adjacency but not Laplacian
    fx = load_fixture("figure1")
    g = write(tmp_path, "f1.txt", format_edge_list(fx.graph))
    pair = f"{fx.pair[0]},{fx.pair[1]}"
    assert main(["verify", g, "--pair", pair, "--matrix", "a"]) == EXIT_HOLDS
    assert main(["verify", g, "--pair", pair, "--matrix", "l"]) == EXIT_FAILS
    assert main(["verify", g, "--pair", pair, "--matrix", "both"]) == EXIT_FAILS


def test_verify_prints_clustering_diagnostics(tmp_path, capsys, monkeypatch):
    from cospectra import ClusteringError

    diagnostics = {"expected_multiplicities": [1, 2], "assigned_counts": [2, 1]}

    def fail(*args, **kwargs):
        raise ClusteringError("clustering failure", diagnostics)

    monkeypatch.setattr("cospectra.verify.verify_a_cospectral", fail)
    g = write(tmp_path, "c4.txt", C4)
    assert main(["verify", g, "--pair", "0,2", "--matrix", "a"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == "error: clustering failure"
    assert json.loads(lines[1]) == diagnostics


def _failing_decomposition(*args, **kwargs):
    from cospectra import ClusteringError

    raise ClusteringError("clustering failure", {"assigned_counts": [4]})


@pytest.mark.parametrize("matrix", ["a", "l", "both"])
def test_verify_advisory_failure_follows_exact_verdict(tmp_path, capsys, monkeypatch, matrix):
    """Without --strong a failing numeric decomposition is never reached:
    the exit code is the exact verdict, never exit 2, and nothing reports
    a projector comparison or its failure."""
    monkeypatch.setattr("cospectra.verify.eigendecompose_symmetric", _failing_decomposition)
    c4 = write(tmp_path, "c4.txt", C4)
    p3 = write(tmp_path, "p3.txt", P3)
    assert main(["verify", c4, "--pair", "0,2", "--matrix", matrix, "--json"]) == EXIT_HOLDS
    doc = json.loads(capsys.readouterr().out)
    reports = [doc["adjacency"], doc["laplacian"]] if matrix == "both" else [doc]
    for report in reports:
        assert report["cospectral"] is True
        assert "projection_diagonal_equal" not in report["criteria"]
        assert "projection_error" not in report
    assert "strong" not in doc
    assert main(["verify", p3, "--pair", "0,1", "--matrix", matrix]) == EXIT_FAILS
    out = capsys.readouterr().out
    assert "projector" not in out and "strong" not in out


@pytest.mark.parametrize("matrix", ["a", "l", "both"])
def test_verify_strong_still_needs_the_decomposition(tmp_path, capsys, monkeypatch, matrix):
    monkeypatch.setattr("cospectra.verify.eigendecompose_symmetric", _failing_decomposition)
    c4 = write(tmp_path, "c4.txt", C4)
    assert main(["verify", c4, "--pair", "0,2", "--matrix", matrix, "--strong"]) == EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: clustering failure", '{"assigned_counts": [4]}']


def _count_decompositions(monkeypatch) -> list:
    import cospectra.spectral
    import cospectra.verify

    calls = []
    original = cospectra.spectral.eigendecompose_symmetric

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    for module in (cospectra.spectral, cospectra.verify):
        monkeypatch.setattr(module, "eigendecompose_symmetric", counted)
    return calls


@pytest.mark.parametrize("matrix", ["a", "both"])
def test_verify_strong_decomposes_adjacency_once(tmp_path, monkeypatch, matrix):
    calls = _count_decompositions(monkeypatch)
    c4 = write(tmp_path, "c4.txt", C4)
    assert main(["verify", c4, "--pair", "0,2", "--matrix", matrix, "--strong"]) == EXIT_HOLDS
    assert len(calls) == 1  # A alone: --matrix both classifies the adjacency pair


def test_induced_decomposes_each_graph_once(tmp_path, monkeypatch):
    import cospectra.construct

    fx = load_fixture("figure3")
    g = write(tmp_path, "f3.txt", format_edge_list(fx.graph))
    prov = write(tmp_path, "prov.json", json.dumps(fx.constructed.to_json()))
    calls = _count_decompositions(monkeypatch)
    claims = []
    _patch_everywhere(monkeypatch, cospectra.construct, "check_a_claims", claims.append)
    assert main(["induced", g, "--provenance", prov]) == EXIT_HOLDS
    assert calls == [fx.graph.n]  # the constructed graph alone: no base decomposition
    assert len(claims) == 1  # the one exact check the reading rests on


def _count_lanczos_runs(monkeypatch) -> list:
    """Record the matrix shape of every modular Lanczos run."""
    import cospectra.exact

    calls = []
    original = cospectra.exact._lanczos_char_poly_mod

    def counted(m, primes):
        calls.append(m.shape)
        return original(m, primes)

    monkeypatch.setattr(cospectra.exact, "_lanczos_char_poly_mod", counted)
    return calls


def _cycle(tmp_path, n: int) -> str:
    text = format_edge_list(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
    return write(tmp_path, f"c{n}.txt", text)


def _cycles(tmp_path) -> list:
    """(file, order) of C4 and of the shortest even cycle longer than the
    Python-int path takes, whose pairs (0, n/2) are strongly cospectral for A
    and L."""
    return [(_cycle(tmp_path, n), n) for n in (4, 2 * (PYTHON_INT_MAX_ORDER // 2 + 1))]


def _count_python_walks(monkeypatch) -> list:
    """Record (laplacian, starts) of every Python-int walk pass."""
    walks = []
    _patch_everywhere(
        monkeypatch,
        cospectra.graph,
        "walk_diagonals",
        lambda g, starts, count, laplacian=False: walks.append((laplacian, tuple(starts))),
    )
    return walks


@pytest.mark.parametrize("flags", [[], ["--strong"], ["--json"]])
def test_verify_adjacency_runs_one_char_poly_sweep(tmp_path, monkeypatch, flags):
    """The two deleted-vertex char polys and the one the decomposition needs
    come from a single modular Lanczos run above the Python-int order, and
    from one walk pass from every vertex, with no Lanczos run, up to it."""
    calls = _count_lanczos_runs(monkeypatch)
    walks = _count_python_walks(monkeypatch)
    (c4, _), (big, n) = _cycles(tmp_path)
    assert main(["verify", c4, "--pair", "0,2", "--matrix", "a", *flags]) == EXIT_HOLDS
    assert (calls, walks) == ([], [(False, (0, 1, 2, 3))])
    walks.clear()
    assert main(["verify", big, "--pair", f"0,{n // 2}", "--matrix", "a", *flags]) == EXIT_HOLDS
    assert (calls, walks) == ([(n, n)], [])


@pytest.mark.parametrize("flags", [[], ["--strong"], ["--json"]])
def test_verify_both_matrices_run_one_char_poly_sweep(tmp_path, monkeypatch, flags):
    """The char polys of G-u, G-v and A come from a single modular Lanczos
    run above the Python-int order, and from the one adjacency walk pass up
    to it; the Laplacian walk needs no char poly."""
    calls = _count_lanczos_runs(monkeypatch)
    walks = _count_python_walks(monkeypatch)
    (c4, _), (big, n) = _cycles(tmp_path)
    assert main(["verify", c4, "--pair", "0,2", "--matrix", "both", *flags]) == EXIT_HOLDS
    assert (calls, walks) == ([], [(False, (0, 1, 2, 3)), (True, (0, 2))])
    walks.clear()
    assert main(["verify", big, "--pair", f"0,{n // 2}", "--matrix", "both", *flags]) == EXIT_HOLDS
    assert (calls, walks) == ([(n, n)], [])


def test_induced_runs_one_char_poly_sweep(tmp_path, monkeypatch):
    """One char poly, of the constructed graph at its order n, in one Lanczos
    run; the base graph needs none."""
    fx = load_fixture("figure3")
    g = write(tmp_path, "f3.txt", format_edge_list(fx.graph))
    prov = write(tmp_path, "prov.json", json.dumps(fx.constructed.to_json()))
    runs = _count_lanczos_runs(monkeypatch)
    swept = _char_poly_matrices(monkeypatch)
    assert main(["induced", g, "--provenance", prov]) == EXIT_HOLDS
    assert swept == [_key(adjacency_matrix(fx.graph))]
    assert runs == [(fx.graph.n, fx.graph.n)]


def _patch_everywhere(monkeypatch, module, name: str, record) -> None:
    """Replace ``module.<name>`` wherever a cospectra module imported it by
    a wrapper that calls ``record`` with the arguments first."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cospectra"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)


def _key(m) -> tuple:
    return tuple(map(tuple, m))


def _char_poly_matrices(monkeypatch) -> list:
    """Record the matrix of every ``char_poly`` call."""
    import cospectra.exact

    swept = []
    _patch_everywhere(monkeypatch, cospectra.exact, "char_poly", lambda m: swept.append(_key(m)))
    return swept


def _count_walks(monkeypatch) -> list:
    """Count the exact walks (``power_diagonals``, which every walk criterion
    runs); returns the walked matrices."""
    import cospectra.exact

    walks = []
    _patch_everywhere(
        monkeypatch, cospectra.exact, "power_diagonals", lambda m, u, v: walks.append(_key(m))
    )
    return walks


def _construction_files(tmp_path, cg) -> dict:
    return {
        "G": write(tmp_path, f"g{cg.graph.n}.txt", format_edge_list(cg.graph)),
        "P": f"{cg.pair[0]},{cg.pair[1]}",
        "PROV": write(tmp_path, f"prov{cg.graph.n}.json", json.dumps(cg.to_json())),
    }


def _figure3_files(tmp_path) -> dict:
    return _construction_files(tmp_path, load_fixture("figure3").constructed)


def _glued_stars(leaves: int):
    """figure3's construction on two stars of ``leaves`` leaves (figure3 has
    3): side 1 joins leaf i to glue vertex i and side 2 joins the last leaf to
    every glue vertex, on 3 * leaves + 2 vertices.  The pair is A-cospectral,
    strongly, and not L-cospectral."""
    star = Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    attach = [AttachmentEdge(1, i + 1, i) for i in range(leaves)]
    attach += [AttachmentEdge(2, leaves, i) for i in range(leaves)]
    return build_a_cospectral(star, 0, Graph(leaves, []), attach)


def _both_paths_files(tmp_path) -> list:
    """The files of figure3 (order 11, verified in Python ints) and of the
    same construction on 4-leaf stars (order 14, verified by the numpy
    kernels), with each graph."""
    out = []
    for cg in (load_fixture("figure3").constructed, _glued_stars(4)):
        out.append((_construction_files(tmp_path, cg), cg.graph))
    assert [g.n <= PYTHON_INT_MAX_ORDER for _, g in out] == [True, False]
    return out


@pytest.mark.parametrize(
    "argv, matrices",
    [
        (["verify", "G", "--pair", "P", "--matrix", "a", "--strong"], 1),
        (["verify", "G", "--pair", "P", "--matrix", "l", "--strong"], 1),
        (["verify", "G", "--pair", "P", "--matrix", "both", "--strong"], 2),
        # the claims checked make the pair cospectral: no walk is needed
        (["induced", "G", "--provenance", "PROV"], 0),
    ],
    ids=["a", "l", "both", "induced"],
)
def test_each_command_walks_each_matrix_at_most_once(tmp_path, monkeypatch, argv, matrices):
    """In Python ints up to their order, by ``power_diagonals`` above it."""
    paths = _both_paths_files(tmp_path)
    numpy_walks = _count_walks(monkeypatch)
    python_walks = _count_python_walks(monkeypatch)
    for (files, _), walks in zip(paths, (python_walks, numpy_walks)):
        main([files.get(a, a) for a in argv])
        assert len(walks) == len(set(walks)) == matrices
        assert len(python_walks) + len(numpy_walks) == matrices
        walks.clear()


@pytest.mark.parametrize("flags", [[], ["--strong"], ["--json"]])
@pytest.mark.parametrize("matrix", ["a", "both"])
def test_verify_computes_char_polys_of_the_matrices_alone(tmp_path, monkeypatch, matrix, flags):
    """The deleted-vertex char polys come from the walk, and neither G-u nor
    G-v is built.  Above the Python-int order one char_poly call takes A
    alone, also for both; up to it Newton's identities give that of A, from
    one list of traces, and char_poly runs on nothing."""
    import cospectra.exact

    paths = _both_paths_files(tmp_path)
    deleted, newton = [], []
    swept = _char_poly_matrices(monkeypatch)
    _patch_everywhere(monkeypatch, cospectra.graph, "delete_vertex", lambda *a: deleted.append(a))
    _patch_everywhere(
        monkeypatch, cospectra.exact, "char_poly_from_traces", lambda t: newton.append(len(t))
    )
    expected = EXIT_HOLDS if matrix == "a" else EXIT_FAILS  # the pairs are not L-cospectral
    for files, g in paths:
        swept.clear()
        newton.clear()
        assert main(["verify", files["G"], "--pair", files["P"], "--matrix", matrix, *flags]) == expected
        if g.n <= PYTHON_INT_MAX_ORDER:
            assert (swept, newton) == ([], [g.n + 1])
        else:
            assert (swept, newton) == ([_key(adjacency_matrix(g))], [])
    assert deleted == []


def test_verify_laplacian_strong_computes_the_char_poly_of_l_alone(tmp_path, monkeypatch):
    """--matrix l needs a char poly only to decompose L under --strong."""
    swept = _char_poly_matrices(monkeypatch)
    argv = ["verify", write(tmp_path, "c4.txt", C4), "--pair", "0,2", "--matrix", "l"]
    assert main(argv) == EXIT_HOLDS
    assert swept == []
    assert main([*argv, "--strong"]) == EXIT_HOLDS
    assert swept == [_key(laplacian_matrix(parse_edge_list(C4)))]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "G", "--pair", "P", "--matrix", "a", "--strong"],
        ["verify", "G", "--pair", "P", "--matrix", "a", "--strong", "--json"],
        ["induced", "G", "--provenance", "PROV"],
    ],
    ids=["verify", "verify-json", "induced"],
)
def test_no_projector_of_the_verified_or_constructed_matrix_is_formed(tmp_path, argv):
    """The criteria and the induced eigenpairs read rows of the eigenvector
    matrix; a cluster offers no projector to form."""
    from cospectra.spectral import EigenCluster

    assert not hasattr(EigenCluster, "projector")
    files = _figure3_files(tmp_path)
    assert main([files.get(a, a) for a in argv]) == EXIT_HOLDS


@pytest.mark.parametrize(
    "argv, matrices, decomposed",
    [
        (["verify", "G", "--pair", "P", "--matrix", "a", "--strong"], ["A"], ["A"]),
        # the pairs are not L-cospectral: nothing is decomposed
        (["verify", "G", "--pair", "P", "--matrix", "l", "--strong"], ["L"], []),
        (["verify", "G", "--pair", "P", "--matrix", "both", "--strong", "--json"], ["A", "L"],
         ["A"]),
        (["induced", "G", "--provenance", "PROV"], ["A"], ["A"]),
    ],
    ids=["a", "l", "both", "induced"],
)
def test_each_command_converts_each_matrix_once(tmp_path, monkeypatch, argv, matrices, decomposed):
    """One array per matrix: the char polys, the walk, the elimination
    check and the decomposition all read the array converted once.  Up to
    the Python-int order a report keeps its lists, so only a decomposition
    converts: ``decomposed`` there, ``matrices`` above it."""
    import cospectra.exact

    paths = _both_paths_files(tmp_path)
    converted = []
    _patch_everywhere(
        monkeypatch,
        cospectra.exact,
        "int_array",
        lambda m: None if hasattr(m, "dtype") else converted.append(_key(m)),
    )
    for (files, g), expected in zip(paths, (decomposed, matrices)):
        converted.clear()
        main([files.get(a, a) for a in argv])
        keys = {"A": _key(adjacency_matrix(g)), "L": _key(laplacian_matrix(g))}
        assert sorted(converted) == sorted(keys[m] for m in expected), g.n


def _verify_inputs():
    """(graph, pair) of the 8 fixtures and of random_instance seeds 0-49 of
    each kind."""
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        yield fx.graph, fx.pair
    for kind in ("A", "L"):
        for seed in range(50):
            cg = cospectra.random_instance(seed, kind=kind)
            yield cg.graph, cg.pair


def _failing_eigh(*args, **kwargs):
    import numpy

    raise numpy.linalg.LinAlgError("eigh is off")


def test_verify_without_strong_runs_no_floating_point(tmp_path, capsys, monkeypatch):
    """Without --strong, verify decomposes nothing, and it prints the same
    stdout and exit code when the decomposition and numpy.linalg.eigh
    raise."""
    import numpy

    calls = _count_decompositions(monkeypatch)
    runs = []
    for i, (graph, (u, v)) in enumerate(_verify_inputs()):
        g = write(tmp_path, f"g{i}.txt", format_edge_list(graph))
        for matrix in ("a", "l", "both"):
            for flags in ([], ["--json"]):
                argv = ["verify", g, "--pair", f"{u},{v}", "--matrix", matrix, *flags]
                runs.append((argv, main(argv), capsys.readouterr().out))
    assert calls == []
    assert {code for _, code, _ in runs} == {EXIT_HOLDS, EXIT_FAILS}
    for module in (cospectra.spectral, cospectra.verify):
        monkeypatch.setattr(module, "eigendecompose_symmetric", _failing_decomposition)
    monkeypatch.setattr(numpy.linalg, "eigh", _failing_eigh)
    for argv, code, out in runs:
        assert (main(argv), capsys.readouterr().out) == (code, out), argv


def test_verify_strong_decomposes_once_and_only_a_cospectral_pair(tmp_path, capsys, monkeypatch):
    """With --strong, verify decomposes the tested matrix (A for both) once
    when the pair is cospectral for it, and not at all otherwise."""
    calls = _count_decompositions(monkeypatch)
    seen = set()
    for i, (graph, (u, v)) in enumerate(_verify_inputs()):
        g = write(tmp_path, f"g{i}.txt", format_edge_list(graph))
        for matrix in ("a", "l", "both"):
            calls.clear()
            main(["verify", g, "--pair", f"{u},{v}", "--matrix", matrix, "--strong"])
            capsys.readouterr()
            check = cospectra.verify_l_cospectral if matrix == "l" else cospectra.verify_a_cospectral
            cospectral = check(graph, u, v).cospectral
            assert len(calls) == (1 if cospectral else 0), (i, matrix)
            seen.add(cospectral)
    assert seen == {True, False}


def test_verify_laplacian_strong_reports_the_laplacian_verdict(tmp_path, capsys):
    """The pair of this Laplacian construction is L-strongly cospectral but
    not adjacency-cospectral; --matrix l --strong reports the former."""
    cg = cospectra.random_instance(1, kind="L")
    g = write(tmp_path, "l1.txt", format_edge_list(cg.graph))
    assert cg.pair == (1, 4)
    assert main(["verify", g, "--pair", "1,4", "--matrix", "l", "--strong"]) == EXIT_HOLDS
    assert capsys.readouterr().out.splitlines()[-1] == "strong cospectrality: strong"


def test_verify_laplacian_strong_classifies_the_laplacian_decomposition(tmp_path, capsys):
    from cospectra.spectral import STRONG, eigendecompose_symmetric, strong_from_decomposition

    for seed in range(200):
        cg = cospectra.random_instance(seed, kind="L")
        u, v = cg.pair
        g = write(tmp_path, "l.txt", format_edge_list(cg.graph))
        code = main(["verify", g, "--pair", f"{u},{v}", "--matrix", "l", "--strong", "--json"])
        dec = eigendecompose_symmetric(laplacian_matrix(cg.graph))
        expected = strong_from_decomposition(dec, u, v).verdict
        assert json.loads(capsys.readouterr().out)["strong"]["verdict"] == expected, seed
        assert code == (EXIT_HOLDS if expected == STRONG else EXIT_FAILS), seed


def test_verify_both_labels_and_classifies_the_adjacency_pair_once(tmp_path, capsys, monkeypatch):
    import cospectra.verify

    calls = []
    original = cospectra.verify.strong_from_decomposition

    def counted(dec, u, v):
        calls.append(dec)
        return original(dec, u, v)

    monkeypatch.setattr(cospectra.verify, "strong_from_decomposition", counted)
    c4 = write(tmp_path, "c4.txt", C4)
    assert main(["verify", c4, "--pair", "0,2", "--matrix", "both", "--strong"]) == EXIT_HOLDS
    assert capsys.readouterr().out.splitlines()[-1] == "adjacency strong cospectrality: strong"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# construct


def test_construct_a_roundtrip(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    out = str(tmp_path / "built.txt")
    prov = str(tmp_path / "prov.json")
    code = main(
        [
            "construct", "a",
            "--g", g, "--fixed", "0", "--h", h,
            "--attach", "[[1,1,0],[2,1,0]]",
            "--out", out, "--provenance", prov,
        ]
    )
    assert code == EXIT_HOLDS
    built = parse_edge_list(open(out).read())
    assert built.n == 7
    doc = json.loads(open(prov).read())
    assert doc["kind"] == "A" and doc["pair"] == [0, 3]
    err = capsys.readouterr().err
    assert "certified" in err and "(0, 3)" in err


def test_construct_a_invalid_attachments_exit_2(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    code = main(
        ["construct", "a", "--g", g, "--fixed", "0", "--h", h, "--attach", "[[1,1,0]]"]
    )
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_construct_a_attach_from_file(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    att = write(tmp_path, "att.json", "[[1, 1, 0], [2, 1, 0]]")
    assert main(["construct", "a", "--g", g, "--fixed", "0", "--h", h, "--attach", att]) == EXIT_HOLDS
    assert capsys.readouterr().out.startswith("7 ")


def test_construct_l(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    assert main(["construct", "l", "--g", g, "--fixed", "0", "--cross", "[[1,2],[2,1]]"]) == EXIT_HOLDS
    out = capsys.readouterr().out
    assert out.startswith("6 ")


def test_construct_l_bad_orbit_exit_2(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    assert main(["construct", "l", "--g", g, "--fixed", "0", "--cross", "[[0,1]]"]) == EXIT_INPUT


def test_construct_dot_output(tmp_path):
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    dot = str(tmp_path / "built.dot")
    main(
        ["construct", "a", "--g", g, "--fixed", "0", "--h", h,
         "--attach", "[[1,1,0],[2,1,0]]", "--dot", dot]
    )
    text = open(dot).read()
    assert "cluster_g1" in text and "cluster_g2" in text and "cluster_h" in text


def test_construct_json_mode(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    main(
        ["construct", "a", "--g", g, "--fixed", "0", "--h", h,
         "--attach", "[[1,1,0],[2,1,0]]", "--json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert doc["edge_list"].startswith("7 ")
    assert doc["pair"] == [0, 3]
    assert doc["provenance"]["kind"] == "A"


def _assert_entry_refused(capsys, flag, entry):
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} entry {entry} is not a list of integers\n"


@pytest.mark.parametrize(
    "attach, entry",
    [
        ("[[1,1,0.9],[2,1,0]]", "[1, 1, 0.9]"),
        ("[[true,1,0],[2,1,0]]", "[true, 1, 0]"),
        ('[[1,"1",0],[2,1,0]]', '[1, "1", 0]'),
    ],
)
def test_construct_attach_takes_integer_entries_alone(tmp_path, capsys, attach, entry):
    """int() would read each of these as the valid [[1,1,0],[2,1,0]]."""
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    code = main(["construct", "a", "--g", g, "--fixed", "0", "--h", h, "--attach", attach])
    assert code == EXIT_INPUT
    _assert_entry_refused(capsys, "--attach", entry)


def test_construct_cross_takes_integer_entries_alone(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    code = main(["construct", "l", "--g", g, "--fixed", "0", "--cross", "[[1.7,2],[2,1]]"])
    assert code == EXIT_INPUT
    _assert_entry_refused(capsys, "--cross", "[1.7, 2]")


# ---------------------------------------------------------------------------
# modify connect-orbits


def _build_for_modify(tmp_path):
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    out = str(tmp_path / "built.txt")
    prov = str(tmp_path / "prov.json")
    main(
        ["construct", "a", "--g", g, "--fixed", "0", "--h", h,
         "--attach", "[[1,1,0],[2,1,0]]", "--out", out, "--provenance", prov]
    )
    return out, prov


def test_modify_connect_orbits_with_bijection(tmp_path, capsys):
    built, prov = _build_for_modify(tmp_path)
    orbit = 1  # the leaf orbit of the star fixed at its center
    out2 = str(tmp_path / "crossed.txt")
    prov2 = str(tmp_path / "prov2.json")
    code = main(
        ["modify", "connect-orbits", built, "--provenance", prov,
         "--orbit", str(orbit), "--bijection", "[[1,4],[2,5]]",
         "--out", out2, "--provenance-out", prov2]
    )
    assert code == EXIT_HOLDS
    crossed = parse_edge_list(open(out2).read())
    assert crossed.has_edge(1, 4) and crossed.has_edge(2, 5)
    assert json.loads(open(prov2).read())["cross_connected"] is True
    # the new graph still verifies, and its provenance passes the checks
    assert main(["verify", out2, "--pair", "0,3"]) == EXIT_HOLDS
    code = main(["modify", "connect-orbits", out2, "--provenance", prov2,
                 "--orbit", "0", "--bijection", "[[0,3]]"])
    assert code == EXIT_HOLDS


def test_modify_connect_orbits_seeded_matching(tmp_path):
    built, prov = _build_for_modify(tmp_path)
    out_a = str(tmp_path / "a.txt")
    out_b = str(tmp_path / "b.txt")
    for out in (out_a, out_b):
        code = main(
            ["modify", "connect-orbits", built, "--provenance", prov,
             "--orbit", "1", "--seed", "7", "--out", out]
        )
        assert code == EXIT_HOLDS
    assert open(out_a).read() == open(out_b).read()


def test_modify_rejects_bad_bijection(tmp_path, capsys):
    built, prov = _build_for_modify(tmp_path)
    code = main(
        ["modify", "connect-orbits", built, "--provenance", prov,
         "--orbit", "1", "--bijection", "[[1,4],[1,5]]"]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "bijection, entry", [("[[1,4],[2.0,5]]", "[2.0, 5]"), ("[[true,4],[2,5]]", "[true, 4]")]
)
def test_modify_bijection_takes_integer_entries_alone(tmp_path, capsys, bijection, entry):
    """int() would read each of these as the valid [[1,4],[2,5]]."""
    built, prov = _build_for_modify(tmp_path)
    capsys.readouterr()
    code = main(["modify", "connect-orbits", built, "--provenance", prov,
                 "--orbit", "1", "--bijection", bijection])
    assert code == EXIT_INPUT
    _assert_entry_refused(capsys, "--bijection", entry)


@pytest.mark.parametrize(
    "flag, value, err",
    [
        ("--attach", "{}", "--attach must be a JSON array of rows"),
        ("--cross", "{}", "--cross must be a JSON array of rows"),
        ("--bijection", "{}", "--bijection must be a JSON array of rows"),
        ("--attach", "[[1,0,0,5]]", "--attach entry [1, 0, 0, 5] has 4 integers, not 3"),
        ("--cross", "[[1,2,3]]", "--cross entry [1, 2, 3] has 3 integers, not 2"),
        ("--bijection", "[[1,4,5]]", "--bijection entry [1, 4, 5] has 3 integers, not 2"),
    ],
)
def test_json_rows_of_the_wrong_shape_are_refused(tmp_path, capsys, flag, value, err):
    """An object would read as no rows, and a row of the wrong length would
    fail to unpack with Python's own message."""
    g = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    argv = {
        "--attach": ["construct", "a", "--g", g, "--fixed", "0", "--h", h],
        "--cross": ["construct", "l", "--g", g, "--fixed", "0"],
    }.get(flag)
    if argv is None:
        built, prov = _build_for_modify(tmp_path)
        capsys.readouterr()
        argv = ["modify", "connect-orbits", built, "--provenance", prov, "--orbit", "1"]
    assert main([*argv, flag, value]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("orbit", ["2", "-1"])
def test_modify_seeded_matching_rejects_orbit_out_of_range(tmp_path, capsys, orbit):
    built, prov = _build_for_modify(tmp_path)
    code = main(["modify", "connect-orbits", built, "--provenance", prov, "--orbit", orbit])
    assert code == EXIT_INPUT
    assert "out of range" in capsys.readouterr().err


def test_modify_rejects_tampered_provenance(tmp_path):
    built, prov = _build_for_modify(tmp_path)
    doc = json.loads(open(prov).read())
    doc["pair"] = [0, 1]  # not the second-copy image any more
    bad = write(tmp_path, "bad.json", json.dumps(doc))
    code = main(
        ["modify", "connect-orbits", built, "--provenance", bad,
         "--orbit", "1", "--bijection", "[[1,4],[2,5]]"]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["induced", "modify"])
@pytest.mark.parametrize(
    "fixed, pair", [(True, [1, 4]), (True, [True, 4]), (1, [True, 4])], ids=["fixed", "both", "pair"]
)
def test_provenance_rejects_bool_vertex_ids(tmp_path, capsys, command, fixed, pair):
    """JSON true equals 1 but is no vertex id: it would reach numpy as a mask
    (induced) or be written back as true (modify)."""
    p3 = write(tmp_path, "p3.txt", P3)
    h = write(tmp_path, "h.txt", "1 0\n")
    built, prov = str(tmp_path / "built.txt"), str(tmp_path / "prov.json")
    assert main(["construct", "a", "--g", p3, "--fixed", "1", "--h", h,
                 "--attach", "[[1,1,0],[2,1,0]]", "--out", built, "--provenance", prov]) == EXIT_HOLDS
    doc = json.loads(open(prov).read())
    assert (doc["orbits"]["fixed"], doc["pair"]) == (1, [1, 4])
    doc["orbits"]["fixed"], doc["pair"] = fixed, pair
    bad = write(tmp_path, "bad.json", json.dumps(doc))
    capsys.readouterr()
    argv = ["induced", built, "--provenance", bad]
    if command == "modify":
        argv = ["modify", "connect-orbits", built, "--provenance", bad, "--orbit", "0", "--json"]
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: provenance ")


@pytest.mark.parametrize("command", ["induced", "modify"])
@pytest.mark.parametrize("cross", ["false", "true", 0, 1, None])
def test_provenance_rejects_a_non_boolean_cross_connected(tmp_path, capsys, command, cross):
    """cross_connected is a JSON boolean: the string "false" is no false, and
    read as true it made induced refuse a pure construction."""
    p3 = write(tmp_path, "p3.txt", P3)
    h = write(tmp_path, "h.txt", "1 0\n")
    built, prov = str(tmp_path / "built.txt"), str(tmp_path / "prov.json")
    assert main(["construct", "a", "--g", p3, "--fixed", "1", "--h", h,
                 "--attach", "[[1,1,0],[2,1,0]]", "--out", built, "--provenance", prov]) == EXIT_HOLDS
    doc = json.loads(open(prov).read())
    assert doc["cross_connected"] is False
    argv = ["induced", built, "--provenance", prov]
    if command == "modify":
        argv = ["modify", "connect-orbits", built, "--provenance", prov, "--orbit", "0", "--json"]
    capsys.readouterr()
    assert main(argv) != EXIT_INPUT
    assert "error" not in capsys.readouterr().err
    doc["cross_connected"] = cross
    argv[argv.index(prov)] = write(tmp_path, "bad.json", json.dumps(doc))
    assert main(argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: provenance cross_connected must be true or false\n"


def test_modify_checks_the_claims_before_reporting_the_pair_preserved(
    tmp_path, capsys, monkeypatch
):
    from cospectra.construct import ClaimViolation

    violation = ClaimViolation("orbit-constancy", 1, "power 1: orbit 1 takes values [0, 1]")
    monkeypatch.setattr("cospectra.construct.check_a_claims", lambda cg: violation)
    built, prov = _build_for_modify(tmp_path)
    capsys.readouterr()
    code = main(["modify", "connect-orbits", built, "--provenance", prov,
                 "--orbit", "1", "--bijection", "[[1,4],[2,5]]"])
    assert code == EXIT_FAILS
    out, err = capsys.readouterr()
    assert out == ""
    assert "not preserved" in err and "orbit-constancy" in err and "preserved\n" not in err


def _build_p4(tmp_path):
    p4 = write(tmp_path, "p4.txt", "4 3\n0 1\n1 2\n2 3\n")
    h = write(tmp_path, "h.txt", "1 0\n")
    built = str(tmp_path / "built.txt")
    prov = str(tmp_path / "prov.json")
    assert main(["construct", "a", "--g", p4, "--fixed", "0", "--h", h,
                 "--attach", "[[1,1,0],[2,1,0]]", "--out", built,
                 "--provenance", prov]) == EXIT_HOLDS
    return built, prov


def _provenance_error(tmp_path, capsys, edit) -> str:
    """The stderr of ``induced`` on P4's construction, its provenance
    document replaced by ``edit`` of it."""
    built, prov = _build_p4(tmp_path)
    bad = write(tmp_path, "bad.json", json.dumps(edit(json.loads(open(prov).read()))))
    capsys.readouterr()
    assert main(["induced", built, "--provenance", bad]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_a_provenance_list_is_malformed(tmp_path, capsys):
    err = _provenance_error(tmp_path, capsys, lambda doc: [doc])
    assert err == "error: provenance document is malformed: the document is not an object\n"


def test_provenance_orbits_of_the_wrong_type_are_malformed(tmp_path, capsys):
    err = _provenance_error(tmp_path, capsys, lambda doc: {**doc, "orbits": [1]})
    assert err == "error: provenance document is malformed: orbits is not an object\n"


def test_a_provenance_orbit_that_is_no_list_is_malformed(tmp_path, capsys):
    err = _provenance_error(
        tmp_path, capsys, lambda doc: {**doc, "orbits": {**doc["orbits"], "orbits": [5]}}
    )
    assert err == "error: provenance document is malformed: an orbit is not an array\n"


def test_a_provenance_field_left_out_is_missing(tmp_path, capsys):
    err = _provenance_error(tmp_path, capsys, lambda doc: {k: doc[k] for k in doc if k != "pair"})
    assert err == "error: provenance document is missing field 'pair'\n"


def _edit_edges(path, drop=(), add=()):
    g = parse_edge_list(open(path).read())
    edges = [e for e in g.edges if e not in drop] + list(add)
    with open(path, "w") as f:
        f.write(format_edge_list(Graph.from_edges(g.n, edges)))


def test_tampered_orbits_are_rejected(tmp_path, capsys):
    # P4 fixed at an end has singleton cells; provenance claiming that 1, 2, 3
    # form one would let an unbalanced matching through the bijection check
    built, prov = _build_p4(tmp_path)
    doc = json.loads(open(prov).read())
    doc["orbits"]["orbits"] = [[0], [1, 2, 3]]
    bad = write(tmp_path, "bad.json", json.dumps(doc))
    capsys.readouterr()
    code = main(["modify", "connect-orbits", built, "--provenance", bad,
                 "--orbit", "1", "--bijection", "[[1,6],[2,7],[3,5]]"])
    assert code == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert "orbits check failed" in err and "[[0], [1], [2], [3]]" in err


def test_edge_moved_inside_copy_2_is_rejected(tmp_path, capsys):
    built, prov = _build_p4(tmp_path)
    _edit_edges(built, drop=[(6, 7)], add=[(4, 7)])  # copy 2 becomes a star
    capsys.readouterr()
    code = main(["modify", "connect-orbits", built, "--provenance", prov,
                 "--orbit", "1", "--bijection", "[[1,5]]"])
    assert code == EXIT_INPUT
    assert "copy check failed" in capsys.readouterr().err


def test_unbalanced_copy_to_h_edge_is_rejected_by_induced(tmp_path, capsys):
    built, prov = _build_p4(tmp_path)
    _edit_edges(built, add=[(2, 8)])  # H vertex 0 gains a copy-1 neighbour only
    capsys.readouterr()
    assert main(["induced", built, "--provenance", prov]) == EXIT_INPUT
    assert "attachment rule violated" in capsys.readouterr().err


@pytest.mark.parametrize("stray", [(2, 5), (0, 6)])
def test_cross_edges_need_a_cross_connected_construction_within_one_orbit(
    tmp_path, capsys, stray
):
    built, prov = _build_p4(tmp_path)
    _edit_edges(built, add=[stray])
    doc = json.loads(open(prov).read())
    assert main(["induced", built, "--provenance", prov]) == EXIT_INPUT
    assert "cross_connected is false" in capsys.readouterr().err
    doc["cross_connected"] = True
    crossed = write(tmp_path, "crossed.json", json.dumps(doc))
    code = main(["modify", "connect-orbits", built, "--provenance", crossed, "--orbit", "0"])
    assert code == EXIT_INPUT
    assert "cross edges must stay within one orbit" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["a", "l"])
def test_provenance_computes_the_partition_once_and_builds_only_its_kind(
    tmp_path, monkeypatch, kind
):
    import cospectra.cli
    import cospectra.construct
    import cospectra.orbits

    built = str(tmp_path / "g.txt")
    prov = str(tmp_path / "prov.json")
    assert main(["random", "--seed", "5", "--kind", kind, "--out", built,
                 "--provenance", prov]) == EXIT_HOLDS
    calls = []
    original = cospectra.orbits.equitable_partition

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    def fail(*args, **kwargs):
        raise AssertionError("the other kind's builder ran")

    monkeypatch.setattr(cospectra.orbits, "equitable_partition", counted)
    monkeypatch.setattr(cospectra.construct, "equitable_partition", counted)
    other = "_build_l_cospectral" if kind == "a" else "_build_a_cospectral"
    monkeypatch.setattr(cospectra.construct, other, fail)
    graph = parse_edge_list(open(built).read())
    cg = cospectra.cli.constructed_from_json(graph, json.loads(open(prov).read()))
    assert cg.graph == graph and cg.kind == kind.upper()
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["A", "L"])
def test_provenance_assembles_no_constructed_graph(monkeypatch, kind):
    # the edge list already is the constructed graph: only copy 1 (and H for
    # the adjacency kind) are built as graphs of their own
    import cospectra.cli

    docs = [
        (cg.graph, cg.to_json())
        for cg in (cospectra.random_instance(seed, kind=kind) for seed in range(20))
    ]
    original = Graph.from_edges
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(Graph, "from_edges", staticmethod(counted))
    for graph, doc in docs:
        calls = 0
        cg = cospectra.cli.constructed_from_json(graph, doc)
        assert cg.graph is graph and cg.to_json() == doc
        assert calls == (2 if kind == "A" else 1)


# ---------------------------------------------------------------------------
# orbits


def test_orbits_output(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    assert main(["orbits", g, "--fixed", "0"]) == EXIT_HOLDS
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["0", "1 2"]


def test_orbits_full_group_json(tmp_path, capsys):
    g = write(tmp_path, "star.txt", STAR3)
    assert main(["orbits", g, "--json"]) == EXIT_HOLDS
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed"] is None
    assert doc["orbits"] == [[0], [1, 2]]


# ---------------------------------------------------------------------------
# induced / reduce-multiplicity


def test_induced_on_example(tmp_path, capsys):
    fx = load_fixture("figure3")
    g = write(tmp_path, "f3.txt", format_edge_list(fx.graph))
    prov = write(tmp_path, "prov.json", json.dumps(fx.constructed.to_json()))
    assert main(["induced", g, "--provenance", prov]) == EXIT_HOLDS
    out = capsys.readouterr().out
    assert "strong-certified" in out


def test_induced_decides_when_two_eigenvalues_lie_within_the_tolerance(tmp_path, capsys):
    """Order 64: distinct eigenvalues 1.5e-7 apart near 0.9086 both lie within
    the residual tolerance (2.4e-7) of an induced eigenvalue; each is its own
    certified cluster, and the induced one is simple.  The verdict agrees
    with verify."""
    rng = random.Random(30)
    edges = [(i, j) for i, j in itertools.combinations(range(30), 2) if rng.random() < 0.3]
    cg = build_a_cospectral(
        Graph.from_edges(30, edges),
        0,
        Graph.from_edges(4, [(0, 1), (2, 3)]),
        [AttachmentEdge(side, 0, x) for x in range(4) for side in (1, 2)],
    )
    g = write(tmp_path, "g.txt", format_edge_list(cg.graph))
    prov = write(tmp_path, "prov.json", json.dumps(cg.to_json()))
    assert main(["verify", g, "--pair", "0,30", "--strong"]) == EXIT_HOLDS
    assert capsys.readouterr().out.splitlines()[-1] == "strong cospectrality: strong"
    assert main(["induced", g, "--provenance", prov]) == EXIT_HOLDS
    out = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in out if line.startswith("eigenvalue ")]
    near = [row[2:] for row in rows if abs(float(row[1]) - 0.9085573790956031) <= 1e-12]
    assert near == [["coefficient", "0.000084", "simple"]]
    assert out[-2:] == ["verdict: strong-certified", "direct check: strong"]


def test_induced_rejects_cross_connected(tmp_path, capsys):
    fx = load_fixture("figure6-b")
    g = write(tmp_path, "f6b.txt", format_edge_list(fx.graph))
    prov = write(tmp_path, "prov.json", json.dumps(fx.constructed.to_json()))
    assert main(["induced", g, "--provenance", prov]) == EXIT_INPUT


def test_reduce_multiplicity(tmp_path, capsys):
    claw = write(tmp_path, "claw.txt", "4 3\n0 1\n0 2\n0 3\n")
    out = str(tmp_path / "grown.txt")
    code = main(["reduce-multiplicity", claw, "--eigenvalue", "0", "--out", out])
    assert code == EXIT_HOLDS
    grown = parse_edge_list(open(out).read())
    assert grown.n == 5
    summary = capsys.readouterr().err
    assert "2 -> 1" in summary


C6 = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"


def test_reduce_multiplicity_reports_integer_eigenvalues_exactly(tmp_path, capsys):
    """The pendant on C6 at eigenvalue 1 makes a bipartite graph of odd
    order 7, so 0 is an exact eigenvalue of it: its lower neighbour reads
    0.0, not a LAPACK value near it, while the irrational upper neighbour
    keeps its float."""
    c6 = write(tmp_path, "c6.txt", C6)
    assert main(["reduce-multiplicity", c6, "--eigenvalue", "1", "--json"]) == EXIT_HOLDS
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["eigenvalue"] == "1.0"
    assert report["lower_neighbor"] == "0.0"
    assert report["upper_neighbor"] == "1.259280126749765"
    assert report["strict_interlacing"] is True


def test_reduce_multiplicity_writes_out_under_json_too(tmp_path, capsys):
    c6 = write(tmp_path, "c6.txt", C6)
    argv = ["reduce-multiplicity", c6, "--eigenvalue", "1", "--json"]
    assert main(argv) == EXIT_HOLDS
    printed = capsys.readouterr().out
    out = str(tmp_path / "grown.txt")
    assert main([*argv, "--out", out]) == EXIT_HOLDS
    assert capsys.readouterr().out == printed
    assert open(out).read() == json.loads(printed)["edge_list"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--pair", "0,1", "--matrix", "a"],
        ["verify", "--pair", "0,1", "--matrix", "l"],
        ["verify", "--pair", "0,1", "--matrix", "both", "--strong"],
        ["induced", "--provenance", "{}"],
        ["reduce-multiplicity", "--eigenvalue", "0"],
    ],
)
def test_an_order_the_kernels_refuse_is_refused_before_a_matrix_is_built(
    tmp_path, capsys, monkeypatch, argv
):
    """An order-32768 matrix is 2**30 list slots; the order is refused first."""
    g = write(tmp_path, "big.txt", "32768 0\n")

    def refuse(*args):
        raise AssertionError("an n x n matrix was built")

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("cospectra"):
            for name in ("adjacency_matrix", "laplacian_matrix"):
                if name in vars(module):
                    monkeypatch.setattr(module, name, refuse)
    assert main([argv[0], g, *argv[1:]]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: matrix order 32768 is not below 32768: int64 residue sums could overflow\n"
    )


_ORDER_REFUSED = "error: matrix order 1000000000 is not below 32768: int64 residue sums could overflow\n"
# inputs below the bound whose glued graph is not: 2 * 16384 + 1 and 2 * 16384
_GLUED_REFUSED = "error: matrix order {} is not below 32768: int64 residue sums could overflow\n"


def _one_gib_address_space() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv, err",
    [
        (["verify", "HUGE", "--pair", "0,1"], _ORDER_REFUSED),
        (["reduce-multiplicity", "HUGE", "--eigenvalue", "0"], _ORDER_REFUSED),
        (["orbits", "HUGE"], "error: graph has 1000000000 vertices, above the orbit search limit 64\n"),
        (["construct", "a", "--g", "HUGE", "--fixed", "0", "--h", "STAR", "--attach", "[]"],
         _ORDER_REFUSED),
        (["construct", "a", "--g", "STAR", "--fixed", "0", "--h", "HUGE", "--attach", "[]"],
         _ORDER_REFUSED),
        (["construct", "l", "--g", "HUGE", "--fixed", "0", "--cross", "[]"], _ORDER_REFUSED),
        (["modify", "connect-orbits", "HUGE", "--provenance", "{}", "--orbit", "0"], _ORDER_REFUSED),
        (["construct", "a", "--g", "HALF", "--fixed", "0", "--h", "ONE",
          "--attach", "[[1,0,0],[2,0,0]]"], _GLUED_REFUSED.format(32769)),
        (["construct", "l", "--g", "HALF", "--fixed", "0", "--cross", "[]"],
         _GLUED_REFUSED.format(32768)),
    ],
    ids=["verify", "reduce-multiplicity", "orbits", "construct-a-g", "construct-a-h",
         "construct-l-g", "modify", "construct-a-glued", "construct-l-glued"],
)
def test_a_huge_declared_order_is_refused_before_the_graph_is_built(tmp_path, argv, err):
    """A 13-byte file declaring 10**9 vertices would ask for about 80 GiB of
    adjacency lists; in 1 GiB of address space it is refused as bad input,
    not ended by a MemoryError.  A construction whose glued graph reaches the
    bound is refused as ``verify`` would refuse it, before it is glued."""
    src = str(Path(cospectra.__file__).resolve().parent.parent)
    files = {
        "HUGE": write(tmp_path, "huge.txt", "1000000000 0\n"),
        "STAR": write(tmp_path, "star.txt", STAR3),
        "HALF": write(tmp_path, "half.txt", "16384 0\n"),
        "ONE": write(tmp_path, "one.txt", "1 0\n"),
    }
    env = {k: v for k, v in os.environ.items() if k != "COSPECTRA_MAX_N"}
    proc = subprocess.run(
        [sys.executable, "-m", "cospectra.cli", *(files.get(a, a) for a in argv)],
        env={**env, "PYTHONPATH": src},
        preexec_fn=_one_gib_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_INPUT, "", err)


def test_reduce_multiplicity_decomposes_its_input_once(tmp_path, monkeypatch):
    claw = write(tmp_path, "claw.txt", "4 3\n0 1\n0 2\n0 3\n")
    calls = _count_decompositions(monkeypatch)
    assert main(["reduce-multiplicity", claw, "--eigenvalue", "0"]) == EXIT_HOLDS
    assert calls == [4, 5]  # the claw, then the grown graph


def test_reduce_multiplicity_simple_eigenvalue_exit_2(tmp_path):
    p3 = write(tmp_path, "p3.txt", P3)
    assert main(["reduce-multiplicity", p3, "--eigenvalue", "1.414"]) == EXIT_INPUT


@pytest.mark.parametrize("value", ["0", "-1.4142135623730951"])
def test_reduce_multiplicity_names_the_requested_simple_eigenvalue(tmp_path, capsys, value):
    """phi(P3) = t^3 - 2t has the simple roots 0 and -sqrt(2); the message
    names the value asked for, not the floating-point eigenvalue near it."""
    p3 = write(tmp_path, "p3.txt", P3)
    assert main(["reduce-multiplicity", p3, f"--eigenvalue={value}"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: eigenvalue {float(value)} is simple; nothing to reduce\n"


K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("graph", [K4, "4 3\n0 1\n0 2\n0 3\n"], ids=["K4", "claw"])
def test_reduce_multiplicity_rejects_a_non_finite_eigenvalue(tmp_path, capsys, graph, value):
    """Every comparison with NaN or infinity is false, so such a value must
    not reach the nearness check: K4 would grow a pendant on -1."""
    g = write(tmp_path, "g.txt", graph)
    assert main(["reduce-multiplicity", g, f"--eigenvalue={value}"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --eigenvalue must be a finite number, got {value}\n"


@pytest.mark.parametrize("graph, theta", [("4 3\n0 1\n0 2\n0 3\n", 0.0), (K4, -1.0)],
                         ids=["claw", "K4"])
def test_reduce_multiplicity_takes_an_eigenvalue_only_within_the_fixed_bound(
    tmp_path, capsys, graph, theta
):
    """--eigenvalue x names the nearest eigenvalue when it lies within
    EIGENVALUE_MATCH * max(1, |x|) of it, a constant, not a flag."""
    assert EIGENVALUE_MATCH == 1e-6
    g = write(tmp_path, "g.txt", graph)
    assert main(["reduce-multiplicity", g, f"--eigenvalue={theta + 5e-7!r}"]) == EXIT_HOLDS
    capsys.readouterr()
    outside = theta + 2e-6
    assert main(["reduce-multiplicity", g, f"--eigenvalue={outside!r}"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: no adjacency eigenvalue near {outside}; closest is ")


@pytest.mark.parametrize("matrix", ["a", "l", "both"])
def test_verify_on_a_graph_without_vertices_says_so(tmp_path, capsys, matrix):
    g = write(tmp_path, "empty.txt", "0 0\n")
    assert main(["verify", g, "--pair", "0,1", "--matrix", matrix]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: vertex 0 out of range: the graph has no vertices\n"


def test_reduce_multiplicity_on_a_graph_without_eigenvalues(tmp_path, capsys):
    g = write(tmp_path, "empty.txt", "0 0\n")
    assert main(["reduce-multiplicity", g, "--eigenvalue", "0"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: no adjacency eigenvalue: the graph has no vertices\n"


# ---------------------------------------------------------------------------
# example / random


def test_example_list(capsys):
    assert main(["example", "--list"]) == EXIT_HOLDS
    out = capsys.readouterr().out
    assert "figure1" in out and "figure6-c" in out


def test_example_list_builds_no_fixture(capsys, monkeypatch):
    import cospectra.fixtures

    def fail(*args, **kwargs):
        raise AssertionError("--list verified a fixture")

    cospectra.fixtures.load_fixture.cache_clear()
    monkeypatch.setattr(cospectra.fixtures, "walk_diagonals", fail)
    assert main(["example", "--list"]) == EXIT_HOLDS
    assert len(capsys.readouterr().out.splitlines()) == 8


def test_example_emits_graph(capsys):
    assert main(["example", "figure1"]) == EXIT_HOLDS
    out = capsys.readouterr().out
    assert out.startswith("9 8\n")


def test_example_without_name_lists_catalog(capsys):
    assert main(["example"]) == EXIT_HOLDS
    assert "figure1:" in capsys.readouterr().out


def test_random_deterministic(tmp_path):
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    for path in (a, b):
        assert main(["random", "--seed", "11", "--out", path]) == EXIT_HOLDS
    assert open(a).read() == open(b).read()


@pytest.mark.parametrize("kind", ["a", "l"])
def test_random_computes_the_orbit_partition_once(tmp_path, monkeypatch, kind):
    import cospectra.construct

    calls = []
    original = cospectra.construct.equitable_partition

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cospectra.construct, "equitable_partition", counted)
    out = str(tmp_path / "g.txt")
    assert main(["random", "--seed", "5", "--kind", kind, "--out", out]) == EXIT_HOLDS
    assert len(calls) == 1


def test_no_construction_command_runs_the_automorphism_search(tmp_path, monkeypatch):
    import cospectra.fixtures
    import cospectra.orbits

    def fail(*args):
        raise AssertionError("automorphism search ran")

    monkeypatch.setattr(cospectra.orbits, "_search", fail)
    cospectra.fixtures.load_fixture.cache_clear()
    built, prov = _build_for_modify(tmp_path)
    star = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    commands = [
        ["construct", "a", "--g", star, "--fixed", "0", "--h", h, "--attach", "[[1,1,0],[2,1,0]]"],
        ["construct", "l", "--g", star, "--fixed", "0", "--cross", "[[1,2],[2,1]]"],
        ["random", "--seed", "5", "--kind", "a"],
        ["random", "--seed", "5", "--kind", "l"],
        ["modify", "connect-orbits", built, "--provenance", prov, "--orbit", "1"],
        ["induced", built, "--provenance", prov],
        *(["example", name] for name in FIXTURE_NAMES),
    ]
    for argv in commands:
        assert main(argv) == EXIT_HOLDS, argv


def test_a_construction_above_the_orbit_search_limit_builds(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("COSPECTRA_MAX_N", raising=False)
    c70 = write(tmp_path, "c70.txt", format_edge_list(
        Graph.from_edges(70, [(i, (i + 1) % 70) for i in range(70)])
    ))
    h = write(tmp_path, "h.txt", "1 0\n")
    assert main(["construct", "a", "--g", c70, "--fixed", "0", "--h", h,
                 "--attach", "[[1,1,0],[2,69,0]]"]) == EXIT_HOLDS
    assert capsys.readouterr().out.startswith("141 142\n")
    assert main(["orbits", c70, "--fixed", "0"]) == EXIT_INPUT
    assert "orbit search limit 64" in capsys.readouterr().err


def test_a_negative_orbit_search_limit_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COSPECTRA_MAX_N", "-3")
    assert main(["orbits", write(tmp_path, "empty.txt", "0 0\n")]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: COSPECTRA_MAX_N must be nonnegative, got '-3'\n"


def test_random_l_kind(tmp_path, capsys):
    prov = str(tmp_path / "prov.json")
    assert main(["random", "--seed", "3", "--kind", "l", "--provenance", prov]) == EXIT_HOLDS
    assert json.loads(open(prov).read())["kind"] == "L"


class _FewDraws(random.Random):
    """A Random that raises after 10 000 draws, so that a generator which
    would draw O(n^2) edges of a huge order fails fast instead."""

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def _count(self):
        self.draws += 1
        if self.draws > 10_000:
            raise AssertionError("random drew more than 10 000 numbers")

    def random(self):
        self._count()
        return super().random()

    def getrandbits(self, k):
        self._count()
        return super().getrandbits(k)


@pytest.mark.parametrize(
    "kind, max_g, max_h, order",
    [
        ("l", 20000, 4, "37608"),  # seed 6 draws base order 18 804: 2n
        ("a", 20000, 4, "37609"),  # 2n + 1, as H has a vertex at least
        ("a", 6, 10**9, None),  # 2n + r, refused once H's order r is drawn
    ],
)
def test_random_refuses_a_huge_drawn_order_before_drawing_its_edges(
    capsys, monkeypatch, kind, max_g, max_h, order
):
    import types

    import cospectra.construct

    monkeypatch.setattr(cospectra.construct, "random", types.SimpleNamespace(Random=_FewDraws))
    argv = ["random", "--seed", "6", "--kind", kind, "--max-g", str(max_g), "--max-h", str(max_h)]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: matrix order ") and "is not below 32768" in err
    drawn = int(err.split()[3])
    assert drawn >= 2**15 and order in (None, str(drawn))
    # the same generator draws every graph that it lets through
    assert main(["random", "--seed", "6", "--kind", kind]) == EXIT_HOLDS


def _integer_roots(g: Graph, matrix) -> set[float]:
    """The integer eigenvalues of A or L of g, each an exact root of the char
    poly; every eigenvalue lies in [-n, 2n]."""
    char = char_poly(matrix(g))
    return {float(c) for c in range(-g.n, 2 * g.n + 1) if char.evaluate(c) == 0}


def _assert_labels_follow_the_integer_rule(labels, roots, every_cluster=False):
    """A printed label within 1e-6 of an integer eigenvalue is that integer,
    exactly; when ``labels`` name every cluster, the integer labels are the
    integer eigenvalues."""
    for label in labels:
        for root in roots:
            if abs(float(label) - root) <= 1e-6:
                assert label == repr(root)
    if every_cluster:
        assert {float(x) for x in labels if float(x).is_integer()} == roots


def test_every_printed_integer_eigenvalue_is_exact(tmp_path, capsys):
    """One label rule: a cluster whose certified interval holds an integer
    root prints as that integer in verify --strong, induced and
    reduce-multiplicity, on the fixtures and seeds 0-199 of both kinds."""
    cases = [(fx.graph, fx.pair, fx.constructed) for fx in map(load_fixture, FIXTURE_NAMES)]
    instances = (random_instance(seed, kind=k) for k in "AL" for seed in range(200))
    cases += [(cg.graph, cg.pair, cg) for cg in instances]
    path, prov = write(tmp_path, "g.txt", ""), tmp_path / "prov.json"
    integer_labels = 0
    for g, (u, v), cg in cases:
        Path(path).write_text(format_edge_list(g))
        for flag, matrix in (("a", adjacency_matrix), ("l", laplacian_matrix)):
            main(["verify", path, "--pair", f"{u},{v}", "--matrix", flag, "--strong", "--json"])
            # a pair that is not cospectral for this matrix lists no sign
            signs = json.loads(capsys.readouterr().out)["strong"]["signs"]
            labels = [s["eigenvalue"] for s in signs]
            _assert_labels_follow_the_integer_rule(labels, _integer_roots(g, matrix), bool(signs))
            integer_labels += sum(float(x).is_integer() for x in labels)
        if cg is not None and cg.kind == "A" and not cg.cross_connected:
            prov.write_text(json.dumps(cg.to_json()))
            main(["induced", path, "--provenance", str(prov), "--json"])
            doc = json.loads(capsys.readouterr().out)
            roots = _integer_roots(g, adjacency_matrix)
            _assert_labels_follow_the_integer_rule([p["eigenvalue"] for p in doc["induced"]], roots)
            direct = [s["eigenvalue"] for s in doc["direct"]["signs"]]
            _assert_labels_follow_the_integer_rule(direct, roots, True)
        for cl in eigendecompose_symmetric(adjacency_matrix(g)).clusters:
            if cl.multiplicity < 2:
                continue
            main(["reduce-multiplicity", path, f"--eigenvalue={cl.value!r}", "--json"])
            doc = json.loads(capsys.readouterr().out)
            report = doc["report"]
            _assert_labels_follow_the_integer_rule(
                [report["eigenvalue"]], _integer_roots(g, adjacency_matrix)
            )
            grown_roots = _integer_roots(parse_edge_list(doc["edge_list"]), adjacency_matrix)
            neighbours = [report["upper_neighbor"], report["lower_neighbor"]]
            _assert_labels_follow_the_integer_rule(neighbours, grown_roots)
    assert integer_labels > 1000


# ---------------------------------------------------------------------------
# argparse-level errors


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])
    assert exc.value.code == 2


def test_consecutive_calls_share_the_parser_but_no_state(tmp_path, capsys):
    from cospectra.cli import build_parser

    assert build_parser() is build_parser()
    c4 = write(tmp_path, "c4.txt", C4)
    star = write(tmp_path, "star.txt", STAR3)
    assert main(["verify", c4, "--pair", "0,2", "--matrix", "both", "--json"]) == EXIT_HOLDS
    assert json.loads(capsys.readouterr().out)["adjacency"]["cospectral"] is True
    p3 = write(tmp_path, "p3.txt", P3)
    assert main(["verify", p3, "--pair", "0,1"]) == EXIT_FAILS
    assert capsys.readouterr().out.startswith("adjacency cospectral: False\n")
    assert main(["orbits", star, "--json"]) == EXIT_HOLDS
    assert json.loads(capsys.readouterr().out)["fixed"] is None
    assert main(["orbits", star, "--fixed", "0"]) == EXIT_HOLDS
    assert capsys.readouterr().out == "0\n1 2\n"
    assert main(["example", "figure1", "--json"]) == EXIT_HOLDS
    json.loads(capsys.readouterr().out)
    assert main(["example", "figure1"]) == EXIT_HOLDS
    assert capsys.readouterr().out.startswith("9 8\n")


_BLAS_PROBE = """
import os, sys
from cospectra.cli import BLAS_THREAD_VARS, main
assert "numpy" not in sys.modules
main(sys.argv[1:])
print("numpy" in sys.modules, *(os.environ.get(name, "unset") for name in BLAS_THREAD_VARS))
"""


@pytest.mark.parametrize(
    "preset, expected", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1")]
)
def test_main_sets_one_blas_thread_unless_the_user_chose(tmp_path, preset, expected):
    """cli.main defaults each BLAS thread-count variable to 1 before numpy
    first loads; a value the user set is kept.  ``verify`` loads numpy above
    the Python-int order alone, and sets the variables on either side."""
    from cospectra.cli import BLAS_THREAD_VARS

    src = str(Path(cospectra.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    for (graph, n), loaded in zip(_cycles(tmp_path), ("False", "True")):
        proc = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, "verify", graph, "--pair", f"0,{n // 2}"],
            cwd=tmp_path,
            env={**env, **preset, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{loaded} {expected}"


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["verify", "P4", "--pair", "0,3"], ""),
        (["example", "figure1"], "figure1: 9-vertex tree with a cospectral pair (3, 6) "
         "not related by any automorphism\n"),
        (["random", "--seed", "1"], "seed 1: A-construction on 10 vertices; certified pair (1, 4)\n"),
    ],
    ids=["verify", "example", "random"],
)
def test_a_reader_that_closed_stdout_is_no_bad_input(tmp_path, argv, summary):
    """A write to a pipe whose reader has gone prints nothing more and exits
    141, 128 + SIGPIPE, as a shell reports such a writer.  ``example`` and
    ``random`` write their summary line to stderr before the graph."""
    src = str(Path(cospectra.__file__).resolve().parent.parent)
    p4 = write(tmp_path, "p4.txt", "4 3\n0 1\n1 2\n2 3\n")
    # buffered stdout, so that the write reaches the pipe at main's flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cospectra.cli", *(p4 if a == "P4" else a for a in argv)],
            cwd=tmp_path,
            env={**env, "PYTHONPATH": src},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == summary
    assert proc.returncode == 141


# ---------------------------------------------------------------------------
# numpy is loaded only by the commands that compute a spectrum

_NUMPY_PROBE = """
import contextlib, io, json, sys
steps = []
import cospectra
steps.append(["import cospectra", None, "numpy" in sys.modules])
from cospectra.cli import main
steps.append(["import cospectra.cli", None, "numpy" in sys.modules])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    steps.append([" ".join(argv), code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def _numpy_after_each(tmp_path, commands: list[list[str]]) -> list:
    """[step, exit code, numpy loaded] after each import and command, in a
    fresh interpreter."""
    src = str(Path(cospectra.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _fixture_verify_runs(tmp_path) -> list:
    """(argv, exit code) of ``verify`` on every fixture, all of at most 11
    vertices: plain, --json, --matrix l and --matrix both on its pair, and
    --strong on a pair that is not cospectral."""
    runs = []
    for name in FIXTURE_NAMES:
        fx = load_fixture(name)
        g = write(tmp_path, f"{name}.txt", format_edge_list(fx.graph))
        pair = f"{fx.pair[0]},{fx.pair[1]}"
        holds = {
            "a": EXIT_HOLDS,
            "l": EXIT_HOLDS if cospectra.verify_l_cospectral(fx.graph, *fx.pair).cospectral
            else EXIT_FAILS,
        }
        holds["both"] = max(holds.values())
        runs += [
            (["verify", g, "--pair", pair], holds["a"]),
            (["verify", g, "--pair", pair, "--json"], holds["a"]),
            (["verify", g, "--pair", pair, "--matrix", "l"], holds["l"]),
            (["verify", g, "--pair", pair, "--matrix", "both"], holds["both"]),
        ]
        w = next(w for w in range(fx.graph.n) if w != fx.pair[0]
                 and not cospectra.verify_a_cospectral(fx.graph, fx.pair[0], w).cospectral)
        runs.append((["verify", g, "--pair", f"{fx.pair[0]},{w}", "--strong"], EXIT_FAILS))
    return runs


def test_commands_that_compute_no_spectrum_do_not_import_numpy(tmp_path):
    """Nor does ``verify`` up to the Python-int order, except for --strong
    on a cospectral pair: on every fixture it runs without numpy."""
    built, prov = _build_for_modify(tmp_path)
    star = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    verify_runs = _fixture_verify_runs(tmp_path)
    steps = _numpy_after_each(
        tmp_path,
        [
            ["construct", "a", "--g", star, "--fixed", "0", "--h", h, "--attach", "[[1,1,0],[2,1,0]]"],
            ["construct", "l", "--g", star, "--fixed", "0", "--cross", "[[1,2],[2,1]]"],
            ["modify", "connect-orbits", built, "--provenance", prov, "--orbit", "1"],
            ["random", "--seed", "5", "--kind", "a"],
            ["random", "--seed", "5", "--kind", "l"],
            ["orbits", star, "--fixed", "0"],
            ["example", "--list"],
            ["example", "figure1"],
            ["example", "figure6-b"],
            *(argv for argv, _ in verify_runs),
        ],
    )
    assert [step for step, code, loaded in steps if loaded] == []
    codes = [EXIT_HOLDS] * 9 + [code for _, code in verify_runs]
    assert [code for step, code, loaded in steps[2:]] == codes
    assert set(codes) == {EXIT_HOLDS, EXIT_FAILS}


@pytest.mark.parametrize("command", ["verify", "verify-strong", "induced"])
def test_spectral_commands_import_numpy(tmp_path, command):
    """``verify`` loads numpy above the Python-int order, and for --strong
    on a cospectral pair."""
    built, prov = _build_for_modify(tmp_path)
    figure3 = _figure3_files(tmp_path)
    argv = {
        "verify": ["verify", _cycle(tmp_path, PYTHON_INT_MAX_ORDER + 1), "--pair", "0,1"],
        "verify-strong": ["verify", figure3["G"], "--pair", figure3["P"], "--strong"],
        "induced": ["induced", built, "--provenance", prov],
    }[command]
    *_, (step, code, loaded) = _numpy_after_each(tmp_path, [argv])
    assert code == EXIT_HOLDS and loaded


# ---------------------------------------------------------------------------
# each command loads only the cospectra modules it computes with

_FOOTPRINT_PROBE = """
import contextlib, io, json, sys
step, code = json.loads(sys.argv[1]), None
if step == "import cospectra":
    import cospectra
elif step == "cospectra.parse_edge_list":
    import cospectra
    cospectra.parse_edge_list("2 1\\n0 1\\n")
else:
    from cospectra.cli import main
    if step != "import cospectra.cli":
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(step)
            except SystemExit as exc:
                code = exc.code
heavy = sorted(m for m in ("dataclasses", "inspect", "ast", "dis", "tokenize") if m in sys.modules)
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("cospectra.")), heavy]))
"""


def test_each_command_loads_only_the_modules_it_computes_with(tmp_path):
    """The cospectra.* modules loaded after each step, in a fresh interpreter
    per step: the package loads none until a name is used, and the command
    line adds to cli, graph and the fixture catalog only what a command
    computes with.  A step that loads no module beyond those three loads no
    ``dataclasses`` either, nor the ``inspect``, ``ast``, ``dis`` and
    ``tokenize`` it brings in: milliseconds of start-up."""
    built, prov = _build_for_modify(tmp_path)
    star = write(tmp_path, "star.txt", STAR3)
    h = write(tmp_path, "h.txt", "1 0\n")
    c6 = write(tmp_path, "c6.txt", C6)
    cli = ["cli", "fixtures", "graph"]
    build = [*cli, "construct", "orbits"]
    steps = [
        ("import cospectra", []),
        ("cospectra.parse_edge_list", ["graph"]),
        ("import cospectra.cli", cli),
        (["--help"], cli),
        (["--version"], cli),
        (["example", "--list"], cli),
        (["orbits", star, "--fixed", "0"], [*cli, "orbits"]),
        (["construct", "a", "--g", star, "--fixed", "0", "--h", h, "--attach", "[[1,1,0],[2,1,0]]"],
         build),
        (["construct", "l", "--g", star, "--fixed", "0", "--cross", "[[1,2],[2,1]]"], build),
        (["modify", "connect-orbits", built, "--provenance", prov, "--orbit", "1"], build),
        (["random", "--seed", "5", "--kind", "a"], build),
        (["random", "--seed", "5", "--kind", "l"], build),
        (["verify", built, "--pair", "0,3"], [*cli, "exact", "spectral", "verify"]),
        (["verify", built, "--pair", "0,3", "--matrix", "both", "--strong"],
         [*cli, "exact", "spectral", "verify"]),
        (["induced", built, "--provenance", prov], [*build, "exact", "spectral"]),
        (["reduce-multiplicity", c6, "--eigenvalue", "1"], [*cli, "exact", "spectral"]),
        (["example", "figure1"], cli),
        (["example", "figure6-b"], build),
    ]
    src = str(Path(cospectra.__file__).resolve().parent.parent)
    loaded, expected = {}, {}
    for step, modules in steps:
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_PROBE, json.dumps(step)],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        code, names, heavy = json.loads(proc.stdout)
        assert code in (None, EXIT_HOLDS), (step, code)
        key = step if isinstance(step, str) else " ".join(step).replace(f"{tmp_path}{os.sep}", "")
        loaded[key] = names, heavy == []
        expected[key] = sorted(f"cospectra.{m}" for m in modules), set(modules) <= set(cli)
    assert loaded == expected
