"""Graphs with certified cospectral vertex pairs.

Exact construction and verification of adjacency-cospectral, Laplacian-
cospectral, and strongly cospectral vertex pairs via gluing two copies of a
base graph so that the cells of its equitable partition stay balanced.

Importing the package loads none of its modules: a public name loads the
module that defines it on first use, so ``cospectra.parse_edge_list`` loads
``graph`` alone.  The command line loads ``cli``, ``graph`` and ``fixtures``
(the catalog, without its builders), and each command adds only the modules
it computes with: ``orbits`` adds ``orbits``; ``construct``, ``modify`` and
``random`` add ``orbits`` and ``construct``; ``verify`` adds ``exact``,
``spectral`` and ``verify``; ``induced`` adds ``orbits``, ``construct``,
``exact`` and ``spectral``; ``reduce-multiplicity`` adds ``exact`` and
``spectral``; ``example NAME`` adds ``orbits`` and ``construct`` for a
fixture that is a construction, and nothing for the tree.  So
``--help``, ``--version``, ``example --list`` and ``example figure1`` load
no ``dataclasses``.
"""

import importlib

__version__ = "0.1.0"

# every public name -> the module that defines it, in the order of __all__
_HOMES = {
    "AttachmentEdge": "construct",
    "AttachmentValidation": "construct",
    "COSPECTRAL_ONLY": "spectral",
    "INCONCLUSIVE": "spectral",
    "NOT_COSPECTRAL": "spectral",
    "STRONG": "spectral",
    "STRONG_CERTIFIED": "spectral",
    "ClusteringError": "spectral",
    "ConstructedGraph": "construct",
    "CospectraError": "graph",
    "ADJACENCY": "verify",
    "LAPLACIAN": "verify",
    "LAPLACIAN_NOTE": "verify",
    "CospectralityReport": "verify",
    "CrossEdge": "construct",
    "EdgeListParseError": "graph",
    "EigenCluster": "spectral",
    "Fixture": "fixtures",
    "FixtureError": "fixtures",
    "FIXTURE_NAMES": "fixtures",
    "Graph": "graph",
    "InducedEigenpair": "spectral",
    "IntPolynomial": "exact",
    "InternalCheckError": "verify",
    "InvalidConstructionError": "construct",
    "MultiplicityStructure": "exact",
    "OrbitPartition": "orbits",
    "PendantReductionReport": "spectral",
    "SearchLimitError": "orbits",
    "SimplicityVerdict": "spectral",
    "SpectralDecomposition": "spectral",
    "SpectralNumericError": "spectral",
    "StrongCospectralityResult": "spectral",
    "adjacency_matrix": "graph",
    "attach_pendant_reduce": "spectral",
    "automorphism_orbits": "orbits",
    "automorphism_witness": "orbits",
    "build_a_cospectral": "construct",
    "build_l_cospectral": "construct",
    "char_poly": "exact",
    "check_a_claims": "construct",
    "check_l_claims": "construct",
    "connect_orbits": "construct",
    "delete_vertex": "graph",
    "eigendecompose_symmetric": "spectral",
    "equitable_partition": "orbits",
    "fixture_catalog": "fixtures",
    "format_edge_list": "graph",
    "laplacian_matrix": "graph",
    "load_fixture": "fixtures",
    "multiplicity_structure": "exact",
    "parse_edge_list": "graph",
    "random_instance": "construct",
    "strong_cospectrality": "verify",
    "strong_via_simplicity": "spectral",
    "to_dot": "graph",
    "verify_a_cospectral": "verify",
    "verify_l_cospectral": "verify",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    """Load the module that defines a public name on its first use; the name
    is then kept here, so that later uses are plain attribute reads."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
