"""The package runs on the oldest numpy that pyproject.toml admits (1.24).

A name numpy added in 2.0 or later once broke ``char_poly`` there
(``np.vecdot``), and the test suite, run on a newer numpy, did not notice.
This scan of the source fails on any such name instead.
"""

import ast
from pathlib import Path

import cospectra

# numpy names added in 2.0, 2.1 or 2.2, as attributes of numpy (or of
# numpy.linalg where the name says so); a method such as ndarray.astype is
# older and not listed
NEWER_THAN_FLOOR = frozenset(
    {
        "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
        "astype",
        "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
        "concat",
        "cumulative_prod", "cumulative_sum",
        "isdtype",
        "long", "ulong",
        "matrix_transpose",
        "matvec", "vecmat", "vecdot",
        "permute_dims",
        "pow",
        "strings",
        "unique_all", "unique_counts", "unique_inverse", "unique_values",
        "unstack",
        "linalg.cross", "linalg.diagonal", "linalg.matmul", "linalg.matrix_norm",
        "linalg.matrix_transpose", "linalg.outer", "linalg.svdvals",
        "linalg.tensordot", "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
    }
)


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def newer_numpy_names(source: str) -> list[str]:
    """Every use, in source, of a numpy name newer than the floor: an
    attribute chain on ``np`` or ``numpy``, or a ``from numpy... import``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            prefix = node.module.partition(".")[2]
            for alias in node.names:
                name = f"{prefix}.{alias.name}" if prefix else alias.name
                if name in NEWER_THAN_FLOOR:
                    found.append(f"numpy.{name}")
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            head, _, rest = (chain or "").partition(".")
            if head in ("np", "numpy") and rest in NEWER_THAN_FLOOR:
                found.append(chain)
    return found


def test_the_scan_sees_newer_names():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import vector_norm\n"
        "from numpy import concat, zeros\n"
        "x = np.vecdot(a, b) + np.linalg.matrix_norm(a) + a.astype(int) + np.zeros(3)\n"
    )
    assert sorted(newer_numpy_names(source)) == [
        "np.linalg.matrix_norm",
        "np.vecdot",
        "numpy.concat",
        "numpy.linalg.vector_norm",
    ]


def test_the_package_uses_no_numpy_name_newer_than_its_floor():
    package = Path(cospectra.__file__).resolve().parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := newer_numpy_names(path.read_text()))
    }
    assert found == {}
