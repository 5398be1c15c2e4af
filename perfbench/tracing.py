"""Spans around cospectra's public functions, installed from outside the program.

Each wrapped call records (name, item, parent span, start, end, time spent
in child spans, exception type, size attribute).  Spans stay in memory and
are written out when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# the public functions the workloads reach, as <module>.<function>
LAYERS = (
    "graph.parse_edge_list", "graph.adjacency_matrix", "graph.laplacian_matrix", "graph.delete_vertex",
    "exact.char_poly", "exact.multiplicity_structure",
    "exact.first_krylov_mismatch", "exact.first_power_diagonal_mismatch",
    "orbits.automorphism_orbits",
    "construct.validate_attachments", "construct.build_a_cospectral", "construct.build_l_cospectral",
    "construct.connect_orbits", "construct.random_instance",
    "construct.check_a_claims", "construct.check_l_claims",
    "spectral.jacobi_eigh", "spectral.eigendecompose_symmetric",
    "spectral.check_strong_cospectrality", "spectral.induced_eigenpairs",
    "spectral.strong_via_simplicity",
    "verify.verify_a_cospectral", "verify.verify_l_cospectral",
    "fixtures.load_fixture",
    "cli.main",
)


def _coeff_bits(poly) -> int:
    return max(abs(c).bit_length() for c in poly.coeffs)


def _factor_count(struct) -> int:
    return len(struct.factors)


# size recorded with a span: name -> function of the call's result
SIZES = {"exact.char_poly": _coeff_bits, "exact.multiplicity_structure": _factor_count}

# span fields
NAME, ITEM, PARENT, START, END, CHILD, ERROR, SIZE, DEPTH = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []  # indexes of the open spans
        self.item = -1
        self.bound: list[tuple] = []  # (module, name, original) while installed
        self.wrapped: dict[str, object] = {}

    def wrap(self, name: str, fn):
        size = SIZES.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [name, self.item, parent, 0.0, 0.0, 0.0, None, None, len(stack)]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent][CHILD] += span[END] - span[START]
            if size is not None:
                span[SIZE] = size(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function and rebind it wherever it was imported by name.

        A function the program no longer has is skipped; its metrics read 0."""
        modules = [m for k, m in list(sys.modules.items()) if k == "cospectra" or k.startswith("cospectra.")]
        for qual in LAYERS:
            mod, fn = qual.split(".")
            original = getattr(importlib.import_module(f"cospectra.{mod}"), fn, None)
            if original is None:
                continue
            if qual not in self.wrapped:
                self.wrapped[qual] = self.wrap(qual, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, self.wrapped[qual])
                        self.bound.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.bound):
            setattr(module, attr, original)
        self.bound.clear()


KERNELS = ("exact.char_poly", "exact.multiplicity_structure")
FAILURE_TYPES = ("SpectralNumericError", "ClusteringError")
PER_ITEM = ("spectral.eigendecompose_symmetric", "exact.char_poly")


def layer_metrics(spans: list[list], results, timed: float, untraced_rate: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``results[i]`` is the i-th traced item; ``untraced_rate`` is decided
    items per second of the untraced pass over the same rounds.
    """
    by_item: dict[int, list[list]] = {}
    agg = {name: [0, 0.0, 0.0, 0] for name in LAYERS}
    for span in spans:
        by_item.setdefault(span[ITEM], []).append(span)
        row = agg[span[NAME]]
        duration = span[END] - span[START]
        row[0] += 1
        row[1] += duration - span[CHILD]
        row[2] += duration
        row[3] += span[ERROR] is not None
    out: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        calls, self_s, total_s, _ = agg[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.total_s"] = (total_s, "s")
    sizes = [s[SIZE] for s in spans if s[NAME] == "exact.char_poly" and s[SIZE] is not None]
    out["exact.char_poly.max_coeff_bits"] = (max(sizes, default=0), "bits")
    out["exact.multiplicity_structure.factors"] = (
        sum(s[SIZE] for s in spans if s[NAME] == "exact.multiplicity_structure" and s[SIZE] is not None),
        "count")
    out["spectral.eigendecompose_symmetric.errors"] = (agg["spectral.eigendecompose_symmetric"][3], "count")
    # per decided item whose input is a certified pair or a valid construction;
    # controls stop at the first exact mismatch and are left out
    positive = [i for i, r in enumerate(results) if r.item.positive and r.outcome == "decided"]
    for name in PER_ITEM:
        calls = sum(1 for i in positive for s in by_item.get(i, ()) if s[NAME] == name)
        out[f"{name}.calls_per_item"] = (calls / len(positive) if positive else 0.0, "count")
    big = [i for i, r in enumerate(results) if r.item.order >= 32]
    kernel = sum(s[END] - s[START] - s[CHILD] for i in big for s in by_item.get(i, ()) if s[NAME] in KERNELS)
    big_s = sum(results[i].seconds for i in big)
    out["exact.self_share.order_ge_32"] = (kernel / big_s if big_s else 0.0, "ratio")
    for kind, count in failures_by_type(by_item, results).items():
        out[f"items.failed.{kind}"] = (count, "count")
    rate = sum(r.outcome == "decided" for r in results) / timed
    out["trace.decided_per_s"] = (rate, "1/s")
    out["trace.untraced_decided_per_s"] = (untraced_rate, "1/s")
    out["trace.overhead_share"] = (1 - rate / untraced_rate if untraced_rate else 0.0, "ratio")
    for name in ("cli.interpreter_s", "cli.numpy_import_s", "cli.cospectra_import_s"):
        out[name] = (0.0, "s")  # measured on cli-small only
    out.update(probe_metrics([], []))  # measured on verify-adj only
    return out


def failures_by_type(by_item: dict[int, list[list]], results) -> dict[str, int]:
    """Failed items by the type of the outermost exception below cli.main."""
    failures = dict.fromkeys((*FAILURE_TYPES, "other"), 0)
    for i, r in enumerate(results):
        if r.outcome == "failed":
            raised = [s for s in by_item.get(i, ()) if s[ERROR] and s[NAME] != "cli.main"]
            kind = min(raised, key=lambda s: s[DEPTH])[ERROR] if raised else "other"
            failures[kind if kind in failures else "other"] += 1
    return failures


def probe_metrics(spans: list[list], results) -> dict:
    """Counts of the defect probe: items run, and failed items by exception type."""
    by_item: dict[int, list[list]] = {}
    for span in spans:
        by_item.setdefault(span[ITEM], []).append(span)
    out = {"probe.items": (len(results), "count")}
    for kind, count in failures_by_type(by_item, results).items():
        out[f"probe.failed.{kind}"] = (count, "count")
    out["probe.spectral.eigendecompose_symmetric.errors"] = (
        sum(1 for s in spans if s[NAME] == "spectral.eigendecompose_symmetric" and s[ERROR]), "count")
    return out


def order_table(spans: list[list], results) -> list[str]:
    """Mean ms per item near orders 24, 32 and 40, beside ROADMAP's baseline."""
    names = ("exact.char_poly", "exact.multiplicity_structure", "spectral.jacobi_eigh",
             "spectral.eigendecompose_symmetric", "exact.first_krylov_mismatch",
             "exact.first_power_diagonal_mismatch")
    buckets: dict[int, list[int]] = {}
    for i, r in enumerate(results):
        if r.item.order >= 20:
            buckets.setdefault(min((24, 32, 40), key=lambda b: abs(b - r.item.order)), []).append(i)
    selfs: dict[tuple[int, str], float] = {}
    for span in spans:
        key = (span[ITEM], span[NAME])
        selfs[key] = selfs.get(key, 0.0) + span[END] - span[START] - span[CHILD]
    rows = []
    for bucket, items in sorted(buckets.items()):
        cols = [f"{name.split('.')[1]}={1e3 * sum(selfs.get((i, name), 0.0) for i in items) / len(items):.1f}"
                for name in names]
        item_ms = 1e3 * sum(results[i].seconds for i in items) / len(items)
        rows.append(f"n~{bucket}: {len(items)} items, {item_ms:.1f} ms/item; self ms/item " + " ".join(cols))
    return rows

