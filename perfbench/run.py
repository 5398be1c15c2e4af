#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for cospectra.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-adj --seed 1 --seconds 20 --trace 0

The benchmark makes its inputs from ``--seed``, confirms every known answer
in exact integer arithmetic, then passes over the items of the workload in a
closed loop with one client, one item at a time, through
``cospectra.cli.main`` (in-process) or, for ``cli-small``, one interpreter
per command.  A wrong verdict fails the run.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a fixed number of rounds, each
untraced and then traced, and prints the per-layer metrics.  The last line
of standard output is one JSON object.
Everything it writes goes under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
ITEM_LIMIT_S = 30  # an item running longer counts as attempted, not decided
RUN_LIMIT_S = 150  # no new pass or traced round starts after this much wall time
SETUP_REPEATS = 9  # timed set-up launches, spread over the run
CLI_ENTRY = "import sys; from cospectra.cli import main; sys.exit(main())"
SETUP_CHILD = """import os, sys, cospectra
for name in sorted(os.listdir('.')):
    if name.endswith('.txt'):
        with open(name) as fh:
            cospectra.parse_edge_list(fh.read())
sys.stdout.write('ready\\n')
sys.stdout.flush()
"""


def pin_environment() -> dict[str, str]:
    """One BLAS/OpenMP thread and a byte-code cache inside .bench_build, here
    and in every child; must run before numpy is imported.  Byte code must be
    written for the cache to fill, whatever PYTHONDONTWRITEBYTECODE says."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
    sys.dont_write_bytecode = False
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


class ItemTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program swallows it."""


def _alarm(signum, frame):
    raise ItemTimeout


@dataclass
class Result:
    item: object
    seconds: float
    outcome: str  # decided | failed | wrong
    detail: str
    rss_kib: int = 0


# ---------------------------------------------------------------------------
# running one item


class InProcess:
    """Runs an item's argv through cospectra.cli.main in this process."""

    def __init__(self, check) -> None:
        import cospectra
        import cospectra.cli
        import cospectra.fixtures

        self.cospectra = cospectra
        self.cli = cospectra.cli
        self.check = check
        # every item pays for fixtures as a fresh process would
        self.clear_fixtures = getattr(cospectra.fixtures.load_fixture, "cache_clear", lambda: None)

    def certify(self, out: str):
        """The program's own exact claims on a construction it printed."""
        doc = json.loads(out)
        graph = self.cospectra.parse_edge_list(doc["edge_list"])
        cg = self.cli.constructed_from_json(graph, doc["provenance"])
        claims = self.cospectra.check_a_claims if cg.kind == "A" else self.cospectra.check_l_claims
        return claims(cg)

    def __call__(self, item) -> Result:
        self.clear_fixtures()
        out, err = io.StringIO(), io.StringIO()
        code, raised, violation = None, None, None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = self.cli.main(list(item.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                if code == 0 and "--json" in item.argv and item.expect["check"] in ("graph", "random"):
                    violation = self.certify(out.getvalue())
        except ItemTimeout:
            raised = "timeout"
        except Exception as exc:  # an item that raises is counted, and the run goes on
            raised = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        if raised:
            return Result(item, seconds, "failed", raised)
        if violation is not None:
            return Result(item, seconds, "wrong", f"construction claim failed: {violation}")
        outcome, detail = self.check(item, code, out.getvalue(), err.getvalue())
        return Result(item, seconds, outcome, detail)


class Subprocess:
    """Runs an item as `cospectra <argv>` in a fresh interpreter."""

    def __init__(self, check, env, cwd: Path) -> None:
        self.check, self.env, self.cwd = check, env, cwd

    def __call__(self, item) -> Result:
        cmd = [sys.executable, "-c", CLI_ENTRY, *item.argv]
        with open(self.cwd / ".out", "w+") as fo, open(self.cwd / ".err", "w+") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=self.cwd, env=self.env)
            signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
            timed_out = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except ItemTimeout:
                timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
            fo.seek(0)
            fe.seek(0)
            out, err = fo.read(), fe.read()
        if timed_out:
            return Result(item, seconds, "failed", "timeout", usage.ru_maxrss)
        outcome, detail = self.check(item, proc.returncode, out, err)
        return Result(item, seconds, outcome, detail, usage.ru_maxrss)


def run_passes(inp, run_one, seconds: float, deadline: float, setup):
    """Whole passes over the pool of rounds until ``seconds`` of item time.

    Returns the results, the item time, the number of passes, the fastest
    time of each item of the pool over all passes, and SETUP_REPEATS times
    of ``setup()``, called between items at even steps of item time so that
    they sample the host as the items do."""
    results: list[Result] = []
    pool = [item for rnd in inp.rounds for item in rnd]
    best = [math.inf] * len(pool)
    setup_times: list[float] = []
    timed, passes = 0.0, 0
    while time.monotonic() < deadline and not (passes and timed >= seconds):
        for i, item in enumerate(pool):
            results.append(run_one(item))
            best[i] = min(best[i], results[-1].seconds)
            timed += results[-1].seconds
            if timed >= len(setup_times) * seconds / SETUP_REPEATS and len(setup_times) < SETUP_REPEATS:
                setup_times.append(setup())
        passes += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup())
    return results, timed, passes, best, setup_times


# ---------------------------------------------------------------------------
# set-up and environment


def launch_setup(cwd: Path, env) -> float:
    """Seconds from a fresh interpreter to ready: import cospectra and parse
    every edge list of the run."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], stdout=subprocess.PIPE,
                          cwd=cwd, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("set-up child did not get ready")
    return elapsed


def cli_startup(cwd: Path, env) -> dict[str, float]:
    """Interpreter start and the import split of `cospectra` (python -X importtime)."""
    bare = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, env=env, check=True)
        bare.append(time.perf_counter() - start)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cospectra.cli"],
                          cwd=cwd, env=env, capture_output=True, text=True, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.numpy_import_s": cumulative.get("numpy", 0.0),
            "cli.cospectra_import_s": cumulative.get("cospectra", 0.0)}


def host_loop_ms() -> float:
    """A fixed pure-Python loop, timed before and after the items, so that a
    change of host speed during a run shows in the report."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return 1e3 * (time.perf_counter() - start)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (ROOT / ".git" / ref).is_file():
        return (ROOT / ".git" / ref).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(args, inp, digest: str) -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "cospectra").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": git_sha(), "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "pycache_prefix": sys.pycache_prefix, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs_sha256": digest,
        "files": len(inp.files), "rounds_in_pool": len(inp.rounds),
    }


# ---------------------------------------------------------------------------


def tally(results: list[Result]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in results:
        key = r.outcome if r.outcome == "decided" else f"{r.outcome}: {r.detail.split(':')[0]}"
        counts[key] = counts.get(key, 0) + 1
    return counts


def by_kind(results: list[Result]) -> dict[str, str]:
    """Item count, decided count and mean ms per item kind."""
    kinds: dict[str, list[Result]] = {}
    for r in results:
        kinds.setdefault(r.item.kind, []).append(r)
    return {kind: f"{len(rs)} items, {sum(r.outcome == 'decided' for r in rs)} decided, "
                  f"{1e3 * sum(r.seconds for r in rs) / len(rs):.1f} ms/item"
            for kind, rs in sorted(kinds.items())}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one round of small inputs (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cospectra" / "__init__.py").is_file():
        print(f"error: no cospectra sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    wall_start = time.monotonic()
    env = pin_environment()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    inp = workloads.build(args.workload, args.seed, args.seconds, args.tiny)
    digest = inp.digest()
    gated = workloads.gate(inp)
    run_dir = BUILD / "inputs" / f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)  # set-up parses every file in it
    run_dir.mkdir(parents=True)
    for name, text in inp.files.items():
        (run_dir / name).write_text(text)
    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    launch_setup(run_dir, env)  # untimed: fills the byte-code cache

    signal.signal(signal.SIGALRM, _alarm)
    os.chdir(run_dir)
    subprocess_mode = spec.subprocess and not args.trace
    check = functools.partial(workloads.check, inp)
    run_one = Subprocess(check, env, run_dir) if subprocess_mode else InProcess(check)
    deadline = wall_start + RUN_LIMIT_S
    warm = [run_one(item) for item in inp.warmup]

    report = {"env": environment(args, inp, digest), "why": spec.why, "gated_answers": gated,
              "host_loop_ms": [host_loop_ms()]}
    setup_times: list[float] = []
    plain: list[Result] = []
    probe: list[Result] = []
    if not args.trace:
        results, timed, passes, best, setup_times = run_passes(
            inp, run_one, args.seconds, deadline, functools.partial(launch_setup, run_dir, env))
        rounds = passes * len(inp.rounds)
        decided = sum(r.outcome == "decided" for r in results)
        rss_kib = (max(r.rss_kib for r in [*warm, *results]) if subprocess_mode
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        # each item at its fastest pass: on a shared host the same item
        # takes up to twice as long in one second as in the next, and the
        # fastest of about ten passes is the figure that repeats
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "decided_per_s": (decided / passes / sum(best), "1/s"),
            "decided_share": (decided / len(results), "ratio"),
            "peak_rss_mib": (rss_kib / 1024, "MiB"),
        }
    else:
        # a fixed number of rounds, so per-layer sums compare across commits;
        # each round runs untraced, then traced, so host speed drift cancels
        # out of the overhead
        wanted = 1 if args.tiny else math.ceil(args.seconds / 2 / (spec.traced_round_s or spec.round_s))
        tracer = tracing.Tracer()
        results, plain_s, timed, rounds = [], 0.0, 0.0, 0
        while rounds < wanted and time.monotonic() < deadline:
            rnd = inp.rounds[rounds % len(inp.rounds)]
            plain += [run_one(item) for item in rnd]
            plain_s += sum(r.seconds for r in plain[-len(rnd):])
            tracer.install()
            for item in rnd:
                tracer.item = len(results)
                results.append(run_one(item))
                timed += results[-1].seconds
            tracer.uninstall()
            rounds += 1
        plain_rate = sum(r.outcome == "decided" for r in plain) / plain_s
        metrics = tracing.layer_metrics(tracer.spans, results, timed, plain_rate)
        if inp.probe:
            # counted apart from the workload's operations: the probe's
            # graphs are of orders on which the program raises on valid input
            probe_tracer = tracing.Tracer()
            probe_tracer.install()
            for item in inp.probe:
                probe_tracer.item = len(probe)
                probe.append(run_one(item))
            probe_tracer.uninstall()
            metrics.update(tracing.probe_metrics(probe_tracer.spans, probe))
        if spec.subprocess:
            metrics.update({k: (v, "s") for k, v in cli_startup(run_dir, env).items()})
        report["order_table"] = tracing.order_table(tracer.spans, results)
        with open(reports / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
            for span in tracer.spans:
                order = results[span[tracing.ITEM]].item.order if span[tracing.ITEM] >= 0 else None
                fh.write(json.dumps(span + [order]) + "\n")

    report["host_loop_ms"].append(host_loop_ms())
    wrong = [r for r in [*warm, *plain, *results, *probe] if r.outcome == "wrong"]
    failed = sum(r.outcome != "decided" for r in results)
    report.update({"setup_s_samples": setup_times, "rounds": rounds, "timed_s": timed,
                   "outcomes": tally(results), "kinds": by_kind(results), "probe": tally(probe),
                   "wrong": [[r.item.kind, r.item.argv, r.detail] for r in wrong],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    with open(reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"# workload {args.workload}: {spec.why}")
    print(f"# env {json.dumps(report['env'], sort_keys=True)}")
    print(f"# {len(results)} items in {rounds} rounds, {timed:.2f} s of item time; "
          f"outcomes {json.dumps(report['outcomes'], sort_keys=True)}")
    print(f"# host loop before/after: {report['host_loop_ms'][0]:.1f} / {report['host_loop_ms'][1]:.1f} ms; "
          f"setup samples {' '.join(f'{t:.3f}' for t in setup_times)} s")
    for kind, row in report["kinds"].items():
        print(f"# {kind}: {row}")
    if probe:
        print(f"# defect probe, {len(probe)} items of order {min(r.item.order for r in probe)}-"
              f"{max(r.item.order for r in probe)}, not counted above: {json.dumps(report['probe'], sort_keys=True)}")
    for row in report.get("order_table", []):
        print(f"# {row}")
    for name, (value, unit) in metrics.items():
        if not args.trace or value:
            print(f"# {name} = {value:.6g} {unit}")
    for r in wrong:
        print(f"# WRONG {r.item.kind} {' '.join(r.item.argv)}: {r.detail}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
