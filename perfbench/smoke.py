#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on tiny inputs and checks
that no operation fails, that every metric BENCHMARK.json names is printed
with its unit, that the traced and untraced runs saw the same inputs, that
flipping one known answer trips the gate and the verdict check, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE.relative_to(ROOT) / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_runs(spec: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        digests = set()
        for trace in (0, 1):
            code, lines = run(workload, trace)
            assert code == 0, f"{workload} trace {trace} exited {code}: {lines[-3:]}"
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            assert result["failed"] == 0, f"{workload} trace {trace}: an operation failed: {lines[-3:]}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted[trace], f"{workload} trace {trace}: metrics differ from BENCHMARK.json"
            env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
            digests.add(env["inputs_sha256"])
        assert len(digests) == 1, f"{workload}: traced and untraced inputs differ"
        print(f"ok  {workload}: {len(wanted[0])} + {len(wanted[1])} metrics, inputs {digests.pop()[:12]}")


def check_gate() -> None:
    sys.path.insert(0, str(HERE))
    import workloads

    for name in workloads.WORKLOADS:
        inp = workloads.build(name, 7, 1, tiny=True)
        workloads.gate(inp)
        item = next(i for rnd in inp.rounds for i in rnd if "cospectral" in i.expect)
        item.expect["cospectral"] = not item.expect["cospectral"]
        try:
            workloads.gate(inp)
        except workloads.GateError:
            pass
        else:
            raise AssertionError(f"{name}: gate did not trip on a flipped answer")
        verdict = next((i for rnd in inp.rounds for i in rnd if i.expect["check"] == "verdict"), None)
        if verdict is not None:
            said = not verdict.expect["cospectral"]
            line = f"{verdict.expect['matrix']} cospectral: {said}\n"
            outcome, _ = workloads.check(inp, verdict, int(not said), line, "")
            assert outcome == "wrong", f"{name}: a wrong verdict was judged {outcome}"
        print(f"ok  {name}: gate and verdict check trip on a flipped answer")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("verify-adj", 0, cwd=bare)
    shutil.rmtree(bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    print(f"ok  without sources: exit {code}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_refuses_without_sources()
    check_runs(spec)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
