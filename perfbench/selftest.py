"""Self-test of the benchmark at tiny sizes (1/20 of each workload's input).

Every workload runs untimed-short and traced in one process with one
SparkSession. The test fails unless every call passes its output checks,
every metric named in BENCHMARK.json is emitted with its unit and a finite
value, no unnamed metric is emitted, and end-to-end values are nonzero.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

import run


def check(name: str, trace: bool, result: dict, spec: dict) -> list[str]:
    declared = spec["per_layer" if trace else "end_to_end"]
    where = f"{name} trace={int(trace)}"
    problems = [f"{where}: {p}" for p in result["problems"]]
    if not result["correct"]:
        problems.append(f"{where}: not correct ({result['failed']} failed)")
    extra = set(result["metrics"]) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: metrics not in BENCHMARK.json: {extra}")
    try:
        emitted = run.with_units(result["metrics"], trace)
    except KeyError as e:
        return problems + [f"{where}: metric {e} not emitted"]
    for metric, m in zip(declared, emitted.values()):
        v = m["value"]
        if m["unit"] != metric["unit"] or isinstance(v, bool):
            problems.append(f"{where}: {metric['name']} = {m}")
        elif not math.isfinite(v) or (not trace and v == 0):
            problems.append(f"{where}: {metric['name']} = {v}")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tmp = run.OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    run.configure_env(tmp)
    import workloads

    problems = []
    declared = {w["name"] for w in spec["workloads"]}
    if not declared <= set(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared} not in code")
    try:
        with run.spark_session() as spark:
            for name in workloads.WORKLOADS:
                for trace in (False, True):
                    result, _ = run.execute(
                        name, seed=1, seconds=0.1, trace=trace, spark=spark,
                        t_start=time.perf_counter(), tiny=True,
                    )
                    problems += check(name, trace, result, spec)
                    print(f"selftest: {name} trace={int(trace)} done")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("selftest FAILED:", p, file=sys.stderr)
    if not problems:
        print("selftest: all workloads emit every named metric")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
