"""Benchmark of the k-center-with-outliers pipelines: 2-round MapReduce on
Spark, 1-pass streaming, and the improved sequential algorithm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Set-up (imports, SparkSession start, data generation and an untimed
warm-up) is timed as ``setup_s``. Then, with ``--trace 0``, the
workload's entry point is called in a closed loop for ``--seconds``
seconds (at least once), each output is checked, and the end-to-end
metrics are printed. The reference kernel of ``hostspeed.py`` runs after
set-up and before and after each call; workloads marked ``rescaled``
report set-up and call times rescaled by it to a reference host speed.
With ``--trace 1`` one untimed entry-point call is followed by a traced
replica of it that times each layer from outside; the replica must give
the same centers and radius, or its layer metrics are not reported.

The last line of standard output is the result object; the line before it
is the run record (provenance, samples, quartiles, checks, spans), which is
also written under ``.perfbench/runs/``. Metric names and units come from
``BENCHMARK.json`` at the checkout root.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

# perf_counter is CLOCK_MONOTONIC, so a start time carried across the
# re-exec in with_malloc_env stays comparable.
T_START = float(os.environ.get("PERFBENCH_T0", time.perf_counter()))
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
# glibc hands a freed block above its mmap threshold (at most 32 MiB by
# default) back to the kernel, so the search's 59 MB temporaries at
# |T| = 2720 were faulted in afresh on every OutliersCluster step: half the
# search's time went to page faults, and that time swung by 20 % with the
# load of the shared host. With these thresholds freed blocks stay in the
# heap and are reused; glibc reads them at process start, hence the re-exec.
MALLOC_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def with_malloc_env() -> None:
    """Re-execute this script under ``MALLOC_ENV`` unless already there;
    the Spark JVM and its Python workers inherit it."""
    if all(os.environ.get(k) == v for k, v in MALLOC_ENV.items()):
        return
    os.environ.update(MALLOC_ENV, PERFBENCH_T0=repr(T_START))
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])


def configure_env(tmp: Path) -> None:
    """Process environment for the run; must precede numpy and JVM start.

    Spark runs as local[nproc] with one Python worker per core, so BLAS is
    pinned to one thread per process to keep the cores from being
    oversubscribed. Executors get ``src/`` on their PYTHONPATH, and every
    temporary file goes under ``tmp`` inside the checkout.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    paths = [str(SRC)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["SPARK_MASTER"] = f"local[{NPROC}]"
    os.environ["SPARK_DRIVER_MEM"] = "2g"
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["TMPDIR"] = str(tmp)
    # -XX:-UsePerfData: no /tmp/hsperfdata_* files from either JVM.
    jvm = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = jvm
    os.environ["SPARK_SUBMIT_OPTS"] = " ".join(
        [
            os.environ.get("SPARK_SUBMIT_OPTS", ""),
            jvm,
            "-Dspark.ui.showConsoleProgress=false",
        ]
    ).strip()
    sys.path.insert(0, str(SRC))


def _check_executors(spark) -> None:
    """Fail fast, with one message, if executors cannot import ``repro``
    from this checkout (otherwise the first job dies deep in a Py4J stack
    trace, or times a different copy of the program)."""
    try:
        where = (
            spark.sparkContext.parallelize([0], 1)
            .map(lambda _: __import__("repro").__file__)
            .collect()[0]
        )
    except Exception as e:  # Py4JJavaError wrapping the worker's error
        raise SystemExit(
            f"perfbench: Spark executors cannot import 'repro' "
            f"({type(e).__name__}); their PYTHONPATH must include {SRC}"
        ) from None
    if not Path(where).resolve().is_relative_to(SRC):
        raise SystemExit(
            f"perfbench: executors import repro from {where}, not from {SRC}"
        )


@contextmanager
def spark_session():
    """A SparkSession from ``get_session``; on exit the session, its JVM
    and the JVM's Python workers are stopped and waited for."""
    from pyspark import SparkContext

    from repro.experiments.session import get_session

    spark = get_session("perfbench")
    gateway = SparkContext._gateway
    try:
        _check_executors(spark)
        yield spark
    finally:
        spark.stop()
        proc = gateway.proc
        proc.stdin.close()  # the gateway JVM exits on end of input
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def provenance(spark, seed: int) -> dict:
    import numpy as np
    import pyspark

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "nproc": NPROC,
        "spark_master": spark.sparkContext.master if spark else None,
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def _git_sha() -> str:
    """HEAD of the checkout; "unknown" for a checkout exported without
    ``.git`` (not the HEAD of an enclosing repository) or without git."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libopenblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0], xs[0], xs[0]]
    return statistics.quantiles(xs, n=4)


def _repeat_problems(ref, out) -> list[str]:
    import numpy as np

    if np.array_equal(ref.centers, out.centers) and ref.radius == out.radius:
        return []
    return ["centers or radius differ from an earlier call at this seed"]


def execute(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    spark,
    t_start: float,
    tiny: bool = False,
) -> tuple[dict, dict]:
    """Set up and run one workload; returns ``(result, record)``."""
    import hostspeed
    import workloads
    from tracing import Tracer

    t = time.perf_counter()
    run = workloads.make_run(name, seed, spark, tiny=tiny)
    t_data = time.perf_counter() - t
    t = time.perf_counter()
    ref = run.warm_up()
    t_warm = time.perf_counter() - t
    setup_s = time.perf_counter() - t_start
    # The host's speed right after set-up, which the warm-up call dominates
    # on the workloads without Spark.
    setup_ref = (hostspeed.reference_s() + hostspeed.reference_s()) / 2
    rescaled = workloads.WORKLOADS[name].rescaled
    record = {
        "workload": name,
        "n": run.n,
        "k": workloads.K,
        "z": workloads.Z,
        "tau": run.tau,
        "provenance": provenance(spark, seed),
        "setup": {
            "total_s": setup_s,
            "data_s": t_data,
            "warm_up_s": t_warm,
            "reference_s": setup_ref,
        },
    }
    if rescaled:
        setup_s *= hostspeed.REF_S / setup_ref
    problems: list[str] = []
    if trace:
        t = time.perf_counter()
        res = run.call()
        wall_ref = time.perf_counter() - t
        out = run.outcome(res)
        call_problems = out.problems + _repeat_problems(ref, out)
        tr = Tracer(f"{name}-seed{seed}")
        traced = run.traced(tr)
        traced_problems = traced.problems + _repeat_problems(out, traced)
        problems = call_problems + traced_problems
        failed = bool(call_problems) + bool(traced_problems)
        top = [s for s in tr.spans if s.parent == 0]
        shares = {s.name: s.seconds / tr.spans[0].seconds for s in top}
        record.update(
            wall_ref_s=wall_ref,
            spans=tr.dump(),
            shares=shares,
            largest_layer=max(shares, key=shares.get),
        )
        metrics = (
            {}
            if traced_problems
            else workloads.layer_metrics(tr, traced.facts, wall_ref, NPROC)
        )
        result = _result(2, failed, problems, metrics)
        return result, record

    samples: list[float] = []
    refs: list[float] = []  # mean reference-kernel time around each call
    attempted = failed = 0
    t_begin = time.perf_counter()
    while attempted == 0 or time.perf_counter() - t_begin < seconds:
        attempted += 1
        try:
            ref_before = hostspeed.reference_s()
            t = time.perf_counter()
            res = run.call()
            dt = time.perf_counter() - t
            ref_after = hostspeed.reference_s()
            out = run.outcome(res)
        except Exception:  # a raising call is a failed call; keep going
            traceback.print_exc()
            failed += 1
            continue
        samples.append(dt)
        refs.append((ref_before + ref_after) / 2)
        call_problems = out.problems + _repeat_problems(ref, out)
        if call_problems:
            failed += 1
            problems += call_problems
    verify_problems = run.verify()
    if verify_problems:  # a deterministic defect shared by every call
        failed = attempted
        problems += verify_problems
    adjusted = [dt * hostspeed.REF_S / r for dt, r in zip(samples, refs)]
    record.update(
        calls=attempted,
        error_rate=failed / attempted,
        wall_samples_s=samples,
        reference_samples_s=refs,
        adj_wall_samples_s=adjusted,
    )
    if not samples:
        return _result(attempted, failed, problems, {}), record
    timed = adjusted if rescaled else samples
    wall = statistics.median(timed)
    record.update(
        wall_median_s=statistics.median(samples),
        wall_quartiles_s=_quartiles(samples),
        adj_wall_median_s=statistics.median(adjusted),
        adj_wall_quartiles_s=_quartiles(adjusted),
    )
    metrics = {
        "wall_s": wall,
        "points_per_s": run.n / wall,
        "radius": ref.radius,
        "space_points": ref.space,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": setup_s,
    }
    return _result(attempted, failed, problems, metrics), record


def _result(attempted, failed, problems, metrics) -> dict:
    return {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def with_units(metrics: dict, trace: bool) -> dict:
    """Metrics named in BENCHMARK.json, in its order, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in declared
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    with_malloc_env()
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(
            f"perfbench: {SRC / 'repro'} or {ROOT / 'BENCHMARK.json'} not "
            "found; run from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    # On SIGTERM, unwind so the JVM is stopped and the temporaries removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    configure_env(tmp)
    try:
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(
                f"perfbench: unknown workload {args.workload!r}; expected "
                f"one of {sorted(workloads.WORKLOADS)}",
                file=sys.stderr,
            )
            return 2
        needs_spark = workloads.WORKLOADS[args.workload].kind == "mr"
        with spark_session() if needs_spark else nullcontext() as spark:
            result, record = execute(
                args.workload, seed=args.seed, seconds=args.seconds,
                trace=bool(args.trace), spark=spark, t_start=T_START,
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["problems"] = result.pop("problems")
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float)
    )
    print(json.dumps({k: v for k, v in record.items() if k != "spans"}))
    if not result["metrics"]:  # every call raised, or the trace diverged
        print(json.dumps(result))
        return 1
    result["metrics"] = with_units(result["metrics"], bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
