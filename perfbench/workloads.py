"""The benchmark's workloads: generated inputs, the entry-point call, the
checks on its output, and a traced replica that times each layer from
outside by calling the same public functions in the same order.

Every workload uses k = 10 and z = 100 outliers injected with
``add_outliers``. The base dataset and its order are fixed per workload, like
the paper's fixed datasets; the seed draws the outliers' directions and
their positions in the input. A seed-drawn shuffle of the whole input would
move the radius by 6-12 % from seed to seed through GMM's first center and
the stream order alone, which would hide a quality regression of that size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.gmm import gmm_coreset_fixed
from repro.core.metric import as_points, cdist, radius
from repro.core.outliers_cluster import outliers_cluster
from repro.core.search import min_feasible_radius
from repro.data.datasets import DATASETS, add_outliers, inflate, to_spark
from repro.mapreduce.evaluate import radius_spark
from repro.mapreduce.kcenter_outliers import (
    experiment_tau,
    mr_kcenter_outliers,
    sequential_coreset_outliers,
)
from repro.mapreduce.partitioning import make_pids
from repro.mapreduce.round1 import CoresetSpec, run_round1
from repro.streaming.coreset_outliers import coreset_stream_outliers
from repro.streaming.doubling import DoublingCoreset
from tracing import Tracer

K, Z = 10, 100
EPS_HAT = 0.05  # the entry points' default OutliersCluster/search tolerance


@dataclass(frozen=True)
class Workload:
    kind: str  # "mr", "stream" or "seq"
    dataset: str  # key of repro.data.datasets.DATASETS
    n: int  # base dataset size, before inflation and outliers
    mu: float  # coreset size multiplier of Section 5
    inflate: int = 1
    ell: int = 1
    # Report set-up and call times rescaled to the reference host speed of
    # hostspeed.py. Only for interpreter-bound workloads, whose call time
    # the reference kernel tracks. It tracks the vectorised ones loosely:
    # over two sets of ten seeds, rescaling cut their spread in one set
    # (0.16 to 0.07) and doubled it in the other (0.07 to 0.15).
    rescaled: bool = False


# BENCHMARK.json drives all but mr_big_input, which runs by hand and in the
# self-test (see README.md).
WORKLOADS = {
    # tau = 4(k + 6z/ell) = 340 per reducer, |T| = 2720: the round-2 search
    # is the largest layer and the Spark plumbing is smaller.
    "mr_big_union": Workload("mr", "higgs", 20_000, mu=4, ell=8),
    # 160 100 points with tau = 85, |T| = 680: ingest, round 1 and radius
    # evaluation dominate and the search is nearly absent.
    "mr_big_input": Workload("mr", "higgs", 20_000, mu=1, inflate=8, ell=8),
    # Per-point doubling updates dominate; no Spark and no GMM.
    "stream_doubling": Workload(
        "stream", "power", 100_000, mu=2, rescaled=True
    ),
    # The ell = 1 improved sequential algorithm: GMM dominates.
    "seq_gmm": Workload("seq", "higgs", 40_000, mu=8),
}


def make_points(w: Workload, seed: int, *, tiny: bool = False) -> np.ndarray:
    """The workload's input; ``tiny`` shrinks it 20x for the self-test."""
    base = DATASETS[w.dataset](w.n // 20 if tiny else w.n)
    if w.inflate > 1:
        base = inflate(base, w.inflate)
    n = len(base)
    X, _ = add_outliers(base, Z, seed=seed)
    at = np.random.default_rng(seed).integers(0, n + 1, Z)
    return X[np.insert(np.arange(n), at, np.arange(n, n + Z))]


@dataclass
class Outcome:
    """What the benchmark keeps of one call: its centers, the z-outlier
    radius over the full input, the stored points and failed checks."""

    centers: np.ndarray
    radius: float
    space: int
    problems: list[str]


@dataclass
class Traced:
    """A traced call's output plus the counts its layer metrics need."""

    centers: np.ndarray
    radius: float
    facts: dict
    problems: list[str]


class Run:
    """One workload instance: its points, entry point and checks."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.n = len(X)

    def call(self):
        raise NotImplementedError

    def outcome(self, res) -> Outcome:
        raise NotImplementedError

    def traced(self, tr: Tracer) -> Traced:
        raise NotImplementedError

    def warm_up(self) -> Outcome:
        """Untimed first call; returns the reference outcome."""
        return self.outcome(self.call())

    def verify(self) -> list[str]:
        """Once-per-run checks on what the call does not return."""
        return []


def _centers_problems(centers) -> list[str]:
    return [f"{len(centers)} centers > k = {K}"] if len(centers) > K else []


def _probe_search(tr: Tracer, T, w, search, facts: dict) -> list[str]:
    """Replay the search's distance matrix and one OutliersCluster at the
    radius it found, sharing that matrix as the search does."""
    with tr.span("dist_matrix"):
        D = cdist(T, T)
    with tr.span("outliers_cluster"):
        res = outliers_cluster(T, w, K, search.r, EPS_HAT, dist_matrix=D)
    facts["evaluations"] = search.evaluations
    if not np.array_equal(res.centers_idx, search.cluster.centers_idx):
        return ["OutliersCluster at the found radius picked other centers"]
    return []


class MRRun(Run):
    """The randomized 2-round MR algorithm (Section 3.2.1)."""

    def __init__(self, w: Workload, X: np.ndarray, spark):
        super().__init__(X)
        self.spark = spark
        self.ell = w.ell
        self.tau = experiment_tau(w.mu, K, Z, w.ell, randomized=True)

    def call(self):
        return mr_kcenter_outliers(
            self.spark, self.X, K, Z, self.ell, tau=self.tau, randomized=True
        )

    def warm_up(self) -> Outcome:
        # The first MR call pays for JVM code paths and Python worker
        # start-up, about 10 s on 4 cores. Calls on a slice of the input
        # warm the same code paths at a fraction of a full call's cost, but
        # after them the first full-size call was still about 15 % slower
        # than the ones after it, so one full call ends the warm-up.
        part = self.X[: max(self.n // 32, 4 * Z)]
        for _ in range(3):
            mr_kcenter_outliers(
                self.spark, part, K, Z, self.ell, tau=self.tau, randomized=True
            )
        return super().warm_up()

    def outcome(self, res) -> Outcome:
        problems = _centers_problems(res.centers)
        if res.coreset_weight != self.n:
            problems.append(f"coreset weight {res.coreset_weight} != n")
        local = radius(self.X, res.centers, Z)
        if not math.isclose(res.radius, local, rel_tol=1e-9):
            problems.append(f"radius_spark {res.radius!r} != {local!r}")
        return Outcome(res.centers, res.radius, res.coreset_size, problems)

    def traced(self, tr: Tracer) -> Traced:
        with tr.span("call"):
            points = as_points(self.X)
            pids = make_pids(len(points), self.ell, "random")
            with tr.span("to_spark"):
                df = to_spark(self.spark, points, pids=pids).persist()
                df.count()
            try:
                with tr.span("round1"):
                    r1 = run_round1(df, self.ell, CoresetSpec(tau=self.tau))
                with tr.span("search"):
                    search = min_feasible_radius(
                        r1.points, r1.weights, K, Z, EPS_HAT
                    )
                centers = search.centers(r1.points)
                with tr.span("evaluate"):
                    rad = radius_spark(df, centers, z=Z)
            finally:
                df.unpersist()
        facts = {
            "n": self.n,
            "d": points.shape[1],
            "union_size": r1.size,
            "part_sizes": list(r1.part_sizes.values()),
        }
        # Round-1 GMM replayed on the driver over the same partitions, each
        # in id order as the reducers sort it.
        gmm_times, evals = [], 0
        with tr.span("probe"):
            for i in range(self.ell):
                part = points[pids == i]
                with tr.span("gmm") as s:
                    T_i, _, _ = gmm_coreset_fixed(part, self.tau)
                gmm_times.append(s.seconds)
                evals += len(part) * len(T_i)
            problems = _probe_search(tr, r1.points, r1.weights, search, facts)
        facts.update(gmm_part_s=gmm_times, gmm_evals=evals)
        if int(r1.weights.sum()) != self.n:
            problems.append("traced coreset weight != n")
        return Traced(centers, rad, facts, problems)


class StreamRun(Run):
    """CORESETOUTLIERS, the 1-pass streaming algorithm (Section 4)."""

    def __init__(self, w: Workload, X: np.ndarray):
        super().__init__(X)
        self.mu = w.mu
        # coreset_stream_outliers' default tau for this mu
        self.tau = max(K + Z, int(np.ceil(w.mu * (K + Z))))

    def call(self):
        return coreset_stream_outliers(self.X, K, Z, mu=self.mu)

    def _stream_problems(self, n_processed: int, space: int) -> list[str]:
        problems = []
        if n_processed != self.n:
            problems.append(f"processed {n_processed} of {self.n} points")
        if space > self.tau + 1:
            problems.append(f"space {space} > tau + 1 = {self.tau + 1}")
        return problems

    def outcome(self, res) -> Outcome:
        problems = _centers_problems(res.centers)
        problems += self._stream_problems(res.n_processed, res.space)
        return Outcome(
            res.centers, radius(self.X, res.centers, Z), res.space, problems
        )

    def traced(self, tr: Tracer) -> Traced:
        with tr.span("call"):
            points = as_points(self.X)
            coreset = DoublingCoreset(self.tau, points.shape[1])
            doublings = 0
            with tr.span("doubling"):
                phi = coreset.phi
                for p in points:
                    coreset.update(p)
                    if coreset.phi != phi:
                        # phi only ever doubles once it is set
                        if phi > 0:
                            doublings += round(math.log2(coreset.phi / phi))
                        phi = coreset.phi
            T, w, _ = coreset.finalize()
            with tr.span("search"):
                search = min_feasible_radius(T, w, K, Z, EPS_HAT)
            centers = search.centers(T)
        facts = {
            "n": self.n,
            "phi_doublings": doublings,
            "peak_size": coreset.peak_size,
        }
        with tr.span("probe"):
            problems = _probe_search(tr, T, w, search, facts)
        problems += self._stream_problems(
            coreset.n_processed, coreset.peak_size
        )
        return Traced(centers, radius(self.X, centers, Z), facts, problems)


class SeqRun(Run):
    """The improved sequential algorithm: ell = 1, no Spark."""

    def __init__(self, w: Workload, X: np.ndarray):
        super().__init__(X)
        self.tau = experiment_tau(w.mu, K, Z, 1, randomized=False)

    def call(self):
        return sequential_coreset_outliers(self.X, K, Z, tau=self.tau)

    def outcome(self, res) -> Outcome:
        centers, search = res[0], res[1]
        problems = _centers_problems(centers)
        if search.cluster.uncovered_weight > Z:
            problems.append("search returned an infeasible radius")
        return Outcome(
            centers,
            radius(self.X, centers, Z),
            len(search.cluster.uncovered),  # |T|: the mask spans the coreset
            problems,
        )

    def verify(self) -> list[str]:
        # The call returns no coreset weights, so replay its GMM once.
        _, w, _ = gmm_coreset_fixed(as_points(self.X), self.tau)
        return [] if int(w.sum()) == self.n else ["coreset weight != n"]

    def traced(self, tr: Tracer) -> Traced:
        with tr.span("call"):
            points = as_points(self.X)
            with tr.span("gmm"):
                T, w, _ = gmm_coreset_fixed(points, self.tau)
            with tr.span("search"):
                search = min_feasible_radius(T, w, K, Z, EPS_HAT)
            centers = search.centers(T)
        facts = {"n": self.n, "gmm_evals": self.n * len(T)}
        with tr.span("probe"):
            problems = _probe_search(tr, T, w, search, facts)
        if int(w.sum()) != self.n:
            problems.append("coreset weight != n")
        return Traced(centers, radius(self.X, centers, Z), facts, problems)


def make_run(name: str, seed: int, spark, *, tiny: bool = False) -> Run:
    w = WORKLOADS[name]
    X = make_points(w, seed, tiny=tiny)
    if w.kind == "mr":
        return MRRun(w, X, spark)
    if w.kind == "stream":
        return StreamRun(w, X)
    return SeqRun(w, X)


def layer_metrics(tr: Tracer, facts: dict, wall_ref: float, cores: int):
    """Per-layer metrics of one traced call, by name; layers the workload
    does not use read 0. Byte counts are computed from array sizes."""
    t = tr.seconds
    call = next(s for s in tr.spans if s.name == "call")
    n, d = facts["n"], facts.get("d", 0)
    gmm_part = facts.get("gmm_part_s", [])
    gmm_sum, gmm_max = sum(gmm_part), max(gmm_part, default=0.0)
    round1_s = t("round1")
    parts = facts.get("part_sizes", [])
    union = facts.get("union_size", 0)
    evals = facts["evaluations"]
    doubling_s = t("doubling")
    spark_row = 8 + 4 + 8 * d  # id, pid, features
    return {
        "to_spark.s": t("to_spark"),
        "to_spark.bytes_computed": n * spark_row if t("to_spark") else 0,
        "round1.s": round1_s,
        "round1.gmm_sum_s": gmm_sum,
        "round1.gmm_max_s": gmm_max,
        "round1.overhead_s": (
            round1_s - max(gmm_max, gmm_sum / cores) if round1_s else 0.0
        ),
        "round1.shuffle_bytes_computed": n * spark_row if round1_s else 0,
        # pid, features, weight, part_size per coreset point
        "round1.collect_bytes_computed": union * (4 + 8 * d + 8 + 8),
        "round1.union_size": union,
        "round1.part_skew": (
            max(parts) * len(parts) / sum(parts) if parts else 0.0
        ),
        "evaluate.s": t("evaluate"),
        "search.s": t("search"),
        "search.evaluations": evals,
        "search.s_per_eval": (t("search") - t("dist_matrix")) / evals,
        "search.dist_matrix_s": t("dist_matrix"),
        "outliers_cluster.s": t("outliers_cluster"),
        "gmm.s": t("gmm"),
        "gmm.distance_evals_computed": facts.get("gmm_evals", 0),
        "doubling.s": doubling_s,
        "doubling.us_per_point": doubling_s / n * 1e6 if doubling_s else 0.0,
        "doubling.phi_doublings": facts.get("phi_doublings", 0),
        "doubling.peak_size": facts.get("peak_size", 0),
        "trace.overhead_s": call.seconds - wall_ref,
        "trace.coverage": sum(s.seconds for s in tr.children(call))
        / call.seconds,
    }
