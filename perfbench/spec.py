"""What the benchmark runs and reports: workloads and the metric registry.

``BENCHMARK.json`` at the repository root repeats the workload names and
the metric names, units and bounds; the self-test checks that the two agree.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One generated corpus + query stream and the path that answers it.

    The corpus is the first ``n`` rows of the family's master collection,
    generated from ``family seed + --seed``; the query pool comes from the
    family's query generator with ``query seed + --seed``. ``--seed 0`` gives
    the rows of ``repro.embeddings.datasets.load_dataset`` (``MSL-200k``,
    ``MSL-10k``; the first 100k rows of ``WIKI-200k``) and its queries.
    """

    name: str
    why: str
    family: str  # key of repro.embeddings.datasets.FAMILIES
    n: int
    queries: str  # "dev" (MS MARCO Dev-style) or "nq" (Natural Questions-style)
    k: int
    spark: bool  # build with Spark and answer through the "lider" DataSource
    # Fixed per workload so runs compare like with like: the highest
    # percentile with at least ten samples beyond it in a default-length run
    # that still repeats within a tenth from run to run (p95 and p99 do not).
    # A Spark run times about six queries, which support no percentile above
    # the median, so there the tail is the median.
    tail_pct: float
    c0: int | None = None  # LIDERConfig.c0; None: its default, max(8, c // 50)
    pool: int = 2000  # distinct queries: quality is measured over all of them
    master_n: int | None = None  # None: the family's master size


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "msl200k-k100",
            "MSL-200k (c=400, c0=8), Dev queries, k=100, in memory: the paper's "
            "headline regime, where in-cluster expand, verify and the merge dominate",
            family="MSL", n=200_000, queries="dev", k=100, spark=False, tail_pct=90.0,
        ),
        Workload(
            "wiki100k-k10",
            "WIKI, first 100k (c=200, c0=12), NQ queries, k=10, in memory: more probes "
            "and small windows, so the fixed cost of each cluster call dominates",
            family="WIKI", n=100_000, queries="nq", k=10, spark=False, tail_pct=90.0, c0=12,
        ),
        Workload(
            "spark-msl10k",
            "MSL-10k built by build_lider_spark, saved, then one query at a time "
            "through the lider DataSource: Spark KMeans, RMI fits and job overhead",
            family="MSL", n=10_000, queries="dev", k=100, spark=True, tail_pct=50.0,
        ),
    ]
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: allowed worsening, share of median
    moves: str = ""  # per-layer only: end-to-end metric and workload it should move


# Bounds come from ten-seed runs on a shared 4-core machine: run-to-run
# latency and throughput move by 5-10% while the machine is quiet and up to
# 30% while other tenants load it; quality moves by 1-4% with the seed (the
# pool is 2000 queries).
END_TO_END: list[Metric] = [
    Metric("query_p50_ms", "ms", "lower", 0.25),
    Metric("query_tail_ms", "ms", "lower", 0.25),
    Metric("qps", "1/s", "higher", 0.25),
    Metric("recall_at_k", "frac", "higher", 0.05),
    Metric("mrr_at_10", "frac", "higher", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("index_bytes", "bytes", "lower", 0.05),
]

_SPARK = "setup_s on spark-msl10k; 0 on the in-memory workloads"
_DS = "query_p50_ms on spark-msl10k; 0 on the in-memory workloads"
_BUILD = "setup_s on msl200k-k100 and wiki100k-k10; flat on spark-msl10k"

PER_LAYER: list[Metric] = [
    Metric("lider.search_us", "us", "lower",
           moves="query_p50_ms, qps: untraced in-memory LIDER.search, the base of the split"),
    Metric("cr.hash_us", "us", "lower", moves="query_p50_ms, qps on all; flat on spark-msl10k"),
    Metric("ir.hash_us", "us", "lower",
           moves="query_p50_ms, qps: most on wiki100k-k10, then msl200k-k100"),
    Metric("ir.calls", "count", "lower",
           moves="query_p50_ms: 12 per query on wiki100k-k10, 8 on msl200k-k100"),
    Metric("cr.rmi_us", "us", "lower", moves="query_p50_ms on wiki100k-k10; flat on Spark"),
    Metric("ir.rmi_us", "us", "lower", moves="query_p50_ms on wiki100k-k10; flat on Spark"),
    Metric("cr.rmi_err_p50", "positions", "lower", moves="recall_at_k via cr.recall_c0"),
    Metric("cr.rmi_err_p99", "positions", "lower", moves="recall_at_k via cr.recall_c0"),
    Metric("ir.rmi_err_p50", "positions", "lower", moves="recall_at_k on wiki100k-k10"),
    Metric("ir.rmi_err_p99", "positions", "lower", moves="recall_at_k on wiki100k-k10"),
    Metric("cr.expand_us", "us", "lower", moves="query_p50_ms on msl200k-k100"),
    Metric("ir.expand_us", "us", "lower",
           moves="query_p50_ms on msl200k-k100, less on wiki100k-k10"),
    Metric("cr.candidates", "count", "lower", moves="query_p50_ms, cr.recall_c0"),
    Metric("ir.candidates", "count", "lower",
           moves="query_p50_ms and recall_at_k on msl200k-k100"),
    Metric("cr.scan_frac", "frac", "lower", moves="query_p50_ms, cr.recall_c0"),
    Metric("ir.scan_frac", "frac", "lower",
           moves="query_p50_ms, recall_at_k: near 1 on msl200k-k100, less on wiki100k-k10"),
    Metric("cr.verify_us", "us", "lower", moves="query_p50_ms; flat on Spark"),
    Metric("ir.verify_us", "us", "lower", moves="query_p50_ms on msl200k-k100; flat on Spark"),
    Metric("lider.merge_us", "us", "lower",
           moves="query_p50_ms: msl200k-k100 (8x100 merged) more than wiki100k-k10 (12x10)"),
    Metric("cr.recall_c0", "frac", "higher", moves="recall_at_k, mrr_at_10 on wiki100k-k10"),
    Metric("ir.recall_in_probed", "frac", "higher",
           moves="recall_at_k, mrr_at_10 on wiki100k-k10"),
    Metric("ref.ivf_flat_us", "us", "lower",
           moves="none: exact IVF-Flat over the index's own clusters, compare lider.search_us"),
    Metric("ref.ivf_flat_recall", "frac", "higher",
           moves="none: recall of that IVF-Flat scan, compare recall_at_k"),
    Metric("build.kmeans_s", "s", "lower", moves=_BUILD),
    Metric("build.cr_fit_s", "s", "lower", moves=_BUILD),
    Metric("build.ir_fit_s", "s", "lower", moves=_BUILD + " (0: fitted in Spark)"),
    Metric("build.ir_fit_busy_s", "s", "lower", moves=_BUILD + " (0: fitted in Spark)"),
    Metric("spark.session_s", "s", "lower", moves=_SPARK),
    Metric("spark.kmeans_s", "s", "lower", moves=_SPARK),
    Metric("spark.fit_rmis_s", "s", "lower", moves=_SPARK),
    Metric("spark.assemble_s", "s", "lower", moves=_SPARK),
    Metric("ds.save_s", "s", "lower", moves=_SPARK),
    Metric("ds.plan_ms", "ms", "lower", moves=_DS),
    Metric("ds.read_ms", "ms", "lower", moves=_DS),
    Metric("ds.partitions", "count", "lower", moves=_DS),
    Metric("ds.job_overhead_ms", "ms", "lower", moves=_DS),
    Metric("index_disk_bytes", "bytes", "lower", moves=_SPARK),
    Metric("trace.overhead_frac", "frac", "lower",
           moves="none: traced over untraced per-query time, minus 1"),
]

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
