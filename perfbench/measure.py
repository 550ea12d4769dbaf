"""One benchmark run: generate a workload, set it up, time it, check it.

Load is one client in a closed loop: the next query is sent when the
previous answer is back. Each query is timed on its own with
``perf_counter_ns``. The untraced run (``trace=False``) gives the
end-to-end metrics; the traced run gives the per-layer split, and its
untraced half, run on the same queries, gives the tracing overhead.
"""
from __future__ import annotations

import contextlib
import ctypes
import inspect
import json
import os
import re
import shutil
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from perfbench.spec import PER_LAYER, Workload
from perfbench.tracer import Tracer, instrument_build, instrument_search, self_times
from repro.core.lider import LIDER, LIDERConfig
from repro.embeddings.corpus import EmbeddingCorpus, make_corpus
from repro.embeddings.datasets import FAMILIES, dev_queries, nq_queries
from repro.metrics import mrr_at_k, recall_at_k

SETUPS = 3  # set-ups per run; setup_s is their median
WARMUP_QUERIES = 20  # untimed in-memory queries before the timed loop
TRACE_BLOCK = 200  # queries per untraced/traced block in the traced run
SCORE_TOL = 1e-5  # float32 dot products of unit vectors, any summation order
# Timed in-memory queries run with one OpenBLAS thread. With the default two,
# each small matrix-vector product of a query hands work to a second vCPU:
# on a shared 4-core machine the single-query p90 went from 2 ms to 36 ms
# while two other cores were busy, against 2.1-2.5 ms with one thread.
# Builds keep the library default.
QUERY_BLAS_THREADS = 1
SPARK_CORES = min(4, len(os.sched_getaffinity(0)))  # local[N], N <= nproc
QUERY_GENERATORS = {"dev": dev_queries, "nq": nq_queries}


def _openblas():
    """(set, get) thread-count functions of the OpenBLAS numpy loaded, or None."""
    with open("/proc/self/maps") as f:
        paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            if hasattr(lib, f"openblas_set_num_threads{suffix}"):
                set_n = getattr(lib, f"openblas_set_num_threads{suffix}")
                get_n = getattr(lib, f"openblas_get_num_threads{suffix}")
                set_n.argtypes, set_n.restype = [ctypes.c_int], None
                get_n.argtypes, get_n.restype = [], ctypes.c_int
                return set_n, get_n
    return None


def blas_threads_settable() -> bool:
    return _openblas() is not None


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body with ``n`` OpenBLAS threads, then restore the count
    (no-op when numpy is not linked against OpenBLAS)."""
    fns = _openblas()
    if fns is None:
        yield
        return
    set_n, get_n = fns
    before = get_n()
    set_n(n)
    try:
        yield
    finally:
        set_n(before)


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    failures: Counter
    details: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def make_data(w: Workload, seed: int):
    """(corpus embeddings, query set) for ``w``; ``seed=0`` reproduces
    ``load_dataset(...)`` and the family's default query generator."""
    f = FAMILIES[w.family]
    master = make_corpus(
        w.master_n or f.master_n, dim=f.dim, n_topics=f.n_topics, seed=f.seed + seed,
        topic_spread=f.topic_spread, emb_noise=f.emb_noise,
    )
    corpus = EmbeddingCorpus(
        emb=master.emb[: w.n], semantic=master.semantic[: w.n], topic=master.topic[: w.n]
    )
    gen = QUERY_GENERATORS[w.queries]
    base = inspect.signature(gen).parameters["seed"].default
    return corpus.emb, gen(corpus, w.pool, seed=base + seed)


def exact_topk(emb: np.ndarray, queries: np.ndarray, k: int, chunk: int = 64) -> np.ndarray:
    """Exact top-k ids by inner product, best first.

    ``repro.embeddings.corpus.exact_topk`` reads the corpus once per query
    and partitions every score, too slow for a 2000-query pool on each run;
    this scores a block of queries at once and partitions only the scores
    at or above the k-th best of every ``step``-th row, a lower bound on the
    k-th best overall, so no true top-k row is skipped. The self-test
    compares the two.
    """
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    step = max(1, emb.shape[0] // (64 * k))
    for s in range(0, queries.shape[0], chunk):
        scores = queries[s : s + chunk] @ emb.T
        sample = scores[:, ::step]
        floor = np.partition(sample, sample.shape[1] - k, axis=1)[:, sample.shape[1] - k]
        for r, row in enumerate(scores):
            cand = np.flatnonzero(row >= floor[r])
            top = cand[np.argpartition(-row[cand], k - 1)[:k]]
            out[s + r] = top[np.argsort(-row[top], kind="stable")]
    return out


def check_answer(emb: np.ndarray, q: np.ndarray, k: int, ids, scores) -> str | None:
    """Why the answer is wrong, or None: min(k, n) unique in-range ids,
    scores non-increasing and equal to ``emb[id] @ q``."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n = emb.shape[0]
    if ids.shape != (min(k, n),) or scores.shape != ids.shape:
        return "count"
    if ids.min() < 0 or ids.max() >= n:
        return "range"
    if np.unique(ids).size != ids.size:
        return "duplicate"
    if np.any(np.diff(scores) > 0):
        return "order"
    if not np.allclose(scores, emb[ids] @ q, rtol=0.0, atol=SCORE_TOL):
        return "score"
    return None


def percentiles(lat_ns: list[int]) -> dict:
    """Percentiles in ms, each with the number of samples beyond it."""
    a = np.asarray(lat_ns, dtype=np.float64) / 1e6
    out = {"n": int(a.size)}
    for p in (50, 90, 95, 99, 99.9):
        v = float(np.percentile(a, p))
        out[f"p{p:g}"] = {"ms": v, "beyond": int((a > v).sum())}
    out["max_ms"] = float(a.max())
    return out


class Run:
    """State of one run; ``execute`` returns its Outcome."""

    def __init__(self, w: Workload, seed: int, seconds: float, trace: bool, workdir: str):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.workdir = workdir
        self.tracer = Tracer()
        self.failures: Counter = Counter()
        self.attempted = 0
        self.details: dict = {}
        self.spark = None

    # ------------------------------------------------------------- helpers
    def check(self, j: int, ids, scores) -> bool:
        self.attempted += 1
        why = check_answer(self.emb, self.qs.emb[j], self.w.k, ids, scores)
        if why is not None:
            self.failures[why] += 1
        return why is None

    def search(self, q: np.ndarray):
        return self.lider.search(q, self.w.k)

    def timed_segment(self, seconds: float, lat: list[int], answered: dict) -> int:
        """Closed loop over the pool, continuing where the last segment
        stopped; appends each query's ns to ``lat``, checks every answer
        (on Spark also against LIDER.search on the same index) and keeps
        the ids of correct ones for quality. Returns the segment's wall ns."""
        search = self.ds_search if self.w.spark else self.search
        idx, answers = [], []
        pool = self.qs.emb
        j = len(lat) % len(pool)
        deadline = time.perf_counter() + seconds
        t0 = time.perf_counter_ns()
        while time.perf_counter() < deadline:
            s = time.perf_counter_ns()
            answers.append(search(pool[j]))
            lat.append(time.perf_counter_ns() - s)
            idx.append(j)
            j = (j + 1) % len(pool)
        wall = time.perf_counter_ns() - t0
        for j, (ids, scores) in zip(idx, answers):
            ok = self.check(j, ids, scores)
            if ok and self.w.spark:
                mem_ids, _ = self.search(pool[j])
                if set(ids.tolist()) != set(mem_ids.tolist()):
                    self.failures["datasource!=LIDER.search"] += 1
                    ok = False
            if ok:
                answered.setdefault(j, ids)
        return wall

    def warm_up(self) -> None:
        """Untimed queries after a build; on Spark, the first DataSource query
        also starts the Python workers that serve the scan."""
        for q in self.qs.emb[:WARMUP_QUERIES]:
            self.search(q)
        if self.w.spark and "warmup_first_query_ms" not in self.details:
            t0 = time.perf_counter_ns()
            self.ds_search(self.qs.emb[0])
            self.details["warmup_first_query_ms"] = (time.perf_counter_ns() - t0) / 1e6

    # -------------------------------------------------------------- set-up
    def setup_once(self, traced: bool) -> float:
        """Build the index once; seconds from generated corpus to queryable.
        Spans of an untraced build go to a tracer that is thrown away."""
        self.lider = None
        tracer = self.tracer if traced else Tracer()
        t0 = time.perf_counter()
        with instrument_build(tracer, self.w.spark) if traced else contextlib.nullcontext():
            config = LIDERConfig(c0=self.w.c0)
            if not self.w.spark:
                self.lider = LIDER(config).fit(self.emb)
            else:
                from repro.core.spark_build import build_lider_spark
                from repro.datasource.lider_source import save_lider_index

                self.lider = tracer.wrap("spark.build", build_lider_spark)(
                    self.spark, self.emb, config=config)
                shutil.rmtree(self.index_dir, ignore_errors=True)
                tracer.wrap("ds.save", save_lider_index)(self.lider, self.index_dir)
        return time.perf_counter() - t0

    def start_spark(self) -> float:
        from pyspark.sql import SparkSession
        from repro.datasource.lider_source import register_lider_source

        builder = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", str(SPARK_CORES))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.ui.showConsoleProgress", "false")
        )
        t0 = time.perf_counter()
        self.spark = self.tracer.wrap("spark.session", builder.getOrCreate)()
        self.spark.sparkContext.setLogLevel("ERROR")
        register_lider_source(self.spark)
        return time.perf_counter() - t0

    def stop_spark(self) -> None:
        """Stop the session and the JVM it launched; wait for the JVM to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        if gateway is not None:
            gateway.shutdown()
            proc = getattr(gateway, "proc", None)
            if proc is not None:
                proc.stdin.close()
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=60)
            SparkContext._gateway = None
            SparkContext._jvm = None

    def ds_search(self, q: np.ndarray):
        from repro.datasource.lider_source import ann_search_df

        rows = ann_search_df(self.spark, self.index_dir, q, k=self.w.k).collect()
        return (np.array([r["id"] for r in rows], dtype=np.int64),
                np.array([r["score"] for r in rows], dtype=np.float64))

    # ----------------------------------------------------------------- run
    def execute(self) -> Outcome:
        w = self.w
        self.emb, self.qs = make_data(w, self.seed)
        self.truth = exact_topk(self.emb, self.qs.emb, w.k)
        self.index_dir = os.path.join(self.workdir, f"index-{os.getpid()}")
        try:
            session_s = self.start_spark() if w.spark else 0.0
            # The timed loop is cut into one segment after each set-up, so a
            # run samples the machine over its whole length, not one stretch.
            builds, lat, wall, answered = [], [], 0, {}
            for r in range(SETUPS):
                builds.append(self.setup_once(self.trace and r == SETUPS - 1))
                with blas_threads(QUERY_BLAS_THREADS):
                    self.warm_up()
                    if not self.trace:
                        wall += self.timed_segment(self.seconds / SETUPS, lat, answered)
            self.details["setup_runs_s"] = builds
            if w.spark:
                self.details["spark_session_s"] = session_s
            setup_s = session_s + statistics.median(builds)
            if self.trace:
                with blas_threads(QUERY_BLAS_THREADS):
                    metrics = self.traced()
            else:
                metrics = self.end_to_end(setup_s, lat, wall, answered)
        finally:
            self.stop_spark()
            shutil.rmtree(self.index_dir, ignore_errors=True)
        failed = sum(self.failures.values())
        self.details["failed_frac"] = failed / max(1, self.attempted)
        return Outcome(metrics, self.attempted, failed, self.failures, self.details,
                       self.tracer.spans)

    def quality(self, answered: dict[int, np.ndarray]) -> tuple[float, float]:
        """recall@k against exact search and MRR@10 over the whole pool; pool
        queries the timed loop did not reach are answered (and checked) by
        the in-memory index, which the gate ties to the DataSource answers."""
        for j in range(self.qs.n):
            if j not in answered:
                ids, scores = self.search(self.qs.emb[j])
                if self.check(j, ids, scores):
                    answered[j] = ids
        ranked = [list(answered.get(j, [])) for j in range(self.qs.n)]
        truth = [list(t) for t in self.truth]
        return (recall_at_k(ranked, truth, self.w.k),
                mrr_at_k(ranked, self.qs.relevant, 10))

    def end_to_end(self, setup_s: float, lat: list[int], wall: int, answered: dict) -> dict:
        recall, mrr = self.quality(answered)
        self.details["latency"] = percentiles(lat)
        self.details["tail_percentile"] = self.w.tail_pct
        lat_ms = np.asarray(lat, dtype=np.float64) / 1e6
        return {
            "query_p50_ms": float(np.percentile(lat_ms, 50)),
            "query_tail_ms": float(np.percentile(lat_ms, self.w.tail_pct)),
            "qps": len(lat) / (wall / 1e9),
            "recall_at_k": recall,
            "mrr_at_10": mrr,
            "setup_s": setup_s,
            "index_bytes": float(self.lider.memory_footprint()),
        }

    # -------------------------------------------------------------- traced
    def traced(self) -> dict[str, float]:
        """Blocks of untraced then traced in-memory queries over the same pool
        indices; on Spark, half the time goes to DataSource queries whose
        planning and partition reads are replayed in-process."""
        w = self.w
        mem_seconds = self.seconds / 2 if w.spark else self.seconds
        plain_ns, traced_ns = [], []
        deadline = time.perf_counter() + mem_seconds
        i = 0
        while time.perf_counter() < deadline:
            block = [(i + b) % self.qs.n for b in range(TRACE_BLOCK)]
            i += TRACE_BLOCK
            plain, traced = [], []
            for j in block:
                t0 = time.perf_counter_ns()
                plain.append(self.search(self.qs.emb[j]))
                plain_ns.append(time.perf_counter_ns() - t0)
            with instrument_search(self.tracer, self.lider):
                for j in block:
                    self.tracer.query = len(traced_ns)
                    t0 = time.perf_counter_ns()
                    traced.append(self.search(self.qs.emb[j]))
                    traced_ns.append(time.perf_counter_ns() - t0)
            self.tracer.query = None
            for j, (ids0, scores0), (ids, scores) in zip(block, plain, traced):
                ok_plain = self.check(j, ids0, scores0)
                ok_traced = self.check(j, ids, scores)
                if ok_plain and ok_traced and not np.array_equal(ids, ids0):
                    self.failures["traced!=untraced"] += 1
        m = self.query_layers(len(traced_ns))
        m["lider.search_us"] = float(np.mean(plain_ns)) / 1e3
        m["trace.overhead_frac"] = float(np.mean(traced_ns)) / float(np.mean(plain_ns)) - 1.0
        m.update(self.quality_split())
        m.update(self.build_layers())
        if w.spark:
            m.update(self.datasource_layers(self.seconds / 2))
        return {metric.name: float(m.get(metric.name, 0.0)) for metric in PER_LAYER}

    def query_layers(self, n_queries: int) -> dict[str, float]:
        spans = [s for s in self.tracer.spans if s.query is not None]
        own = self_times(spans)
        self_ns: dict[str, int] = defaultdict(int)
        count: Counter = Counter()
        cand: dict[str, int] = defaultdict(int)
        frac: dict[str, list] = defaultdict(lambda: [[0, 0] for _ in range(n_queries)])
        errors: dict[str, list] = defaultdict(list)
        for s in spans:
            self_ns[s.name] += own[s.id]
            count[s.name] += 1
            layer = s.name.split(".")[0]
            if s.name.endswith(".expand"):
                cand[layer] += s.attrs["candidates"]
                acc = frac[layer][s.query]
                acc[0] += s.attrs["candidates"]
                acc[1] += s.attrs["n"]
            elif s.name.endswith(".predict"):
                arrays = s.attrs["model"].esklsh.arrays
                errors[layer].extend(
                    abs(int(loc) - arr.entry_location(key))
                    for arr, key, loc in zip(arrays, s.attrs["keys"], s.attrs["locs"])
                )
        per_q = 1e3 * n_queries  # ns totals -> us per query
        m = {"lider.merge_us": self_ns["lider.search"] / per_q,
             "ir.calls": count["ir.search"] / n_queries}
        for p in ("cr", "ir"):
            m[f"{p}.hash_us"] = self_ns[f"{p}.hash"] / per_q
            m[f"{p}.rmi_us"] = self_ns[f"{p}.predict"] / per_q
            m[f"{p}.expand_us"] = self_ns[f"{p}.expand"] / per_q
            m[f"{p}.verify_us"] = self_ns[f"{p}.search"] / per_q
            m[f"{p}.candidates"] = cand[p] / n_queries
            m[f"{p}.scan_frac"] = float(np.mean([c / n for c, n in frac[p] if n]))
            m[f"{p}.rmi_err_p50"] = float(np.percentile(errors[p], 50))
            m[f"{p}.rmi_err_p99"] = float(np.percentile(errors[p], 99))
        self.details["traced_queries"] = n_queries
        return m

    def quality_split(self) -> dict[str, float]:
        """Where recall is lost, and an exact IVF-Flat scan over the index's
        own clusters (exact top-c0 centroids, every member scored)."""
        lider, k = self.lider, self.w.k
        _, c0 = lider.config.resolve(lider.assignments.shape[0])
        order = np.argsort(lider.assignments, kind="stable")
        bounds = np.searchsorted(lider.assignments[order], np.arange(lider.centroids.shape[0] + 1))
        by_cluster = self.emb[order]  # IVF layout: each cluster's rows contiguous
        rec_c0, rec_probed, ivf_ranked, ivf_ns = [], [], [], []
        for q in self.qs.emb:
            t0 = time.perf_counter_ns()
            cent = lider.centroids @ q
            top_c = np.argpartition(-cent, c0 - 1)[:c0]
            rows = np.concatenate([order[bounds[c] : bounds[c + 1]] for c in top_c])
            scores = np.concatenate([by_cluster[bounds[c] : bounds[c + 1]] @ q for c in top_c])
            kk = min(k, rows.size)
            best = np.argpartition(-scores, kk - 1)[:kk]
            ivf_ids = rows[best[np.argsort(-scores[best])]]
            ivf_ns.append(time.perf_counter_ns() - t0)
            ivf_ranked.append(list(ivf_ids))

            cr_ids, _ = lider.centroid_retriever.search(q, km=c0)
            rec_c0.append(len(set(cr_ids.tolist()) & set(top_c.tolist())) / c0)
            probed = [int(c) for c in cr_ids if int(c) in lider.in_cluster]
            members = np.concatenate([order[bounds[c] : bounds[c + 1]] for c in probed])
            s = self.emb[members] @ q
            kk = min(k, members.size)
            want = set(members[np.argpartition(-s, kk - 1)[:kk]].tolist())
            got, _ = lider.search(q, k)
            rec_probed.append(len(want & set(got.tolist())) / len(want))
        truth = [list(t) for t in self.truth]
        return {
            "cr.recall_c0": float(np.mean(rec_c0)),
            "ir.recall_in_probed": float(np.mean(rec_probed)),
            "ref.ivf_flat_us": float(np.mean(ivf_ns)) / 1e3,
            "ref.ivf_flat_recall": recall_at_k(ivf_ranked, truth, k),
        }

    def build_layers(self) -> dict[str, float]:
        spans = [s for s in self.tracer.spans if s.query is None]
        own = self_times(spans)
        wall: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for s in spans:
            wall[s.name] += (s.end - s.start) / 1e9
            self_s[s.name] += own[s.id] / 1e9
        ir = [s for s in spans if s.name == "build.ir_fit"]
        m = {
            "build.kmeans_s": wall["build.kmeans"],
            "build.cr_fit_s": wall["build.cr_fit"],
            "build.ir_fit_s": (max(s.end for s in ir) - min(s.start for s in ir)) / 1e9 if ir else 0.0,
            "build.ir_fit_busy_s": wall["build.ir_fit"],
            "spark.session_s": wall["spark.session"],
            "spark.kmeans_s": wall["spark.kmeans"],
            "spark.fit_rmis_s": wall["spark.fit_rmis"],
            "spark.assemble_s": self_s["spark.build"],
            "ds.save_s": wall["ds.save"],
        }
        if self.w.spark:
            m["index_disk_bytes"] = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(self.index_dir) for f in files
            )
        return m

    def datasource_layers(self, seconds: float) -> dict[str, float]:
        """DataSource queries (checked like the untraced run), each followed
        by an in-process replay of the reader's planning and partition reads
        for the same query: job overhead = query - plan - reads."""
        from repro.datasource.lider_source import LiderReader

        tr = self.tracer
        query = tr.wrap("ds.query", self.ds_search)
        read = tr.wrap("ds.read", lambda reader, p: list(reader.read(p)))
        first = len(tr.spans)
        n = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            n += 1
            j = n % self.qs.n
            ids, scores = query(self.qs.emb[j])
            ok = self.check(j, ids, scores)
            reader = LiderReader({"path": self.index_dir, "k": str(self.w.k),
                                  "query": json.dumps([float(x) for x in self.qs.emb[j]])})
            rows = [r for p in tr.wrap("ds.plan", reader.partitions)() for r in read(reader, p)]
            replay = {r[0] for r in sorted(rows, key=lambda r: -r[2])[: self.w.k]}
            if ok and replay != set(ids.tolist()):
                self.failures["replay!=datasource"] += 1
        ms: dict[str, float] = defaultdict(float)
        for s in tr.spans[first:]:
            ms[s.name] += (s.end - s.start) / 1e6 / n
        return {
            "ds.plan_ms": ms["ds.plan"],
            "ds.read_ms": ms["ds.read"],
            "ds.partitions": sum(s.name == "ds.read" for s in tr.spans[first:]) / n,
            "ds.job_overhead_ms": ms["ds.query"] - ms["ds.plan"] - ms["ds.read"],
        }
