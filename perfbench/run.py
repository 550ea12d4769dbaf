"""LIDER benchmark: latency, recall and build time, or a per-layer split.

    python3 perfbench/run.py --workload msl200k-k100 --seed 0 --seconds 10 --trace 0

Run from the repository root (the program is imported from ``src/``).
Each run generates its workload from ``--seed`` (0 reproduces the named
datasets of ``repro.embeddings.datasets``), sets the index up ``SETUPS``
times (``setup_s`` is the median), warms up, then times single queries in
a one-client closed loop for ``--seconds`` and checks every answer.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/spec.py`` for what each should move). Every metric
is printed as ``name value unit``, with the environment, latency
percentiles and failures above it; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
and in traced runs the spans, go to ``.perfbench/results/``. The exit code
is 0 only if every checked answer was correct.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SPAN_DUMP_QUERIES = 200  # traced queries whose spans are written out


def _prepare_environment() -> None:
    """Make ``repro`` and ``perfbench`` importable here and in Spark's Python
    workers, and keep Spark's scratch files inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'repro'} not found; run from a full checkout")
    for p in (str(ROOT), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
    tmp = WORKDIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    from perfbench.measure import SPARK_CORES

    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"  # no /tmp/hsperfdata_*
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{SPARK_CORES}] --driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
        "--conf", shlex.quote(f"spark.local.dir={WORKDIR / 'spark-local'}"),
        "--conf", shlex.quote(f"spark.sql.warehouse.dir={WORKDIR / 'spark-warehouse'}"),
        "--driver-java-options", shlex.quote(java_opts),
        "pyspark-shell",
    ])


def environment(args, workload) -> dict:
    import numpy as np

    from perfbench.measure import QUERY_BLAS_THREADS, SPARK_CORES, blas_threads_settable

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cap = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    try:
        git = subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_max_threads": int(cap.group(1)) if cap else None,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_timed_queries": QUERY_BLAS_THREADS if blas_threads_settable() else "default",
        "spark_master": f"local[{SPARK_CORES}]" if workload.spark else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": metadata.version("pyspark"),
        "commit": commit,
        "seed": args.seed,
    }


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_once(args, workloads):
    from perfbench.measure import Run

    WORKDIR.mkdir(parents=True, exist_ok=True)
    return Run(workloads[args.workload], args.seed, args.seconds, bool(args.trace),
               str(WORKDIR)).execute()


def report(args, workload, outcome) -> dict:
    """Print the run's report; return the final JSON object (also printed)."""
    from perfbench.spec import END_TO_END, PER_LAYER, UNITS

    env = environment(args, workload)
    d = outcome.details
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# setup runs (s): " + ", ".join(f"{s:.3f}" for s in d["setup_runs_s"])
          + (f", after a Spark session start of {d['spark_session_s']:.3f}"
             if "spark_session_s" in d else ""))
    if "warmup_first_query_ms" in d:
        print(f"# warm-up, untimed: first DataSource query {d['warmup_first_query_ms']:.1f} ms")
    if "latency" in d:
        lat = d["latency"]
        print(f"# latency over n={lat['n']} timed queries: " + ", ".join(
            f"{k}={v['ms']:.4f} ms ({v['beyond']} beyond)" for k, v in lat.items() if k.startswith("p")
        ) + f", max={lat['max_ms']:.4f} ms")
        print(f"# query_tail_ms is p{d['tail_percentile']:g}")
    if "traced_queries" in d:
        print(f"# per-layer times: mean self time per query over {d['traced_queries']} traced queries")
    reasons = ", ".join(f"{k}={v}" for k, v in outcome.failures.items()) or "none"
    print(f"# failures: {reasons}")
    wanted = PER_LAYER if args.trace else END_TO_END
    for m in wanted:
        print(f"{m.name} {outcome.metrics[m.name]!r} {m.unit}")
    print(f"failed_frac {d['failed_frac']!r} frac ({outcome.failed} of {outcome.attempted})")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m.name: {"value": outcome.metrics[m.name], "unit": UNITS[m.name]}
                    for m in wanted},
    }
    out = WORKDIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    spans = [
        {"id": s.id, "name": s.name, "parent": s.parent, "query": s.query,
         "start_ns": s.start, "end_ns": s.end,
         **({"candidates": s.attrs["candidates"]} if s.attrs and "candidates" in s.attrs else {})}
        for s in outcome.spans if s.query is None or s.query < SPAN_DUMP_QUERIES
    ]
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "details": d, "failures": dict(outcome.failures), **result,
         "spans": spans if args.trace else []}, indent=1))
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    _prepare_environment()
    from perfbench.spec import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    outcome = run_once(args, WORKLOADS)
    result = report(args, WORKLOADS[args.workload], outcome)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
