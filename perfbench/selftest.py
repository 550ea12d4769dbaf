"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs in a few minutes, mostly Spark start-up, and exits non-zero at the
first failed check. It checks that:

* ``BENCHMARK.json`` lists the workloads and metrics of ``spec.py``, with
  the same units, directions and bounds;
* ``--seed 0`` reproduces ``load_dataset`` and the default query generator;
* the blocked exact top-k agrees with ``repro.embeddings.corpus.exact_topk``;
* the correctness gate rejects each kind of broken answer;
* every workload, shrunk, passes its gate in both modes and prints each
  metric of the mode as ``name value unit``, then a last line with exactly
  the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* in traced runs every span nests inside its parent, and for every query
  the self times of its spans add up to its root ``lider.search`` span;
* without ``src/`` the command fails without printing a result.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run  # noqa: E402

run._prepare_environment()

import numpy as np  # noqa: E402

from perfbench.measure import check_answer, exact_topk, make_data  # noqa: E402
from perfbench.spec import END_TO_END, PER_LAYER, UNITS, WORKLOADS  # noqa: E402
from perfbench.tracer import self_times  # noqa: E402

TINY = {
    name + "-tiny": dataclasses.replace(w, name=name + "-tiny", n=6000, master_n=6000, pool=60)
    for name, w in WORKLOADS.items()
}


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in manifest["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    require(all(w["why"] == WORKLOADS[w["name"]].why for w in manifest["workloads"]),
            "BENCHMARK.json workload reasons")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = [{"name": m.name, "unit": m.unit, "better": m.better}
                | ({"bound": m.bound} if key == "end_to_end" else {}) for m in metrics]
        require(manifest[key] == want, f"BENCHMARK.json {key} metrics")


def check_data() -> None:
    from repro.embeddings.datasets import dev_queries, load_dataset

    w = WORKLOADS["spark-msl10k"]
    emb, qs = make_data(w, 0)
    corpus = load_dataset("MSL-10k")
    ref = dev_queries(corpus, w.pool)
    require(np.array_equal(emb, corpus.emb) and np.array_equal(qs.emb, ref.emb),
            "seed 0 reproduces load_dataset('MSL-10k') and dev_queries")
    emb1, qs1 = make_data(w, 1)
    require(not np.array_equal(emb1, emb) and not np.array_equal(qs1.emb, qs.emb),
            "another seed changes corpus and queries")


def check_exact_and_gate() -> None:
    from repro.embeddings.corpus import exact_topk as reference

    emb, qs = make_data(TINY["msl200k-k100-tiny"], 3)
    for k in (1, 10, 100):
        got, want = exact_topk(emb, qs.emb, k), reference(emb, qs.emb, k)
        require(all(set(a) == set(b) for a, b in zip(got, want)), f"blocked exact top-{k}")
    q = qs.emb[0]
    ids = want[0][:10]
    scores = emb[ids] @ q
    require(check_answer(emb, q, 10, ids, scores) is None, "gate accepts an exact answer")
    broken = {
        "count": (ids[:9], scores[:9]),
        "range": (np.r_[ids[:9], emb.shape[0]], np.r_[scores[:9], scores[9]]),
        "duplicate": (np.r_[ids[:9], ids[0]], np.r_[scores[:9], scores[9]]),
        "order": (ids[::-1], scores[::-1]),
        "score": (ids, scores + 1e-3),
    }
    for why, (i, s) in broken.items():
        require(check_answer(emb, q, 10, i, s) == why, f"gate rejects a wrong {why}")


def check_spans(spans) -> None:
    by_id = {s.id: s for s in spans}
    nested = all(
        by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
        and by_id[s.parent].query == s.query
        for s in spans if s.parent is not None
    )
    require(nested, "child spans nest inside their parents")
    own = self_times(spans)
    per_query = defaultdict(list)
    for s in spans:
        if s.query is not None:
            per_query[s.query].append(s)
    adds_up = bool(per_query)
    for group in per_query.values():
        roots = [s for s in group if s.parent is None]
        adds_up &= len(roots) == 1 and roots[0].name == "lider.search"
        adds_up &= sum(own[s.id] for s in group) == roots[0].end - roots[0].start
    require(adds_up, f"self times add up to lider.search over {len(per_query)} queries")


def check_run(name: str, trace: int) -> None:
    args = argparse.Namespace(workload=name, seed=5, seconds=1.0, trace=trace)
    outcome = run.run_once(args, TINY)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(args, TINY[name], outcome)
    lines = buf.getvalue().strip().splitlines()
    last = json.loads(lines[-1])
    require(set(last) == {"correct", "attempted", "failed", "metrics"} and last["correct"]
            and last["attempted"] >= 1 and last["failed"] == 0,
            f"{name} trace={trace}: final line, {last['attempted']} answers, none failed")
    wanted = PER_LAYER if trace else END_TO_END
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1]
               if not ln.startswith("#") and len(ln.split()) >= 3}
    require(all(printed.get(m.name) == m.unit for m in wanted)
            and {k: v["unit"] for k, v in last["metrics"].items()}
            == {m.name: UNITS[m.name] for m in wanted},
            f"{name} trace={trace}: every metric printed with its unit")
    if trace:
        check_spans(outcome.spans)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "msl200k-k100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    require(p.returncode != 0 and '"metrics"' not in p.stdout,
            f"without src/ the command exits {p.returncode} and prints no result")


def main() -> None:
    check_manifest()
    check_data()
    check_exact_and_gate()
    for name in TINY:
        for trace in (0, 1):
            check_run(name, trace)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
