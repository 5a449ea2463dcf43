"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/selftest.py -q

Not named ``test_*.py`` on purpose: the repository's tier-1 run
(``pytest`` at the root) does not collect it; run it explicitly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import pytest

from perfbench import report
from perfbench.instrument import Patcher, install
from perfbench.run import ROOT, SCRUBBED_ENV, _import_program
from perfbench.spans import SpanRecorder, SpanTree

_import_program()


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ---------------------------------------------------------------------- #
# Self-time arithmetic
# ---------------------------------------------------------------------- #


def test_nested_self_times():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    root = rec.open("op")
    clock.now = 2.0
    child = rec.open("engine.pair", "engine")
    clock.now = 3.0
    grandchild = rec.open("backend.eig", "backend")
    clock.now = 4.0
    rec.close(grandchild)
    clock.now = 5.0
    rec.close(child)
    clock.now = 10.0
    rec.close(root)
    tree = SpanTree(rec.spans)
    assert tree.self_time[root.sid] == pytest.approx(7.0)
    assert tree.self_time[child.sid] == pytest.approx(2.0)
    assert tree.self_time[grandchild.sid] == pytest.approx(1.0)
    assert tree.inclusive_by_name(root)["engine.pair"] == pytest.approx(3.0)


def test_counts_land_on_innermost_open_span():
    rec = SpanRecorder(FakeClock())
    with rec.span("op") as root:
        rec.count("engine.tiles")
        with rec.span("engine.pair", "engine") as inner:
            rec.count("engine.tiles", 2)
    assert root.counts == {"engine.tiles": 1}
    assert inner.counts == {"engine.tiles": 2}


def test_overlapping_linked_children_count_once():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    parent = rec.open("serve.queue_wait", "serve")
    a = rec.open("serve.predict", "serve", start=2.0)
    rec.close(a, end=6.0)
    b = rec.open("serve.predict", "serve", start=4.0)
    rec.close(b, end=12.0)  # runs past the parent: only the overlap counts
    rec.close(parent, end=10.0)
    rec.link(parent, a)
    rec.link(parent, b)
    tree = SpanTree(rec.spans)
    # covered: [2, 10] -> 8 of the parent's 10 seconds
    assert tree.self_time[parent.sid] == pytest.approx(2.0)


def test_threads_keep_separate_parent_stacks():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    opened = threading.Barrier(2, timeout=10)
    spans = {}

    def worker(name):
        with rec.span(f"{name}.outer", name) as outer:
            opened.wait()  # both outer spans are open at once
            with rec.span(f"{name}.inner", name) as inner:
                spans[name] = (outer, inner)
            opened.wait()

    threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    for outer, inner in spans.values():
        assert outer.parent is None
        assert inner.parent == outer.sid


def test_queue_wait_is_attributed_per_request():
    """Two requests coalesced into one batch on another thread: each one's
    queue wait is its own submit time minus the shared predict, and the
    predict counts in full for both."""
    clock = FakeClock()
    rec = SpanRecorder(clock)
    roots, waits = [], []
    for start, end in ((0.0, 10.0), (3.0, 11.0)):
        root = rec.open("request", start=start)
        wait = rec.open("serve.queue_wait", "serve", start=start + 1.0)
        rec.close(wait, end=end - 0.5)
        rec.close(root, end=end)
        roots.append(root)
        waits.append(wait)
    predict = rec.open("serve.predict", "serve", start=5.0)
    eig = rec.open("backend.eig", "backend", start=6.0)
    rec.close(eig, end=8.0)
    rec.close(predict, end=9.0)
    for wait in waits:
        rec.link(wait, predict)
    tree = SpanTree(rec.spans)
    assert tree.self_time[waits[0].sid] == pytest.approx(8.5 - 4.0)
    assert tree.self_time[waits[1].sid] == pytest.approx(6.5 - 4.0)
    by_name, by_layer, wall = report.layer_breakdown(tree, roots)
    assert wall == pytest.approx((10.0 + 8.0) / 2)
    assert by_name["backend.eig"] == pytest.approx(2.0)
    assert by_name["serve.predict"] == pytest.approx(2.0)
    assert by_layer["serve"] == pytest.approx(2.0 + (4.5 + 2.5) / 2)


def test_robust_p95():
    import numpy as np

    normal = np.random.default_rng(0).normal(100.0, 10.0, 20000)
    assert report.robust_p95(normal) == pytest.approx(116.45, abs=0.5)
    # Two slow operations of fifteen decide an empirical p95, not this one.
    walls = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01, 0.99, 1.0, 1.02]
    steady = report.robust_p95(walls + [1.0, 1.0])
    spelled = report.robust_p95(walls + [1.4, 1.5])
    assert report.percentile(walls + [1.4, 1.5], 95) > 1.4
    assert spelled - steady < 0.01
    assert report.robust_p95([2.0]) == 2.0


# ---------------------------------------------------------------------- #
# Instrumentation leaves nothing behind
# ---------------------------------------------------------------------- #


def test_every_patched_attribute_is_restored():
    from repro.serve.batcher import MicroBatcher

    batcher = MicroBatcher(lambda graphs: None, window_ms=0)

    def patched_once():
        """Install and close; each patched attribute with what the caller
        resolved before the patch (the wrapper's ``__wrapped__``)."""
        with Patcher() as patcher:
            install(SpanRecorder(), patcher, batchers=[batcher])
            resolved = [
                (owner, attr, getattr(owner, attr).__wrapped__)
                for owner, attr in patcher.patched
            ]
        return resolved

    def state(resolved):
        return [(getattr(owner, attr), attr in vars(owner)) for owner, attr, _ in resolved]

    first = patched_once()
    assert len(first) > 20
    for owner, attr, original in first:
        assert getattr(owner, attr) is original, (owner, attr)
    # A second pass leaves the same objects, own or inherited, behind.
    before = state(first)
    assert state(patched_once()) == before


# ---------------------------------------------------------------------- #
# Tiny-scale smoke runs with every output check on
# ---------------------------------------------------------------------- #


@pytest.fixture
def workdir(monkeypatch):
    for name in SCRUBBED_ENV:
        monkeypatch.delenv(name, raising=False)
    path = tempfile.mkdtemp(prefix="selftest-", dir=_bench_dir())
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _bench_dir() -> str:
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


SMOKE_SCALE = {"gram-ppis": 0.05, "train-mutag": 0.1, "serve-http": 0.1}
SMOKE_REQUESTS = 20


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(SMOKE_SCALE))
def test_smoke(workload, trace, workdir, monkeypatch):
    from perfbench import workloads

    monkeypatch.setattr(workloads, "MIN_REQUESTS", SMOKE_REQUESTS)

    cfg = workloads.Config(
        seed=3, seconds=0.0, trace=trace, workdir=workdir,
        scale=SMOKE_SCALE[workload],
    )
    outcome = workloads.WORKLOADS[workload](cfg)
    assert outcome.problems == []
    assert outcome.attempted >= 1 and outcome.failed == 0
    wanted = report.PER_LAYER if trace else report.END_TO_END
    assert set(wanted) <= set(outcome.metrics)
    if not trace:
        assert all(outcome.metrics[name] > 0 for name in wanted)
    else:
        assert outcome.metrics["trace.coverage"] > 0.5


def test_cli_prints_result_last(capsys, monkeypatch, workdir):
    from perfbench import workloads
    from perfbench.run import main

    full = workloads.WORKLOADS["gram-ppis"]
    monkeypatch.setitem(
        workloads.WORKLOADS, "gram-ppis",
        lambda cfg: full(dataclasses.replace(cfg, scale=SMOKE_SCALE["gram-ppis"])),
    )
    code = main(["--workload", "gram-ppis", "--seed", "2", "--seconds", "0",
                 "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(report.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == report.END_TO_END[name]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gram-ppis", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
