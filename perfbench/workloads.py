"""The benchmark's workloads: gram-ppis, train-mutag and serve-http.

Each workload builds its inputs from the seed, sets up several times
(``setup_s`` is the median), then runs operations for the requested
number of seconds and checks every output. A traced run pairs
untraced and traced operations on equal inputs so that the tracing
overhead is measured in the same process; its per-layer numbers come
from the traced ones.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import report
from perfbench.instrument import FirstSight, Patcher, install
from perfbench.spans import SpanRecorder

KERNEL = "HAQJSK(D)"
BUNDLE = "bench"
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: Fixed inputs whose outputs are stored in ``reference/`` (see
#: ``make_reference.py``); every run recomputes them after measuring.
#: The Gram reference has more graphs (110) than the engine's default
#: tile (64), so it covers off-diagonal tiles and their mirroring.
GRAM_REFERENCE = {"name": "PPIs", "scale": 0.5, "seed": 0}
TRAIN_REFERENCE = {"name": "MUTAG", "scale": 1.0, "seed": 0}
#: The backends' agreement bound.
GRAM_TOLERANCE = 1e-10
#: Served SVM margins go through the SVM solver, so they get more room.
MARGIN_TOLERANCE = 1e-8
#: Training graphs whose served margins the train reference stores.
PROBE_GRAPHS = 8
#: Graphs in the untimed warm-up operation that precedes measuring.
WARMUP_GRAPHS = 12
#: Input generations timed before the first operation (batch workloads).
SETUP_REPEATS = 5
#: serve-http requests per run at least, so that ten or more samples lie
#: beyond p95.
MIN_REQUESTS = 200


@dataclass
class Config:
    seed: int
    seconds: float
    trace: bool
    workdir: str
    scale: float = 1.0  # dataset scale; below 1 only in self-test smoke runs


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok


def base_context():
    """The pinned execution context: default engine, float64 reference policy."""
    from repro import ExecutionContext

    return ExecutionContext(
        engine="batched", backend="numpy", precision="float64", entropy="eig"
    )


def dataset(name: str, scale: float, seed: int):
    from repro.datasets import load_dataset

    return load_dataset(name, scale=scale, seed=seed)


def input_key(name: str, scale: float, seed: int) -> dict:
    """The workload's ``(generator, params, seed)`` row key."""
    return {
        "generator": "repro.datasets.load_dataset",
        "params": {"name": name, "scale": scale},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, times: list):
    """``fn()``, appending its wall seconds to ``times``."""
    start = time.perf_counter()
    result = fn()
    times.append(time.perf_counter() - start)
    return result


def timed_setups(repeats: int, setup, teardown=None):
    """Run ``setup`` ``repeats`` times; the seconds of each and the last result."""
    times, result = [], None
    for _ in range(repeats):
        if result is not None and teardown is not None:
            teardown(result)
        result = timed(setup, times)
    return times, result


def _alternating(cfg: Config, run_op) -> "tuple[list, list]":
    """Run operations until ``cfg.seconds`` have passed.

    ``run_op(tracing, index)`` runs one operation on the input ``index``
    names. Untraced runs trace nothing and give every operation its own
    index. Traced runs go in pairs that share an index: one untraced and
    one traced operation on equal inputs, in alternating order, so that
    the tracing overhead compares like with like. Returns the two lists
    of ``run_op`` results.
    """
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        if not cfg.trace:
            order = (False,)
        else:
            order = (False, True) if index % 2 == 0 else (True, False)
        for tracing in order:
            (traced if tracing else plain).append(run_op(tracing, index))
        index += 1
        if time.perf_counter() - start >= cfg.seconds:
            return plain, traced


def _end_to_end(out: Outcome, setup_times, latencies, p95, goodput) -> None:
    out.metrics.update(
        setup_s=statistics.median(setup_times),
        latency_p50_ms=1000.0 * report.percentile(latencies, 50),
        latency_p95_ms=1000.0 * p95,
        goodput_gps=goodput,
        ok_frac=1.0 - out.failed / out.attempted,
        peak_rss_mb=peak_rss_mb(),
    )


def _batch_metrics(out: Outcome, setup_times, walls, n_graphs, ok_ops) -> None:
    """End-to-end metrics of a workload whose operations are batch calls.

    Its set-up is input generation, which every operation repeats for
    fresh objects, so ``setup_s`` is the median over all of them. A run
    has too few operations for an empirical p95, so ``latency_p95_ms``
    is :func:`report.robust_p95`.
    """
    out.record["op_walls_s"] = list(walls)
    out.record["op_walls_empirical_p95_ms"] = 1000.0 * report.percentile(walls, 95)
    _end_to_end(out, setup_times, walls, report.robust_p95(walls),
                n_graphs * ok_ops / sum(walls))


class _Tracer:
    """One traced phase: recorder, patches and the operations' root spans."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.first_sight = FirstSight()
        self.roots = []

    def op(self, fn):
        """Run ``fn()`` patched, as one root span; patches restored after."""
        with Patcher() as patcher:
            install(self.recorder, patcher, first_sight=self.first_sight)
            with self.recorder.span("op") as root:
                result = fn()
        self.roots.append(root)
        return result, root

    def finish(self, out: Outcome, plain_walls, traced_walls):
        self.first_sight.clear()
        return _trace_metrics(
            out, self.recorder, self.roots, _overhead(plain_walls, traced_walls)
        )


def _overhead(plain, traced) -> float:
    """Traced over untraced median (of the same inputs), minus one."""
    return statistics.median(traced) / statistics.median(plain) - 1


def _trace_metrics(out: Outcome, recorder, roots, overhead, extra=None) -> dict:
    metrics, layer_self = report.per_layer_metrics(
        recorder, roots, overhead_frac=overhead, extra=extra
    )
    out.metrics.update(metrics)
    out.record["layer_self_s"] = layer_self
    out.spans = [s.to_record() for s in recorder.spans]
    return metrics


# ---------------------------------------------------------------------- #
# gram-ppis
# ---------------------------------------------------------------------- #


def gram_ppis(cfg: Config) -> Outcome:
    """Transductive HAQJSK(D) Gram on PPIs, no store."""
    from repro import Session

    out = Outcome()
    out.record["input"] = input_key("PPIs", cfg.scale, cfg.seed)
    out.record["input"]["per_operation"] = (
        "operation k generates with seed op_seed(seed, k); a traced run's "
        "k-th untraced/traced pair both with op_seed(seed, k)"
    )
    setup_times, graphs = timed_setups(
        SETUP_REPEATS, lambda: dataset("PPIs", cfg.scale, op_seed(cfg.seed, 0)).graphs
    )
    n_graphs = len(graphs)
    session = Session(base_context())
    session.gram(KERNEL, graphs[:WARMUP_GRAPHS])  # lazy imports, untimed
    n_levels = session.kernel(KERNEL).aligner.n_levels
    tracer = _Tracer()

    def run_op(tracing, index):
        # A new collection per operation: the run's median then spans
        # several inputs, and Graph's per-instance caches start empty.
        seed = op_seed(cfg.seed, index)
        graphs = timed(lambda: dataset("PPIs", cfg.scale, seed).graphs, setup_times)
        call = lambda: session.gram(KERNEL, graphs)  # noqa: E731
        out.attempted += 1
        start = time.perf_counter()
        try:
            if tracing:
                gram, root = tracer.op(call)
                wall = root.duration
                sp = sum(
                    s.counts.get("graphs.sp_graphs", 0)
                    for s in tracer.recorder.spans[root.sid:]
                )
                out.check(sp == n_graphs, f"traced Gram computed {sp} shortest-path "
                          f"sets, expected {n_graphs}")
            else:
                gram = call()
                wall = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            out.failed += 1
            out.check(False, f"gram raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        ok = out.check(
            _gram_sane(gram, n_graphs, n_levels),
            f"Gram of seed {seed} not finite, symmetric, with diagonal {n_levels}",
        )
        out.failed += 0 if ok else 1
        return wall

    plain, traced = _alternating(cfg, run_op)
    if cfg.trace:
        tracer.finish(out, plain, traced)
    else:
        _batch_metrics(out, setup_times, plain, n_graphs, len(plain) - out.failed)
    _check_gram_reference(out, session)
    return out


def op_seed(seed: int, k: int) -> int:
    """Generator seed of operation ``k`` in a run with ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _gram_sane(gram, n: int, n_levels: int) -> bool:
    """Finite, exactly symmetric, and K(G, G) = one per hierarchy level
    (the QJSD of a state with itself is 0)."""
    gram = np.asarray(gram)
    return (
        gram.shape == (n, n)
        and bool(np.all(np.isfinite(gram)))
        and np.array_equal(gram, gram.T)
        and float(np.max(np.abs(np.diag(gram) - n_levels))) <= GRAM_TOLERANCE
    )


def _check_gram_reference(out: Outcome, session) -> None:
    ref = GRAM_REFERENCE
    expected = np.load(os.path.join(REFERENCE_DIR, "gram_ppis.npy"))
    gram = np.asarray(
        session.gram(KERNEL, dataset(ref["name"], ref["scale"], ref["seed"]).graphs)
    )
    if not out.check(gram.shape == expected.shape,
                     f"reference Gram shape {gram.shape} != {expected.shape}"):
        return
    error = float(np.max(np.abs(gram - expected)))
    out.record["reference_max_abs_error"] = error
    out.check(error <= GRAM_TOLERANCE, f"reference Gram off by {error:.3g}")


# ---------------------------------------------------------------------- #
# train-mutag
# ---------------------------------------------------------------------- #


def train_once(ctx, ds):
    """One ``Session.train`` persisting into ``ctx.store``; (bundle, wall)."""
    from repro import Session

    session = Session(ctx)
    start = time.perf_counter()
    bundle = session.train(KERNEL, ds, name=BUNDLE)
    return bundle, time.perf_counter() - start


def _fresh_store_ctx(cfg: Config):
    path = tempfile.mkdtemp(prefix="store-", dir=cfg.workdir)
    return base_context().replace(store=f"dir:{path}"), path


def train_mutag(cfg: Config) -> Outcome:
    """``Session.train`` on MUTAG into a new, empty store per operation."""
    from repro.serve.bundle import ModelBundle

    out = Outcome()
    out.record["input"] = input_key("MUTAG", cfg.scale, cfg.seed)
    setup_times, ds = timed_setups(
        SETUP_REPEATS, lambda: dataset("MUTAG", cfg.scale, cfg.seed)
    )
    n_graphs = len(ds.graphs)
    ctx, path = _fresh_store_ctx(cfg)
    train_once(ctx, ds.subsample(WARMUP_GRAPHS, seed=0))  # lazy imports, untimed
    shutil.rmtree(path, ignore_errors=True)
    tracer = _Tracer()
    first = {}

    def run_op(tracing, index):
        # Every operation trains on the seed's collection, newly generated.
        ds = timed(lambda: dataset("MUTAG", cfg.scale, cfg.seed), setup_times)
        ctx, path = _fresh_store_ctx(cfg)
        out.attempted += 1
        start = time.perf_counter()
        try:
            if tracing:
                (bundle, _), root = tracer.op(lambda: train_once(ctx, ds))
                wall = root.duration
            else:
                bundle, wall = train_once(ctx, ds)
            reloaded = ModelBundle.load(ctx.store, BUNDLE, verify=True)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            out.failed += 1
            out.check(False, f"train raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        finally:
            shutil.rmtree(path, ignore_errors=True)
        got = (reloaded.c, reloaded.train_accuracy)
        first.setdefault("c_acc", (bundle.c, bundle.train_accuracy))
        ok = out.check(got == first["c_acc"], f"c/train_accuracy {got} != {first['c_acc']}")
        out.failed += 0 if ok else 1
        return wall

    plain, traced = _alternating(cfg, run_op)
    if cfg.trace:
        metrics = tracer.finish(out, plain, traced)
        out.check(
            metrics["store.hit_frac"] == 0,
            f"store.hit_frac {metrics['store.hit_frac']} != 0 on empty stores",
        )
    else:
        _batch_metrics(out, setup_times, plain, n_graphs, len(plain) - out.failed)
    out.record["c"], out.record["train_accuracy"] = first.get("c_acc", (None, None))
    _check_train_reference(out, cfg)
    return out


def _check_train_reference(out: Outcome, cfg: Config) -> None:
    ref = TRAIN_REFERENCE
    with open(os.path.join(REFERENCE_DIR, "train_mutag.json")) as handle:
        expected = json.load(handle)
    ctx, path = _fresh_store_ctx(cfg)
    ds = dataset(ref["name"], ref["scale"], ref["seed"])
    try:
        bundle, _ = train_once(ctx, ds)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    out.check(
        bundle.c == expected["c"]
        and bundle.train_accuracy == expected["train_accuracy"],
        f"reference train chose c={bundle.c}, accuracy={bundle.train_accuracy}; "
        f"expected {expected['c']}, {expected['train_accuracy']}",
    )
    margin_error = float(
        np.max(np.abs(probe_margins(bundle, ds) - np.asarray(expected["margins"])))
    )
    out.record["reference_margin_error"] = margin_error
    out.check(
        margin_error <= MARGIN_TOLERANCE,
        f"reference bundle's served margins off by {margin_error:.3g}",
    )


def probe_margins(bundle, ds):
    """OvO margins the bundle serves for its first training graphs."""
    from repro.serve.service import PredictionService

    service = PredictionService(bundle, ctx=base_context())
    return service.predict(list(ds.graphs[:PROBE_GRAPHS])).margins


# ---------------------------------------------------------------------- #
# serve-http
# ---------------------------------------------------------------------- #

#: Latency limit a request must meet to count toward goodput (about 3x
#: the p95 at the offered rate).
LIMIT_S = 0.25
#: Offered requests per second: about half of what two closed-loop
#: senders sustain (~75 graphs/s at 4.5 graphs per request, 2 cores).
RATE = 8.0
#: Requests per window of a traced run (see :func:`_serve_traced`).
TRACE_WINDOW = 20
#: Full set-ups (train, server start, warm-up) timed per run.
SERVE_SETUP_REPEATS = 3
#: Offset between the training seed and the request pool's seed.
POOL_SEED_OFFSET = 7919
POOL_SCALE = 0.25
MAX_GRAPHS_PER_REQUEST = 8


def request_plan(seed: int, n_requests: int, pool_size: int):
    """Seeded graph-index lists, 1-8 graphs each.

    Sizes come in shuffled blocks holding each of 1..8 once, so every
    seed sends the same number of graphs in total; which pool graphs a
    request carries is drawn per request.
    """
    rng = np.random.default_rng([seed, 104729])
    sizes = []
    while len(sizes) < n_requests:
        sizes.extend(rng.permutation(np.arange(1, MAX_GRAPHS_PER_REQUEST + 1)))
    return [
        [int(i) for i in rng.choice(pool_size, size=int(size), replace=False)]
        for size in sizes[:n_requests]
    ]


def serve_http(cfg: Config) -> Outcome:
    """Open-loop ``POST /predict`` traffic against ``make_server``."""
    from perfbench import loadgen
    from repro.serve.protocol import graph_to_wire, json_safe
    from repro.serve.server import make_server
    from repro.serve.service import PredictionService
    from repro.serve.bundle import ModelBundle

    out = Outcome()
    train_key = input_key("MUTAG", cfg.scale, cfg.seed)
    pool_key = input_key("MUTAG", POOL_SCALE, cfg.seed + POOL_SEED_OFFSET)
    out.record["input"] = {"train": train_key, "pool": pool_key, "rate": RATE}
    n_requests = int(round(max(MIN_REQUESTS, RATE * cfg.seconds)))

    def setup():
        train = dataset("MUTAG", cfg.scale, cfg.seed)
        pool = dataset("MUTAG", POOL_SCALE, cfg.seed + POOL_SEED_OFFSET).graphs
        plan = request_plan(cfg.seed, n_requests, len(pool))
        wire = [graph_to_wire(g) for g in pool]
        bodies = [
            json.dumps({"graphs": [wire[i] for i in idx]}).encode() for idx in plan
        ]
        ctx, path = _fresh_store_ctx(cfg)
        train_once(ctx, train)
        server = make_server(ctx.store, default_bundle=BUNDLE, ctx=base_context())
        server.start()
        status, _ = loadgen.post(server, "/predict", bodies[0])
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
        return server, path, pool, plan, bodies

    def teardown(state):
        state[0].close()
        shutil.rmtree(state[1], ignore_errors=True)

    setup_times, state = timed_setups(SERVE_SETUP_REPEATS, setup, teardown)
    server, path, pool, plan, bodies = state
    try:
        solo = PredictionService(
            ModelBundle.load(server.app.store, BUNDLE), ctx=base_context()
        )
        oracle = [json_safe(solo.predict([g]).labels[0]) for g in pool]
        expected = [[oracle[i] for i in idx] for idx in plan]
        n_graphs = [len(idx) for idx in plan]
        if cfg.trace:
            _serve_traced(out, server, bodies, expected, n_graphs)
        else:
            results = loadgen.run(server, bodies, RATE)
            score = _score(out, results, expected, n_graphs)
            _end_to_end(out, setup_times, score["latency"],
                        report.percentile(score["latency"], 95),
                        score["good_graphs"] / score["span"])
            out.record["lag_ms_max"] = 1000.0 * max(score["lag"])
            out.record["latencies_ms"] = [1000.0 * x for x in score["latency"]]
    finally:
        teardown(state)
    return out


def _score(out: Outcome, results, expected, n_graphs) -> dict:
    """Check every response against the oracle; latency from due time."""
    latency, lag, good_graphs, ok_count = [], [], 0, 0
    for result, labels, size in zip(results, expected, n_graphs):
        out.attempted += 1
        latency.append(result.done - result.due)
        lag.append(result.sent - result.due)
        ok = result.status == 200 and result.labels() == labels
        if not ok:
            out.failed += 1
            out.check(False, f"request {result.rid}: status {result.status}, "
                             f"labels {result.labels()} != {labels}")
            continue
        ok_count += 1
        if result.done - result.due <= LIMIT_S:
            good_graphs += size
    span = max(r.done for r in results) - min(r.due for r in results)
    return {"latency": latency, "lag": lag, "good_graphs": good_graphs,
            "ok": ok_count, "span": span, "results": results}


def _serve_traced(out: Outcome, server, bodies, expected, n_graphs) -> None:
    """The traced run: the first half of the requests in windows of
    :data:`TRACE_WINDOW`, each window sent once untraced and once traced,
    in alternating order, so that the overhead compares equal requests
    at nearby times. Every window is its own open loop at :data:`RATE`,
    and patches change only while no request is in flight."""
    from perfbench import loadgen

    recorder = SpanRecorder()
    batcher = server.app.batcher(BUNDLE)
    plain, traced, stats = [], [], []
    half = len(bodies) // 2
    for k, lo in enumerate(range(0, half, TRACE_WINDOW)):
        window = bodies[lo:min(lo + TRACE_WINDOW, half)]
        for tracing in (False, True) if k % 2 == 0 else (True, False):
            if not tracing:
                plain.extend(loadgen.run(server, window, RATE, rid_offset=lo))
                continue
            before = loadgen.batcher_stats(server)
            with Patcher() as patcher:
                install(recorder, patcher, batchers=[batcher])
                traced.extend(loadgen.run(server, window, RATE, recorder=recorder,
                                          rid_offset=lo))
            stats.append((before, loadgen.batcher_stats(server)))
    plain_score = _score(out, plain, expected[:half], n_graphs[:half])
    traced_score = _score(out, traced, expected[:half], n_graphs[:half])
    _serve_trace_metrics(out, recorder, plain_score, traced_score, stats)


def _serve_trace_metrics(out, recorder, plain, traced, stats) -> None:
    """``stats``: ``/info`` batcher stats before and after each traced window."""
    from perfbench.instrument import link_serving

    link_serving(recorder)

    def delta(key):
        return sum(after[key] - before[key] for before, after in stats)

    batches = delta("batches")
    extra = {
        "serve.batches": float(batches),
        "serve.graphs_per_batch": delta("graphs") / batches if batches else 0.0,
        "serve.rejected": float(delta("rejected")),
        "load.sent": float(len(traced["results"])),
        "load.ok": float(traced["ok"]),
        "load.failed": float(len(traced["results"]) - traced["ok"]),
        "load.lag_ms": 1000.0 * statistics.mean(traced["lag"]),
    }
    roots = [s for s in recorder.spans if s.name == "request"]
    overhead = _overhead(plain["latency"], traced["latency"])
    _trace_metrics(out, recorder, roots, overhead, extra)


WORKLOADS = {
    "gram-ppis": gram_ppis,
    "train-mutag": train_mutag,
    "serve-http": serve_http,
}
