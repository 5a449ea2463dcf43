"""Traced-run instrumentation: spans around calls into each layer.

Every patch replaces a public callable at the attribute its caller
resolves — a module global (``repro.kernels.haqjsk.correspondence_matrices``),
a class attribute (``GramEngine.cross_gram``) or an instance attribute
(a batcher's ``predict``) — with a wrapper that opens a span, and
:class:`Patcher` puts every original object back when it closes, so nothing of
the traced run leaks into an untraced one. The program itself is not
changed: all timing is done here, from outside.
"""

from __future__ import annotations

import contextlib
import functools
from unittest import mock

#: The layers the traced run names, in the order reports list them.
LAYERS = (
    "graphs",
    "alignment",
    "quantum",
    "kernels",
    "engine",
    "backend",
    "store",
    "ml",
    "serve",
)


class Patcher(contextlib.ExitStack):
    """Applies attribute patches; closing it restores the originals.

    Each patch is a :func:`unittest.mock.patch.object`, which puts back
    the owner's own attribute, or deletes the patch again when the
    attribute was inherited.
    """

    def __init__(self) -> None:
        super().__init__()
        self.patched: "list[tuple[object, str]]" = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(current_callable)``."""
        wrapper = make_wrapper(getattr(owner, attr))
        self.enter_context(mock.patch.object(owner, attr, wrapper))
        self.patched.append((owner, attr))


def spanned(recorder, name: str, on_call=None):
    """Wrapper factory: time each call as span ``name`` (layer = prefix).

    ``on_call(span, args, kwargs, result)`` adds counters or link data
    while the span is still open.
    """
    layer = name.split(".", 1)[0]

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = original(*args, **kwargs)
                if on_call is not None:
                    on_call(span, args, kwargs, result)
                return result
            finally:
                recorder.close(span)

        return wrapper

    return make


def counted(recorder, on_call):
    """Wrapper factory adding counters to the caller's span, no span."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, kwargs, result)
            return result

        return wrapper

    return make


class FirstSight:
    """Counts graphs seen for the first time during the traced phase.

    Benchmark operations get freshly generated ``Graph`` objects, and
    ``Graph`` caches shortest paths per instance, so the first request on
    an object is the one that computes. References are held until
    :meth:`clear`, so an ``id`` is never reused within the phase.
    """

    def __init__(self) -> None:
        self._seen: dict = {}

    def first(self, graph) -> bool:
        if id(graph) in self._seen:
            return False
        self._seen[id(graph)] = graph
        return True

    def clear(self) -> None:
        self._seen.clear()


def install(recorder, patcher: Patcher, *, batchers=(), first_sight=None) -> None:
    """Patch every layer boundary the workloads cross.

    ``batchers`` are live :class:`~repro.serve.batcher.MicroBatcher`
    instances whose captured ``predict`` callables get a span too (the
    batcher resolves them on the instance, not on the class).
    """
    import repro.alignment.prototypes as prototypes_module
    import repro.kernels.haqjsk as haqjsk
    import repro.serve.bundle as bundle_module
    import repro.serve.protocol as protocol
    from repro.alignment.depth_based import DBRepresentationExtractor
    from repro.backend import ComputePolicy
    from repro.engine.base import GramEngine
    from repro.engine.batched import BatchedEngine
    from repro.graphs.graph import Graph
    from repro.kernels.haqjsk import HAQJSKKernelD
    from repro.ml.kernel_utils import GramConditioner
    from repro.ml.multiclass import KernelSVC
    from repro.serve.batcher import MicroBatcher
    from repro.serve.server import ServeApp
    from repro.store.artifacts import ArtifactStore
    from repro.store.backends import DirectoryBackend

    rec = recorder
    wrap = patcher.wrap
    first_sight = first_sight if first_sight is not None else FirstSight()

    # graphs ------------------------------------------------------------
    def sp_seen(span, args, kwargs, result):
        if first_sight.first(args[0]):
            span.counts["graphs.sp_graphs"] = 1

    wrap(Graph, "shortest_path_lengths", spanned(rec, "graphs.sp", sp_seen))

    # alignment ---------------------------------------------------------
    def db_graphs(n_of):
        def on_call(span, args, kwargs, result):
            # fit_transform calls transform per graph: count the outer call.
            outer = rec.spans[span.parent] if span.parent is not None else None
            if outer is None or outer.name != "alignment.db":
                span.counts["alignment.db_graphs"] = n_of(args)

        return on_call

    wrap(
        DBRepresentationExtractor,
        "fit_transform",
        spanned(rec, "alignment.db", db_graphs(lambda args: len(args[1]))),
    )
    wrap(
        DBRepresentationExtractor,
        "transform",
        spanned(rec, "alignment.db", db_graphs(lambda args: 1)),
    )
    wrap(haqjsk, "fit_prototype_hierarchy", spanned(rec, "alignment.prototypes"))

    def kmeans_counts(args, kwargs, result):
        rec.count("alignment.kmeans_runs")
        rec.count("alignment.kmeans_iters", int(result.n_iterations))

    wrap(prototypes_module, "kmeans", counted(rec, kmeans_counts))
    wrap(haqjsk, "correspondence_matrices", spanned(rec, "alignment.correspond"))

    def aligned_call(span, args, kwargs, result):
        span.counts["alignment.aligned_calls"] = 1

    wrap(haqjsk, "aligned_adjacency", spanned(rec, "alignment.aligned", aligned_call))
    wrap(haqjsk, "aligned_density", spanned(rec, "alignment.aligned", aligned_call))

    # quantum -----------------------------------------------------------
    def density_call(span, args, kwargs, result):
        span.counts["quantum.density_calls"] = 1

    wrap(haqjsk, "graph_density_matrix", spanned(rec, "quantum.density", density_call))

    # kernels -----------------------------------------------------------
    wrap(HAQJSKKernelD, "prepare", spanned(rec, "kernels.prepare"))
    wrap(HAQJSKKernelD, "freeze", spanned(rec, "kernels.freeze"))

    # engine ------------------------------------------------------------
    wrap(GramEngine, "gram", spanned(rec, "engine.pair"))
    wrap(GramEngine, "cross_gram", spanned(rec, "engine.pair"))

    def tile_counts(args, kwargs, result):
        _, _, states_a, states_b, diagonal = args
        n = len(states_a)
        rec.count("engine.tiles")
        rec.count("engine.pairs", n * (n + 1) // 2 if diagonal else n * len(states_b))

    wrap(BatchedEngine, "compute_tile", counted(rec, tile_counts))

    # backend -----------------------------------------------------------
    def eig_counts(span, args, kwargs, result):
        policy, stack_a = args[0], args[1]
        n = int(result.size)
        m = int(stack_a.shape[-1])
        itemsize = 4 if policy.precision == "float32" else 8
        span.counts["backend.eig_matrices"] = n
        # Computed from shapes, not measured: Householder tridiagonal
        # reduction (4/3 m^3) plus the mix (2 m^2) per matrix; bytes are
        # the two gathered operands read and the mixed matrix written.
        span.counts["backend.eig_flops"] = n * (4.0 * m**3 / 3.0 + 2.0 * m * m)
        span.counts["backend.eig_bytes"] = n * 3.0 * m * m * itemsize

    wrap(ComputePolicy, "mixed_entropies", spanned(rec, "backend.eig", eig_counts))

    # store -------------------------------------------------------------
    # A get counts as a hit only when it returns an artifact that no put
    # of this run wrote: reading back one's own write is not reuse.
    written = set()

    def put_call(span, args, kwargs, result):
        span.counts["store.puts"] = 1
        written.add((args[0].address, args[1], args[2]))

    def get_call(span, args, kwargs, result):
        span.counts["store.gets"] = 1
        if result is not None and (args[0].address, args[1], args[2]) not in written:
            span.counts["store.hits"] = 1

    for attr in ("put_array", "put_array_if_absent", "put_object", "put_bytes",
                 "put_if_absent"):
        wrap(ArtifactStore, attr, spanned(rec, "store.put", put_call))
    for attr in ("get_array", "get_memmap", "get_object", "get_bytes"):
        wrap(ArtifactStore, attr, spanned(rec, "store.get", get_call))

    def bytes_written(args, kwargs, result):
        rec.count("store.put_bytes", len(args[2]))

    wrap(DirectoryBackend, "put_atomic", counted(rec, bytes_written))
    wrap(DirectoryBackend, "put_if_absent", counted(rec, bytes_written))

    # ml ----------------------------------------------------------------
    wrap(GramConditioner, "fit_transform", spanned(rec, "ml.condition"))
    wrap(GramConditioner, "transform_cross", spanned(rec, "ml.condition"))
    wrap(bundle_module, "select_c", spanned(rec, "ml.select_c"))

    def svm_fit(span, args, kwargs, result):
        span.counts["ml.svm_fits"] = 1

    wrap(KernelSVC, "fit", spanned(rec, "ml.svm_fit", svm_fit))
    wrap(KernelSVC, "vote_margins", spanned(rec, "ml.vote"))

    # serve -------------------------------------------------------------
    def handle_rid(span, args, kwargs, result):
        _, _, _, query, _ = args  # (app, method, path, query, body)
        span.attrs["rid"] = (query.get("rid") or [None])[0]

    wrap(ServeApp, "handle", spanned(rec, "serve.app", handle_rid))
    wrap(protocol, "parse_predict_request", spanned(rec, "serve.decode"))
    wrap(protocol, "prediction_payload", spanned(rec, "serve.encode"))

    def submit_graphs(span, args, kwargs, result):
        graphs = args[1]  # (batcher, graphs)
        span.attrs["first_graph"] = id(graphs[0]) if graphs else None

    wrap(MicroBatcher, "submit", spanned(rec, "serve.queue_wait", submit_graphs))

    def predict_graphs(span, args, kwargs, result):
        span.attrs["graph_ids"] = {id(g) for g in args[0]}

    for batcher in batchers:
        wrap(batcher, "predict", spanned(rec, "serve.predict", predict_graphs))


def link_serving(recorder) -> None:
    """Attach cross-thread children: client request -> ``ServeApp.handle``
    (by request id) and ``MicroBatcher.submit`` -> its batch's predict
    (the predict whose graphs include the request's, inside the wait)."""
    spans = [s for s in recorder.spans if s.end is not None]
    handles = {s.attrs.get("rid"): s for s in spans if s.name == "serve.app"}
    predicts = [s for s in spans if s.name == "serve.predict"]
    for s in spans:
        if s.name == "serve.http" and s.attrs.get("rid") in handles:
            recorder.link(s, handles[s.attrs["rid"]])
        elif s.name == "serve.queue_wait" and s.attrs.get("first_graph"):
            for p in predicts:
                if (
                    s.attrs["first_graph"] in p.attrs["graph_ids"]
                    and p.start >= s.start
                    and p.end <= s.end
                ):
                    recorder.link(s, p)
                    break
