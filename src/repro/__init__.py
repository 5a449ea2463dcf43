"""repro — a full reproduction of the HAQJSK graph-kernel paper.

HAQJSK: Hierarchical-Aligned Quantum Jensen-Shannon Kernels for Graph
Classification (Bai, Cui, Wang, Li, Hancock; ICDE 2025 extended abstract /
arXiv:2211.02904).

The documented way in is the unified public API::

    import repro

    session = repro.Session(repro.ExecutionContext.from_env())
    spec = repro.KernelSpec("HAQJSK(D)", n_prototypes=32)
    result = session.cross_validate(spec, dataset)

* :class:`repro.KernelSpec` / :func:`repro.make` — declarative,
  registry-validated kernel construction (:mod:`repro.kernels.registry`)
* :class:`repro.ExecutionContext` — engine, store, sinks, tile and
  normalisation policy as one frozen value (``ctx=`` everywhere)
* :class:`repro.Session` — ``gram`` / ``cross_validate`` / ``train`` /
  ``predict`` over one context

The subpackages hold the full layer APIs:

* :mod:`repro.graphs`    — graph substrate (Graph, generators, IO)
* :mod:`repro.datasets`  — the 12 benchmark datasets of Table II
* :mod:`repro.quantum`   — CTQW, density matrices, entropies, QJSD
* :mod:`repro.alignment` — DB representations, prototypes, correspondences
* :mod:`repro.kernels`   — HAQJSK(A/D) plus every baseline of Table III
* :mod:`repro.engine`    — pluggable Gram backends (serial/batched/process)
* :mod:`repro.store`     — content-addressed artifacts, tile-checkpointed Grams
* :mod:`repro.ml`        — C-SVM (SMO), multiclass, cross-validation
* :mod:`repro.serve`     — model bundles + the prediction service
* :mod:`repro.gnn`       — numpy autograd + the deep baselines of Table V
* :mod:`repro.experiments` — regenerate each paper table/figure
"""

from repro.api.context import ExecutionContext
from repro.api.session import Session
from repro.graphs.graph import Graph
from repro.kernels.registry import KernelSpec, make

__version__ = "1.1.0"

__all__ = [
    "ExecutionContext",
    "Graph",
    "KernelSpec",
    "Session",
    "__version__",
    "make",
]
