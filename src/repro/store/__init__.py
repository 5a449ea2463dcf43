"""Persistent, content-addressed artifact store for the kernel pipeline.

The HAQJSK family costs ``O(N² n³)`` per Gram matrix (paper Section
III-D); :mod:`repro.engine` attacks the constant factor, this subsystem
attacks *recomputation*. The pieces:

* **Content addressing** — stable graph digests
  (:func:`repro.graphs.hashing.graph_digest`) and kernel configuration
  fingerprints (:meth:`repro.kernels.base.GraphKernel.fingerprint`)
  combine into :func:`gram_key`, so artifacts are found by what computed
  them, across processes and machines.
* **The store** — :class:`ArtifactStore` persists Gram matrices and
  prepared states under those keys (atomic writes, bounded in-memory
  layer), giving the experiment harness checkpoint/resume
  (``REPRO_STORE=dir python -m repro.experiments.runner table4 ...``) and
  the ML layer store-backed Grams.
* **Gram reuse** — :func:`store_backed_gram` (what
  ``kernel.gram(graphs, ctx=ExecutionContext(store=...))`` runs) looks
  the whole Gram up first and, on a miss, computes it tile-checkpointed,
  so a grown collection ``gram(old + new)`` restores every interior tile
  of ``gram(old)``. Exact for collection-independent kernels; the HAQJSK
  family first freezes its prototype system on a reference collection
  (``kernel.freeze(...)``) — the frozen-prototype serving mode.
* **Pluggable backends** — :mod:`repro.store.backends` puts a
  byte-oriented :class:`StoreBackend` protocol (atomic writes +
  compare-and-swap) under the store, selected by address:
  ``dir:/path`` / bare paths (crash-durable reference implementation),
  ``mem:name`` (in-process, for tests), and
  :func:`register_store_scheme` for future object stores.
* **Coordination** — :mod:`repro.store.claims` builds a lease/heartbeat
  claim table on the backend CAS and :class:`repro.store.tiles.TileLedger`
  exposes a plan's pending tiles, which is everything
  :mod:`repro.distributed`'s work-stealing workers need to converge on
  one Gram from many processes.
* **Tile granularity** — :mod:`repro.store.tiles` moves the checkpoint
  unit below the whole Gram: engines stream finished tiles through a
  :class:`CheckpointSink`, each committed atomically under a
  slice-content key (:class:`TileKeyer`), so killed runs resume at the
  first unfinished *tile* and grown collections reuse interior tiles
  (DESIGN.md, "Tile keying"). :meth:`ArtifactStore.get_memmap` /
  :meth:`ArtifactStore.memmap_sink` add the out-of-core read/write path
  for Grams larger than RAM.
"""

from repro.store.artifacts import (
    DEFAULT_MEMORY_ENTRIES,
    ArtifactStore,
    artifact_key,
    gram_key,
    store_backed_gram,
)
from repro.store.backends import (
    STORE_SCHEMES,
    DirectoryBackend,
    MemoryBackend,
    StoreBackend,
    backend_for,
    register_store_scheme,
)
from repro.store.claims import (
    DEFAULT_LEASE_TTL,
    LEASE_KIND,
    Lease,
    TileClaims,
)
from repro.store.fingerprints import config_fingerprint, stable_config
from repro.store.tiles import (
    TILE_KIND,
    CheckpointSink,
    TileKeyer,
    TileLedger,
    tile_keyer_for,
)

__all__ = [
    "ArtifactStore",
    "CheckpointSink",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MEMORY_ENTRIES",
    "DirectoryBackend",
    "LEASE_KIND",
    "Lease",
    "MemoryBackend",
    "STORE_SCHEMES",
    "StoreBackend",
    "TILE_KIND",
    "TileClaims",
    "TileKeyer",
    "TileLedger",
    "artifact_key",
    "backend_for",
    "config_fingerprint",
    "gram_key",
    "register_store_scheme",
    "stable_config",
    "store_backed_gram",
    "tile_keyer_for",
]
