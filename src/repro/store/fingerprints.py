"""Stable configuration fingerprints for kernels and other config objects.

A fingerprint answers "would this object produce the same numbers?": two
kernels with the same class and the same public configuration hash to the
same hex digest across processes, so the artifact store can address Gram
matrices by *what computed them* rather than by object identity.

The walk covers an object's public instance attributes and recurses into
nested config objects (a kernel's :class:`HierarchicalAligner`, an
aligner's extractor, ...). Excluded by convention:

* names starting with ``_`` — internal/derived state;
* names ending with ``_`` — fitted state (sklearn convention), which is a
  *product* of configuration plus data, not configuration itself. Objects
  whose fitted state changes their output (the frozen HAQJSK prototype
  system) must surface it explicitly — see
  :meth:`repro.kernels.base.GraphKernel._fingerprint_extra`.

Execution policy (the Gram backend, tile size, sinks, stores) never
reaches a fingerprint: it travels in an
:class:`~repro.api.context.ExecutionContext`, not on the kernel.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

#: Bump to invalidate every previously stored fingerprint.
_FINGERPRINT_VERSION = "config-fingerprint-v1"


def stable_config(obj) -> dict:
    """A JSON-able dict of ``obj``'s public configuration (recursive)."""
    config = {}
    for key, value in sorted(vars(obj).items()):
        if key.startswith("_") or key.endswith("_"):
            continue
        config[key] = _stable_value(value)
    return config


def _stable_value(value):
    """Canonicalise one attribute value for JSON hashing."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_stable_value(v) for v in items]
    if isinstance(value, dict):
        return {str(k): _stable_value(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if callable(value) and hasattr(value, "__qualname__"):
        return {"__callable__": f"{value.__module__}.{value.__qualname__}"}
    if hasattr(value, "__dict__"):
        # Module-qualified, like the top-level class: two same-named config
        # classes in different modules must never fingerprint-collide.
        return {
            "__object__": f"{type(value).__module__}.{type(value).__qualname__}",
            "config": stable_config(value),
        }
    # Last resort: repr is stable for the simple value objects used in
    # kernel configs; anything exotic should implement __dict__.
    return {"__repr__": repr(value)}


def config_fingerprint(obj, *, extra: "dict | None" = None) -> str:
    """Hex SHA-256 of an object's class plus its stable configuration.

    ``extra`` lets callers mix in state the attribute walk excludes by
    design (e.g. the digest of the reference collection a frozen HAQJSK
    aligner was fitted on).
    """
    payload = {
        "version": _FINGERPRINT_VERSION,
        "class": f"{type(obj).__module__}.{type(obj).__qualname__}",
        "config": stable_config(obj),
    }
    if extra:
        payload["extra"] = _stable_value(dict(extra))
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()
