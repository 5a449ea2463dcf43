"""Regenerate the stored reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference/gram_ppis.npy`` (the HAQJSK(D) Gram of the
fixed PPIs reference input) and ``perfbench/reference/train_mutag.json``
(the chosen ``c``, training accuracy and the served margins of a few
training graphs, for the fixed MUTAG reference input). Only rerun it when a change is meant to
alter the program's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import ROOT, SCRUBBED_ENV, _import_program  # noqa: E402


def main() -> None:
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    _import_program()
    import numpy as np
    from repro import Session
    from perfbench import workloads as w

    os.makedirs(w.REFERENCE_DIR, exist_ok=True)
    ref = w.GRAM_REFERENCE
    gram = Session(w.base_context()).gram(
        w.KERNEL, w.dataset(ref["name"], ref["scale"], ref["seed"]).graphs
    )
    np.save(os.path.join(w.REFERENCE_DIR, "gram_ppis.npy"), np.asarray(gram))

    ref = w.TRAIN_REFERENCE
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    path = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        ctx = w.base_context().replace(store=f"dir:{path}")
        ds = w.dataset(ref["name"], ref["scale"], ref["seed"])
        bundle, _ = w.train_once(ctx, ds)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    with open(os.path.join(w.REFERENCE_DIR, "train_mutag.json"), "w") as handle:
        json.dump(
            {
                "input": ref,
                "c": bundle.c,
                "train_accuracy": bundle.train_accuracy,
                "margins": w.probe_margins(bundle, ds).tolist(),
            },
            handle,
            indent=1,
        )


if __name__ == "__main__":
    main()
