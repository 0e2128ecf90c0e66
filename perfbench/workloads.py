"""Workload inputs: instance documents and CLI operations drawn from a seed.

Seed 0 gives the documents exactly as named in BENCHMARK.json.  Any other
seed relabels each document: it permutes the order of the blocks and the
variables inside each block.  A relabelled instance is isomorphic to the
original, so its Betti table is the original one with the multidegrees
permuted, and the amount of work stays close to the original's.  For the
suite, the seed permutes the order of the 20 pinned instances.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("gmpi-construct", "gmpi-check", "verify-suite")

# The committed demo instance, copied so that edits under demos/ do not
# change what the benchmark measures.
DEMO = {
    "blocks": [{"name": "x", "size": 2}, {"name": "y", "size": 2}],
    "inducing_ideal": [[2, 1], [1, 2]],
    "substitutions": {
        "x:1": [[1, 0], [0, 1]],
        "x:2": [[2, 0], [1, 1], [0, 2]],
        "y:1": [[1, 0], [0, 1]],
        "y:2": [[2, 0], [1, 1], [0, 2]],
    },
    "label": "expansion_x2y_xy2",
}

CYCLE_BLOCKS = ("a", "b", "c", "d", "e")


def cycle5_document() -> dict:
    """Edge ideal of the 5-cycle with the maximal ideal of a 2-variable block
    substituted for every vertex: |G(L)| = 20 on a 1024-cell degree grid."""
    n = len(CYCLE_BLOCKS)
    edges = [[1 if v in (i, (i + 1) % n) else 0 for v in range(n)] for i in range(n)]
    return {
        "blocks": [{"name": b, "size": 2} for b in CYCLE_BLOCKS],
        "inducing_ideal": edges,
        "substitutions": {f"{b}:1": {"family": "power-of-maximal", "degree": 1}
                          for b in CYCLE_BLOCKS},
        "label": "cycle5",
    }


def mixed_document(gmpi, sizes, degs1, degs2) -> dict:
    inst = gmpi.families.mixed_product_instance(sizes, degs1, degs2)
    return gmpi.cli.instance_to_document(inst)


DOCUMENTS = {
    "demo": lambda gmpi: DEMO,
    "mixed44_31": lambda gmpi: mixed_document(gmpi, (4, 4), (3, 1), (1, 3)),
    "cycle5": lambda gmpi: cycle5_document(),
    "mixed44_21": lambda gmpi: mixed_document(gmpi, (4, 4), (2, 1), (1, 2)),
    "mixed33_21": lambda gmpi: mixed_document(gmpi, (3, 3), (2, 1), (1, 2)),
}


# ---------------------------------------------------------------------------
# relabelling

def relabel(doc: dict, rng: random.Random) -> tuple[dict, list[int]]:
    """Permute blocks and the variables inside each block.

    Returns the new document and ``origin``: flat variable index in the new
    document -> flat variable index in ``doc``.
    """
    blocks = doc["blocks"]
    order = list(range(len(blocks)))
    rng.shuffle(order)
    offsets = [0]
    for b in blocks:
        offsets.append(offsets[-1] + b["size"])
    inner = {}
    for l, b in enumerate(blocks):
        perm = list(range(b["size"]))
        rng.shuffle(perm)
        inner[b["name"]] = perm
    origin = []
    for l in order:
        origin.extend(offsets[l] + v for v in inner[blocks[l]["name"]])
    subs = {}
    for key, val in doc["substitutions"].items():
        name = key.split(":")[0]
        if isinstance(val, dict):
            subs[key] = val
        else:
            subs[key] = [[g[v] for v in inner[name]] for g in val]
    out = {
        "blocks": [blocks[l] for l in order],
        "inducing_ideal": [[g[l] for l in order] for g in doc["inducing_ideal"]],
        "substitutions": subs,
        "label": doc["label"],
    }
    return out, origin


# ---------------------------------------------------------------------------
# operations

@dataclass
class Operation:
    name: str                 # reference key
    argv: list[str]
    kind: str                 # "construct", "check" or "suite"
    origin: list[int] = field(default_factory=list)
    suite_seeds: list[int] | None = None


def document_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, f"{name}.json")


def prepare(gmpi, workload: str, seed: int, workdir: str) -> list[Operation]:
    """Generate and write the workload's inputs; return its operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-suite":
        seeds = list(gmpi.verify.SUITE_SEEDS)
        if seed:
            rng.shuffle(seeds)
        return [Operation("suite", ["verify", "--json"], "suite", suite_seeds=seeds)]
    names = {
        "gmpi-construct": ["demo", "mixed44_31", "cycle5", "mixed44_21"],
        "gmpi-check": ["demo", "mixed33_21"],
    }[workload]
    ops = []
    for name in names:
        doc = DOCUMENTS[name](gmpi)
        if seed:
            doc, origin = relabel(doc, rng)
        else:
            origin = list(range(sum(b["size"] for b in doc["blocks"])))
        path = document_path(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if workload == "gmpi-construct":
            ops.append(Operation(name, ["gmpi", path, "--json"], "construct", origin))
        else:
            ops.append(Operation(name, ["gmpi", path, "--check", "--json"], "check", origin))
    return ops
