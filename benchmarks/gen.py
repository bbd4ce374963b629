"""Seeded input documents for the benchmark, built without importing latprune.

The benchmark writes its own architecture, scores and latency-table
documents so that a change to ``latprune synth`` cannot change what is
measured.  Scores are uniform draws in [0, 1) and latency tables follow the
synthetic cost model ``overhead + unit_cost * spatial * prod(effective
sizes)`` with bounded multiplicative noise, the formula and draw order of
``latprune.synth_scores`` / ``latprune.synth_lut`` at their defaults.  At
``data_seed`` 0 the documents therefore equal what ``latprune synth --seed 0``
writes.

Two seeds play different roles:

* ``data_seed`` draws the scores and the table noise, so it changes the
  optimisation problem and with it how hard the search is.  The gated
  workloads always use data seed 0, the ROADMAP Baseline instance; the tail
  report varies it.
* ``perm_seed`` (the benchmark's ``--seed``) shuffles the element order
  inside every dimension's score list.  Importance vectors are prefix sums of
  the sorted scores, so the problem, the solver's work and the optimal plan
  are unchanged bit for bit, while the documents, the parsed arrays and every
  extracted kept-element list differ.  Seed 0 keeps the drawn order.
"""

from __future__ import annotations

import base64
import json
from functools import reduce

import numpy as np

UNIT_COST = 1e-6  # ms per multiply-accumulate equivalent
OVERHEAD = 0.01  # ms per kernel launch
TILE = 32
SPATIAL = 1.0
NOISE = 0.02

TRANSFORMER_PARTS = (
    ("qk", ("emb", "head", "qk")),
    ("vproj", ("emb", "head", "v")),
    ("mlp", ("emb", "mlp")),
)
TRANSFORMER_ROLES = ("emb", "head", "qk", "v", "mlp")


def _dim(dim_id: str, role: str, options: int, group: int, max_elements: int | None = None) -> dict:
    return {
        "id": dim_id,
        "role": role,
        "option_count": options,
        "group_size": group,
        "max_elements": options * group if max_elements is None else max_elements,
    }


def _chain(block_id: int, dims: list[str], removable: bool, input_ref: str) -> dict:
    return {"id": block_id, "kind": "cnn_chain", "removable": removable,
            "dims": dims, "input_ref": input_ref}


def _transformer(block_id: int, prefix: str, shape: dict[str, tuple[int, int]]) -> tuple[list, dict]:
    dims = [_dim(f"{prefix}_{role}", role, *shape[role]) for role in TRANSFORMER_ROLES]
    block = {"id": block_id, "kind": "transformer", "removable": True,
             "dims": [d["id"] for d in dims]}
    return dims, block


def vit_arch() -> dict:
    """ViT-B-12: 12 removable transformer blocks (the ROADMAP Baseline shape)."""
    shape = {"emb": (12, 64), "head": (12, 1), "qk": (8, 8), "v": (8, 8), "mlp": (48, 64)}
    dims, blocks = [], []
    for b in range(1, 13):
        block_dims, block = _transformer(b, f"b{b}", shape)
        dims += block_dims
        blocks.append(block)
    return {"name": "vit_b12", "dims": dims, "blocks": blocks}


def resnet_arch() -> dict:
    """ResNet50 shape at grouping 32: 16 bottleneck chains, 12 removable."""
    stages = [(3, 64, 256), (4, 128, 512), (6, 256, 1024), (3, 512, 2048)]
    dims = [_dim("stem", "fixed_external", 1, 64)]
    blocks = []
    prev_trunk = "stem"
    for s, (n_blocks, mid, out) in enumerate(stages, start=1):
        trunk = f"t{s}"
        dims.append(_dim(trunk, "fixed_external", 1, out))
        for i in range(1, n_blocks + 1):
            base = f"s{s}b{i}"
            layer = [
                _dim(f"{base}_c1", "conv_out", mid // 32, 32),
                _dim(f"{base}_c2", "conv_out", mid // 32, 32),
                _dim(f"{base}_c3", "conv_out", 1, out),
            ]
            dims += layer
            blocks.append(_chain(len(blocks) + 1, [d["id"] for d in layer],
                                 removable=i > 1, input_ref=prev_trunk if i == 1 else trunk))
        prev_trunk = trunk
    return {"name": "resnet50_g32", "dims": dims, "blocks": blocks}


def chain_arch() -> dict:
    """Chained inputs: per stage, a permanent chain (fed by the previous
    stage's) whose output feeds two removable chains; then two small
    transformer blocks."""
    dims = [_dim("stem", "fixed_external", 1, 64)]
    blocks = []
    for s in range(1, 4):
        producer = [_dim(f"s{s}p_c{k}", "conv_out", 8, 8) for k in (1, 2)]
        dims += producer
        blocks.append(_chain(len(blocks) + 1, [d["id"] for d in producer],
                             removable=False, input_ref="stem" if s == 1 else f"s{s-1}p_c2"))
        for branch in (1, 2):
            layer = [_dim(f"s{s}r{branch}_c{k}", "conv_out", 8, 8) for k in (1, 2)]
            dims += layer
            blocks.append(_chain(len(blocks) + 1, [d["id"] for d in layer],
                                 removable=True, input_ref=producer[-1]["id"]))
    shape = {"emb": (8, 32), "head": (8, 1), "qk": (8, 8), "v": (8, 8), "mlp": (16, 64)}
    for t in (1, 2):
        block_dims, block = _transformer(len(blocks) + 1, f"t{t}", shape)
        dims += block_dims
        blocks.append(block)
    return {"name": "chained_mixed", "dims": dims, "blocks": blocks}


def tiny_arch() -> dict:
    """The shape of demos/data/tiny_mixed.arch.json, copied so the demo may change."""
    return {
        "name": "tiny_mixed",
        "dims": [
            _dim("stem", "fixed_external", 1, 16),
            _dim("b1_c1", "conv_out", 4, 4),
            _dim("b1_c2", "conv_out", 4, 4),
            _dim("b2_c1", "conv_out", 6, 4),
            _dim("b2_c2", "conv_out", 4, 4),
            _dim("b3_emb", "emb", 4, 8),
            _dim("b3_head", "head", 4, 1),
            _dim("b3_qk", "qk", 4, 8),
            _dim("b3_v", "v", 4, 8),
            _dim("b3_mlp", "mlp", 6, 16),
        ],
        "blocks": [
            _chain(1, ["b1_c1", "b1_c2"], removable=False, input_ref="stem"),
            _chain(2, ["b2_c1", "b2_c2"], removable=True, input_ref="stem"),
            {"id": 3, "kind": "transformer", "removable": True,
             "dims": ["b3_emb", "b3_head", "b3_qk", "b3_v", "b3_mlp"]},
        ],
    }


ARCHS = {"vit": vit_arch, "resnet": resnet_arch, "chain": chain_arch, "tiny": tiny_arch}


def kept_counts(dim: dict) -> np.ndarray:
    options = np.arange(1, dim["option_count"] + 1)
    return np.minimum(options * dim["group_size"], dim["max_elements"]).astype(float)


def draw_scores(arch: dict, data_seed: int, perm_seed: int) -> dict[str, np.ndarray]:
    """Uniform scores per dimension, then shuffled within each dimension."""
    rng = np.random.default_rng(data_seed)
    scores = {d["id"]: rng.random(d["max_elements"]) for d in arch["dims"]}
    if perm_seed != 0:
        perm = np.random.default_rng(perm_seed)
        scores = {k: v[perm.permutation(v.size)] for k, v in scores.items()}
    return scores


def draw_tables(arch: dict, data_seed: int) -> list[dict]:
    """One table record per block part in topology order: {block_id, part,
    layer?, axes, data (ndarray)}."""
    rng = np.random.default_rng(data_seed)
    dims = {d["id"]: d for d in arch["dims"]}

    def price(*axes: str) -> np.ndarray:
        eff = [np.ceil(kept_counts(dims[a]) / TILE) * TILE for a in axes]
        grids = np.meshgrid(*eff, indexing="ij")
        data = OVERHEAD + UNIT_COST * SPATIAL * reduce(np.multiply, grids)
        return data * (1.0 + NOISE * rng.uniform(-1.0, 1.0, size=data.shape))

    tables = []
    for block in arch["blocks"]:
        if block["kind"] == "cnn_chain":
            inputs = [block["input_ref"]] + block["dims"][:-1]
            for layer, (din, dout) in enumerate(zip(inputs, block["dims"]), start=1):
                tables.append({"block_id": block["id"], "part": "conv_layer", "layer": layer,
                               "axes": [din, dout], "data": price(din, dout)})
        else:
            by_role = {dims[d]["role"]: d for d in block["dims"]}
            for part, roles in TRANSFORMER_PARTS:
                axes = [by_role[r] for r in roles]
                tables.append({"block_id": block["id"], "part": part,
                               "axes": axes, "data": price(*axes)})
    return tables


def dense_latency(arch: dict, tables: list[dict]) -> float:
    """Latency with every dimension at its largest option and every block kept,
    summed in the order ``latprune.constraint_value`` uses."""
    total = 0.0
    for block in arch["blocks"]:
        subtotal = 0.0
        for t in tables:
            if t["block_id"] == block["id"]:
                subtotal += float(t["data"].reshape(-1)[-1])
        total += subtotal
    return total


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def scores_document(scores: dict[str, np.ndarray]) -> str:
    return dumps({"scores": [{"dim_id": k, "scores": [float(x) for x in v]}
                             for k, v in scores.items()]})


def lut_document(tables: list[dict], base64_payload: bool = False) -> str:
    records = []
    for t in tables:
        record = {k: v for k, v in t.items() if k != "data"}
        record["shape"] = list(t["data"].shape)
        flat = np.ascontiguousarray(t["data"], dtype=np.float64).reshape(-1)
        if base64_payload:
            record["data_b64"] = base64.b64encode(flat.astype("<f8").tobytes()).decode()
        else:
            record["data"] = [float(x) for x in flat]
        records.append(record)
    return dumps({"tables": records})


class Instance:
    """One generated problem: its documents, dense latency and raw draws."""

    def __init__(self, arch_name: str, data_seed: int, perm_seed: int) -> None:
        self.arch = ARCHS[arch_name]()
        self.scores = draw_scores(self.arch, data_seed, perm_seed)
        self.tables = draw_tables(self.arch, data_seed)
        self.dense_ms = dense_latency(self.arch, self.tables)

    def documents(self) -> dict[str, str]:
        return {
            "arch": dumps(self.arch),
            "scores": scores_document(self.scores),
            "lut": lut_document(self.tables),
        }

    def budget(self, fraction: float) -> float:
        return fraction * self.dense_ms
