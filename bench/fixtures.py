"""Seeded synthetic datasets and CE-trained checkpoints for the benchmark.

Every dataset is a stochastic block model wired as a configuration
model. Classes are balanced. The degree multiset is the quantiles of
Poisson(5), the same on every seed; which node gets which degree is
seeded. Each edge stub is reserved for its node's own class with
probability 0.8, and the rest pair uniformly. Attributes are sparse,
binary and class-correlated: each class owns a contiguous block of
features that its nodes switch on more often than the rest. 10 % of the
nodes are labeled.

A fixed degree multiset keeps a graph's total work nearly the same from
seed to seed. That work sums |N1|*|N2| over the nodes, so it follows the
degree tail; with independently drawn degrees it varied by +-18 % at
N = 200.

The feature-to-class blocks depend only on the shape, never on the
seed, so every seed draws a fresh graph from the same distribution. That
lets one CE-trained checkpoint per shape serve every seed. It was trained
once with the public ``train`` on a fixed draw and is committed as
``checkpoints/<shape>.npz``, so every checkout times the same model and
the library under test never retrains it. Each run converts it to the
library's checkpoint format with ``save_checkpoint``, untimed.

    python3 bench/fixtures.py --retrain

retrains the committed checkpoints; bench/reference.json must then be
recorded again.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import scipy.stats

MEAN_DEGREE = 5.0
INTRA_CLASS_EDGES = 0.8
LABELED_FRAC = 0.1
# expected active features per node: own block at P_OWN, the rest at P_OTHER
P_OWN = 0.012
P_OTHER = 0.004
# the checkpoint is trained on its own draw (a seed no benchmark run uses)
TRAIN_SEED = 2**31 - 1
CHECKPOINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "checkpoints")


@dataclass(frozen=True)
class Shape:
    name: str
    num_nodes: int
    num_features: int
    num_classes: int
    hidden: int
    # nodes of the draw the checkpoint is trained on; a smaller draw of the
    # same distribution keeps Trainer's per-node slices in memory bounds
    train_nodes: int = 0
    train_epochs: int = 0
    p_own: float = P_OWN
    p_other: float = P_OTHER


SHAPES = {
    "coraml": Shape("coraml", 2995, 2879, 7, 32, train_nodes=700, train_epochs=60),
    "pga": Shape("pga", 300, 300, 7, 32, train_nodes=300, train_epochs=100, p_own=0.08, p_other=0.02),
    "curve": Shape("curve", 200, 100, 4, 16, train_nodes=200, train_epochs=100, p_own=0.12, p_other=0.03),
    "rhu": Shape("rhu", 120, 20, 2, 8, p_own=0.12, p_other=0.05),
}


@dataclass
class Dataset:
    """Arrays of one draw; the library only ever sees the TSV files."""

    edges: np.ndarray  # (E, 2) int, u < v
    attributes: np.ndarray  # (N, D) 0/1 float
    classes: np.ndarray  # ground-truth class per node
    labels: np.ndarray  # class where labeled, -1 elsewhere


def generate(shape: Shape, seed: int, num_nodes: int | None = None) -> Dataset:
    """One SBM draw at `shape` from `seed`."""
    N = shape.num_nodes if num_nodes is None else num_nodes
    D, K = shape.num_features, shape.num_classes
    rng = np.random.default_rng([seed, N, D, K])
    y = rng.permutation(np.arange(N) % K)

    degree = rng.permutation(scipy.stats.poisson.ppf((np.arange(N) + 0.5) / N, MEAN_DEGREE).astype(int))
    intra = rng.binomial(degree, INTRA_CLASS_EDGES)
    groups = [np.repeat(np.flatnonzero(y == k), intra[y == k]) for k in range(K)]
    groups.append(np.repeat(np.arange(N), degree - intra))
    pairs = []
    for stubs in groups:
        stubs = rng.permutation(stubs)
        pairs.append(stubs[: stubs.size // 2 * 2].reshape(-1, 2))
    pairs = np.sort(np.concatenate(pairs), axis=1)
    # self-loops and repeated pairs are dropped, so a few degrees end lower
    edges = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)

    block = np.arange(D) * K // D  # feature d belongs to class block[d]
    p = np.where(block[None, :] == y[:, None], shape.p_own, shape.p_other)
    X = (rng.random((N, D)) < p).astype(np.float64)
    # the TSV loader infers N and D from the largest ids present
    X[N - 1, D - 1] = 1.0

    labels = np.full(N, -1)
    labeled = rng.choice(N, size=max(K, int(round(LABELED_FRAC * N))), replace=False)
    labels[labeled] = y[labeled]
    return Dataset(edges=edges, attributes=X, classes=y, labels=labels)


def write_tsv(ds: Dataset, directory: str) -> dict:
    """Write the CLI's edges / attributes / labels / split TSV files."""
    os.makedirs(directory, exist_ok=True)
    paths = {k: os.path.join(directory, f"{k}.tsv") for k in ("edges", "attributes", "labels", "split")}
    N = ds.attributes.shape[0]
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{u}\t{v}\n" for u, v in ds.edges)
    rows, cols = np.nonzero(ds.attributes)
    with open(paths["attributes"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{n}\t{d}\n" for n, d in zip(rows, cols))
    with open(paths["labels"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{n}\t{y}\n" for n, y in enumerate(ds.labels) if y >= 0)
    with open(paths["split"], "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{n}\t{'labeled' if ds.labels[n] >= 0 else 'unlabeled'}\n" for n in range(N)
        )
    return paths


def to_graph(ds: Dataset, num_classes: int):
    from gcn_cert import Graph

    N, D = ds.attributes.shape
    A = np.zeros((N, N))
    A[ds.edges[:, 0], ds.edges[:, 1]] = 1.0
    A[ds.edges[:, 1], ds.edges[:, 0]] = 1.0
    split = np.where(ds.labels >= 0, "labeled", "unlabeled").astype(object)
    return Graph(
        num_nodes=N,
        num_features=D,
        num_classes=num_classes,
        adjacency=A,
        attributes=ds.attributes,
        labels=ds.labels,
        split=split,
    )


def source_digest() -> str:
    """Hash of this file: cached datasets are keyed by it, so a change to
    the generator rebuilds them."""
    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def committed_checkpoint(shape: Shape) -> str:
    return os.path.join(CHECKPOINTS, f"{shape.name}.npz")


def checkpoint_digest(shape: Shape) -> str:
    """sha256 of the committed checkpoint; bench/reference.json records it."""
    with open(committed_checkpoint(shape), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def checkpoint(shape: Shape, cache_dir: str) -> str:
    """The committed checkpoint of `shape`, written in the library's format."""
    from gcn_cert import GcnParams, save_checkpoint

    path = os.path.join(cache_dir, f"ckpt-{shape.name}-{checkpoint_digest(shape)[:12]}.json")
    if os.path.exists(path):
        return path
    os.makedirs(cache_dir, exist_ok=True)
    with np.load(committed_checkpoint(shape)) as z:
        layers = len(z.files) // 2
        params = GcnParams([z[f"w{l}"] for l in range(layers)], [z[f"b{l}"] for l in range(layers)])
    tmp = path + ".tmp"
    save_checkpoint(params, tmp)
    os.replace(tmp, path)
    return path


def retrain_checkpoint(shape: Shape) -> str:
    """Train the CE checkpoint of `shape` on its fixed draw and commit it."""
    from gcn_cert import Budget, TrainConfig, train
    from gcn_cert.grad import val

    ds = generate(shape, TRAIN_SEED, num_nodes=shape.train_nodes)
    cfg = TrainConfig(
        mode="CE",
        budget=Budget(1, 1),
        hidden_dims=(shape.hidden,),
        learning_rate=0.01,
        max_epochs=shape.train_epochs,
        patience=shape.train_epochs,
        seed=0,
        eval_every=0,
    )
    params, _ = train(to_graph(ds, shape.num_classes), cfg)
    arrays = {f"w{l}": val(w) for l, w in enumerate(params.weights)}
    arrays.update({f"b{l}": val(b) for l, b in enumerate(params.biases)})
    os.makedirs(CHECKPOINTS, exist_ok=True)
    np.savez_compressed(committed_checkpoint(shape), **arrays)
    return committed_checkpoint(shape)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--retrain"]:
        sys.exit("usage: python3 bench/fixtures.py --retrain")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    for shape in SHAPES.values():
        if shape.train_epochs:
            print(retrain_checkpoint(shape))
