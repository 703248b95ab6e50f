"""Command-line interface: datasets on disk, training, certification.

File formats (UTF-8, LF, 0-indexed ids):
  edges       TSV  ``u<TAB>v``          undirected, mirrored, deduplicated
  attributes  TSV  ``node<TAB>dim``     implicit value 1 (sparse), or a
                                        dense CSV matrix of 0/1 values
  labels      TSV  ``node<TAB>class``
  split       TSV  ``node<TAB>labeled`` or ``node<TAB>unlabeled``
Checkpoints are JSON (exact hex floats), certificates JSON-lines, curves
and training logs CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dual_cert, gcn, grad, oracle, primal_attack, robust_train
from .bounds import Budget, compute_bounds
from .graph_core import Graph, build_message_passing, slice_problem

__all__ = ["main", "load_dataset", "parse_config", "CurveReport", "DatasetBundle"]


class CliError(Exception):
    """User-facing error; printed without a traceback, exit code 2."""


@dataclass
class DatasetBundle:
    edges_path: str
    attributes_path: str
    labels_path: str | None
    split_path: str | None
    graph: Graph


@dataclass
class CurveReport:
    """Per-(Q, split) certificate fractions; the three fractions sum to 1."""

    rows: list  # dicts: Q, split, fraction_* keys

    def validate(self):
        for row in self.rows:
            total = (
                row["fraction_certified_robust"]
                + row["fraction_certified_nonrobust"]
                + row["fraction_undecided"]
            )
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"fractions sum to {total} at Q={row['Q']}")
        return self

    def write_csv(self, path):
        fields = [
            "Q",
            "split",
            "fraction_certified_robust",
            "fraction_certified_nonrobust",
            "fraction_undecided",
        ]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row[k] for k in fields})


# -- parsing ---------------------------------------------------------------


def _parse_int(text, path, lineno, what):
    try:
        v = int(text)
    except ValueError:
        raise CliError(f"{path}:{lineno}: bad {what} {text!r}")
    if v < 0:
        raise CliError(f"{path}:{lineno}: negative {what} {v}")
    return v


@contextmanager
def _open_text(path):
    """A UTF-8 text file opened for reading; a decode error while it is read is a CliError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_pairs(path, what_a, what_b):
    pairs = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CliError(f"{path}:{lineno}: expected two tab-separated fields")
            pairs.append(
                (lineno, _parse_int(parts[0], path, lineno, what_a), parts[1])
            )
    return pairs


def load_dataset(
    edges_path,
    attributes_path,
    labels_path=None,
    split_path=None,
    num_nodes=None,
    num_features=None,
    num_classes=None,
) -> DatasetBundle:
    edge_pairs = [
        (ln, u, _parse_int(v, edges_path, ln, "node id"))
        for ln, u, v in _read_pairs(edges_path, "node id", "node id")
    ]

    dense_attrs = None
    attr_pairs = []
    with _open_text(attributes_path) as fh:
        first = fh.readline()
    if "," in first:
        # dense CSV matrix of 0/1 values
        dense_attrs = []
        with _open_text(attributes_path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                row = []
                for cell in line.split(","):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise CliError(f"{attributes_path}:{lineno}: bad value {cell!r}")
                    if v not in (0.0, 1.0):
                        raise CliError(
                            f"{attributes_path}:{lineno}: attribute value {cell!r} is not 0/1"
                        )
                    row.append(v)
                dense_attrs.append(row)
        if not dense_attrs or len({len(r) for r in dense_attrs}) != 1:
            raise CliError(f"{attributes_path}: ragged or empty CSV matrix")
    else:
        attr_pairs = [
            (ln, n, _parse_int(d, attributes_path, ln, "feature id"))
            for ln, n, d in _read_pairs(attributes_path, "node id", "feature id")
        ]

    if num_nodes is None:
        seen = [u for _, u, v in edge_pairs] + [v for _, u, v in edge_pairs]
        seen += [n for _, n, _ in attr_pairs]
        if dense_attrs is not None:
            num_nodes = len(dense_attrs)
        elif seen:
            num_nodes = max(seen) + 1
        else:
            raise CliError("cannot infer node count from empty files; pass num_nodes")
    if dense_attrs is not None:
        if num_features is None:
            num_features = len(dense_attrs[0])
        if len(dense_attrs) != num_nodes:
            raise CliError(
                f"{attributes_path}: {len(dense_attrs)} rows but num_nodes={num_nodes}"
            )
    elif num_features is None:
        num_features = max((d for _, _, d in attr_pairs), default=-1) + 1
        if num_features == 0:
            raise CliError("cannot infer feature count; pass num_features")

    for lineno, u, v in edge_pairs:
        if u >= num_nodes or v >= num_nodes:
            raise CliError(f"{edges_path}:{lineno}: node id >= N={num_nodes}")
    u, v = np.array([(u, v) for _, u, v in edge_pairs if u != v], dtype=np.int64).reshape(-1, 2).T
    A = sp.csr_array(
        (np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(num_nodes, num_nodes),
    )
    A.data[:] = 1.0  # duplicate edges were summed

    if dense_attrs is not None:
        X = np.asarray(dense_attrs)
    else:
        X = np.zeros((num_nodes, num_features), dtype=bool)
        for lineno, n, d in attr_pairs:
            if n >= num_nodes:
                raise CliError(f"{attributes_path}:{lineno}: node id >= N={num_nodes}")
            if d >= num_features:
                raise CliError(f"{attributes_path}:{lineno}: feature id >= D={num_features}")
            X[n, d] = True

    labels = None
    if labels_path is not None:
        labels = np.full(num_nodes, -1, dtype=int)
        for lineno, n, y in _read_pairs(labels_path, "node id", "class"):
            y = _parse_int(y, labels_path, lineno, "class")
            if n >= num_nodes:
                raise CliError(f"{labels_path}:{lineno}: node id >= N={num_nodes}")
            labels[n] = y
        if num_classes is None:
            num_classes = int(labels.max()) + 1 if (labels >= 0).any() else 0
        if num_classes <= 0:
            raise CliError("cannot infer class count; pass num_classes")
    elif num_classes is None:
        raise CliError("num_classes required when no labels file is given")

    split = None
    if split_path is not None:
        split = np.array(["unlabeled"] * num_nodes, dtype=object)
        for lineno, n, tag in _read_pairs(split_path, "node id", "split tag"):
            if tag not in ("labeled", "unlabeled"):
                raise CliError(f"{split_path}:{lineno}: split tag {tag!r}")
            if n >= num_nodes:
                raise CliError(f"{split_path}:{lineno}: node id >= N={num_nodes}")
            split[n] = tag

    try:
        graph = Graph(
            num_nodes=num_nodes,
            num_features=num_features,
            num_classes=num_classes,
            adjacency=A,
            attributes=X,
            labels=labels,
            split=split,
        )
    except ValueError as exc:
        raise CliError(str(exc))
    return DatasetBundle(edges_path, attributes_path, labels_path, split_path, graph)


# -- config ----------------------------------------------------------------

TRAIN_CONFIG_KEYS = {
    "edges": str,
    "attributes": str,
    "labels": str,
    "split": str,
    "num_nodes": int,
    "num_features": int,
    "num_classes": int,
    "mode": str,
    "q": int,
    "Q": int,
    "hidden_dims": str,  # comma-separated ints
    "learning_rate": float,
    "l2_strength": float,
    "batch_size": int,
    "use_dropout": bool,
    "dropout_rate": float,
    "max_epochs": int,
    "phase2_epochs": int,
    "patience": int,
    "seed": int,
    "checkpoint_out": str,
    "log_out": str,
}


def parse_config(path) -> dict:
    """Flat ``key = value`` config; unknown keys are hard errors."""
    out = {}
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in TRAIN_CONFIG_KEYS:
                valid = ", ".join(sorted(TRAIN_CONFIG_KEYS))
                raise CliError(f"{path}:{lineno}: unknown key {key!r}; valid keys: {valid}")
            typ = TRAIN_CONFIG_KEYS[key]
            try:
                if typ is bool:
                    if raw.lower() not in ("true", "false", "0", "1"):
                        raise ValueError(raw)
                    out[key] = raw.lower() in ("true", "1")
                else:
                    out[key] = typ(raw)
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value {raw!r} for {key}")
    return out


def _default_workers():
    return max(1, os.cpu_count() or 1)


# -- shared command helpers ------------------------------------------------


def _budget(q, Q) -> Budget:
    try:
        return Budget(q, Q)
    except ValueError as exc:
        raise CliError(f"{exc} (q={q}, Q={Q})")


def _check_count(value, flag) -> int:
    if value < 0:
        raise CliError(f"{flag} must be >= 0, got {value}")
    return value


def _check_workers(value) -> int:
    if value < 1:
        raise CliError(f"--workers must be >= 1, got {value}")
    return value


def _check_tol(value) -> float:
    if not (np.isfinite(value) and value >= 0):
        raise CliError(f"--tol must be >= 0 and finite, got {value}")
    return value


def _check_node(n, graph) -> int:
    if not (0 <= n < graph.num_nodes):
        raise CliError(f"node id {n} out of range [0, {graph.num_nodes})")
    return n


def _load_for_model(args) -> tuple:
    try:
        params = gcn.load_checkpoint(args.checkpoint)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{args.checkpoint}: not a valid checkpoint ({type(exc).__name__}: {exc})")
    if params.layer_count < 3:
        raise CliError(f"{args.checkpoint}: dims {params.dims} have no hidden layer; the dual bound needs one")
    bundle = load_dataset(
        args.edges,
        args.attributes,
        labels_path=args.labels,
        split_path=args.split,
        num_classes=params.dims[-1],
    )
    graph = bundle.graph
    if params.dims[0] != graph.num_features:
        raise CliError(
            f"checkpoint expects D={params.dims[0]} input features but the "
            f"dataset has D={graph.num_features}"
        )
    return params, graph


def _select_nodes(spec_text, graph) -> list:
    if spec_text in (None, "all"):
        return list(range(graph.num_nodes))
    nodes = []
    for tok in spec_text.split(","):
        try:
            n = int(tok)
        except ValueError:
            raise CliError(f"bad node id {tok!r} in --nodes")
        nodes.append(_check_node(n, graph))
    return nodes


def _certify_nodes(graph, params, budgets, nodes, mode, use_labels, workers):
    """One list of Certificates per node, one per budget: each node is sliced and predicted once."""
    mp = build_message_passing(graph)
    L = params.layer_count
    labels = np.asarray(graph.labels) if graph.labels is not None else None

    def one(t):
        spr = slice_problem(graph, mp, t, L)
        if use_labels and labels is not None and labels[t] >= 0:
            y_star = int(labels[t])
        else:
            y_star = gcn.predict(gcn.forward_sliced(spr, params))
        return dual_cert.certify_sweep(spr, params, budgets, y_star, mode=mode)

    if workers <= 1 or len(nodes) <= 1:
        return [one(t) for t in nodes]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, nodes))


def _certificate_doc(cert) -> dict:
    return {
        "node": int(cert.node),
        "y_star": int(cert.y_star),
        "status": cert.status,
        "q": int(cert.budget.local_q),
        "Q": int(cert.budget.global_Q),
        "dual_lower": [float(v) for v in cert.dual_lower],
        "primal_margins": None
        if cert.primal_margins is None
        else [float(v) for v in cert.primal_margins],
    }


# -- commands --------------------------------------------------------------


def cmd_train(args):
    cfg = parse_config(args.config)
    for key in ("edges", "attributes", "labels", "checkpoint_out"):
        if key not in cfg:
            raise CliError(f"config is missing required key {key!r}")
    bundle = load_dataset(
        cfg["edges"],
        cfg["attributes"],
        labels_path=cfg["labels"],
        split_path=cfg.get("split"),
        num_nodes=cfg.get("num_nodes"),
        num_features=cfg.get("num_features"),
        num_classes=cfg.get("num_classes"),
    )
    graph = bundle.graph
    labeled = graph.labeled_nodes()
    if labeled.size == 0:
        raise CliError("no node is labeled; training needs at least one labeled node")
    no_label = labeled[graph.labels[labeled] < 0]
    if no_label.size:
        raise CliError(f"{cfg['split']}: node {no_label[0]} is marked labeled but has no label in {cfg['labels']}")
    # TrainConfig gets only what the file sets, so its defaults stand for the rest
    names = {f.name for f in dataclasses.fields(robust_train.TrainConfig)}
    kwargs = {k: v for k, v in cfg.items() if k in names}
    if "q" in cfg or "Q" in cfg:
        q = cfg.get("q", robust_train.default_local_budget(graph.num_features))
        kwargs["budget"] = _budget(q, cfg.get("Q", robust_train.DEFAULT_GLOBAL_Q))
    try:
        if "hidden_dims" in kwargs:
            kwargs["hidden_dims"] = tuple(int(tok) for tok in kwargs["hidden_dims"].split(",") if tok.strip())
        tc = robust_train.TrainConfig(**kwargs)
    except ValueError as exc:
        raise CliError(f"{args.config}: bad training config: {exc}") from None
    params, log = robust_train.train(graph, tc)
    gcn.save_checkpoint(params, cfg["checkpoint_out"])
    log_out = cfg.get("log_out")
    if log_out:
        fields = [
            "epoch",
            "phase",
            "loss",
            "mean_worst_case_margin_labeled",
            "mean_worst_case_margin_unlabeled",
            "train_acc",
            "test_acc",
        ]
        with open(log_out, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            writer.writeheader()
            for row in log:
                writer.writerow({k: repr(row[k]) if isinstance(row[k], float) else row[k] for k in fields})
    print(f"trained mode={tc.mode} epochs={log[-1]['epoch'] if log else 0} checkpoint={cfg['checkpoint_out']}")
    return 0


def cmd_certify(args):
    budget = _budget(args.q, args.Q)
    workers = _check_workers(args.workers)
    params, graph = _load_for_model(args)
    nodes = _select_nodes(args.nodes, graph)
    certs = [
        sweep[0]
        for sweep in _certify_nodes(graph, params, [budget], nodes, args.mode, args.use_labels, workers)
    ]
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            for cert in certs:
                fh.write(json.dumps(_certificate_doc(cert), sort_keys=True))
                fh.write("\n")
    counts = {dual_cert.ROBUST: 0, dual_cert.NON_ROBUST: 0, dual_cert.UNDECIDED: 0}
    for cert in certs:
        counts[cert.status] += 1
    print(
        f"nodes={len(certs)} robust={counts['robust']} "
        f"non_robust={counts['non_robust']} undecided={counts['undecided']}"
    )
    return 0


def cmd_curve(args):
    budgets = [_budget(args.q, Q) for Q in range(_check_count(args.Q_max, "--Q-max") + 1)]
    workers = _check_workers(args.workers)
    params, graph = _load_for_model(args)
    node_sets = {
        "all": list(range(graph.num_nodes)),
        "labeled": [int(t) for t in graph.labeled_nodes()],
        "unlabeled": [int(t) for t in graph.unlabeled_nodes()],
    }
    # sweeps[i][Q] is the certificate of node i at global budget Q
    sweeps = _certify_nodes(graph, params, budgets, node_sets["all"], args.mode, args.use_labels, workers)
    rows = []
    for Q in range(args.Q_max + 1):
        status = [sweep[Q].status for sweep in sweeps]
        for tag, nodes in node_sets.items():
            if not nodes:
                continue
            n = len(nodes)
            rob = sum(status[t] == dual_cert.ROBUST for t in nodes)
            non = sum(status[t] == dual_cert.NON_ROBUST for t in nodes)
            rows.append(
                {
                    "Q": Q,
                    "split": tag,
                    "fraction_certified_robust": rob / n,
                    "fraction_certified_nonrobust": non / n,
                    "fraction_undecided": (n - rob - non) / n,
                }
            )
    report = CurveReport(rows).validate()
    report.write_csv(args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def cmd_attack(args):
    params, graph = _load_for_model(args)
    budget = _budget(args.q, args.Q)
    mp = build_message_passing(graph)
    spr = slice_problem(graph, mp, _check_node(args.node, graph), params.layer_count)
    y_star = gcn.predict(gcn.forward_sliced(spr, params))
    n, D = spr.sliced_attrs.shape
    if budget.effective_Q(n, D) == 0:
        print("no admissible perturbation (empty budget)")
        return 0
    others, C = dual_cert.competing_classes(y_star, params.dims[-1])
    if others.size == 0:
        print(f"node={args.node} y_star={y_star}: no competing class (one-class model)")
        return 0
    bnds = compute_bounds(spr, params, budget)
    best = None
    for k, st in zip(others, dual_cert.dual_states(spr, params, bnds, budget, C)):
        pert = primal_attack.construct(st, budget, spr.sliced_attrs)
        margin = primal_attack.exact_margin(spr, params, pert, y_star, k)
        if best is None or margin < best[0]:
            best = (margin, k, pert)
    margin, k, pert = best
    flips = [
        (int(spr.neighborhood[n_]), int(d)) for n_, d in pert.flips
    ]
    verdict = "prediction flipped" if margin < 0 else "prediction unchanged"
    print(f"node={args.node} y_star={y_star} strongest_class={k} margin={margin!r}")
    print(f"flips={flips}")
    print(verdict)
    return 0


def cmd_oracle_verify(args):
    instances = _check_count(args.instances, "--instances")
    steps = _check_count(args.pga_steps, "--pga-steps")
    tol = _check_tol(args.tol)
    rng = np.random.default_rng(_check_count(args.seed, "--seed"))
    worst = 0.0
    failures = 0
    for i in range(instances):
        spr, params, budget = oracle.random_tiny_instance(rng)
        y_star = gcn.predict(gcn.forward_sliced(spr, params))
        K = params.dims[-1]
        bnds = compute_bounds(spr, params, budget)
        others, C = dual_cert.competing_classes(y_star, K)
        states = dual_cert.dual_states(spr, params, bnds, budget, C)
        opts = dual_cert.optimize_omega(spr, params, bnds, budget, C, steps=steps)
        for k, c, st, opt in zip(others, C, states, opts):
            lp_val = oracle.solve_lp(oracle.build_primal_lp(spr, params, bnds, budget, c))[0]
            exact = oracle.enumerate_exact_margin(spr, params, budget, y_star, k).exact_min_margin
            primal = primal_attack.construct_and_evaluate(spr, params, st, budget, y_star, k)
            chain = [st.value, opt.value, lp_val, exact, primal]
            for a, b in zip(chain, chain[1:]):
                gap = a - b
                worst = max(worst, gap)
                if gap > tol:
                    failures += 1
                    print(
                        f"instance {i} class {k}: ordering violated: "
                        f"default={st.value!r} pga={opt.value!r} lp={lp_val!r} "
                        f"exact={exact!r} primal={primal!r}"
                    )
                    break
    print(f"instances={instances} failures={failures} worst_gap={worst!r}")
    return 1 if failures else 0


def cmd_grad_check(args):
    draws = _check_count(args.draws, "--draws")
    tol = _check_tol(args.tol)
    rng = np.random.default_rng(_check_count(args.seed, "--seed"))
    worst = {}
    for mode in ("CE", "RCE", "RH", "RH_U"):
        errs = []
        for _ in range(draws):
            graph, params, budget = oracle.random_tiny_graph(rng)
            tc = robust_train.TrainConfig(mode=mode, budget=budget, hidden_dims=tuple(params.dims[1:-1]))
            trainer = robust_train.Trainer(graph, tc)
            batch = [int(t) for t in trainer.labeled]
            if mode == "RH_U" and len(trainer.unlabeled):
                batch.append(int(trainer.unlabeled[0]))
            errs.append(
                grad.finite_difference_check(lambda p: trainer.batch_loss(batch, p), params, rng=rng, num_coords=4)
            )
        worst[mode] = float(max(errs, default=0.0))
        print(f"{mode}: max relative error {worst[mode]!r} over {draws} draws")
    return 0 if max(worst.values()) <= tol else 1


# -- entry point -----------------------------------------------------------


def _add_dataset_args(p):
    p.add_argument("--edges", required=True)
    p.add_argument("--attributes", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--split", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcn-cert",
        description="Certify GCN robustness to bounded attribute flips; train robust GCNs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="emit per-node robustness certificates")
    p.add_argument("--checkpoint", required=True)
    _add_dataset_args(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--mode", choices=("default", "optimized"), default="default")
    p.add_argument("--nodes", default="all", help="'all' or comma-separated ids")
    p.add_argument("--use-labels", action="store_true", help="certify w.r.t. ground-truth labels where available")
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--output", default=None, help="certificates JSON-lines path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("curve", help="certified fractions for Q = 0..Q_max")
    p.add_argument("--checkpoint", required=True)
    _add_dataset_args(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--Q-max", dest="Q_max", type=int, required=True)
    p.add_argument("--mode", choices=("default", "optimized"), default="default")
    p.add_argument("--use-labels", action="store_true")
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("attack", help="construct a candidate adversarial flip set")
    p.add_argument("--checkpoint", required=True)
    _add_dataset_args(p)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--Q", type=int, required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "oracle-verify",
        help="check dual <= PGA <= LP <= exact <= primal on random tiny instances",
    )
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--pga-steps", dest="pga_steps", type=int, default=50)
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("grad-check", help="finite-difference check of every loss")
    p.add_argument("--draws", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
