"""Command-line interface: datasets on disk, training, certification.

File formats (UTF-8, 0-indexed ids):
  edges       TSV  ``u<TAB>v``          undirected, mirrored, deduplicated
  attributes  TSV  ``node<TAB>dim``     implicit value 1 (sparse), or a
                                        dense CSV matrix of 0/1 values when
                                        the first content line has a comma
  labels      TSV  ``node<TAB>class``
  split       TSV  ``node<TAB>labeled`` or ``node<TAB>unlabeled``
Blank and ``#`` lines are skipped in every dataset file and in the train
config. A node listed twice in labels or split with different values, a
negative or out-of-range id, an id past int64 and a config key given twice
are errors that name ``path:line``. Checkpoints are ``.npz`` archives of
float64 ``w0…``, ``b0…``; certificates are JSON-lines, curves and training
logs CSV.

Every bad input, a usage error included, exits 2 with one ``error:`` line on
stderr. A flag is read and range-checked by its ``type=`` (``--nodes``: ``all``
or distinct ids >= 0, ``--node``: an id >= 0, each checked < N once the dataset
is read; ``--mode``: a name in ``dual_cert.MODES``). A config key is read by its
parser in ``TRAIN_CONFIG_KEYS`` and checked by ``TrainConfig``, ``Trainer`` or ``load_dataset``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dual_cert, gcn, primal_attack, robust_train
from .bounds import Budget, flip_table
from .graph_core import Graph, build_message_passing, first_layer_nodes, slice_problem

__all__ = ["main", "load_dataset", "parse_config", "DatasetBundle"]


class CliError(Exception):
    """User-facing error; printed without a traceback, exit code 2."""


@dataclass
class DatasetBundle:
    graph: Graph


# -- parsing ---------------------------------------------------------------


def _read_text(path):
    """The text of the file `path`, read once as UTF-8 with universal newlines, so a stream such as a FIFO works."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _content_lines(text):
    """Line numbers and stripped text of the lines of `text`, a `_read_text`, that are neither blank nor `#` comments.

    The numbers count every line, as iterating over the file does (universal newlines).
    """
    lines = [line.strip() for line in text.split("\n")]
    keep = [i for i, line in enumerate(lines) if line and line[0] != "#"]
    return np.array(keep, dtype=np.int64) + 1, [lines[i] for i in keep]


def _reject(path, lines, mask, message, values=None):
    """A CliError at the first line where `mask` holds, named by `lines`, the entries' line numbers.

    `{}` in `message` becomes that entry of `values`.
    """
    if mask.any():
        i = int(mask.argmax())
        raise CliError(f"{path}:{lines[i]}: " + (message if values is None else message.format(values[i])))


def _column(path, lines, texts, dtype, what):
    """`texts` as one `dtype` array; an entry the conversion rejects is a CliError naming its line."""
    try:
        return np.array(texts, dtype=dtype)
    except (ValueError, OverflowError):
        # error path only: the same conversion entry by entry, to name the first one it rejects
        for line, text in zip(lines, texts):
            try:
                np.array(text, dtype=dtype)
            except ValueError:
                raise CliError(f"{path}:{line}: bad {what} {text!r}") from None
            except OverflowError:
                raise CliError(f"{path}:{line}: {what} {text.strip()} is out of the int64 range") from None
        raise


def _fast_pairs(path, text, what_a, what_b):
    """`_read_pairs` of `text`, the file `path` of two id columns, in one C-level pass, or None if it does not take it.

    It takes only a file that one `np.loadtxt` parses completely into two
    int64 columns, and reads it as `_content_lines` would: both drop empty
    lines, read CR and CRLF as line ends, and convert ``+3`` and blanks
    around a field alike.  Every other file is None: `#` lines, lines of
    blanks, a field more or less, a token that is not an int64 (``3.0``,
    ``1e3``, an id past int64), an empty file.  `np.loadtxt` drops only
    empty lines, so the rows of a text without one are lines 1..n, and
    only a text with one is numbered by `_content_lines`.  The text,
    never the path, goes to `np.loadtxt`: given a path, numpy would also
    read compressed files and URLs.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns of a file without data
            cols = np.loadtxt(io.StringIO(text), dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
    except ValueError:
        return None
    if cols.shape[0] == 0 or cols.shape[1] != 2:
        return None
    a, b = cols.T
    empty_line = text.startswith("\n") or "\n\n" in text
    lines = _content_lines(text)[0] if empty_line else np.arange(1, a.size + 1)
    for col, what in ((a, what_a), (b, what_b)):
        _reject(path, lines, col < 0, f"negative {what} {{}}", col)
    return lines, a, b


def _split_pairs(path, content, what_a, what_b=None):
    """Line numbers and the two tab-separated fields of each line of `content`, the `_content_lines` of `path`.

    A named field is a column of ids >= 0.
    """
    lines, texts = content
    _reject(path, lines, np.array([t.count("\t") != 1 for t in texts], dtype=bool), "expected two tab-separated fields")
    fields = "\t".join(texts).split("\t") if texts else []
    cols = [fields[0::2], fields[1::2]]
    for j, what in ((0, what_a), (1, what_b)):
        if what is not None:
            cols[j] = _column(path, lines, cols[j], np.int64, what)
            _reject(path, lines, cols[j] < 0, f"negative {what} {{}}", cols[j])
    return lines, cols[0], cols[1]


def _read_pairs(path, what_a, what_b=None):
    """`_fast_pairs` of a file of two id columns when it takes the file, else `_split_pairs` line by line."""
    text = _read_text(path)
    pairs = None if what_b is None else _fast_pairs(path, text, what_a, what_b)
    return _split_pairs(path, _content_lines(text), what_a, what_b) if pairs is None else pairs


def _reject_conflicts(path, lines, nodes, values, what):
    """A node listed again must repeat its first value; the first line that does not is a CliError."""
    _, first, where = np.unique(nodes, return_index=True, return_inverse=True)
    _reject(path, lines, values != values[first[where]], f"node {{}} listed again with another {what}", nodes)


def load_dataset(
    edges_path,
    attributes_path,
    labels_path=None,
    split_path=None,
    num_nodes=None,
    num_features=None,
    num_classes=None,
) -> DatasetBundle:
    for key, value in (("num_nodes", num_nodes), ("num_features", num_features), ("num_classes", num_classes)):
        if value is not None and value < 1:
            raise CliError(f"{key} must be >= 1, got {value}")
    e_lines, eu, ev = _read_pairs(edges_path, "node id", "node id")

    text = _read_text(attributes_path)
    pairs = _fast_pairs(attributes_path, text, "node id", "feature id")
    content = _content_lines(text) if pairs is None else None
    dense = pairs is None and bool(content[1]) and "," in content[1][0]
    if dense:
        lines, texts = content
        # dense CSV matrix of 0/1 values
        cells = [text.split(",") for text in texts]
        widths = [len(row) for row in cells]
        flat = [cell for row in cells for cell in row]
        cell_lines = np.repeat(lines, widths)
        values = _column(attributes_path, cell_lines, flat, np.float64, "value")
        _reject(attributes_path, cell_lines, (values != 0) & (values != 1), "attribute value {!r} is not 0/1", flat)
        if len(set(widths)) != 1:
            raise CliError(f"{attributes_path}: ragged or empty CSV matrix")
        X = values.reshape(len(texts), widths[0])
        num_nodes = len(texts) if num_nodes is None else num_nodes
        num_features = widths[0] if num_features is None else num_features
        if len(texts) != num_nodes:
            raise CliError(f"{attributes_path}: {len(texts)} rows but num_nodes={num_nodes}")
    else:
        a_lines, an, ad = _split_pairs(attributes_path, content, "node id", "feature id") if pairs is None else pairs
        if num_nodes is None:
            ids = np.concatenate([eu, ev, an])
            if not ids.size:
                raise CliError("cannot infer node count from empty files; pass num_nodes")
            num_nodes = int(ids.max()) + 1
        if num_features is None:
            if not ad.size:
                raise CliError("cannot infer feature count; pass num_features")
            num_features = int(ad.max()) + 1

    _reject(edges_path, e_lines, (eu >= num_nodes) | (ev >= num_nodes), f"node id >= N={num_nodes}")
    if not dense:
        _reject(attributes_path, a_lines, an >= num_nodes, f"node id >= N={num_nodes}")
        _reject(attributes_path, a_lines, ad >= num_features, f"feature id >= D={num_features}")
        try:
            X = np.zeros((num_nodes, num_features), dtype=bool)
        except (ValueError, MemoryError) as exc:
            raise CliError(f"no room for an N={num_nodes} x D={num_features} attribute matrix ({exc})")
        X[an, ad] = True

    keep = eu != ev
    u, v = eu[keep], ev[keep]
    A = sp.csr_array(
        (np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))),
        shape=(num_nodes, num_nodes),
    )
    A.data[:] = 1.0  # duplicate edges were summed

    labels = None
    if labels_path is not None:
        l_lines, ln, ly = _read_pairs(labels_path, "node id", "class")
        _reject(labels_path, l_lines, ln >= num_nodes, f"node id >= N={num_nodes}")
        _reject_conflicts(labels_path, l_lines, ln, ly, "class")
        labels = np.full(num_nodes, -1, dtype=int)
        labels[ln] = ly
        if num_classes is None:
            if not ly.size:
                raise CliError("cannot infer class count; pass num_classes")
            num_classes = int(ly.max()) + 1
        _reject(labels_path, l_lines, ly >= num_classes, f"class {{}} >= K={num_classes}", ly)
    elif num_classes is None:
        raise CliError("num_classes required when no labels file is given")

    split = None
    if split_path is not None:
        s_lines, sn, tags = _read_pairs(split_path, "node id")
        tags = np.array(tags, dtype=object)
        _reject(split_path, s_lines, (tags != "labeled") & (tags != "unlabeled"), "split tag {!r}", tags)
        _reject(split_path, s_lines, sn >= num_nodes, f"node id >= N={num_nodes}")
        _reject_conflicts(split_path, s_lines, sn, tags, "split tag")
        split = np.full(num_nodes, "unlabeled", dtype=object)
        split[sn] = tags

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
    return DatasetBundle(graph)


# -- config ----------------------------------------------------------------

def _int_list(raw) -> tuple:
    return tuple(int(tok) for tok in raw.split(","))  # an empty entry is a bad value


# each key's parser; a ValueError from it is a bad value
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
    "hidden_dims": _int_list,  # comma-separated ints
    "learning_rate": float,
    "l2_strength": float,
    "batch_size": int,
    "dropout_rate": float,
    "max_epochs": int,
    "phase2_epochs": int,
    "patience": int,
    "seed": int,
    "eval_every": int,
    "checkpoint_out": str,
    "log_out": str,
}


def parse_config(path) -> dict:
    """Flat ``key = value`` config; an unknown key and a key given twice are hard errors."""
    out, first = {}, {}
    for lineno, line in zip(*_content_lines(_read_text(path))):
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in TRAIN_CONFIG_KEYS:
            valid = ", ".join(sorted(TRAIN_CONFIG_KEYS))
            raise CliError(f"{path}:{lineno}: unknown key {key!r}; valid keys: {valid}")
        if key in first:
            raise CliError(f"{path}:{lineno}: key {key!r} given again (first on line {first[key]})")
        first[key] = lineno
        try:
            out[key] = TRAIN_CONFIG_KEYS[key](raw)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value {raw!r} for {key}") from None
    return out


# -- shared command helpers ------------------------------------------------


def _check_node(n, graph) -> int:
    if not (0 <= n < graph.num_nodes):
        raise CliError(f"node id {n} out of range [0, {graph.num_nodes})")
    return n


def _load_for_model(args) -> tuple:
    try:
        params = gcn.load_checkpoint(args.checkpoint)
    except ValueError as exc:
        raise CliError(f"{args.checkpoint}: not a valid checkpoint ({exc})") from None
    if params.layer_count < 3:
        raise CliError(f"{args.checkpoint}: dims {params.dims} have no hidden layer; the dual bound needs one")
    graph = load_dataset(
        args.edges,
        args.attributes,
        labels_path=args.labels,
        split_path=args.split,
        num_classes=params.dims[-1],
    ).graph
    if params.dims[0] != graph.num_features:
        raise CliError(
            f"checkpoint expects D={params.dims[0]} input features but the "
            f"dataset has D={graph.num_features}"
        )
    return params, graph


def _per_node(graph, params, budget, nodes, use_labels, workers, run):
    """run(slice, y_star, table) for each node, sliced and predicted once; the first-layer flip picks of every
    node the targets' first layers read are selected once, at the largest `budget`, into one shared table."""
    mp = build_message_passing(graph)
    L = params.layer_count
    table = flip_table(mp, graph.attributes, params, budget, first_layer_nodes(mp, nodes, L))

    def one(t):
        spr = slice_problem(graph, mp, t, L)
        if use_labels and graph.labels[t] >= 0:
            y_star = int(graph.labels[t])
        else:
            y_star = gcn.predict(gcn.forward_sliced(spr, params))
        return run(spr, y_star, table)

    if workers <= 1 or len(nodes) <= 1:
        return [one(t) for t in nodes]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, nodes))


def _write_csv(path, fields, rows):
    """A header of `fields`, then one line per dict in `rows`; numbers written with `str`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


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
    graph = load_dataset(
        cfg["edges"],
        cfg["attributes"],
        labels_path=cfg["labels"],
        split_path=cfg.get("split"),
        num_nodes=cfg.get("num_nodes"),
        num_features=cfg.get("num_features"),
        num_classes=cfg.get("num_classes"),
    ).graph
    # TrainConfig gets only what the file sets, so its defaults stand for the rest
    names = {f.name for f in dataclasses.fields(robust_train.TrainConfig)}
    kwargs = {k: v for k, v in cfg.items() if k in names}
    if "q" in cfg or "Q" in cfg:
        try:
            kwargs["budget"] = robust_train.training_budget(graph.num_features, cfg.get("q"), cfg.get("Q"))
        except ValueError as exc:
            raise CliError(str(exc)) from None
    try:
        tc = robust_train.TrainConfig(**kwargs)
    except ValueError as exc:
        raise CliError(f"{args.config}: bad training config: {exc}") from None
    try:
        trainer = robust_train.Trainer(graph, tc)
    except ValueError as exc:  # the labeled set, as the split and labels files give it
        files = ", ".join(cfg[k] for k in ("split", "labels") if k in cfg)
        raise CliError(f"{args.config}: {exc} (read from {files})") from None
    try:
        params = gcn.glorot_params(trainer.dims, seed=tc.seed)
    except (ValueError, MemoryError) as exc:
        raise CliError(f"no room for a model of dims {trainer.dims}, K={graph.num_classes} classes ({exc})") from None
    params, log = trainer.train(params)
    gcn.save_checkpoint(params, cfg["checkpoint_out"])
    if cfg.get("log_out"):
        _write_csv(cfg["log_out"], robust_train.LOG_FIELDS, log)
    print(f"trained mode={tc.mode} epochs={trainer.epochs} checkpoint={cfg['checkpoint_out']}")
    return 0


def cmd_certify(args):
    budget = Budget(args.q, args.Q)
    params, graph = _load_for_model(args)
    nodes = list(range(graph.num_nodes)) if args.nodes is None else [_check_node(n, graph) for n in args.nodes]
    certs = _per_node(
        graph, params, budget, nodes, args.use_labels, args.workers,
        lambda spr, y_star, table: dual_cert.certify(spr, params, budget, y_star, args.mode, table),
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            for cert in certs:
                fh.write(json.dumps(_certificate_doc(cert), sort_keys=True))
                fh.write("\n")
    statuses = (dual_cert.ROBUST, dual_cert.NON_ROBUST, dual_cert.UNDECIDED)
    print(f"nodes={len(certs)} " + " ".join(f"{s}={sum(c.status == s for c in certs)}" for s in statuses))
    return 0


CURVE_FIELDS = ("Q", "split", "fraction_certified_robust", "fraction_certified_nonrobust", "fraction_undecided")


def cmd_curve(args):
    budget = Budget(args.q, args.Q_max)
    params, graph = _load_for_model(args)
    node_sets = {
        "all": list(range(graph.num_nodes)),
        "labeled": [int(t) for t in graph.labeled_nodes()],
        "unlabeled": [int(t) for t in graph.unlabeled_nodes()],
    }
    # curves[i][Q] is the status of node i at global budget Q
    curves = _per_node(
        graph, params, budget, node_sets["all"], args.use_labels, args.workers,
        lambda spr, y_star, table: dual_cert.status_curve(spr, params, budget, y_star, args.mode, table),
    )
    rows = []
    for Q in range(args.Q_max + 1):
        status = [curve[Q] for curve in curves]
        for tag, nodes in node_sets.items():
            if not nodes:
                continue
            n = len(nodes)
            rob = sum(status[t] == dual_cert.ROBUST for t in nodes)
            non = sum(status[t] == dual_cert.NON_ROBUST for t in nodes)
            rows.append(dict(zip(CURVE_FIELDS, (Q, tag, rob / n, non / n, (n - rob - non) / n), strict=True)))
    _write_csv(args.output, CURVE_FIELDS, rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def cmd_attack(args):
    budget = Budget(args.q, args.Q)
    params, graph = _load_for_model(args)
    mp = build_message_passing(graph)
    spr = slice_problem(graph, mp, _check_node(args.node, graph), params.layer_count)
    y_star = gcn.predict(gcn.forward_sliced(spr, params))
    n, D = spr.sliced_attrs.shape
    if budget.effective_Q(n, D) == 0:
        print("no admissible perturbation (empty budget)")
        return 0
    others, states = dual_cert.duals(spr, params, budget, y_star)
    if others.size == 0:
        print(f"node={args.node} y_star={y_star}: no competing class (one-class model)")
        return 0
    margins = [primal_attack.construct_and_evaluate(spr, params, s, budget, y_star, k) for k, s in zip(others, states)]
    b = int(np.argmin(margins))  # the first strongest class
    margin, k = margins[b], others[b]
    flips = [(int(spr.neighborhood[n_]), int(d)) for n_, d in states[b].flips]
    verdict = "prediction flipped" if margin < 0 else "prediction unchanged"
    print(f"node={args.node} y_star={y_star} strongest_class={k} margin={margin!r}")
    print(f"flips={flips}")
    print(verdict)
    return 0


# -- entry point -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are CliErrors, so they print as one `error:` line."""

    def __init__(self, **kwargs):  # subparsers are built from this class, so no command takes `--Q` for `--Q-max`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _at_least(low, flag):
    """An argparse `type=` for `flag`: an int >= `low`, else a CliError."""

    def parse(text):
        value = int(text)
        if value < low:
            raise CliError(f"{flag} must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _node_ids(text):
    """The argparse `type=` of `--nodes`: None for ``all``, else the distinct ids >= 0 of a comma-separated list."""
    if text == "all":
        return None
    nodes = {}  # the ids in the order given
    for tok in text.split(","):
        try:
            n = int(tok)
        except ValueError:
            raise CliError(f"bad node id {tok!r} in --nodes") from None
        if n < 0:
            raise CliError(f"negative node id {n} in --nodes")
        if n in nodes:
            raise CliError(f"node id {n} listed twice in --nodes")
        nodes[n] = None
    return list(nodes)


def _add_model_args(p):
    """The flags of a command that reads a checkpoint and a dataset under a local budget q."""
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--attributes", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--split", default=None)
    p.add_argument("--q", type=_at_least(0, "--q"), required=True)


def _add_certify_args(p):
    """The flags `certify` and `curve` share beyond `_add_model_args`."""
    p.add_argument("--mode", choices=dual_cert.MODES, default="default")
    p.add_argument("--use-labels", action="store_true", help="certify w.r.t. ground-truth labels where available")
    p.add_argument("--workers", type=_at_least(1, "--workers"), default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcn-cert",
        description="Certify GCN robustness to bounded attribute flips; train robust GCNs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a key=value config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="emit per-node robustness certificates")
    _add_model_args(p)
    p.add_argument("--Q", type=_at_least(0, "--Q"), required=True)
    _add_certify_args(p)
    p.add_argument("--nodes", type=_node_ids, default="all", help="'all' or comma-separated ids")
    p.add_argument("--output", default=None, help="certificates JSON-lines path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("curve", help="certified fractions for Q = 0..Q_max")
    _add_model_args(p)
    p.add_argument("--Q-max", dest="Q_max", type=_at_least(0, "--Q-max"), required=True)
    _add_certify_args(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("attack", help="construct a candidate adversarial flip set")
    _add_model_args(p)
    p.add_argument("--node", type=_at_least(0, "--node"), required=True)
    p.add_argument("--Q", type=_at_least(0, "--Q"), required=True)
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
