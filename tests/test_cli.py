import csv
import gzip
import importlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import types
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

import gcn_cert
from conftest import assert_graphs_equal, bisection_probes, lying_npy, write_checkpoint_with_w0
from gcn_cert import cli, dual_cert, gcn, robust_train
from gcn_cert.bounds import Budget
from gcn_cert.cli import CliError, load_dataset, main, parse_config
from gcn_cert.graph_core import Graph, build_message_passing, slice_problem


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def dataset(tmp_path):
    """Path graph 0-1-2 with 2 sparse binary features and 2 classes."""
    edges = _write(tmp_path / "edges.tsv", "0\t1\n1\t2\n")
    attrs = _write(tmp_path / "attrs.tsv", "0\t0\n1\t1\n2\t0\n2\t1\n")
    labels = _write(tmp_path / "labels.tsv", "0\t0\n1\t1\n")
    split = _write(tmp_path / "split.tsv", "0\tlabeled\n1\tlabeled\n2\tunlabeled\n")
    return {"edges": edges, "attributes": attrs, "labels": labels, "split": split}


@pytest.fixture
def checkpoint(tmp_path, dataset):
    params = gcn.glorot_params([2, 3, 2], seed=0)
    for b in params.biases:
        b += 0.05
    path = tmp_path / "model.npz"
    gcn.save_checkpoint(params, path)
    return str(path)


# -- load_dataset ----------------------------------------------------------


def test_load_dataset_edges_and_attrs(dataset):
    bundle = load_dataset(dataset["edges"], dataset["attributes"], labels_path=dataset["labels"])
    g = bundle.graph
    assert g.num_nodes == 3 and g.num_features == 2 and g.num_classes == 2
    A = g.adjacency
    assert A[0, 1] == A[1, 0] == 1.0 and A[0, 2] == 0.0
    X = g.attributes
    np.testing.assert_array_equal(X, [[1, 0], [0, 1], [1, 1]])
    np.testing.assert_array_equal(g.labels, [0, 1, -1])


def test_load_dataset_duplicate_edges_deduplicated(tmp_path, dataset):
    edges = _write(tmp_path / "dup.tsv", "0\t1\n1\t0\n0\t1\n")
    bundle = load_dataset(edges, dataset["attributes"], num_classes=2)
    assert bundle.graph.adjacency.sum() == 2.0  # one mirrored edge


def test_load_dataset_sparse_triplet(tmp_path):
    edges = _write(tmp_path / "e.tsv", "")
    attrs = _write(tmp_path / "a.tsv", "3\t7\n")
    g = load_dataset(edges, attrs, num_nodes=4, num_features=10, num_classes=2).graph
    X = g.attributes
    assert X[3, 7] == 1.0 and X.sum() == 1.0


def test_load_dataset_dense_csv(tmp_path):
    edges = _write(tmp_path / "e.tsv", "0\t1\n")
    attrs = _write(tmp_path / "a.csv", "1,0\n0,1\n")
    g = load_dataset(edges, attrs, num_classes=2).graph
    np.testing.assert_array_equal(g.attributes, np.eye(2))


def test_load_dataset_errors(tmp_path, dataset):
    bad = _write(tmp_path / "bad.tsv", "0\t1\nnope\n")
    with pytest.raises(CliError, match=r"bad\.tsv:2"):
        load_dataset(bad, dataset["attributes"])
    bad_attr = _write(tmp_path / "bad.csv", "1,0\n0,0.5\n")
    with pytest.raises(CliError, match="not 0/1"):
        load_dataset(dataset["edges"], bad_attr, num_classes=2)
    bad_int = _write(tmp_path / "badint.tsv", "0\tx\n")
    with pytest.raises(CliError, match="badint.tsv:1"):
        load_dataset(dataset["edges"], bad_int)
    with pytest.raises(CliError, match="num_classes"):
        load_dataset(dataset["edges"], dataset["attributes"])
    oob = _write(tmp_path / "oob.tsv", "0\t9\n")
    with pytest.raises(CliError, match="node id >= N"):
        load_dataset(oob, dataset["attributes"], num_nodes=3, num_classes=2)


@pytest.mark.parametrize(
    "name, text",
    [
        ("a.tsv", "# node, feature\n0\t0\n1\t1\n"),
        ("a.csv", "\n1,0\n0,1\n"),
        ("a.csv", "# a 0/1 matrix, one row a node\n1,0\n\n# node 1\n0,1\n"),
    ],
    ids=["tsv_after_a_comment_with_a_comma", "csv_after_a_blank_line", "csv_with_comment_lines"],
)
def test_load_dataset_reads_the_format_from_the_first_content_line(tmp_path, name, text):
    edges = _write(tmp_path / "e.tsv", "0\t1\n")
    g = load_dataset(edges, _write(tmp_path / name, text), num_classes=2).graph
    np.testing.assert_array_equal(g.attributes, np.eye(2))


# -- load_dataset against the line-by-line reader it replaced ---------------
#
# The loader as it was before the array reader, verbatim but renamed. The
# differential test below runs it and `load_dataset` on generated files.


@contextmanager
def _reference_open_text(path):
    """A UTF-8 text file opened for reading; a decode error while it is read is a CliError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _reference_parse_int(text, path, lineno, what):
    try:
        v = int(text)
    except ValueError:
        raise CliError(f"{path}:{lineno}: bad {what} {text!r}")
    if v < 0:
        raise CliError(f"{path}:{lineno}: negative {what} {v}")
    return v


def _reference_read_pairs(path, what_a, what_b):
    pairs = []
    with _reference_open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CliError(f"{path}:{lineno}: expected two tab-separated fields")
            pairs.append(
                (lineno, _reference_parse_int(parts[0], path, lineno, what_a), parts[1])
            )
    return pairs


def _reference_load_dataset(
    edges_path,
    attributes_path,
    labels_path=None,
    split_path=None,
    num_nodes=None,
    num_features=None,
    num_classes=None,
):
    edge_pairs = [
        (ln, u, _reference_parse_int(v, edges_path, ln, "node id"))
        for ln, u, v in _reference_read_pairs(edges_path, "node id", "node id")
    ]

    dense_attrs = None
    attr_pairs = []
    with _reference_open_text(attributes_path) as fh:
        first = fh.readline()
    if "," in first:
        # dense CSV matrix of 0/1 values
        dense_attrs = []
        with _reference_open_text(attributes_path) as fh:
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
            (ln, n, _reference_parse_int(d, attributes_path, ln, "feature id"))
            for ln, n, d in _reference_read_pairs(attributes_path, "node id", "feature id")
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
        for lineno, n, y in _reference_read_pairs(labels_path, "node id", "class"):
            y = _reference_parse_int(y, labels_path, lineno, "class")
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
        for lineno, n, tag in _reference_read_pairs(split_path, "node id", "split tag"):
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
    return cli.DatasetBundle(graph)


_BAD_INTS = ["x", "2.0", "1e3", "0x1", "--1", "1 2"]
MUTATIONS = ["fields", "bad_int", "negative", "node_oob", "feature_oob", "split_tag", "csv_cell", "csv_value", "ragged"]


def _file_text(rng, rows, sep, clean=False):
    """`rows` of field texts as one file: blank and `#` lines, spaces around fields, LF or CRLF.

    A CSV file gets neither `#` lines nor a blank first line (the reference
    read both as content), and no comment holds a comma. Split tags are
    compared as written, so words get no spaces. A `clean` file keeps its
    spaces and line ends but gets no other line and no tab before a row, so
    `cli._fast_pairs` can take it when it is a file of ids.
    """
    out = []
    for i, row in enumerate(rows):
        if (sep == "\t" or i) and not clean:
            if rng.random() < 0.2:
                out.append(str(rng.choice(["", "   ", "\t", "\x0c", "  "])))
            if sep == "\t" and rng.random() < 0.2:
                out.append(f"# note {i}")
        cells = [f" {f} " if rng.random() < 0.2 and not f.isalpha() else f for f in row]
        lead = rng.choice(["", " "] if clean else ["", " ", "\t"])
        out.append(str(lead) + sep.join(cells) + str(rng.choice(["", " "])))
    end = str(rng.choice(["\n", "\r\n"]))
    return end.join(out) + (end if out and rng.random() < 0.8 else "")


def _generated_case(rng, mutation):
    """Rows of the four files, their formats, the sizes to pass, and `mutation` applied to one entry."""
    dense = rng.random() < 0.3 or mutation in ("csv_cell", "csv_value", "ragged")
    # a CSV row needs two cells to hold a comma
    N, D, K = (int(v) for v in rng.integers([1, 1 + dense, 1], [7, 6, 4], endpoint=True))
    X = rng.random((N, D)) < 0.4
    # self-loops, both orders and repeats
    edges = [[str(u), str(v)] for u, v in rng.integers(N, size=(int(rng.integers(0, 10)), 2))]
    if dense:
        attrs = [[str(rng.choice(["1", "1.0", "1e0"]) if x else rng.choice(["0", "0.0", "-0"])) for x in row] for row in X]
    else:
        attrs = [[str(n), str(d)] for n, d in zip(*np.nonzero(X))]
        attrs += [row for row in attrs if rng.random() < 0.1]
    y = rng.integers(K, size=N)
    labels = [[str(n), str(y[n])] for n in rng.permutation(N)[: int(rng.integers(0, N + 1))]]
    tags = rng.choice(["labeled", "unlabeled"], size=N)
    split = [[str(n), str(tags[n])] for n in rng.permutation(N)[: int(rng.integers(0, N + 1))]]
    # identical repeats are allowed
    labels += [row for row in labels if rng.random() < 0.2]
    split += [row for row in split if rng.random() < 0.2]
    files = {"edges": edges, "attributes": attrs, "labels": labels, "split": split}

    tsv = [k for k in files if files[k] and not (k == "attributes" and dense)]
    where = {
        "fields": [(k, None) for k in tsv],
        "bad_int": [(k, j) for k in tsv for j in (0, 1) if k != "split" or j == 0],
        "node_oob": [(k, 0) for k in tsv] + ([("edges", 1)] if edges else []),
        "feature_oob": [("attributes", 1)] if "attributes" in tsv else [],
        "split_tag": [("split", 1)] if split else [],
        "csv_cell": [("attributes", None)] if dense else [],
    }
    where["negative"] = where["bad_int"]
    where["csv_value"] = where["ragged"] = where["csv_cell"]
    if mutation is not None and where[mutation]:
        key, j = where[mutation][int(rng.integers(len(where[mutation])))]
        row = files[key][int(rng.integers(len(files[key])))]
        col = int(rng.integers(len(row))) if j is None else j
        if mutation == "fields":
            row.append("7") if rng.random() < 0.5 else row.pop()
        elif mutation == "ragged":
            row.append("0") if rng.random() < 0.5 or len(row) == 1 else row.pop()
        else:
            row[col] = str(rng.choice({
                "bad_int": _BAD_INTS,
                "negative": ["-1", "-7"],
                "node_oob": [str(N), str(N + 3)],
                "feature_oob": [str(D), str(D + 2)],
                "split_tag": ["train", "Labeled"],
                "csv_cell": ["x", "", "1;0"],
                "csv_value": ["0.5", "2", "-1", "nan"],
            }[mutation]))

    sizes = {
        "num_nodes": None if rng.random() < 0.5 else N + int(rng.integers(0, 2)),
        "num_features": None if rng.random() < 0.5 else D + int(rng.integers(0, 2)),
        "num_classes": None if rng.random() < 0.5 else K + int(rng.integers(0, 2)),
    }
    return files, dense, sizes


def _outcome(load, paths, sizes):
    try:
        return load(*paths, **sizes).graph
    except CliError as exc:
        return str(exc)


def _recording_fast_pairs(monkeypatch):
    """A list that gains (path, reader) at each id file read: "array" when `cli._fast_pairs` takes the
    file, "lines" when it leaves it to the line reader."""
    reads = []

    def fast_pairs(path, text, what_a, what_b, _fast_pairs=cli._fast_pairs):
        try:
            pairs = _fast_pairs(path, text, what_a, what_b)
        except CliError:  # a negative id in a file it parsed
            reads.append((path, "array"))
            raise
        reads.append((path, "lines" if pairs is None else "array"))
        return pairs

    monkeypatch.setattr(cli, "_fast_pairs", fast_pairs)
    return reads


def test_load_dataset_matches_the_line_by_line_reference(tmp_path, monkeypatch):
    """Generated files, clean or with one defect: an equal Graph or the same message as the reference.

    Half the files are written clean, so that each reader of id files reads more than 100 of them.
    """
    reads = _recording_fast_pairs(monkeypatch)
    rng = np.random.default_rng(16)
    failed = set()
    graphs = 0
    for case in range(600):
        mutation = MUTATIONS[case % 12] if case % 12 < len(MUTATIONS) else None
        files, dense, sizes = _generated_case(rng, mutation)
        paths = []
        for key, rows in files.items():
            sep = "," if key == "attributes" and dense else "\t"
            path = tmp_path / f"{key}.{'csv' if sep == ',' else 'tsv'}"
            path.write_bytes(_file_text(rng, rows, sep, clean=rng.random() < 0.5).encode("utf-8"))
            paths.append(str(path))
        if rng.random() < 0.2:
            paths[3] = None
        if rng.random() < 0.1:
            paths[2] = None
        want = _outcome(_reference_load_dataset, paths, sizes)
        got = _outcome(load_dataset, paths, sizes)
        if isinstance(want, str):
            assert got == want, f"case {case}"
            failed.add(mutation)
        else:
            assert not isinstance(got, str), f"case {case}: {got}"
            assert_graphs_equal(got, want)
            graphs += 1
    assert failed == set(MUTATIONS) | {None} and graphs > 100
    taken = [reader for _, reader in reads]
    assert taken.count("array") > 100 and taken.count("lines") > 100


@pytest.mark.parametrize("key", ["edges", "attributes", "labels"])
@pytest.mark.parametrize(
    "text, reader",
    [
        ("# ids\n0\t1\n", "lines"),
        ("0\t1\n1\t0 # again\n", "lines"),
        ("0\t1\n\n1\t0\n", "array"),
        ("0\t1\n   \n1\t0\n", "lines"),
        ("0\t1\n\t\n1\t0\n", "lines"),
        (" 0 \t 1\n1 \t0 \n", "array"),
        ("\t0\t1\n", "lines"),
        ("0\t1\t\n", "lines"),
        ("0\t1\r\n1\t0\r\n", "array"),
        ("0\t1\r1\t0\r", "array"),
        ("+1\t0\n", "array"),
        ("1.0\t0\n", "lines"),
        ("1e0\t0\n", "lines"),
        ("1_0\t0\n", "lines"),
        (f"0\t1\n{2**63}\t0\n", "lines"),
        (f"0\t1\n-{2**63 + 1}\t0\n", "lines"),
        (f"0\t{2**63 - 1}\n", "array"),
        ("", "lines"),
        ("\n\n", "lines"),
        ("0\t1", "array"),
        ("0\n1\n", "lines"),
        ("0\t1\t0\n", "lines"),
        ("0\t1\n\n-1\t0\n", "array"),
        ("0\t1\n\n\n9\t0\n", "array"),
        ("0\t0\n1\t1\n\n0\t1\n", "array"),
    ],
    ids=["comment_line", "trailing_comment", "blank_line", "blank_spaces_line", "tab_line", "spaces_around_fields",
         "leading_tab", "trailing_tab", "crlf", "cr", "plus_sign", "float", "exponent", "underscore", "past_int64",
         "below_int64", "int64_max", "empty_file", "only_newlines", "no_last_newline", "one_field", "three_fields",
         "negative_after_a_blank_line", "oob_after_blank_lines", "conflict_after_a_blank_line"],
)
def test_fast_pairs_reads_a_file_as_the_line_reader_does(tmp_path, monkeypatch, key, text, reader):
    """Each trap input of one id file gives the same Graph or message with the array reader as with the
    line reader alone, and takes the reader named; a message names the line that the line reader names."""
    files = {"edges": "0\t1\n", "attributes": "0\t0\n1\t1\n", "labels": "0\t0\n1\t1\n"}
    paths = {k: _write(tmp_path / f"{k}.tsv", text if k == key else v) for k, v in files.items()}
    args = ([paths["edges"], paths["attributes"], paths["labels"], None], {"num_nodes": 2, "num_features": 2})
    with monkeypatch.context() as m:
        m.setattr(cli, "_fast_pairs", lambda *a: None)
        line_reader = _outcome(load_dataset, *args)
    reads = _recording_fast_pairs(monkeypatch)
    got = _outcome(load_dataset, *args)
    assert {r for path, r in reads if path == paths[key]} == {reader}
    if isinstance(line_reader, str):
        assert got == line_reader
    else:
        assert_graphs_equal(got, line_reader)


def test_load_dataset_reads_clean_cora_ml_size_files_without_the_line_reader(tmp_path, monkeypatch):
    """Edges, attributes and labels of N = 2 995, D = 2 879 load without `_content_lines`, to the same Graph."""
    rng = np.random.default_rng(0)
    N, D, K = 2995, 2879, 7
    X = rng.random((N, D)) < 0.005
    X[N - 1, D - 1] = True
    edges = np.unique(np.sort(rng.integers(N, size=(7500, 2)), axis=1), axis=0)
    y = rng.integers(K, size=N)
    labeled = np.sort(rng.choice(N, size=300, replace=False))
    paths = [
        _write(tmp_path / name, "".join(f"{a}\t{b}\n" for a, b in rows))
        for name, rows in (("e.tsv", edges), ("a.tsv", zip(*np.nonzero(X))), ("l.tsv", zip(labeled, y[labeled])))
    ]
    want = _reference_load_dataset(*paths, num_classes=K).graph

    def no_line_reader(text):
        raise AssertionError(f"a file was read line by line: {text[:40]!r}")

    monkeypatch.setattr(cli, "_content_lines", no_line_reader)
    got = load_dataset(*paths, num_classes=K).graph
    assert_graphs_equal(got, want)
    np.testing.assert_array_equal(got.attributes, X)


def _error(load, paths, sizes):
    try:
        load(*paths, **sizes)
    except (CliError, OSError) as exc:
        return type(exc).__name__, str(exc)
    raise AssertionError(f"{paths} loaded")


@pytest.mark.parametrize("key", ["edges", "attributes", "labels"])
@pytest.mark.parametrize("name", ["gzip", "missing_beside_gzip", "url"])
def test_load_dataset_reads_only_the_named_file_as_utf8_text(tmp_path, monkeypatch, key, name):
    """A gzip file is not UTF-8 text, a file missing beside a compressed copy stays missing, and a URL is a
    file name: each gives the reference's error, and the loader writes no file."""
    files = {"edges": "0\t1\n", "attributes": "0\t0\n1\t1\n", "labels": "0\t0\n1\t1\n"}
    paths = {k: _write(tmp_path / f"{k}.tsv", v) for k, v in files.items()}
    packed = gzip.compress(files[key].encode("utf-8"))
    if name == "gzip":
        (tmp_path / "ids.tsv.gz").write_bytes(packed)
        paths[key] = str(tmp_path / "ids.tsv.gz")
    elif name == "missing_beside_gzip":
        (tmp_path / "ids.tsv.gz").write_bytes(packed)
        paths[key] = str(tmp_path / "ids.tsv")
    else:
        paths[key] = "http://localhost:9/ids.tsv"
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    args = ([paths["edges"], paths["attributes"], paths["labels"], None], {"num_nodes": 2, "num_features": 2})
    assert _error(load_dataset, *args) == _error(_reference_load_dataset, *args)
    assert sorted(os.listdir(tmp_path)) == before


def _feed_once(fifo, text, done):
    """Write `text` into the FIFO once; each later reader then finds the stream exhausted, as a pipe's does."""
    fifo.write_text(text, encoding="utf-8")
    while not done.is_set():
        with open(fifo, "w"):
            pass


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("key", ["edges", "attributes", "labels"])
@pytest.mark.parametrize("text", ["# ids\n0\t1\n1\t2\n", "0\t1\n1\t2\n", "0\t1\n-1\t2\n"],
                         ids=["comment", "clean", "negative"])
def test_load_dataset_reads_a_stream_once(tmp_path, key, text):
    """An id file that can be read only once, a FIFO, gives the Graph or the message that the same file on
    disk gives."""
    files = {"edges": "0\t1\n", "attributes": "0\t0\n1\t1\n2\t1\n", "labels": "0\t0\n1\t1\n"}
    paths = {k: _write(tmp_path / f"{k}.tsv", text if k == key else v) for k, v in files.items()}
    sizes = {"num_nodes": 3, "num_features": 3}
    on_disk = _outcome(load_dataset, [paths["edges"], paths["attributes"], paths["labels"], None], sizes)
    fifo = tmp_path / "stream"
    os.mkfifo(fifo)
    done = threading.Event()
    writer = threading.Thread(target=_feed_once, args=(fifo, text, done), daemon=True)
    writer.start()
    paths[key] = str(fifo)
    try:
        got = _outcome(load_dataset, [paths["edges"], paths["attributes"], paths["labels"], None], sizes)
    except IndexError as exc:  # a reader that read the stream twice
        got = exc
    finally:
        done.set()
        for _ in range(200):
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # lets a pending open for writing return
            writer.join(timeout=0.05)
            if not writer.is_alive():
                break
    assert not writer.is_alive()
    if isinstance(on_disk, str):
        assert got == on_disk.replace(str(tmp_path / f"{key}.tsv"), str(fifo))
    else:
        assert_graphs_equal(got, on_disk)


# -- parse_config ----------------------------------------------------------


def test_parse_config_round_trip(tmp_path):
    cfg = _write(
        tmp_path / "train.cfg",
        "# comment\nmode = RH\nseed = 3\nlearning_rate = 0.01\ndropout_rate = 0.5\nhidden_dims = 4, 5\n",
    )
    parsed = parse_config(cfg)
    assert parsed == {"mode": "RH", "seed": 3, "learning_rate": 0.01, "dropout_rate": 0.5, "hidden_dims": (4, 5)}


def test_parse_config_unknown_key_lists_valid_keys(tmp_path):
    cfg = _write(tmp_path / "bad.cfg", "learningrate = 0.1\n")
    with pytest.raises(CliError, match="unknown key 'learningrate'.*valid keys.*learning_rate"):
        parse_config(cfg)


def test_parse_config_rejects_workers(tmp_path):
    cfg = _write(tmp_path / "old.cfg", "workers = 2\n")
    with pytest.raises(CliError, match="unknown key 'workers'; valid keys"):
        parse_config(cfg)


def test_parse_config_bad_value(tmp_path):
    cfg = _write(tmp_path / "bad.cfg", "seed = soon\n")
    with pytest.raises(CliError, match="bad value 'soon'"):
        parse_config(cfg)


def test_parse_config_rejects_a_key_given_twice(tmp_path):
    cfg = _write(tmp_path / "twice.cfg", "mode = CE\n# comment\nseed = 1\nmode = RH_U\n")
    with pytest.raises(CliError, match=r"twice.cfg:4: key 'mode' given again \(first on line 1\)$"):
        parse_config(cfg)


def test_parse_config_rejects_a_line_without_equals(tmp_path):
    cfg = _write(tmp_path / "bad.cfg", "# comment\nmode = CE\n\nlearning_rate 0.1\n")
    with pytest.raises(CliError, match=r"bad.cfg:4: expected 'key = value'$"):
        parse_config(cfg)


# -- train command ---------------------------------------------------------


def _train_cfg(tmp_path, dataset, extra=""):
    """A small CE config for `dataset`, then the lines of `extra`; a key set in `extra` replaces its line here."""
    ckpt = tmp_path / "out.npz"
    text = (
        f"edges = {dataset['edges']}\n"
        f"attributes = {dataset['attributes']}\n"
        f"labels = {dataset['labels']}\n"
        f"split = {dataset['split']}\n"
        "mode = CE\nmax_epochs = 2\npatience = 2\nhidden_dims = 2\n"
        f"checkpoint_out = {ckpt}\n"
    )
    replaced = {line.partition("=")[0] for line in extra.splitlines()}
    text = "".join(line for line in text.splitlines(True) if line.partition("=")[0] not in replaced) + extra
    return _write(tmp_path / "train.cfg", text), ckpt


def test_cmd_train_writes_loadable_checkpoint(tmp_path, dataset, capsys):
    cfg, ckpt = _train_cfg(tmp_path, dataset, extra=f"log_out = {tmp_path / 'log.csv'}\n")
    assert main(["train", cfg]) == 0
    params = gcn.load_checkpoint(ckpt)
    assert params.dims == [2, 2, 2]
    log = (tmp_path / "log.csv").read_text().splitlines()
    assert log[0].startswith("epoch,phase,loss")
    assert len(log) >= 2
    assert "trained mode=CE" in capsys.readouterr().out


def test_cmd_train_log_csv_holds_every_logged_value(tmp_path, dataset, monkeypatch):
    """The log's header is LOG_FIELDS, one line per log row, and every cell reads back as the logged value."""
    logs = []

    def train(self, params, _train=robust_train.Trainer.train):
        params, log = _train(self, params)
        logs.append(log)
        return params, log

    monkeypatch.setattr(robust_train.Trainer, "train", train)
    log_out = tmp_path / "log.csv"
    cfg = _write(
        tmp_path / "rhu.cfg",
        "".join(f"{k} = {dataset[k]}\n" for k in ("edges", "attributes", "labels", "split"))
        + "mode = RH_U\nQ = 1\nmax_epochs = 2\nphase2_epochs = 2\npatience = 2\nhidden_dims = 2\n"
        + f"checkpoint_out = {tmp_path / 'out.npz'}\nlog_out = {log_out}\n",
    )
    assert main(["train", cfg]) == 0
    (log,) = logs
    with open(log_out, encoding="utf-8", newline="") as fh:
        header, *lines = list(csv.reader(fh))
    assert tuple(header) == robust_train.LOG_FIELDS
    assert len(lines) == len(log) == 4 and [row["phase"] for row in log] == [1, 1, 2, 2]
    assert all(math.isnan(row["test_acc"]) for row in log)  # the unlabeled node has no label
    for line, row in zip(lines, log):
        for cell, key in zip(line, header, strict=True):
            value = row[key]
            if isinstance(value, int):
                assert int(cell) == value, (key, cell)
            else:
                assert float(cell) == value or (math.isnan(float(cell)) and math.isnan(value)), (key, cell)


def test_cmd_train_missing_labels_no_partial_checkpoint(tmp_path, dataset, capsys):
    cfg, ckpt = _train_cfg(tmp_path, dataset)
    missing = {**dataset, "labels": str(tmp_path / "absent.tsv")}
    cfg, ckpt = _train_cfg(tmp_path, missing)
    assert main(["train", cfg]) == 2
    assert not ckpt.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["edges", "attributes", "labels", "checkpoint_out"])
def test_cmd_train_rejects_a_config_without_a_required_key(tmp_path, dataset, capsys, key):
    cfg, ckpt = _train_cfg(tmp_path, dataset)
    text = "".join(line for line in open(cfg, encoding="utf-8") if not line.startswith(f"{key} ="))
    _write(tmp_path / "train.cfg", text)
    err = _assert_one_line_error(main(["train", cfg]), capsys)
    assert err == f"error: config is missing required key {key!r}\n"
    assert not ckpt.exists()


def test_cmd_train_is_deterministic(tmp_path, dataset):
    cfg, ckpt = _train_cfg(tmp_path, dataset)
    assert main(["train", cfg]) == 0
    first = ckpt.read_bytes()
    assert main(["train", cfg]) == 0
    assert ckpt.read_bytes() == first


@pytest.mark.parametrize(
    "extra, key",
    [
        ("mode = SGD\n", "mode"),
        ("batch_size = 0\n", "batch_size"),
        ("hidden_dims = a\n", "'a'"),
        ("learning_rate = nan\n", "learning_rate"),
        ("dropout_rate = 1.0\n", "dropout_rate"),
        ("max_epochs = -1\n", "max_epochs"),
        ("hidden_dims = 0\n", "hidden widths"),
        ("hidden_dims = ,\n", "bad value ',' for hidden_dims"),
        ("l2_strength = nan\n", "l2_strength"),
        ("seed = -1\n", "seed"),
        ("patience = -1\n", "patience"),
        ("eval_every = -2\n", "eval_every must be >= 0, got -2"),
        ("eval_every = 1.5\n", "bad value '1.5' for eval_every"),
        ("q = -1\n", "budgets must be nonnegative (q=-1, Q="),
    ],
    ids=["mode", "batch_size", "hidden_dims_text", "learning_rate_nan", "dropout_rate_one", "max_epochs_negative",
         "hidden_dims_zero", "hidden_dims_empty", "l2_strength_nan", "seed_negative", "patience_negative",
         "eval_every_negative", "eval_every_text", "q_negative"],
)
def test_cmd_train_rejects_bad_config_values(tmp_path, dataset, capsys, extra, key):
    cfg, ckpt = _train_cfg(tmp_path, dataset, extra=extra)
    err = _assert_one_line_error(main(["train", cfg]), capsys)
    assert key in err
    assert not ckpt.exists()


@pytest.mark.parametrize("eval_every, logged", [(1, [1, 2, 3, 4, 5]), (2, [2, 4]), (5, [5]), (0, [])])
def test_cmd_train_logs_every_eval_every_epochs_and_reports_the_epochs_run(
    tmp_path, dataset, capsys, eval_every, logged
):
    log_out = tmp_path / "log.csv"
    extra = f"max_epochs = 5\npatience = 5\neval_every = {eval_every}\nlog_out = {log_out}\n"
    cfg, ckpt = _train_cfg(tmp_path, dataset, extra=extra)
    assert main(["train", cfg]) == 0
    with open(log_out, encoding="utf-8", newline="") as fh:
        assert [int(row["epoch"]) for row in csv.DictReader(fh)] == logged
    assert capsys.readouterr().out == f"trained mode=CE epochs=5 checkpoint={ckpt}\n"


def test_cmd_train_rejects_a_labeled_node_without_a_label(tmp_path, dataset, capsys):
    split = _write(tmp_path / "all.tsv", "0\tlabeled\n1\tlabeled\n2\tlabeled\n")
    cfg, ckpt = _train_cfg(tmp_path, {**dataset, "split": split})
    err = _assert_one_line_error(main(["train", cfg]), capsys)
    assert "node 2 is marked labeled but has no label" in err and "all.tsv" in err and cfg in err
    assert not ckpt.exists()


def test_cmd_train_rejects_a_split_without_labeled_nodes(tmp_path, dataset, capsys):
    split = _write(tmp_path / "none.tsv", "0\tunlabeled\n1\tunlabeled\n2\tunlabeled\n")
    cfg, ckpt = _train_cfg(tmp_path, {**dataset, "split": split})
    err = _assert_one_line_error(main(["train", cfg]), capsys)
    assert err.startswith(f"error: {cfg}: no node is labeled")
    assert not ckpt.exists()


BIG = "99999999999999999999999"  # past int64


@pytest.mark.parametrize(
    "files, extra, message",
    [
        ({"attributes": ("a.csv", "1,0\n0\n1,1\n")}, "", "ragged or empty CSV"),
        ({"attributes": ("a.csv", "1,0\n0,1\n1,1\n")}, "num_nodes = 4\n", "3 rows but num_nodes=4"),
        ({"edges": ("e.tsv", ""), "attributes": ("a.tsv", "")}, "", "cannot infer node count"),
        ({"attributes": ("a.tsv", "")}, "", "cannot infer feature count"),
        ({}, "num_features = 1\n", "attrs.tsv:2: feature id >= D=1"),
        ({"labels": ("l.tsv", "0\t0\n9\t1\n")}, "", "l.tsv:2: node id >= N=3"),
        ({"labels": ("l.tsv", "")}, "", "cannot infer class count"),
        ({"split": ("s.tsv", "0\tlabeled\n1\ttrain\n")}, "", "s.tsv:2: split tag 'train'"),
        ({"labels": ("l.tsv", "0\t0\n1\t5\n")}, "num_classes = 2\n", "l.tsv:2: class 5 >= K=2"),
        ({}, "num_nodes = 0\n", "num_nodes must be >= 1, got 0"),
        ({}, "num_features = -1\n", "num_features must be >= 1, got -1"),
        ({}, "num_classes = 0\n", "num_classes must be >= 1, got 0"),
        ({"labels": ("l.tsv", "0\t0\n1\t1\n0\t1\n")}, "", "l.tsv:3: node 0 listed again with another class"),
        ({"split": ("s.tsv", "0\tlabeled\n1\tlabeled\n1\tunlabeled\n")}, "",
         "s.tsv:3: node 1 listed again with another split tag"),
        ({"edges": ("e.tsv", f"0\t1\n1\t{BIG}\n")}, "", f"e.tsv:2: node id {BIG} is out of the int64 range"),
        ({"attributes": ("a.tsv", f"0\t0\n{BIG}\t1\n")}, "", f"a.tsv:2: node id {BIG} is out of the int64 range"),
        ({"attributes": ("a.tsv", f"0\t0\n1\t{BIG}\n")}, "", f"a.tsv:2: feature id {BIG} is out of the int64 range"),
        ({"labels": ("l.tsv", f"0\t0\n1\t{BIG}\n")}, "", f"l.tsv:2: class {BIG} is out of the int64 range"),
        ({"labels": ("l.tsv", f"0\t0\n-{BIG}\t1\n")}, "", f"l.tsv:2: node id -{BIG} is out of the int64 range"),
        ({"split": ("s.tsv", f"0\tlabeled\n{BIG}\tlabeled\n")}, "", f"s.tsv:2: node id {BIG} is out of the int64 range"),
        ({"attributes": ("a.tsv", f"0\t0\n1\t{2**63 - 1}\n")}, "", f"no room for an N=3 x D={2**63} attribute matrix"),
        ({"edges": ("e.tsv", f"0\t{2**63 - 1}\n")}, "", f"no room for an N={2**63} x D=2 attribute matrix"),
        ({"labels": ("l.tsv", f"0\t0\n1\t{10**12}\n")}, "", f"no room for a model of dims [2, 2, {10**12 + 1}]"),
    ],
    ids=["ragged_csv", "csv_rows", "empty_files", "no_features", "feature_id", "label_node_id", "no_classes",
         "split_tag", "label_range", "num_nodes_zero", "num_features_negative", "num_classes_zero",
         "label_conflict", "split_conflict", "edge_past_int64", "attribute_node_past_int64",
         "feature_past_int64", "class_past_int64", "label_node_below_int64", "split_node_past_int64",
         "feature_int64_max", "edge_int64_max", "class_too_many"],
)
def test_cmd_train_reports_each_dataset_error_in_one_line(tmp_path, dataset, capsys, files, extra, message):
    paths = {key: _write(tmp_path / name, text) for key, (name, text) in files.items()}
    cfg, ckpt = _train_cfg(tmp_path, {**dataset, **paths}, extra=extra)
    assert message in _assert_one_line_error(main(["train", cfg]), capsys)
    assert not ckpt.exists()


def test_cmd_train_passes_only_the_keys_the_config_sets(tmp_path, dataset, monkeypatch):
    """A config with only the required keys reaches `train` with TrainConfig's own defaults."""
    seen = []

    def train(self, params):
        seen.append(self.config)
        return params, []

    monkeypatch.setattr(robust_train.Trainer, "train", train)
    ckpt = tmp_path / "out.npz"
    cfg = _write(
        tmp_path / "minimal.cfg",
        "".join(f"{k} = {dataset[k]}\n" for k in ("edges", "attributes", "labels")) + f"checkpoint_out = {ckpt}\n",
    )
    assert main(["train", cfg]) == 0
    assert seen == [robust_train.TrainConfig()]
    # a file that sets only Q gets the default q
    _write(tmp_path / "minimal.cfg", (tmp_path / "minimal.cfg").read_text() + "Q = 3\nhidden_dims = 4,5\n")
    assert main(["train", cfg]) == 0
    want = robust_train.TrainConfig(budget=Budget(robust_train.default_local_budget(2), 3), hidden_dims=(4, 5))
    assert seen[-1] == want


# -- certify / curve / attack ----------------------------------------------


def _dataset_args(dataset):
    return [
        "--edges", dataset["edges"],
        "--attributes", dataset["attributes"],
        "--labels", dataset["labels"],
        "--split", dataset["split"],
    ]


def test_cmd_certify_zero_budget_all_robust(tmp_path, dataset, checkpoint, capsys):
    out = tmp_path / "certs.jsonl"
    rc = main(
        ["certify", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--q", "1", "--Q", "0", "--workers", "1", "--output", str(out)]
    )
    assert rc == 0
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(docs) == 3
    assert all(doc["status"] == "robust" for doc in docs)
    assert all(doc["Q"] == 0 for doc in docs)
    assert "robust=3" in capsys.readouterr().out


def test_cmd_certify_node_out_of_range(dataset, checkpoint, capsys):
    rc = main(
        ["certify", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--q", "1", "--Q", "1", "--nodes", "7"]
    )
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def _assert_one_line_error(rc, capsys):
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_cmd_certify_malformed_checkpoint(tmp_path, dataset, capsys):
    ckpt = _write(tmp_path / "broken.json", '{"L": 3, "dims": [2, 3')
    rc = main(["certify", "--checkpoint", ckpt, *_dataset_args(dataset), "--q", "1", "--Q", "1"])
    assert "broken.json" in _assert_one_line_error(rc, capsys)


def _npz_arrays(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def _write_npz(path, arrays, change=None):
    """Write `arrays` as an `.npz`, each array of `change` set in, or left out where it is None."""
    arrays = {k: a for k, a in {**arrays, **(change or {})}.items() if a is not None}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return str(path)


@pytest.mark.parametrize(
    "change", [{"w2": np.eye(2)}, {"w0": None, "w1": None}, {"w1": None}], ids=["L_4", "L_1", "two_dims"]
)
def test_cmd_certify_rejects_a_checkpoint_whose_sizes_disagree(tmp_path, dataset, checkpoint, capsys, change):
    """The arrays of dims [2, 3, 2] with a weight added or dropped, so weights and biases count other layers."""
    ckpt = _write_npz(tmp_path / "sizes.npz", _npz_arrays(checkpoint), change)
    with pytest.raises(ValueError, match="of one count"):
        gcn.load_checkpoint(ckpt)
    rc = main(["certify", "--checkpoint", ckpt, *_dataset_args(dataset), "--q", "1", "--Q", "1"])
    assert "sizes.npz: not a valid checkpoint" in _assert_one_line_error(rc, capsys)


def _malformed_checkpoint(case, path, arrays):
    """Write to `path` the checkpoint `arrays` damaged as `case` says."""
    if case == "json":
        hexes = {k: [f.hex() for f in a.ravel()] for k, a in arrays.items()}
        doc = {"L": 3, "dims": [2, 3, 2], "weights": [hexes["w0"], hexes["w1"]], "biases": [hexes["b0"], hexes["b1"]]}
        return _write(path, json.dumps(doc))
    if case == "npy":
        with open(path, "wb") as fh:
            np.save(fh, arrays["w0"])
        return str(path)
    if case == "huge_shape":  # np.load would try to allocate 21.8 TiB
        return write_checkpoint_with_w0(path, arrays, lying_npy(10**12))
    if case == "unclosed_header":  # numpy's header parser raises tokenize.TokenError on it
        header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (2, 3), "
        npy = np.lib.format.magic(1, 0) + len(header).to_bytes(2, "little") + header
        return write_checkpoint_with_w0(path, arrays, npy)
    if case == "truncated_zip":
        _write_npz(path, arrays)
        path.write_bytes(path.read_bytes()[:-30])
        return str(path)
    change = {
        "object_array": {"b0": np.array([{"pickled": 1}, None, 0.0], dtype=object)},
        "extra_array": {"note": np.zeros(1)},
        "misnamed_array": {"w0": None, "W0": arrays["w0"]},
        "weight_1d": {"w1": arrays["w1"].ravel()[:2], "b1": np.zeros(2)},
        "bias_float32": {"b0": arrays["b0"].astype(np.float32)},
        "weight_int": {"w0": np.ones((2, 3), dtype=np.int64)},
        "not_chaining": {"w1": np.zeros((4, 2))},
        "non_finite": {"b1": np.array([0.0, np.inf])},
    }[case]
    return _write_npz(path, arrays, change)


@pytest.mark.parametrize(
    "case, message",
    [
        ("json", "JSON checkpoints are no longer read"),
        ("npy", "not an .npz zip archive"),
        ("truncated_zip", "damaged .npz archive (BadZipFile"),
        ("huge_shape", "w0.npy: its .npy header claims 24000000000128 bytes, not 160"),
        ("unclosed_header", "damaged .npz archive (TokenError"),
        ("object_array", "allow_pickle=False"),
        ("extra_array", "of one count"),
        ("misnamed_array", "of one count"),
        ("weight_1d", "need 2-D and 1-D float64"),
        ("bias_float32", "need 2-D and 1-D float64"),
        ("weight_int", "need 2-D and 1-D float64"),
        ("not_chaining", "layer 0->1"),
        ("non_finite", "non-finite"),
    ],
)
def test_cmd_certify_rejects_a_malformed_checkpoint_in_one_line(tmp_path, dataset, checkpoint, capsys, case, message):
    ckpt = _malformed_checkpoint(case, tmp_path / f"{case}.npz", _npz_arrays(checkpoint))
    with pytest.raises(ValueError, match=re.escape(message)):
        gcn.load_checkpoint(ckpt)
    rc = main(["certify", "--checkpoint", ckpt, *_dataset_args(dataset), "--q", "1", "--Q", "1"])
    err = _assert_one_line_error(rc, capsys)
    assert f"{case}.npz: not a valid checkpoint (" in err and message in err


@pytest.mark.parametrize(
    "case",
    [
        "checkpoint_is_a_folder",
        "certify_output_is_a_folder",
        "curve_output_is_a_folder",
        "train_config_is_a_folder",
        "log_out_is_a_folder",
        "attributes_not_utf8",
    ],
)
def test_file_errors_exit_2_in_one_line(tmp_path, dataset, checkpoint, capsys, case):
    folder = str(tmp_path)
    (tmp_path / "bad.tsv").write_bytes(b"0\t0\n\xff\xfe\t1\n")
    certify = ["certify", *_dataset_args(dataset), "--q", "1", "--Q", "1", "--workers", "1"]
    curve = ["curve", "--checkpoint", checkpoint, *_dataset_args(dataset), "--q", "1", "--Q-max", "1", "--workers", "1"]
    argv = {
        "checkpoint_is_a_folder": [*certify, "--checkpoint", folder],
        "certify_output_is_a_folder": [*certify, "--checkpoint", checkpoint, "--output", folder],
        "curve_output_is_a_folder": [*curve, "--output", folder],
        "train_config_is_a_folder": ["train", folder],
        "log_out_is_a_folder": ["train", _train_cfg(tmp_path, dataset, extra=f"log_out = {folder}\n")[0]],
        "attributes_not_utf8": [*certify, "--checkpoint", checkpoint, "--attributes", str(tmp_path / "bad.tsv")],
    }[case]
    message = "bad.tsv: not UTF-8 text" if case == "attributes_not_utf8" else "Is a directory"
    assert message in _assert_one_line_error(main(argv), capsys)


def test_cmd_certify_bad_node_id(dataset, checkpoint, capsys):
    rc = main(
        ["certify", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--q", "1", "--Q", "1", "--nodes", "0,x"]
    )
    assert "'x'" in _assert_one_line_error(rc, capsys)


def test_cmd_certify_repeated_node_id(dataset, checkpoint, capsys):
    rc = main(
        ["certify", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--q", "1", "--Q", "1", "--nodes", "1,0,01"]
    )
    assert _assert_one_line_error(rc, capsys) == "error: node id 1 listed twice in --nodes\n"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "spec, message",
    [("1,x", "bad node id 'x' in --nodes"), ("0,-1", "negative node id -1 in --nodes"),
     ("2,0,2", "node id 2 listed twice in --nodes")],
    ids=["syntax", "negative", "repeated"],
)
def test_cmd_certify_reads_nodes_before_any_file(tmp_path, dataset, capsys, spec, message):
    missing = str(tmp_path / "missing.npz")
    rc = main(["certify", "--checkpoint", missing, *_dataset_args(dataset), "--q", "1", "--Q", "1", "--nodes", spec])
    assert _assert_one_line_error(rc, capsys) == f"error: {message}\n"


def test_certify_and_curve_modes_are_dual_cert_modes(tmp_path, dataset, checkpoint, capsys):
    """`--mode` offers exactly `dual_cert.MODES`; another name is a usage error."""
    for command in (["certify", "--Q", "1"], ["curve", "--Q-max", "1", "--output", str(tmp_path / "c.csv")]):
        rc = main([*command, "--checkpoint", checkpoint, *_dataset_args(dataset), "--q", "1", "--mode", "optimised"])
        err = _assert_one_line_error(rc, capsys)
        assert "invalid choice: 'optimised'" in err and all(repr(m) in err for m in dual_cert.MODES)


def test_cmd_certify_names_the_line_of_a_class_past_the_checkpoint(tmp_path, dataset, checkpoint, capsys):
    """The checkpoint fixes K = 2, so class 5 is an error at its line of the labels file."""
    labels = _write(tmp_path / "l.tsv", "0\t0\n1\t5\n")
    args = _dataset_args({**dataset, "labels": labels})
    rc = main(["certify", "--checkpoint", checkpoint, *args, "--q", "1", "--Q", "1"])
    assert _assert_one_line_error(rc, capsys) == f"error: {labels}:2: class 5 >= K=2\n"
    with pytest.raises(CliError, match=r"l\.tsv:2: class 5 >= K=2$"):
        load_dataset(dataset["edges"], dataset["attributes"], labels_path=labels, num_classes=2)


def test_cmd_certify_negative_budget(dataset, checkpoint, capsys):
    rc = main(
        ["certify", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--q", "-1", "--Q", "1"]
    )
    assert "--q must be >= 0, got -1" in _assert_one_line_error(rc, capsys)


def test_cmd_attack_rejects_a_negative_budget_before_reading_files(tmp_path, dataset, capsys):
    missing = str(tmp_path / "missing.npz")
    rc = main(
        ["attack", "--checkpoint", missing, *_dataset_args(dataset),
         "--node", "0", "--q", "1", "--Q", "-1"]
    )
    assert "--Q must be >= 0, got -1" in _assert_one_line_error(rc, capsys)


def test_cmd_attack_reads_node_before_any_file(tmp_path, dataset, capsys):
    missing = str(tmp_path / "missing.npz")
    rc = main(
        ["attack", "--checkpoint", missing, *_dataset_args(dataset),
         "--node", "-1", "--q", "1", "--Q", "1"]
    )
    assert _assert_one_line_error(rc, capsys) == "error: --node must be >= 0, got -1\n"


def test_cmd_attack_node_out_of_range(dataset, checkpoint, capsys):
    rc = main(
        ["attack", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--node", "7", "--q", "1", "--Q", "1"]
    )
    assert "out of range" in _assert_one_line_error(rc, capsys)


def test_cmd_certify_dimension_mismatch(tmp_path, dataset, capsys):
    params = gcn.glorot_params([5, 3, 2], seed=0)
    ckpt = tmp_path / "wide.npz"
    gcn.save_checkpoint(params, ckpt)
    rc = main(
        ["certify", "--checkpoint", str(ckpt), *_dataset_args(dataset),
         "--q", "1", "--Q", "1"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "D=5" in err and "D=2" in err


@pytest.mark.parametrize("command", ["certify", "curve", "attack"])
def test_certification_commands_reject_a_model_without_hidden_layer(tmp_path, dataset, capsys, command):
    ckpt = tmp_path / "linear.npz"
    gcn.save_checkpoint(gcn.glorot_params([2, 2], seed=0), ckpt)
    extra = {"certify": ["--Q", "2"], "curve": ["--Q-max", "2", "--output", str(tmp_path / "c.csv")],
             "attack": ["--Q", "2", "--node", "1"]}[command]
    rc = main([command, "--checkpoint", str(ckpt), *_dataset_args(dataset), "--q", "1", *extra])
    assert "no hidden layer" in _assert_one_line_error(rc, capsys)


def test_cmd_curve_zero_budget(tmp_path, dataset, checkpoint):
    out = tmp_path / "curve.csv"
    rc = main(
        ["curve", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--q", "1", "--Q-max", "0", "--workers", "1", "--output", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "Q,split,fraction_certified_robust,fraction_certified_nonrobust,fraction_undecided"
    )
    rows = [line.split(",") for line in lines[1:]]
    assert {r[1] for r in rows} == {"all", "labeled", "unlabeled"}
    for r in rows:
        assert r[0] == "0"
        assert float(r[2]) == 1.0  # empty budget: everything certified robust
        assert float(r[2]) + float(r[3]) + float(r[4]) == pytest.approx(1.0, abs=1e-12)


def test_cmd_curve_writes_no_rows_for_an_empty_node_set(tmp_path, dataset, checkpoint):
    """Without labels no node is labeled, so the CSV has `all` and `unlabeled` rows and no `labeled` one."""
    out = tmp_path / "curve.csv"
    argv = ["curve", "--checkpoint", checkpoint, "--edges", dataset["edges"], "--attributes", dataset["attributes"],
            "--q", "1", "--Q-max", "2", "--output", str(out)]
    assert main(argv) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["Q"], row["split"]) for row in rows] == [
        (str(Q), split) for Q in range(3) for split in ("all", "unlabeled")
    ]
    for every, unlabeled in zip(rows[0::2], rows[1::2]):  # every node is unlabeled
        assert {**every, "split": ""} == {**unlabeled, "split": ""}


@pytest.mark.parametrize("budget_args", [["--q", "1", "--Q-max", "-1"], ["--q", "-1", "--Q-max", "-1"]])
def test_cmd_curve_rejects_negative_budgets(tmp_path, dataset, checkpoint, capsys, budget_args):
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--checkpoint", checkpoint, *_dataset_args(dataset), *budget_args, "--output", str(out)])
    _assert_one_line_error(rc, capsys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "curve"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_certification_commands_reject_workers_below_one(tmp_path, dataset, checkpoint, capsys, command, workers):
    budget_args = ["--Q", "1"] if command == "certify" else ["--Q-max", "1", "--output", str(tmp_path / "c.csv")]
    argv = [command, "--checkpoint", checkpoint, *_dataset_args(dataset), "--q", "1", *budget_args]
    err = _assert_one_line_error(main([*argv, "--workers", workers]), capsys)
    assert f"--workers must be >= 1, got {workers}" in err


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing_Q_max", "gcn-cert curve: the following arguments are required: --Q-max"),
        ("q_not_int", "gcn-cert certify: argument --q: invalid int value: 'x'"),
        ("mode_fast", "gcn-cert certify: argument --mode: invalid choice: 'fast'"),
        ("workers_not_int", "gcn-cert curve: argument --workers: invalid int value: '2.5'"),
        ("no_command", "gcn-cert: the following arguments are required: command"),
        ("removed_command", "gcn-cert: argument command: invalid choice: 'oracle-verify'"),
        ("unknown_flag", "gcn-cert: unrecognized arguments: --fast"),
        ("repeated_config_key", "train.cfg:11: key 'seed' given again (first on line 10)"),
    ],
)
def test_usage_errors_exit_2_in_one_line(tmp_path, dataset, checkpoint, capsys, case, message):
    model = ["--checkpoint", checkpoint, *_dataset_args(dataset), "--q", "1"]
    curve = ["curve", *model, "--output", str(tmp_path / "c.csv")]
    argv = {
        "missing_Q_max": curve,
        "q_not_int": ["certify", *model, "--Q", "1", "--q", "x"],
        "mode_fast": ["certify", *model, "--Q", "1", "--mode", "fast"],
        "workers_not_int": [*curve, "--Q-max", "1", "--workers", "2.5"],
        "no_command": [],
        "removed_command": ["oracle-verify"],
        "unknown_flag": ["certify", *model, "--Q", "1", "--fast"],
        "repeated_config_key": ["train", _train_cfg(tmp_path, dataset, extra="seed = 1\nseed = 2\n")[0]],
    }[case]
    assert message in _assert_one_line_error(main(argv), capsys)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "case, message",
    [
        ("curve_Q", "gcn-cert curve: the following arguments are required: --Q-max"),
        ("certify_use", "gcn-cert: unrecognized arguments: --use"),
    ],
)
def test_abbreviated_flags_are_unknown(tmp_path, dataset, checkpoint, capsys, case, message):
    """A flag must be spelled in full; each argv would run if argparse took the abbreviation."""
    model = ["--checkpoint", checkpoint, *_dataset_args(dataset), "--q", "1"]
    argv = {
        "curve_Q": ["curve", *model, "--output", str(tmp_path / "c.csv"), "--Q", "1"],
        "certify_use": ["certify", *model, "--Q", "1", "--use"],
    }[case]
    assert message in _assert_one_line_error(main(argv), capsys)
    assert capsys.readouterr().out == "" and not (tmp_path / "c.csv").exists()


def test_certify_use_labels_certifies_labeled_nodes_against_their_label(tmp_path, dataset, checkpoint):
    """With --use-labels a node with a label is certified against it, even where the model predicts
    another class; a node without one is certified against the prediction."""
    params = gcn.load_checkpoint(checkpoint)
    graph = load_dataset(dataset["edges"], dataset["attributes"], num_classes=2).graph
    mp = build_message_passing(graph)
    pred = [gcn.predict(gcn.forward_sliced(slice_problem(graph, mp, t, 3), params)) for t in range(3)]
    labels = _write(tmp_path / "flipped.tsv", f"0\t{1 - pred[0]}\n1\t{pred[1]}\n")
    out = tmp_path / "certs.jsonl"
    argv = ["certify", "--checkpoint", checkpoint, "--edges", dataset["edges"], "--attributes", dataset["attributes"],
            "--labels", labels, "--q", "1", "--Q", "1", "--output", str(out)]
    y_stars = {}
    for flag in ([], ["--use-labels"]):
        assert main([*argv, *flag]) == 0
        y_stars[tuple(flag)] = [json.loads(line)["y_star"] for line in out.read_text().splitlines()]
    assert y_stars[()] == pred
    assert y_stars[("--use-labels",)] == [1 - pred[0], pred[1], pred[2]]


def test_benchmark_curve_argv_parses(tmp_path, dataset, checkpoint, monkeypatch):
    """The argv the benchmark's curve-sweep workload hands `cli.main` parses, with one worker, and runs."""
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    workloads = importlib.import_module("workloads")
    seen = []

    def traced(fn, argv):
        seen.append(argv)
        return fn(argv)

    ctx = types.SimpleNamespace(
        paths=dataset, checkpoint=checkpoint, scratch=str(tmp_path), seconds=0.0,
        setup=lambda out, make: make(), step=lambda i: None, traced=traced,
    )
    out = workloads.Outcome()
    workloads.run_curve(types.SimpleNamespace(Q=1, mode="default"), ctx, out)
    assert out.failures == [] and len(seen) == 1
    args = cli.build_parser().parse_args(seen[0])
    assert (args.command, args.Q_max, args.workers) == ("curve", 1, 1)


def _planted_dataset(tmp_path, n=12, D=10, seed=1):
    """Two planted communities (even and odd ids) with class-correlated attributes, plus a model."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    A = np.triu(rng.random((n, n)) < np.where(y[:, None] == y, 0.25, 0.03), 1)
    X = rng.random((n, D)) < np.where((np.arange(D) < D // 2) == (y[:, None] == 0), 0.3, 0.05)
    paths = {
        "edges": _write(tmp_path / "pp_edges.tsv", "".join(f"{u}\t{v}\n" for u, v in zip(*np.nonzero(A)))),
        "attributes": _write(tmp_path / "pp_attrs.tsv", "".join(f"{u}\t{d}\n" for u, d in zip(*np.nonzero(X)))),
        "labels": _write(tmp_path / "pp_labels.tsv", "".join(f"{t}\t{y[t]}\n" for t in range(0, n, 3))),
        "split": _write(
            tmp_path / "pp_split.tsv",
            "".join(f"{t}\t{'labeled' if t % 3 == 0 else 'unlabeled'}\n" for t in range(n)),
        ),
    }
    ckpt = tmp_path / "pp_model.npz"
    gcn.save_checkpoint(gcn.glorot_params([D, 6, 2], seed=seed), ckpt)
    return paths, str(ckpt)


def _reference_curve(argv):
    """The curve command as a loop over Q: every node sliced, predicted and certified again per Q."""
    args = cli.build_parser().parse_args(argv)
    params, graph = cli._load_for_model(args)
    mp = build_message_passing(graph)
    node_sets = {
        "all": list(range(graph.num_nodes)),
        "labeled": [int(t) for t in graph.labeled_nodes()],
        "unlabeled": [int(t) for t in graph.unlabeled_nodes()],
    }
    rows = []
    for Q in range(args.Q_max + 1):
        status = {}
        for t in node_sets["all"]:
            spr = slice_problem(graph, mp, t, params.layer_count)
            y_star = gcn.predict(gcn.forward_sliced(spr, params))
            status[t] = dual_cert.certify(spr, params, Budget(args.q, Q), y_star, mode=args.mode).status
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
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return status


@pytest.mark.parametrize("mode, Q_max", [("default", 4), ("optimized", 2)])
def test_cmd_curve_matches_per_q_loop(tmp_path, mode, Q_max):
    """On a dataset whose statuses never weaken as Q grows, the status sweep writes the CSV of certifying
    again for every Q."""
    paths, ckpt = _planted_dataset(tmp_path)
    argv = ["curve", "--checkpoint", ckpt, *_dataset_args(paths), "--q", "1", "--Q-max", str(Q_max), "--mode", mode]
    ref = tmp_path / "ref.csv"
    last = _reference_curve([*argv, "--output", str(ref)])
    assert len(set(last.values())) == 3  # robust, non-robust and undecided nodes at Q_max
    for workers in ("1", "2"):
        out = tmp_path / f"curve_{workers}.csv"
        assert main([*argv, "--workers", workers, "--output", str(out)]) == 0
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("mode", ["default", "optimized"])
def test_certification_commands_write_the_same_bytes_with_two_workers(tmp_path, mode):
    """Threads share one first-layer table: `certify` and `curve` write with 2 workers what they write with 1."""
    paths, ckpt = _planted_dataset(tmp_path)
    common = ["--checkpoint", ckpt, *_dataset_args(paths), "--q", "1", "--mode", mode]
    commands = {"certify": ["certify", *common, "--Q", "2"], "curve": ["curve", *common, "--Q-max", "2"]}
    for name, argv in commands.items():
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"{name}_{workers}.out"
            assert main([*argv, "--workers", workers, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] and outputs[0], name


def test_certify_curve_and_attack_reach_duals_once_per_evaluated_budget(tmp_path, monkeypatch):
    """`dual_cert.duals` is the one evaluation of a node at a budget: `certify` and `attack` reach it once, and
    `curve` once for each budget its bisection evaluates, as certify's per-budget statuses predict."""
    paths, ckpt = _planted_dataset(tmp_path)
    duals, seen = dual_cert.duals, []

    def record(sp, params, budget, y_star, mode="default", table=None):
        seen.append((sp.target, budget))
        return duals(sp, params, budget, y_star, mode, table)

    monkeypatch.setattr(dual_cert, "duals", record)
    model = ["--checkpoint", ckpt, *_dataset_args(paths), "--q", "1"]
    assert main(["certify", *model, "--nodes", "4", "--Q", "3"]) == 0
    assert main(["attack", *model, "--node", "4", "--Q", "3"]) == 0
    assert seen == [(4, Budget(1, 3))] * 2
    Q_max, statuses = 4, {}
    for Q in range(Q_max + 1):
        out = tmp_path / f"certs_{Q}.jsonl"
        assert main(["certify", *model, "--Q", str(Q), "--output", str(out)]) == 0
        for doc in map(json.loads, out.read_text().splitlines()):
            statuses.setdefault(doc["node"], []).append(doc["status"])
    seen.clear()
    assert main(["curve", *model, "--Q-max", str(Q_max), "--output", str(tmp_path / "curve.csv")]) == 0
    for t, ref in statuses.items():
        evaluated = [b for target, b in seen if target == t]
        assert len(set(evaluated)) == len(evaluated) == len(bisection_probes(ref))
        assert {b.local_q for b in evaluated} == {1}
    assert len(seen) < len(statuses) * (Q_max + 1)


@pytest.mark.parametrize("hidden", [(6,), (6, 4)])
def test_attack_margin_is_the_smallest_primal_margin_of_certify(tmp_path, capsys, hidden):
    """`attack` and `certify` evaluate a node through the same duals: attack's margin is the smallest competing
    entry of certify's primal margins, and a node that certify proves robust keeps its prediction."""
    paths, _ = _planted_dataset(tmp_path)
    ckpt = tmp_path / "three_classes.npz"
    gcn.save_checkpoint(gcn.glorot_params([10, *hidden, 3], seed=0), ckpt)
    model = ["--checkpoint", str(ckpt), "--edges", paths["edges"], "--attributes", paths["attributes"]]
    budget = ["--q", "1", "--Q", "2"]
    out = tmp_path / "certs.jsonl"
    assert main(["certify", *model, *budget, "--output", str(out)]) == 0
    capsys.readouterr()
    seen = set()
    for doc in map(json.loads, out.read_text().splitlines()):
        assert main(["attack", *model, *budget, "--node", str(doc["node"])]) == 0
        head, _, verdict = capsys.readouterr().out.splitlines()
        margin = float(head.rsplit("margin=", 1)[1])
        seen.add(doc["status"])
        if doc["status"] == dual_cert.ROBUST:
            assert verdict == "prediction unchanged"
        else:
            assert margin == min(m for k, m in enumerate(doc["primal_margins"]) if k != doc["y_star"])
    assert seen == {dual_cert.ROBUST, dual_cert.NON_ROBUST, dual_cert.UNDECIDED}


def test_cmd_attack_zero_budget_message(dataset, checkpoint, capsys):
    rc = main(
        ["attack", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--node", "0", "--q", "1", "--Q", "0"]
    )
    assert rc == 0
    assert "no admissible perturbation" in capsys.readouterr().out


def test_cmd_attack_one_class_model_has_no_competing_class(tmp_path, dataset, capsys):
    ckpt = tmp_path / "one_class.npz"
    gcn.save_checkpoint(gcn.glorot_params([2, 3, 1], seed=0), ckpt)
    argv = ["--checkpoint", str(ckpt), "--edges", dataset["edges"], "--attributes", dataset["attributes"]]
    assert main(["attack", *argv, "--node", "1", "--q", "1", "--Q", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "no competing class" in out
    # certify reports the same node as robust: no class can overtake y*
    assert main(["certify", *argv, "--nodes", "1", "--q", "1", "--Q", "2", "--workers", "1"]) == 0
    assert "robust=1" in capsys.readouterr().out


def test_cmd_attack_reports_flips(dataset, checkpoint, capsys):
    rc = main(
        ["attack", "--checkpoint", checkpoint, *_dataset_args(dataset),
         "--node", "1", "--q", "1", "--Q", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "y_star=" in out and "flips=" in out
    assert ("prediction flipped" in out) or ("prediction unchanged" in out)


def test_cmd_attack_output_is_unchanged(tmp_path, capsys):
    """Byte for byte the output the attack command printed when it computed the margin inline."""
    paths, ckpt = _planted_dataset(tmp_path)
    for node, Q in [(0, 3), (1, 3), (4, 1), (7, 6), (10, 2)]:
        argv = ["attack", "--checkpoint", ckpt, *_dataset_args(paths), "--node", str(node), "--q", "1", "--Q", str(Q)]
        assert main(argv) == 0
    assert capsys.readouterr().out == (
        "node=0 y_star=1 strongest_class=0 margin=0.23632959116963692\n"
        "flips=[(0, 1), (9, 5), (2, 1)]\nprediction unchanged\n"
        "node=1 y_star=0 strongest_class=1 margin=-0.4678392102784287\n"
        "flips=[(1, 0)]\nprediction flipped\n"
        "node=4 y_star=1 strongest_class=0 margin=0.11786044099870717\n"
        "flips=[(4, 0)]\nprediction unchanged\n"
        "node=7 y_star=1 strongest_class=0 margin=0.26980733663517326\n"
        "flips=[(7, 8), (9, 5), (0, 1)]\nprediction unchanged\n"
        "node=10 y_star=1 strongest_class=0 margin=-0.0454122490223646\n"
        "flips=[(10, 0)]\nprediction flipped\n"
    )


def test_cli_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(gcn_cert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, gcn_cert, gcn_cert.cli; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
