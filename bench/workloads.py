"""Runs one benchmark workload in its own process and prints the result.

Started by ``run.py`` with BLAS pinned to one thread, after the fixtures
exist. The process's peak RSS therefore belongs to this workload alone.
The last line of standard output is the result JSON; a readable report
goes to standard error and the full record to a results file.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from gcn_cert import cli, dual_cert, gcn, graph_core, primal_attack, robust_train  # noqa: E402
from gcn_cert.bounds import Budget, compute_bounds  # noqa: E402

import fixtures  # noqa: E402

# Steps and set-up are timed in CPU time of this process (CLOCK). The
# workload is single-threaded (BLAS pinned to one thread, --workers 1) and
# never waits on I/O or a lock once its files are in the page cache, so
# its CPU time is the wall time a user on an idle core waits. Unlike wall
# time it leaves out the time this process waits for a core that other
# processes hold. Run length and deadlines are wall time.
CLOCK = time.process_time
# The host's own speed drifts: on the shared 2-vCPU virtual machine this
# benchmark was built on, the same work took 1.3-1.5x longer in CPU time
# in some minutes than in others. So a calibration kernel (fixed numpy and
# Python work that never calls the library) is timed just before and just
# after every timed block, and the block's CPU time is scaled by
# CALIB_NOMINAL_MS over the mean of those two kernel times: reported times
# are those of a host on which the kernel takes CALIB_NOMINAL_MS. The
# kernel took 45-90 ms there, switching between a fast and a slow state
# every few seconds, so each block gets its own factor. Raw CPU and wall
# times and the kernel times are in the results file.
CALIB_REPS = 1500
CALIB_NOMINAL_MS = 60.0
_KERNEL_MATRIX = np.random.default_rng(0).random((64, 64))
_KERNEL_VECTOR = np.random.default_rng(1).random(20000)

# set-up is timed in a first burst of at least SETUP_MIN_REPEATS repetitions
# and SETUP_MIN_S seconds, then in short bursts of SETUP_BURST_S spread over
# up to SETUP_BURSTS of the untimed checks until SETUP_TOTAL_S is spent, and
# its minimum is reported. At the small shapes one set-up takes 3-15 ms, and
# on a shared virtual machine the speed switches between regimes that last
# seconds, so the samples of one burst all share one regime.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_BURSTS = 10
SETUP_BURST_S = 0.1
SETUP_TOTAL_S = 2.0
# certify workloads skip the top work decile (|N1|*|N2|): with the current
# first-layer bounds one such Cora-ML-shape node takes up to 14 s and 5.6 GB
WORK_QUANTILE_CAP = 0.9
# nodes in each of the median, lightest and heaviest strata of the sample
STRATUM = 3
# slack for comparing a dual lower bound with an exact margin
TOL = 1e-9
# relative slack for comparing a bound with its recording in reference.json
REF_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # certify | curve | train
    shape: str
    Q: int
    mode: str = "default"
    # train-rhu: fixed phase-1 / phase-2 epochs per training job
    epochs: tuple = (0, 0)
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "certify-coraml", "certify", "coraml", Q=12,
            why="paper headline shape; first-layer bounds dominate, each node certified once",
        ),
        Workload(
            "certify-pga", "certify", "pga", Q=12, mode="optimized",
            why="Omega-PGA (tape, dual backward, closed-form eta/rho) dominates; bounds are ~5 %",
        ),
        Workload(
            "curve-sweep", "curve", "curve", Q=4,
            why="gcn-cert curve re-certifies the same slices for Q = 0..Q_max",
        ),
        Workload(
            "train-rhu", "train", "rhu", Q=4, epochs=(3, 1),
            why="RH_U training records the tape through bounds and duals, plus per-epoch evaluation",
        ),
    ]
}


@dataclass
class Outcome:
    """Operations attempted, failures and everything measured in one run."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    # time of each set-up, scaled to the nominal host, and raw CPU time
    setup_s: list = field(default_factory=list)
    setup_cpu_s: list = field(default_factory=list)
    # the set-up, timed again between the checks of an untraced run
    remake: object = None
    # durations of the workload's unit of user work (scaled to the nominal
    # host, raw CPU, wall), how many units ran, and the scaled and wall
    # time they took in all
    step_ms: list = field(default_factory=list)
    step_cpu_ms: list = field(default_factory=list)
    step_wall_ms: list = field(default_factory=list)
    steps: int = 0
    measured_s: float = 0.0
    measured_wall_s: float = 0.0
    # calibration kernel times before and after every timed block
    kernel_ms: list = field(default_factory=list)
    # per-node times of the untimed certification passes (results file only)
    check_node_ms: list = field(default_factory=list)
    # per node: predicted class, status, dual bounds and primal margins
    certificates: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def fail(self, op, what):
        """Record that operation `op` (a node, a command, a job) failed."""
        self.failures.append(f"{op}: {what}")
        self.failed_ops.add(op)


# -- helpers ---------------------------------------------------------------


def tail(samples) -> tuple:
    """The tail of `samples` and its percentile.

    The highest sample with at least ten samples above it. Below 22
    samples no percentile has ten above it; the tail is then the 90th
    percentile, interpolated between the two samples around it, so that
    one slow sample never sets it alone.
    """
    n = len(samples)
    if n >= 22:
        return sorted(samples)[n - 11], 100.0 * (n - 10) / n
    if n == 1:
        return samples[0], 100.0
    return statistics.quantiles(samples, n=10, method="inclusive")[-1], 90.0


def _van_der_corput(i: int) -> float:
    x, denom = 0.0, 1.0
    while i:
        i, bit = divmod(i, 2)
        denom *= 2
        x += bit / denom
    return x


def node_order(graph, seed: int) -> list:
    """Seeded groups of nodes; every prefix of groups is a stratified sample.

    Work is |N1|*|N2|, which sets the cost of first-layer bounds. The pool
    is every node up to the WORK_QUANTILE_CAP work quantile, sorted by work
    with ties in seeded random order. The first group is the STRATUM
    (odd) nodes at the median; the second the STRATUM lightest and the
    STRATUM heaviest; each later group is a pair of work quantiles
    mirrored about the median, (u, 1 - u) for u = 1/4, 1/8, 3/8, 1/16, ...
    So any whole number of groups has an odd size and a median-work node
    as its median. The run's median and tail each rest on several nodes of
    like work rather than one, and the heaviest pool node is always
    certified, which makes peak RSS independent of how many nodes fit in a
    run.
    """
    A = scipy.sparse.csr_array(graph.dense_adjacency())
    S = ((A + scipy.sparse.eye_array(graph.num_nodes, format="csr")) != 0).astype(np.float64)
    n1 = np.asarray(S.sum(axis=1)).ravel()
    n2 = np.asarray(((S @ S) != 0).sum(axis=1)).ravel()
    work = n1 * n2
    pool = np.flatnonzero(work <= np.quantile(work, WORK_QUANTILE_CAP))
    rng = np.random.default_rng([seed, 7])
    pool = pool[np.lexsort((rng.random(pool.size), work[pool]))]
    last = pool.size - 1
    mid = last // 2
    half = STRATUM // 2
    first = [
        range(mid - half, mid + half + 1),
        [*range(STRATUM), *range(last - STRATUM + 1, last + 1)],
    ]
    groups = [[int(pool[i]) for i in g] for g in first]
    seen = {i for g in first for i in g}
    for j in range(1, pool.size):
        lo = round(_van_der_corput(j) / 2 * last)
        hi = last - lo
        if lo in seen or hi in seen or lo >= hi:
            continue
        seen.update((lo, hi))
        groups.append([int(pool[lo]), int(pool[hi])])
    return groups


def kernel_ms() -> float:
    """CPU ms of the calibration kernel; only the host's speed moves it."""
    t0 = CLOCK()
    acc = 0.0
    for i in range(CALIB_REPS):
        acc += float((_KERNEL_MATRIX @ _KERNEL_MATRIX)[0, 0])
        acc += float(np.maximum(_KERNEL_VECTOR - 0.5, 0.0).sum())
        acc += len({j: j * i for j in range(50)})
    return (CLOCK() - t0) * 1e3


class Stopwatch:
    """Wall and CPU time of a block, with the kernel timed around it."""

    def __init__(self, out: Outcome):
        self.out = out

    def __enter__(self):
        self.kernel_before = kernel_ms()
        self.wall, self.cpu = time.perf_counter(), CLOCK()
        return self

    def __exit__(self, exc_type, *_):
        self.wall, self.cpu = time.perf_counter() - self.wall, CLOCK() - self.cpu
        if exc_type is None:
            self.kernel_after = kernel_ms()
            self.out.kernel_ms.append([self.kernel_before, self.kernel_after])
        return False

    @property
    def scale(self) -> float:
        """Factor from CPU time of this block to time on the nominal host."""
        return CALIB_NOMINAL_MS * 2 / (self.kernel_before + self.kernel_after)


def record_step(out, sw: Stopwatch, units=1):
    """Add the step timed by `sw`, per unit of work in it."""
    out.step_ms.append(sw.cpu * sw.scale / units * 1e3)
    out.step_cpu_ms.append(sw.cpu / units * 1e3)
    out.step_wall_ms.append(sw.wall / units * 1e3)
    out.measured_s += sw.cpu * sw.scale
    out.measured_wall_s += sw.wall
    out.steps += units


def fits(durations, start, seconds) -> bool:
    """Start another whole command while one more of median length fits."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def load_model(paths, checkpoint):
    """What a user pays before the first node: checkpoint, dataset, Â."""
    params = gcn.load_checkpoint(checkpoint)
    bundle = cli.load_dataset(
        paths["edges"], paths["attributes"], paths["labels"], paths["split"],
        num_classes=params.dims[-1],
    )
    mp = graph_core.build_message_passing(bundle.graph)
    return params, bundle.graph, mp


def timed_setup(out: Outcome, make, min_s=SETUP_MIN_S, min_repeats=SETUP_MIN_REPEATS):
    """Time `make` at least `min_repeats` times and for at least `min_s`."""
    result = None
    burst = []
    with Stopwatch(out) as sw:
        while len(burst) < min_repeats or sum(burst) < min_s:
            result = None  # let the previous copy go before building the next
            t0 = CLOCK()
            result = make()
            burst.append(CLOCK() - t0)
    out.setup_cpu_s += burst
    out.setup_s += [t * sw.scale for t in burst]
    return result


def certify_node(graph, mp, params, budget, t, mode):
    """slice -> predict -> certify, as `gcn-cert certify` does per node."""
    sp = graph_core.slice_problem(graph, mp, t, params.layer_count)
    y = gcn.predict(gcn.forward_sliced(sp, params))
    return sp, dual_cert.certify(sp, params, budget, y, mode=mode)


def perturbed_logits(sp, params, pert):
    return gcn.grad.val(gcn.forward_sliced(sp, params, attrs_override=pert.perturbed_attrs).logits)


def admissible(pert, attrs, budget) -> bool:
    changed = pert.perturbed_attrs != attrs
    return (
        np.isin(pert.perturbed_attrs, (0.0, 1.0)).all()
        and int(changed.sum()) == len(pert.flips) <= budget.global_Q
        and int(changed.sum(axis=1).max(initial=0)) <= budget.local_q
    )


def check_certificate(sp, params, budget, cert, mode) -> list:
    """Violations of the certificate contract, re-derived independently."""
    y = cert.y_star
    K = params.dims[-1]
    others = [k for k in range(K) if k != y]
    dl = np.asarray(cert.dual_lower)
    if not np.isfinite(dl).all():
        return ["non-finite dual bound"]
    problems = []
    bnds = compute_bounds(sp, params, budget)
    if cert.status == dual_cert.ROBUST:
        if min(dl[k] for k in others) <= 0:
            problems.append("robust with a non-positive dual bound")
        for k in others:
            st = dual_cert.dual_state(sp, params, bnds, budget, dual_cert.class_vector(y, k, K))
            pert = primal_attack.construct(st, budget, sp.sliced_attrs)
            logits = perturbed_logits(sp, params, pert)
            if gcn.predict(logits) != y:
                problems.append(f"robust but the attack on class {k} flips the prediction")
            elif dl[k] > logits[y] - logits[k] + TOL:
                problems.append(f"dual bound above the attacked margin for class {k}")
        return problems
    pm = np.asarray(cert.primal_margins)
    if not np.isfinite(pm[others]).all():
        return ["non-finite primal margin"]
    for k in others:
        if dl[k] > pm[k] + TOL:
            problems.append(f"dual bound above primal margin for class {k}")
    if cert.status == dual_cert.NON_ROBUST:
        k = min(others, key=lambda j: pm[j])
        c = dual_cert.class_vector(y, k, K)
        if mode == "optimized":
            st = dual_cert.optimize_omega(sp, params, bnds, budget, c)
        else:
            st = dual_cert.dual_state(sp, params, bnds, budget, c)
        try:
            pert = primal_attack.construct(st, budget, sp.sliced_attrs)
        except ValueError as exc:
            return problems + [f"rebuilt flip set is inadmissible: {exc}"]
        if not admissible(pert, sp.sliced_attrs, budget):
            problems.append("rebuilt flip set is inadmissible")
        if gcn.predict(perturbed_logits(sp, params, pert)) == y:
            problems.append("rebuilt flip set does not flip the prediction")
    elif min(dl[k] for k in others) > 0 or min(pm[k] for k in others) < 0:
        problems.append("undecided status contradicts its bounds")
    return problems


def certify_all(out, graph, mp, params, budget, mode):
    """Certify and check every node outside the timed region."""
    records = []
    for t in range(graph.num_nodes):
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            sp, cert = certify_node(graph, mp, params, budget, t, mode)
        except Exception as exc:
            out.fail(f"node {t}", f"{type(exc).__name__}: {exc}")
            continue
        out.check_node_ms.append((time.perf_counter() - t0) * 1e3)
        records.append((t, sp, cert))
    check_all(out, records, params, budget, mode)
    return records


def check_all(out, records, params, budget, mode):
    every = max(1, len(records) // SETUP_BURSTS)
    for i, (t, sp, cert) in enumerate(records):
        if out.remake is not None and i % every == 0 and sum(out.setup_cpu_s) < SETUP_TOTAL_S:
            timed_setup(out, out.remake, SETUP_BURST_S, 1)
        try:
            problems = check_certificate(sp, params, budget, cert, mode)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            out.fail(f"node {t}", problem)
        out.certificates[str(t)] = {
            "y": int(cert.y_star),
            "status": cert.status,
            "dual": [float(v) for v in cert.dual_lower],
            "primal": None if cert.primal_margins is None else [float(v) for v in cert.primal_margins],
        }


# -- workloads -------------------------------------------------------------


def run_certify(w, ctx, out: Outcome):
    params, graph, mp = ctx.setup(out, lambda: load_model(ctx.paths, ctx.checkpoint))
    budget = Budget(robust_train.default_local_budget(graph.num_features), w.Q)
    records = []
    deadline = time.perf_counter() + ctx.seconds
    for group in node_order(graph, ctx.seed):
        if records and time.perf_counter() >= deadline:
            break
        for t in group:
            out.attempted += 1
            ctx.step(len(records))
            try:
                with Stopwatch(out) as sw:
                    sp, cert = ctx.traced(certify_node, graph, mp, params, budget, t, w.mode)
            except Exception as exc:  # counted, reported, and the run goes on
                out.fail(f"node {t}", f"{type(exc).__name__}: {exc}")
                continue
            record_step(out, sw)
            records.append((t, sp, cert))
    check_all(out, records, params, budget, w.mode)


def run_curve(w, ctx, out: Outcome):
    params, graph, mp = ctx.setup(out, lambda: load_model(ctx.paths, ctx.checkpoint))
    q = robust_train.default_local_budget(graph.num_features)
    csv_path = os.path.join(ctx.scratch, "curve.csv")
    argv = ["curve", "--checkpoint", ctx.checkpoint]
    for key in ("edges", "attributes", "labels", "split"):
        argv += [f"--{key}", ctx.paths[key]]
    argv += ["--q", str(q), "--Q-max", str(w.Q), "--workers", "1", "--output", csv_path]
    rows = []
    start = time.perf_counter()
    while fits(out.step_wall_ms, start, ctx.seconds):
        out.attempted += 1
        ctx.step(len(out.step_ms))
        if os.path.exists(csv_path):
            os.remove(csv_path)
        try:
            with Stopwatch(out) as sw, contextlib.redirect_stdout(io.StringIO()):
                code = ctx.traced(cli.main, argv)
        except Exception as exc:
            out.fail("curve", f"{type(exc).__name__}: {exc}")
            break
        if code != 0:
            out.fail("curve", f"exited with {code}")
            break
        record_step(out, sw)
        with open(csv_path, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    N = graph.num_nodes
    fractions = ("fraction_certified_robust", "fraction_certified_nonrobust", "fraction_undecided")
    for row in rows:
        total = sum(float(row[f]) for f in fractions)
        if not (math.isfinite(total) and abs(total - 1.0) <= 1e-12):
            out.fail("curve", f"fractions sum to {total} at Q={row['Q']} split={row['split']}")
    if rows and len(rows) != 3 * (w.Q + 1):
        out.fail("curve", f"wrote {len(rows)} rows, expected {3 * (w.Q + 1)}")
    all_rows = [r for r in rows if r["split"] == "all"]
    out.extra["decided_frac"] = (
        float(np.mean([1.0 - float(r["fraction_undecided"]) for r in all_rows])) if all_rows else 0.0
    )

    # per-node certificates at Q_max: checked, and the curve row must match
    budget = Budget(q, w.Q)
    records = certify_all(out, graph, mp, params, budget, w.mode)
    last = [r for r in all_rows if int(r["Q"]) == w.Q]
    if last and len(records) == N:
        rob = sum(c.status == dual_cert.ROBUST for _, _, c in records)
        non = sum(c.status == dual_cert.NON_ROBUST for _, _, c in records)
        if float(last[0]["fraction_certified_robust"]) != rob / N or float(
            last[0]["fraction_certified_nonrobust"]
        ) != non / N:
            out.fail("curve", f"row at Q={w.Q} disagrees with per-node certificates")


def run_train(w, ctx, out: Outcome):
    shape = fixtures.SHAPES[w.shape]
    E1, E2 = w.epochs

    def config(job):
        return robust_train.TrainConfig(
            mode="RH_U",
            budget=Budget(robust_train.default_local_budget(shape.num_features), w.Q),
            hidden_dims=(shape.hidden,),
            learning_rate=0.01,
            max_epochs=E1,
            phase2_epochs=E2,
            patience=E1 + E2,
            seed=ctx.seed * 1000 + job,
        )

    def make():
        graph = cli.load_dataset(
            ctx.paths["edges"], ctx.paths["attributes"], ctx.paths["labels"], ctx.paths["split"],
            num_classes=shape.num_classes,
        ).graph
        return robust_train.Trainer(graph, config(0))

    trainer = ctx.setup(out, make)
    graph = trainer.graph
    job = 0
    params = None
    jobs_s = []
    start = time.perf_counter()
    while fits(jobs_s, start, ctx.seconds):
        if job:
            trainer = robust_train.Trainer(graph, config(job))
        out.attempted += 1
        ctx.step(job)
        try:
            with Stopwatch(out) as sw:
                params, log = ctx.traced(trainer.train)
        except Exception as exc:
            out.fail(f"training job {job}", f"{type(exc).__name__}: {exc}")
            break
        jobs_s.append(sw.wall)
        job_epochs = log[-1]["epoch"] if log else 0
        if job_epochs:
            record_step(out, sw, job_epochs)
        else:
            out.fail(f"training job {job}", "ran no epoch")
        if not all(np.isfinite(gcn.grad.val(p)).all() for p in params.weights + params.biases):
            out.fail(f"training job {job}", "non-finite parameters")
        if not all(math.isfinite(row["loss"]) for row in log):
            out.fail(f"training job {job}", "non-finite loss")
        job += 1
    if params is None:
        return

    # the paper's training result: robust fraction of the last model
    budget = config(0).budget
    mp = graph_core.build_message_passing(graph)
    records = certify_all(out, graph, mp, params, budget, "default")
    out.extra["train_robust_frac"] = (
        sum(c.status == dual_cert.ROBUST for _, _, c in records) / len(records) if records else 0.0
    )


RUNNERS = {"certify": run_certify, "curve": run_curve, "train": run_train}


# -- context, reference and report -----------------------------------------


class Context:
    def __init__(self, args, tracer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.checkpoint = args.checkpoint
        self.scratch = args.scratch
        self.paths = {k: os.path.join(args.data, f"{k}.tsv") for k in ("edges", "attributes", "labels", "split")}
        self.tracer = tracer

    def traced(self, fn, *a, **kw):
        if self.tracer is None:
            return fn(*a, **kw)
        with self.tracer.on():
            return fn(*a, **kw)

    def setup(self, out, make):
        """Timed set-up; an untraced run times it again between its checks."""
        if self.tracer is None:
            out.remake = make
        return timed_setup(out, lambda: self.traced(make))

    def step(self, index):
        if self.tracer is not None:
            self.tracer.step = index


def check_reference(w, seed, out: Outcome) -> bool:
    """Certificates that got weaker than their recording in reference.json.

    A decided status (robust or non_robust) must stay; undecided may
    become decided. The predicted class must stay. No dual lower bound may
    fall, and no primal margin may rise, by more than REF_TOL relative.
    Returns whether a recording for this workload and seed was found.
    """
    path = os.path.join(BENCH, "reference.json")
    if not os.path.exists(path):
        return False
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh).get(w.name)
    if ref is None or str(seed) not in ref["seeds"]:
        return False
    if ref["checkpoint_sha256"] != fixtures.checkpoint_digest(fixtures.SHAPES[w.shape]):
        for node in out.certificates:
            out.fail(f"node {node}", f"reference.json was recorded with another {w.shape} checkpoint")
        return True

    def slack(v):
        return REF_TOL * max(1.0, abs(v))

    recorded = ref["seeds"][str(seed)]
    for node, now in out.certificates.items():
        before = recorded.get(node)
        if before is None:
            continue
        if before["y"] != now["y"]:
            out.fail(f"node {node}", f"predicted class {before['y']} in the reference, {now['y']} now")
            continue
        if before["status"] != now["status"] and before["status"] != dual_cert.UNDECIDED:
            out.fail(f"node {node}", f"{before['status']} in the reference, {now['status']} now")
        for k, (b, a) in enumerate(zip(before["dual"], now["dual"])):
            if a < b - slack(b):
                out.fail(f"node {node}", f"dual bound for class {k} fell from {b:.10g} to {a:.10g}")
        if before["primal"] is not None and now["primal"] is not None:
            for k, (b, a) in enumerate(zip(before["primal"], now["primal"])):
                if a > b + slack(b):
                    out.fail(f"node {node}", f"primal margin for class {k} rose from {b:.10g} to {a:.10g}")
    return True


def environment() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def end_to_end(out: Outcome) -> dict:
    n = len(out.step_ms)
    return {
        "setup_s": (min(out.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "step_ms_p50": (statistics.median(out.step_ms) if n else 0.0, "ms"),
        "step_ms_tail": (tail(out.step_ms)[0] if n else 0.0, "ms"),
        "steps_per_s": (out.steps / out.measured_s if n else 0.0, "1/s"),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--scratch", required=True)
    p.add_argument("--results", required=True)
    args = p.parse_args(argv)
    w = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    out = Outcome()
    RUNNERS[w.kind](w, Context(args, tracer), out)
    if tracer is not None:
        tracer.uninstall()
    referenced = check_reference(w, args.seed, out)

    if args.trace:
        metrics = tracer.metrics(out.steps)
        metrics["trace.step_ms_p50"] = (end_to_end(out)["step_ms_p50"][0], "ms")
        metrics["trace.steps"] = (float(out.steps), "count")
        decided = [c["status"] != dual_cert.UNDECIDED for c in out.certificates.values()]
        metrics["dual_cert.undecided_frac"] = (1.0 - float(np.mean(decided)) if decided else 0.0, "ratio")
        metrics["dual_cert.curve_decided_frac"] = (out.extra.get("decided_frac", 0.0), "ratio")
        metrics["robust_train.robust_frac"] = (out.extra.get("train_robust_frac", 0.0), "ratio")
        tracer.write(os.path.join(os.path.dirname(args.results), f"spans-{w.name}-{args.seed}.json"))
    else:
        metrics = end_to_end(out)
    n = len(out.step_ms)

    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": out.attempted,
        "failed": len(out.failed_ops),
        "failed_frac": len(out.failed_ops) / max(out.attempted, 1),
        "failures": out.failures,
        "step_samples": n,
        "tail_percentile": tail(out.step_ms)[1] if n else 0.0,
        "setup_s_samples": out.setup_s,
        "setup_cpu_s_samples": out.setup_cpu_s,
        "step_ms_samples": out.step_ms,
        "step_cpu_ms_samples": out.step_cpu_ms,
        "step_wall_ms_samples": out.step_wall_ms,
        "kernel_ms_samples": out.kernel_ms,
        "steps": out.steps,
        "measured_s": out.measured_s,
        "measured_wall_s": out.measured_wall_s,
        "check_node_ms_samples": out.check_node_ms,
        "extra": out.extra,
        "reference_checked": referenced,
        "checkpoint_sha256": fixtures.checkpoint_digest(fixtures.SHAPES[w.shape]) if args.checkpoint else None,
        "certificates": out.certificates,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(args.results, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {w.name} seed={args.seed} trace={args.trace}: {w.why}", file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"  {k:34s} {v:14.6g} {u}", file=sys.stderr)
    print(
        f"  attempted={out.attempted} failed={len(out.failed_ops)} step_samples={n} "
        f"tail=p{tail(out.step_ms)[1] if n else 0.0:.1f} reference_checked={referenced}",
        file=sys.stderr,
    )
    for f in out.failures[:20]:
        print(f"  FAILED {f}", file=sys.stderr)
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
