"""Outside-in tracer: spans around calls into the library's public functions.

The tracer rebinds module attributes at their call sites (every
``gcn_cert`` module namespace that holds the function, plus class
attributes for methods), so the library itself is unchanged. It is
installed only for ``--trace 1`` runs; untraced runs never import it.

Spans are kept in memory as (name, start, end, parent, step) rows and
written out when the run ends. Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

# (layer, module, attribute) of every traced function; a dotted attribute
# names a method on a class in that module
TRACED = [
    ("cli", "cli", "load_dataset"),
    ("gcn", "gcn", "load_checkpoint"),
    ("graph_core", "graph_core", "build_message_passing"),
    ("graph_core", "graph_core", "slice_problem"),
    ("bounds", "bounds", "compute_bounds"),
    ("bounds", "bounds", "first_layer_bounds"),
    ("dual_cert", "dual_cert", "certify"),
    ("dual_cert", "dual_cert", "dual_state"),
    ("dual_cert", "dual_cert", "optimize_omega"),
    ("dual_cert", "dual_cert", "backward_phi"),
    ("dual_cert", "dual_cert", "closed_form_eta_rho"),
    ("dual_cert", "dual_cert", "evaluate_dual"),
    ("dual_cert", "dual_cert", "dual_value_differentiable"),
    ("primal_attack", "primal_attack", "construct_and_evaluate"),
    ("gcn", "gcn", "forward_sliced"),
    ("gcn", "gcn", "forward_full"),
    ("grad", "grad", "backward"),
    ("grad", "grad", "gradient"),
    ("robust_train", "robust_train", "Trainer.metrics_row"),
]

LAYERS = ["cli", "graph_core", "bounds", "dual_cert", "primal_attack", "gcn", "grad", "robust_train"]


class Tracer:
    """Records spans while installed; `uninstall` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.spans: list[list] = []  # [name_idx, start, end, parent, step, info]
        self.errors = {layer: 0 for layer in LAYERS}
        self.var_count = 0
        self.step = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------

    def install(self):
        import gcn_cert

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "gcn_cert" or name.startswith("gcn_cert.")
        }
        for layer, modname, attr in TRACED:
            owner = sys.modules[f"gcn_cert.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, meth, self._wrap(f"{modname}.{attr}", layer, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(f"{modname}.{attr}", layer, original)
            # every namespace that imported the function by name is a call site
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
        self._count_vars(gcn_cert.grad.Var)
        return self

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def _rebind(self, obj, key, value):
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _count_vars(self, var_cls):
        original = var_cls.__init__
        tracer = self

        def __init__(self, *args, **kwargs):
            if tracer.active:
                tracer.var_count += 1
            original(self, *args, **kwargs)

        self._rebind(var_cls, "__init__", __init__)

    def _wrap(self, name, layer, fn):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of[name] = layer
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            row = [idx, time.perf_counter(), 0.0, parent, self.step, None]
            self.spans.append(row)
            self._stack.append(len(self.spans) - 1)
            vars_before = self.var_count
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
            if info_of is not None:
                row[5] = info_of(args, kwargs, out, self.var_count - vars_before)
            return out

        return wrapper

    @contextlib.contextmanager
    def on(self):
        """Record spans only inside this block."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    # -- results -------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "step", "info"],
                    "spans": self.spans,
                },
                fh,
            )

    def metrics(self, steps: int) -> dict:
        """Per-layer metrics; `steps` is the number of steps (units of user work) traced."""
        spans = self.spans
        dur = np.array([s[2] - s[1] for s in spans]) if spans else np.zeros(0)
        child = np.zeros(len(spans))
        for s, d in zip(spans, dur):
            if s[3] >= 0:
                child[s[3]] += d
        self_t = dur - child
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            by_name.setdefault(self.names[s[0]], []).append(i)

        def incl(name):
            ix = by_name.get(name, [])
            return dur[ix] * 1e3 if ix else np.zeros(0)

        def mean_ms(name):
            d = incl(name)
            return float(d.mean()) if d.size else 0.0

        def calls(name):
            """Calls per step inside the measured region."""
            return sum(spans[i][4] >= 0 for i in by_name.get(name, [])) / max(steps, 1)

        def infos(name):
            return [spans[i][5] for i in by_name.get(name, []) if spans[i][5] is not None]

        m = {}
        m["cli.load_dataset_ms"] = (mean_ms("cli.load_dataset"), "ms")
        m["gcn.load_checkpoint_ms"] = (mean_ms("gcn.load_checkpoint"), "ms")
        m["graph_core.build_mp_ms"] = (mean_ms("graph_core.build_message_passing"), "ms")
        sl = incl("graph_core.slice_problem")
        m["graph_core.slice_ms"] = (float(np.median(sl)) if sl.size else 0.0, "ms")
        m["graph_core.slice_calls"] = (calls("graph_core.slice_problem"), "calls/step")
        hops = infos("graph_core.slice_problem")
        m["graph_core.hop_nodes_p50"] = (float(np.median(hops)) if hops else 0.0, "nodes")

        m["bounds.compute_bounds_ms"] = (mean_ms("bounds.compute_bounds"), "ms")
        m["bounds.first_layer_ms"] = (mean_ms("bounds.first_layer_bounds"), "ms")
        m["bounds.first_layer_calls"] = (calls("bounds.first_layer_bounds"), "calls/step")
        cand = infos("bounds.first_layer_bounds")
        m["bounds.cand_mb_p50"] = (float(np.median(cand)) if cand else 0.0, "MB")
        m["bounds.cand_mb_max"] = (float(np.max(cand)) if cand else 0.0, "MB")
        cross = infos("bounds.compute_bounds")
        m["bounds.crossing_frac"] = (float(np.mean(cross)) if cross else 0.0, "ratio")

        for short, full in [
            ("certify", "dual_cert.certify"),
            ("dual_state", "dual_cert.dual_state"),
            ("optimize_omega", "dual_cert.optimize_omega"),
            ("backward_phi", "dual_cert.backward_phi"),
            ("closed_form", "dual_cert.closed_form_eta_rho"),
            ("evaluate_dual", "dual_cert.evaluate_dual"),
            ("dual_value_diff", "dual_cert.dual_value_differentiable"),
        ]:
            m[f"dual_cert.{short}_ms"] = (mean_ms(full), "ms")
        for short, full in [
            ("certify", "dual_cert.certify"),
            ("dual_state", "dual_cert.dual_state"),
            ("optimize_omega", "dual_cert.optimize_omega"),
        ]:
            m[f"dual_cert.{short}_calls"] = (calls(full), "calls/step")
        pga_steps, tried, accepted = self._pga_stats(by_name)
        m["dual_cert.pga_steps"] = (pga_steps, "steps/call")
        m["dual_cert.pga_accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")

        margins = infos("primal_attack.construct_and_evaluate")
        m["primal_attack.calls"] = (calls("primal_attack.construct_and_evaluate"), "calls/step")
        m["primal_attack.ms"] = (mean_ms("primal_attack.construct_and_evaluate"), "ms")
        m["primal_attack.flip_ratio"] = (
            float(np.mean([v < 0 for v in margins])) if margins else 0.0,
            "ratio",
        )

        m["gcn.forward_sliced_ms"] = (mean_ms("gcn.forward_sliced"), "ms")
        m["gcn.forward_full_ms"] = (mean_ms("gcn.forward_full"), "ms")

        m["grad.backward_ms"] = (mean_ms("grad.backward"), "ms")
        m["grad.backward_calls"] = (calls("grad.backward"), "calls/step")
        per_batch = infos("grad.gradient")
        m["grad.vars_per_batch"] = (float(np.mean(per_batch)) if per_batch else 0.0, "vars")
        m["grad.vars_per_step"] = (self.var_count / max(steps, 1), "vars/step")

        m["robust_train.loss_grad_ms"] = (mean_ms("grad.gradient"), "ms")
        m["robust_train.batches"] = (calls("grad.gradient"), "batches/step")
        m["robust_train.metrics_row_ms"] = (mean_ms("robust_train.Trainer.metrics_row"), "ms")

        # shares of the measured region (step >= 0; set-up spans excluded):
        # self time whose innermost traced frame is in each layer, and the
        # inclusive time of the calls the workloads are predicted to spend in
        measured = [i for i, s in enumerate(spans) if s[4] >= 0]
        wall = sum(dur[i] for i in measured if spans[i][3] < 0)
        for layer in LAYERS:
            own = sum(self_t[i] for i in measured if self.layer_of[self.names[spans[i][0]]] == layer)
            m[f"{layer}.self_share"] = (float(own / wall) if wall > 0 else 0.0, "ratio")
            m[f"{layer}.errors"] = (float(self.errors[layer]), "count")
        for name, share_key in [
            ("bounds.first_layer_bounds", "bounds.first_layer_share"),
            ("dual_cert.optimize_omega", "dual_cert.optimize_omega_share"),
            ("grad.gradient", "robust_train.loss_grad_share"),
            ("robust_train.Trainer.metrics_row", "robust_train.metrics_row_share"),
        ]:
            total = sum(dur[i] for i in by_name.get(name, []) if spans[i][4] >= 0)
            m[share_key] = (float(total / wall) if wall > 0 else 0.0, "ratio")
        return m

    def _pga_stats(self, by_name):
        """PGA steps per optimize_omega call, and accepted over tried candidates.

        Inside one optimize_omega span the first dual_state is the start
        point and every later one a candidate; a candidate is accepted when
        its value beats the best so far, as optimize_omega decides.
        """
        opt = by_name.get("dual_cert.optimize_omega", [])
        if not opt:
            return 0.0, 0, 0
        children: dict[int, list[int]] = {i: [] for i in opt}
        steps = {i: 0 for i in opt}
        for i in by_name.get("dual_cert.dual_state", []):
            p = self.spans[i][3]
            if p in children:
                children[p].append(i)
        for i in by_name.get("dual_cert.dual_value_differentiable", []):
            p = self.spans[i][3]
            if p in steps:
                steps[p] += 1
        tried = accepted = 0
        for kids in children.values():
            values = [self.spans[i][5] for i in kids]
            if not values:
                continue
            best = values[0]
            for v in values[1:]:
                tried += 1
                if v > best + 1e-15:
                    accepted += 1
                    best = v
        return float(np.mean(list(steps.values()))), tried, accepted


def _cand_mb(args, kwargs, out, nvars):
    """M*n*D*h*8 bytes of the candidate tensor first_layer_bounds builds."""
    from gcn_cert import grad

    sp, params = args[0], args[1]
    M = sp.sliced_mp[0].shape[0]
    n, D = sp.sliced_attrs.shape
    h = grad.val(params.weights[0]).shape[1]
    return M * n * D * h * 8 / 1e6


def _crossing_frac(args, kwargs, out, nvars):
    from gcn_cert.bounds import CROSSING

    tags = [out.partition[l] for l in out.layers()]
    total = sum(t.size for t in tags)
    return sum(int((t == CROSSING).sum()) for t in tags) / total if total else 0.0


_INFO = {
    "graph_core.slice_problem": lambda a, k, out, n: int(len(out.hop_sets[-1])),
    "bounds.first_layer_bounds": _cand_mb,
    "bounds.compute_bounds": _crossing_frac,
    "dual_cert.dual_state": lambda a, k, out, n: float(out.value),
    "primal_attack.construct_and_evaluate": lambda a, k, out, n: float(out),
    "grad.gradient": lambda a, k, out, n: n,
}
