"""Span tracing of pgad's public functions, installed from outside the package.

`Tracer.install()` replaces each function in `TRACED` with a wrapper that
records one span per call: name, start, end and the index of the enclosing
traced call (its parent).  A function that another pgad module imports by
name (for example `trainer.build_batch`) is replaced in every pgad module
that holds it, so the wrapper sits where each caller looks the name up.
Methods are replaced on their class.

Spans are kept in memory and written as one `.npz` file per process.  Pool
workers inherit the wrappers (fork) or install them in the pool initializer
(other start methods); a worker writes its spans each time its outermost
traced call, `harness.run_one`, returns.  `collect()` reads every file and
turns the spans into per-function call counts and self times.

Hooks attached to a few functions also count work from the values those
functions return (batch rows, clipped steps, stale prototypes) and check
every batch plan; a hook's own time is recorded as a `bench.*` span so it
is excluded from the caller's self time.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np

from checks import check_plan

# Layer (pgad module) -> public functions and methods timed in that layer.
TRACED = {
    "synthdata": ("generate_dataset", "apply_missingness", "stratified_kfold",
                  "import_dataset_csv"),
    "ams": ("build_batch", "sampling_ratio", "theta_gradient", "export_ams_trace_csv"),
    "nets": ("Mlp.forward", "Mlp.backward", "TeacherNet.get_params",
             "TeacherNet.set_params", "StudentNet.get_params", "StudentNet.set_params",
             "student_forward", "save_checkpoint", "load_checkpoint"),
    "losses": ("ce_loss", "kd_loss", "pair_loss", "proto_loss", "similarity_matrix",
               "total_loss"),
    "prototypes": ("compute_batch_prototypes", "update_running_prototypes",
                   "with_fallback", "nearest_prototypes_batch", "export_prototypes_csv"),
    "trainer": ("fit", "train_step", "step_gradients", "adam_update", "clip_global_norm",
                "cosine_lr", "global_prototypes", "export_trace_csv"),
    "evaluation": ("classification_metrics", "auc", "confusion", "paired_ttest",
                   "export_metrics_csv", "export_comparisons_csv"),
    "harness": ("run_scenario", "run_one", "compare_arms", "export_embeddings",
                "load_summary_from_metrics_csv"),
    "cli": ("main",),
}

# The artifact writers whose time sums to harness.artifact_write_s.
ARTIFACT_WRITERS = ("trainer.export_trace_csv", "ams.export_ams_trace_csv",
                    "prototypes.export_prototypes_csv", "nets.save_checkpoint",
                    "evaluation.export_metrics_csv")

COUNTERS = ("ams.batch_rows", "ams.genuine_rows", "ams.pseudo_rows", "ams.shortfall_rows",
            "trainer.clipped_steps", "prototypes.stale_classes")

FUNCTIONS = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
HOOK_SPAN = "bench.hook"
SPAN_NAMES = FUNCTIONS + [HOOK_SPAN]  # a span's name is its index in this list
HOOK_ID = len(FUNCTIONS)
WORKER_ROOT = "harness.run_one"

_active = None  # the installed Tracer of this process, found by pool initializers


def per_layer_metric_names() -> list:
    """Every name the traced run reports, in a fixed order."""
    names = []
    for name in FUNCTIONS:
        names += [f"{name}.calls", f"{name}.self_s"]
    names += [f"{mod}.self_s" for mod in TRACED]
    names += ["harness.worker_busy_s", "harness.pool_idle_s", "harness.artifact_write_s",
              "harness.artifact_bytes"]
    names += list(COUNTERS) + ["trace.overhead_s"]
    return names


class Tracer:
    def __init__(self, out_dir: str, worker: bool = False):
        self.out_dir = out_dir
        self.worker = worker
        self._restore = []
        self._flushes = 0
        self._last_pools = None
        self._reset()

    def _reset(self) -> None:
        self.name_ids, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = []
        self.counters = Counter()
        self.failures = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        global _active
        import pgad.harness

        os.makedirs(self.out_dir, exist_ok=True)
        hooks = {"ams.build_batch": self._hook_build_batch,
                 "trainer.clip_global_norm": self._hook_clip,
                 "prototypes.compute_batch_prototypes": self._hook_protos}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pgad" or name.startswith("pgad."))]
        for name_id, name in enumerate(FUNCTIONS):
            mod_name, attr = name.split(".", 1)
            module = sys.modules[f"pgad.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name_id, original, hooks.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name_id, original, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        pool = functools.partial(ProcessPoolExecutor, initializer=_init_worker,
                                 initargs=(self.out_dir,))
        self._patch(pgad.harness, "ProcessPoolExecutor", pool)
        _active = self

    def uninstall(self) -> None:
        global _active
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []
        _active = None

    def _patch(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name_id: int, fn, hook):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            idx = len(self.name_ids)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments, out)
                self._record(HOOK_ID, t1, perf_counter())
            if not stack and self.worker:
                self.flush()
            return out

        return wrapper

    def _record(self, name_id: int, t0: float, t1: float) -> None:
        self.name_ids.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(t0)
        self.ends.append(t1)

    # ------------------------------------------------------------- hooks
    def _hook_build_batch(self, args, plan) -> None:
        batch_size = args["batch_size"]
        self.counters["ams.batch_rows"] += batch_size
        self.counters["ams.genuine_rows"] += len(plan.genuine)
        self.counters["ams.pseudo_rows"] += len(plan.pseudo)
        self.counters["ams.shortfall_rows"] += plan.shortfall
        pools = (args["paired_pool"], args["unpaired_pool"])
        if self._last_pools is None or any(a is not b for a, b in zip(pools, self._last_pools[0])):
            labels = ({s.id: s.label for s in pools[0]}, {s.id: s.label for s in pools[1]})
            self._last_pools = (pools, labels)
        errors = check_plan(plan, *self._last_pools[1], batch_size)
        if errors and len(self.failures) < 20:
            self.failures.append(f"build_batch(seed={args['seed']}): {errors[0]}")

    def _hook_clip(self, args, out) -> None:
        self.counters["trainer.clipped_steps"] += int(out is not args["grads"])

    def _hook_protos(self, args, out) -> None:
        self.counters["prototypes.stale_classes"] += int(out.stale.sum())

    # ------------------------------------------------------------ output
    def flush(self) -> None:
        """Write this process's spans and counters to one file and clear them."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}-{self._flushes}.npz")
        self._flushes += 1
        np.savez(
            path,
            names=np.array(SPAN_NAMES),
            name_ids=np.array(self.name_ids, dtype=np.int32),
            parents=np.array(self.parents, dtype=np.int64),
            starts=np.array(self.starts),
            ends=np.array(self.ends),
            worker=np.array(self.worker),
            extra=np.array(json.dumps({"counters": self.counters, "failures": self.failures})),
        )
        self._reset()


def _init_worker(out_dir: str) -> None:
    """Pool initializer: drop spans a forked worker inherited, or install tracing."""
    if _active is not None:
        _active._reset()
        _active.worker = True
        return
    import pgad.harness  # noqa: F401  (a spawned worker starts without pgad loaded)

    Tracer(out_dir, worker=True).install()


def collect(out_dir: str, jobs: int) -> tuple[dict, list, float | None]:
    """Per-layer metrics from every span file in out_dir, hook failures, and
    the share of trainer.fit time spent in ams.build_batch (None without fits)."""
    calls = Counter()
    self_s = Counter()
    total_s = Counter()
    counters = Counter()
    failures = []
    busy = 0.0
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.npz"))):
        with np.load(path) as f:
            file_names = [str(n) for n in f["names"]]
            name_ids, parents = f["name_ids"], f["parents"]
            dur = f["ends"] - f["starts"]
            worker = bool(f["worker"])
            extra = json.loads(str(f["extra"]))
        counters.update(extra["counters"])
        failures += extra["failures"]
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        for i, name in enumerate(file_names):
            sel = name_ids == i
            if not sel.any():
                continue
            calls[name] += int(sel.sum())
            self_s[name] += float(own[sel].sum())
            total_s[name] += float(dur[sel].sum())
            if name == WORKER_ROOT and worker:
                busy += float(dur[sel].sum())

    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    for mod in TRACED:
        value = sum(v for k, v in self_s.items() if k.startswith(mod + "."))
        metrics[f"{mod}.self_s"] = (value, "s")
    # With a pool, run_scenario's self time in the parent is the pool's wall time.
    idle = jobs * self_s["harness.run_scenario"] - busy if busy > 0.0 else 0.0
    metrics["harness.worker_busy_s"] = (busy, "s")
    metrics["harness.pool_idle_s"] = (idle, "s")
    metrics["harness.artifact_write_s"] = (sum(total_s[w] for w in ARTIFACT_WRITERS), "s")
    for name in COUNTERS:
        metrics[name] = (counters[name], "count")
    fit_s = total_s["trainer.fit"]
    share = total_s["ams.build_batch"] / fit_s if fit_s else None
    return metrics, failures, share
