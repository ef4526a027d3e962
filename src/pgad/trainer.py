"""Training loop: loss routing, joint Adam updates, schedules, traces.

One step does, in order: batch composition, one teacher and one student
forward, prototype refresh from the teacher's fused features of the batch's
genuine pairs, loss evaluation, one joint Adam update over [teacher params |
student params | theta].

Runs that train together step in lockstep along a leading run axis.
fit_runs trains R runs (a harness cell's folds) whose step counts are
equal as the rows of one (R, P) joint buffer, one train_step per step for
all of them: build_batch, the prototype updates, clip_global_norm,
theta_gradient, total_loss and the step traces stay per run, while the
net chains, the loss kernels and Adam run once over the run axis.  The
chains stack the runs whose batches have the same row count (all of them
unless a plan has a shortfall) and the loss terms that split a batch at
its genuine count n_g stack the runs sharing n_g; nothing is padded or
masked, so each run gets the bits it gets alone.  fit is fit_runs of one
run, which has no run axis.  A failure that belongs to one run carries its
index as `exc.run`, which the harness turns into its fold.

The networks' forward and backward chains, and the layout of their
gradients, live in nets (teacher_features, teacher_forward,
teacher_backward, student_forward, student_backward); this module only
calls them.  The chains write into the gradient buffer that
bind_joint_params lays out like the parameter buffer, so step_gradients
returns that buffer with theta's column filled in and concatenates nothing;
adam_update works in place in the scratch arrays that AdamState.zeros puts
on its state.  Batch and subset means are np.add.reduce(x) / n and the
global norm is sqrt(g @ g): those are the expressions ndarray.mean and
np.linalg.norm evaluate in NumPy 2.x, so every value keeps its bits
without the wrappers' per-call cost.

fit_runs prepares everything a step reads once, before the first step:
each run's training set as the pool pair from ams.prepare_pools (or takes
that pair ready-made), whose id-sorted columns a step (and the epoch-level
prototypes of the "all" strategy) gathers its rows from by index; one
parameter buffer, a row [teacher | student | theta] per run, that the nets
are bound to (nets.bind_joint_params), which Adam updates in place; and the
mask that keeps weight decay off theta.  A run's theta is its row's last
entry and is kept nowhere else: each step's trace carries the sampling
ratio at the updated theta, and the run's next batch is drawn with it.
Gathering in id order makes a fit independent of the order of its input
samples.  Modality B is gathered from the paired pool only.  Cross-entropy
is computed once per logit matrix, per row, and the theta surrogate's
subset losses are means over slices of those rows.

Loss routing per batch:
  l_tea   cross-entropy on teacher logits, genuine + pseudo rows
  l_stu   cross-entropy on student logits, all modality-A rows
  l_kl    distillation on genuine rows only (teacher side constant)
  l_pair  anchors = student features of genuine rows, candidates = teacher
          modality-B embeddings of every batch row (genuine and donors),
          positives on the diagonal
  l_proto pseudo-recipient student features vs current prototypes

Terms with zero weight are skipped entirely and reported as 0.0, so an
all-ablations-off run is computationally identical to plain CE+KD.  The
theta update uses the expected-loss surrogate from the ams module,
splitting the weighted objective into its genuine-subset and
pseudo-subset parts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .ams import (
    AMS_MODES,
    BatchPlan,
    SamplePool,
    build_batch,
    prepare_pools,
    prepared,
    sampling_ratio,
    theta_gradient,
)
from .errors import (
    ConfigError,
    EmptyBatchError,
    NumericHealthError,
    ProtocolError,
    RangeError,
    ShapeError,
    UsageError,
)
from .losses import (
    KD_TEMPERATURE_DEFAULT,
    SIM_TEMPERATURE_DEFAULT,
    LossReport,
    LossWeights,
    ce_loss,
    kd_loss,
    pair_loss,
    proto_loss,
    similarity_matrix,
    total_loss,
)
from .nets import (
    StudentNet,
    TeacherNet,
    bind_joint_params,
    joint_buffers,
    stack_runs,
    student_backward,
    student_forward,
    teacher_backward,
    teacher_features,
    teacher_forward,
)
from .prototypes import (
    PROTO_MOMENTUM_DEFAULT,
    PrototypeSet,
    compute_batch_prototypes,
    empty_prototypes,
    update_running_prototypes,
    with_fallback,
)
from .seeding import derive_seed
from .synthdata import Dataset, Sample

PROTO_STRATEGIES = ("none", "all", "paired")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
GRAD_CLIP_DEFAULT = 5.0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-4
    weight_decay: float = 5e-5
    kd_temperature: float = KD_TEMPERATURE_DEFAULT
    sim_temperature: float = SIM_TEMPERATURE_DEFAULT
    loss_weights: LossWeights = field(default_factory=LossWeights)
    ams_mode: str = "dynamic"
    fixed_ratio: float = 0.5
    proto_strategy: str = "paired"
    proto_momentum: float = PROTO_MOMENTUM_DEFAULT
    proto_assignment: str = "nearest"
    grad_clip: float = GRAD_CLIP_DEFAULT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        for name in ("learning_rate", "kd_temperature", "sim_temperature", "grad_clip"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ConfigError(
                f"weight_decay must be nonnegative and finite, got {self.weight_decay}"
            )
        if self.ams_mode not in AMS_MODES:
            raise ConfigError(f"ams_mode must be one of {AMS_MODES}, got {self.ams_mode!r}")
        if not (0.0 <= self.fixed_ratio <= 1.0):
            raise ConfigError(f"fixed_ratio must be in [0, 1], got {self.fixed_ratio}")
        if self.proto_strategy not in PROTO_STRATEGIES:
            raise ConfigError(
                f"proto_strategy must be one of {PROTO_STRATEGIES}, got {self.proto_strategy!r}"
            )
        if not (0.0 <= self.proto_momentum < 1.0):
            raise ConfigError(f"proto_momentum must be in [0, 1), got {self.proto_momentum}")
        if self.proto_assignment not in ("nearest", "true_class"):
            raise ConfigError(
                f"proto_assignment must be 'nearest' or 'true_class', got {self.proto_assignment!r}"
            )


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(kw_only=True, repr=False, compare=False)  # (2, n) work rows

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        """A fresh state for parameters of `shape`: n, or (R, P) along the run axis."""
        m = np.zeros(shape)
        return cls(m=m, v=np.zeros_like(m), t=0, scratch=np.empty((2,) + m.shape))


@dataclass(frozen=True)
class StepTrace:
    step: int
    report: LossReport
    ratio: float
    theta: float
    lr: float
    n_genuine: int
    n_pseudo: int
    n_stale: int


@dataclass(frozen=True)
class EpochTrace:
    epoch: int
    l_tea: float
    l_stu: float
    l_kl: float
    l_pair: float
    l_proto: float
    total: float
    theta: float
    ratio: float
    lr: float


@dataclass
class FitResult:
    teacher: TeacherNet
    student: StudentNet
    epoch_traces: list  # the last one holds the final theta and ratio
    prototypes: PrototypeSet
    steps: int


def adam_update(
    params: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float,
    decay_mask: np.ndarray,
) -> None:
    """One Adam step with decoupled weight decay, in place.

    Updates `params`, `state.m`, `state.v` and `state.t`, and works in
    `state.scratch`, which AdamState.zeros builds, so a step allocates
    nothing.  decay_mask scales the decay term per entry; fit's mask zeroes
    it for theta.
    """
    if not (isinstance(params, np.ndarray) and params.dtype == np.float64):
        raise ShapeError("params must be a float64 array, updated in place")
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    step_vec, tmp = state.scratch
    t = state.t + 1
    state.m *= ADAM_BETA1
    state.m += np.multiply(1.0 - ADAM_BETA1, grads, out=tmp)
    state.v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grads, out=tmp)
    state.v += np.multiply(tmp, grads, out=tmp)
    np.divide(state.m, 1.0 - ADAM_BETA1**t, out=step_vec)
    np.divide(state.v, 1.0 - ADAM_BETA2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    step_vec /= tmp
    np.multiply(params, decay_mask, out=tmp)
    step_vec += np.multiply(weight_decay, tmp, out=tmp)
    step_vec *= lr
    params -= step_vec
    state.t = t


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine decay from lr0 at step 0 to 0 at step == total_steps."""
    if total_steps < 1:
        raise RangeError(f"total_steps must be >= 1, got {total_steps}")
    if not (0 <= step <= total_steps):
        raise RangeError(f"step must lie in [0, {total_steps}], got {step}")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def clip_global_norm(grads: np.ndarray, max_norm: float) -> np.ndarray:
    """`grads` itself if its global norm is at most max_norm, else a rescaled copy.

    A non-finite norm raises NumericHealthError, so no update is made from
    it.  (The benchmark's tracer counts clipped steps by the identity of
    the result.)
    """
    norm = math.sqrt(grads @ grads)  # np.linalg.norm's own expression
    if not math.isfinite(norm):
        raise NumericHealthError("gradient norm is not finite")
    if norm > max_norm:
        return grads * (max_norm / norm)
    return grads


def _blame(exc: BaseException, runs: Sequence[int]) -> BaseException:
    """`exc` with `exc.run` naming the failed run among `runs`.

    Code that steps several runs marks a failure that belongs to one of them
    with its position in the runs it was given (exc.run); each caller that
    handed on a subset of its own runs maps that position back through
    `runs`.  A failure in a single run is that run's; a failure of stacked
    work over several runs names none of them.
    """
    run = getattr(exc, "run", None)
    if run is not None:
        exc.run = runs[run]
    elif len(runs) == 1:
        exc.run = runs[0]
    return exc


def step_gradients(
    teacher: TeacherNet,
    student: StudentNet,
    pools: Sequence[tuple[SamplePool, SamplePool]],
    plans: Sequence[BatchPlan],
    effective_protos: Optional[Sequence[Callable[[np.ndarray, np.ndarray], PrototypeSet]]],
    thetas: Sequence[float],
    cfg: TrainConfig,
) -> tuple[list, np.ndarray]:
    """Each run's weighted loss report and its gradient over [teacher | student | theta].

    `teacher` and `student` are k runs' nets along the run axis, bound
    together by nets.bind_joint_params (UsageError otherwise), and `pools`,
    `plans` and `thetas` hold one entry per run, in row order.  The plans
    must have one size N: the runs' batches form one (k, N, ...) stack that
    each net chain and each cross-entropy runs over once, and the other
    loss terms run once per group of runs with the same genuine count.
    Each run gets the bits it gets on its own.

    This is the full objective of one step: terms with zero weight are
    skipped and reported as 0.0.  A run's pools are the (paired, unpaired)
    pair from ams.prepare_pools that its plan was drawn from; modality B
    comes from the paired pool only.  Prototypes and the teacher side of
    the distillation term are constants with respect to the parameters; a
    run's theta entry comes from the expected-loss surrogate at its theta
    (0.0 outside dynamic mode or when the batch has no pseudo-pairs), and
    prototype matching needs `effective_protos`, one callback per run
    (None turns matching off): each is called once, right after the teacher
    forward, with the fused features and labels of its run's genuine rows,
    and returns the set to match against; that is how train_step refreshes
    the batch prototypes without a second teacher forward.  Runs its own
    forward passes, so it is self-contained and safe to call for gradient
    checking.

    Returns the k LossReports and the nets' (k, P) joint gradient buffer:
    nets.teacher_backward's, then nets.student_backward's, then theta's
    column, written in place, so the next call returns the same array with
    new values; copy it to keep it.  A non-finite or negative term raises
    NumericHealthError from losses.total_loss.  A failure that belongs to
    one run carries its position as `exc.run` (see _blame).
    """
    _, grads = joint_buffers(teacher, student)
    w = cfg.loss_weights
    k, n = len(plans), plans[0].size
    n_gs = [len(plan.genuine) for plan in plans]
    lead = (k,) if k > 1 else ()  # one run has no run axis

    # Rows: genuine pairs, then recipients (modality A) or donors (modality B).
    pieces_y, pieces_a, pieces_b = [], [], []
    for i, ((paired, unpaired), plan, n_g) in enumerate(zip(pools, plans, n_gs)):
        try:
            if n_g == 0:
                raise ProtocolError("batch has no genuine pair")
            if plan.size != n:
                raise UsageError(f"plans stepped together need one size, got {plan.size} and {n}")
            b_rows, r_rows = plan.rows(paired, unpaired)
        except (ProtocolError, UsageError) as exc:
            raise _blame(exc, [i])
        g_rows = b_rows[:n_g]
        pieces_y += (paired.labels[g_rows], unpaired.labels[r_rows])
        pieces_a += (paired.feat_a[g_rows], unpaired.feat_a[r_rows])
        pieces_b.append(paired.feat_b[b_rows])
    labels = np.concatenate(pieces_y).reshape(lead + (n,))
    feats_a = np.concatenate(pieces_a).reshape(lead + (n, -1))
    feats_b = (np.concatenate(pieces_b) if k > 1 else pieces_b[0]).reshape(lead + (n, -1))

    h_b, fused, logits_t = teacher_forward(teacher, feats_a, feats_b)
    protos = None
    if effective_protos is not None:
        protos = []
        for i, (callback, n_g) in enumerate(zip(effective_protos, n_gs)):
            genuine = _entries([i], k) + (slice(n_g),)
            try:
                protos.append(callback(fused[genuine], labels[genuine]))
            except Exception as exc:
                raise _blame(exc, [i])
    feat_s, logits_s = student_forward(student, feats_a)

    # Per-run term values, and upstream gradients, each allocated only when a term feeds it.
    l_tea, l_stu, l_kl, l_pair, l_proto = ([0.0] * k for _ in range(5))
    d_logits_t = d_logits_s = d_feat_s = d_h_b = None
    if w.tea > 0.0:
        nll_t, d_logits_t = ce_loss(logits_t, labels)
        l_tea = _per_run_list(np.add.reduce(nll_t, axis=-1) / n, k)
        d_logits_t /= n
        d_logits_t *= w.tea
    if w.stu > 0.0:
        nll_s, d_logits_s = ce_loss(logits_s, labels)
        l_stu = _per_run_list(np.add.reduce(nll_s, axis=-1) / n, k)
        d_logits_s /= n
        d_logits_s *= w.stu
    matching = w.proto > 0.0 and protos is not None
    if w.kl > 0.0 and d_logits_s is None:
        d_logits_s = np.zeros_like(logits_s)
    if w.pair > 0.0:
        d_feat_s = np.zeros_like(feat_s)
    # The terms that split the rows at n_g run once per group of runs sharing it:
    # on the group's (N, ...) rows if it is one run, else on a (k_g, N, ...) stack.
    groups: dict = {}
    for i, n_g in enumerate(n_gs):
        groups.setdefault(n_g, []).append(i)
    for n_g, runs in groups.items():
        sel = _entries(runs, k)
        genuine, pseudo = sel + (slice(n_g),), sel + (slice(n_g, None),)
        try:
            if w.kl > 0.0:
                value, g = kd_loss(logits_s[genuine], logits_t[genuine], cfg.kd_temperature)
                _put(l_kl, runs, value)
                g *= w.kl
                d_logits_s[genuine] += g
            if w.pair > 0.0:
                sims, vjp = similarity_matrix(feat_s[genuine], h_b[sel], cfg.sim_temperature)
                value, d_sims = pair_loss(sims)
                _put(l_pair, runs, value)
                d_anchor, d_b = vjp(d_sims)
                if len(groups) == 1:
                    d_h_b = d_b
                else:
                    if d_h_b is None:
                        d_h_b = np.empty_like(h_b)
                    d_h_b[sel] = d_b
                d_anchor *= w.pair
                d_feat_s[genuine] += d_anchor
            if matching and n_g < n:  # no pseudo rows, nothing to match
                group_protos = (protos[runs[0]] if len(runs) == 1
                                else PrototypeSet.stack([protos[i] for i in runs]))
                value, g, _ = proto_loss(feat_s[pseudo], group_protos, cfg.proto_assignment,
                                         labels[pseudo])
                _put(l_proto, runs, value)
                if d_feat_s is None:
                    d_feat_s = np.zeros_like(feat_s)
                g *= w.proto
                d_feat_s[pseudo] += g
        except Exception as exc:
            raise _blame(exc, runs)
    if d_h_b is not None:
        d_h_b *= w.pair

    reports = []
    for i, terms in enumerate(zip(l_tea, l_stu, l_kl, l_pair, l_proto)):
        try:
            reports.append(total_loss(*terms, w))
        except NumericHealthError as exc:
            raise _blame(exc, [i])
    teacher_backward(
        teacher, np.zeros_like(logits_t) if d_logits_t is None else d_logits_t, d_h_b
    )
    student_backward(
        student, np.zeros_like(logits_s) if d_logits_s is None else d_logits_s, d_feat_s
    )

    grads[:, -1] = 0.0
    if cfg.ams_mode == "dynamic":
        for n_g, runs in groups.items():
            n_p = n - n_g
            if n_p == 0:
                continue
            sel = _entries(runs, k)
            # per run: the sums of its genuine rows' and its pseudo rows' losses
            sums_t = sums_s = [(0.0, 0.0)] * len(runs)
            if w.tea > 0.0:
                sums_t = _split_sums(nll_t[sel], n_g, len(runs))
            if w.stu > 0.0:
                sums_s = _split_sums(nll_s[sel], n_g, len(runs))
            for i, (g_t, p_t), (g_s, p_s) in zip(runs, sums_t, sums_s):
                loss_genuine = (
                    (w.tea * (g_t / n_g) if w.tea > 0.0 else 0.0)
                    + (w.stu * (g_s / n_g) if w.stu > 0.0 else 0.0)
                    + w.kl * reports[i].l_kl
                    + w.pair * reports[i].l_pair
                )
                loss_pseudo = (
                    (w.tea * (p_t / n_p) if w.tea > 0.0 else 0.0)
                    + (w.stu * (p_s / n_p) if w.stu > 0.0 else 0.0)
                    + w.proto * reports[i].l_proto
                )
                try:
                    grads[i, -1] = theta_gradient(thetas[i], loss_genuine, loss_pseudo)
                except NumericHealthError as exc:
                    raise _blame(exc, [i])
    return reports, grads


def _entries(runs: list, k: int) -> tuple:
    """The index of `runs`' entries in the batch arrays of k runs: the whole
    array for one run, which has no run axis; a run's (N, ...) rows; or the
    (len(runs), N, ...) stack of theirs."""
    if k == 1:
        return ()
    if len(runs) == 1:
        return (runs[0],)
    return (slice(None),) if len(runs) == k else (np.array(runs),)


def _per_run_list(values, k: int) -> list:
    """k runs' values as floats: `values` is a scalar for one run, else (k,)."""
    return [float(values)] if k == 1 else values.tolist()


def _put(values: list, runs: list, value) -> None:
    """Store a kernel's value for `runs`: a float for one run, an array for a stack."""
    if len(runs) == 1:
        values[runs[0]] = value
    else:
        for run, v in zip(runs, value.tolist()):
            values[run] = v


def _split_sums(nll: np.ndarray, n_g: int, k: int) -> list:
    """Per run of k runs' row losses, (N,) for one run, else (k, N): the sum of
    its rows :n_g and the sum of its rows n_g:."""
    return list(zip(_per_run_list(np.add.reduce(nll[..., :n_g], axis=-1), k),
                    _per_run_list(np.add.reduce(nll[..., n_g:], axis=-1), k)))


def train_step(
    teacher: TeacherNet,
    student: StudentNet,
    pools: Sequence[tuple[SamplePool, SamplePool]],
    plans: Sequence[BatchPlan],
    protos: Sequence[PrototypeSet],
    params: np.ndarray,
    adam: AdamState,
    cfg: TrainConfig,
    lr: float,
    step: int,
    decay_mask: np.ndarray,
) -> tuple[list, list]:
    """Run one training step of R runs in lockstep; returns each run's new
    prototypes and step trace, in run order.

    `teacher` and `student` are the runs' nets along the run axis, and
    `params` is the (R, P) buffer, one row [teacher | student | theta] per
    run, that nets.bind_joint_params bound them to; `pools`, `plans` and
    `protos` hold one entry per run.  The runs whose plans have the same
    size share one step_gradients call (every run, unless a plan has a
    shortfall).  Each run's gradient row is clipped on its own; then one
    Adam update writes `params` and `adam` in place, which updates the nets
    and each theta (params[:, -1]); a trace's ratio is the one at the
    updated theta.  A gradient whose global norm is not finite raises
    NumericHealthError before the update, so `params` keeps the last
    finite values.  A run's `protos` entry is its running set under the
    "paired" strategy and a fixed epoch-level set under "all".
    `decay_mask` keeps weight decay off theta; fit builds it once
    (_decay_mask).  A failure that belongs to one run carries its index as
    `exc.run` (see _blame).
    """
    bound, grads = joint_buffers(teacher, student)
    if bound is not params:
        raise UsageError("teacher and student are bound to another buffer than params")

    runs = range(len(plans))
    n_stale = [0] * len(plans)
    effective_protos = None
    new_protos = list(protos)
    if cfg.proto_strategy == "paired":

        def refresh(run: int) -> Callable[[np.ndarray, np.ndarray], PrototypeSet]:
            def batch_prototypes(fused: np.ndarray, labels: np.ndarray) -> PrototypeSet:
                """Batch prototypes from the step's own teacher forward of the genuine rows."""
                batch = compute_batch_prototypes(fused, labels, teacher.num_classes)
                new_protos[run] = update_running_prototypes(protos[run], batch,
                                                            cfg.proto_momentum)
                n_stale[run] = int(batch.stale.sum())
                return with_fallback(batch, new_protos[run])

            return batch_prototypes

        effective_protos = [refresh(run) for run in runs]
    elif cfg.proto_strategy == "all":
        effective_protos = [lambda fused, labels, p=p: p for p in protos]
        n_stale = [int(p.stale.sum()) for p in protos]

    thetas = params[:, -1].tolist()
    by_size: dict = {}
    for run, plan in enumerate(plans):
        by_size.setdefault(plan.size, []).append(run)
    try:
        if len(by_size) == 1:
            reports, _ = step_gradients(teacher, student, pools, plans, effective_protos,
                                        thetas, cfg)
        else:  # each size group steps on copies of its rows
            reports = [None] * len(plans)
            for group in by_size.values():
                rows = params[group]
                nets = stack_runs(teacher, student, rows, np.empty_like(rows))
                pick = lambda items: [items[run] for run in group]
                try:
                    group_reports, group_grads = step_gradients(
                        *nets, pick(pools), pick(plans),
                        effective_protos and pick(effective_protos), pick(thetas), cfg,
                    )
                except Exception as exc:
                    raise _blame(exc, group)
                grads[group] = group_grads
                for run, report in zip(group, group_reports):
                    reports[run] = report
        for run in runs:
            row = grads[run]
            try:
                clipped = clip_global_norm(row, cfg.grad_clip)
            except NumericHealthError as exc:
                raise _blame(exc, [run])
            if clipped is not row:
                row[...] = clipped
    except (NumericHealthError, ProtocolError) as exc:
        failure = type(exc)(f"step {step}: {exc}")
        if hasattr(exc, "run"):
            failure.run = exc.run
        raise failure from exc

    adam_update(params, grads, adam, lr, cfg.weight_decay, decay_mask)
    traces = []
    for run, (plan, theta) in enumerate(zip(plans, params[:, -1].tolist())):
        try:
            ratio = sampling_ratio(cfg.ams_mode, theta, cfg.fixed_ratio)
        except NumericHealthError as exc:
            raise _blame(exc, [run])
        traces.append(StepTrace(
            step=step,
            report=reports[run],
            ratio=ratio,
            theta=theta,
            lr=lr,
            n_genuine=len(plan.genuine),
            n_pseudo=len(plan.pseudo),
            n_stale=n_stale[run],
        ))
    return new_protos, traces


def _decay_mask(n: int) -> np.ndarray:
    """Weight decay applies to every joint parameter but theta, the last."""
    mask = np.ones(n)
    mask[-1] = 0.0
    return mask


def fit(
    teacher: TeacherNet,
    student: StudentNet,
    samples: Union[Sequence[Sample], tuple[SamplePool, SamplePool]],
    cfg: TrainConfig,
) -> FitResult:
    """Train teacher, student, and theta jointly over epochs.

    `samples` is the training set: the (paired, unpaired) pool pair from
    ams.prepare_pools, or a sequence of Samples, which is prepared here.
    Runs epochs * ceil(N / batch_size) steps, each on a freshly sampled
    batch plan drawn from pools prepared once, before the first step.
    Deterministic given (nets' initial parameters, cfg.seed).  This is
    fit_runs of the one run.
    """
    return fit_runs([(teacher, student, samples)], [cfg])[0]


def fit_runs(runs: Sequence[tuple], cfgs: Sequence[TrainConfig]) -> list:
    """Fit each (teacher, student, training set) run of `runs` as fit would,
    stepping in lockstep the runs whose step counts are equal.

    `cfgs` holds one TrainConfig per run, and they may differ in their seed
    only; every run's nets must have the first run's specs.  Runs with the
    same number of steps per epoch train together, as the rows of one
    joint parameter buffer along the run axis (nets.bind_joint_params), one
    train_step per step for all of them; each run's result has the bits
    that fit gives it alone.  Returns the FitResults in run order.  A
    failure that belongs to one run carries its index in `runs` as
    `exc.run` (see _blame).
    """
    runs, cfgs = list(runs), list(cfgs)
    if not runs or len(cfgs) != len(runs):
        raise UsageError(f"fit_runs needs one config per run, got {len(runs)} runs "
                         f"and {len(cfgs)} configs")
    if any(replace(c, seed=0) != replace(cfgs[0], seed=0) for c in cfgs):
        raise UsageError("runs trained together may differ in their seed only")
    pools = _each_run(_training_pools, runs)

    by_steps: dict = {}
    for run, (paired, unpaired) in enumerate(pools):
        steps = math.ceil((len(paired) + len(unpaired)) / cfgs[0].batch_size)
        by_steps.setdefault(steps, []).append(run)
    results = [None] * len(runs)
    for steps_per_epoch, group in by_steps.items():
        try:
            fitted = _fit_lockstep([runs[r][:2] for r in group], [pools[r] for r in group],
                                   [cfgs[r] for r in group], steps_per_epoch)
        except Exception as exc:
            raise _blame(exc, group)
        for run, result in zip(group, fitted):
            results[run] = result
    return results


def _each_run(fn: Callable, args) -> list:
    """fn(*a) for each run's arguments `a`, in run order; a failure names its run."""
    out = []
    for run, run_args in enumerate(args):
        try:
            out.append(fn(*run_args))
        except Exception as exc:
            raise _blame(exc, [run])
    return out


def _training_pools(
    teacher: TeacherNet,
    student: StudentNet,
    samples: Union[Sequence[Sample], tuple[SamplePool, SamplePool]],
) -> tuple[SamplePool, SamplePool]:
    """One run's training set as a prepared pool pair, checked against its nets."""
    if not samples:
        raise EmptyBatchError("fit needs a nonempty training set")
    if teacher.feat_dim != student.feat_dim:
        raise ConfigError(
            f"teacher fused dim {teacher.feat_dim} != student feature dim {student.feat_dim}"
        )
    pools = samples if prepared(samples) else prepare_pools(
        Dataset.from_samples(samples), np.arange(len(samples))
    )
    # prepare_pools gives every unpaired class a paired donor, so the paired
    # pool holds every label of the training set.
    labels = np.array(list(pools[0].class_counts))
    if labels.min() < 0 or labels.max() >= teacher.num_classes:
        raise ConfigError(f"training labels {labels.tolist()} outside the head's "
                          f"[0, {teacher.num_classes})")
    return pools


def _fit_lockstep(
    nets: list, pools: list, cfgs: list, steps_per_epoch: int
) -> list:
    """The FitResults of runs with equal step counts, trained in lockstep."""
    cfg = cfgs[0]
    total_steps = cfg.epochs * steps_per_epoch
    teachers = [teacher for teacher, _ in nets]
    num_classes, feat_dim = teachers[0].num_classes, teachers[0].feat_dim
    params, teacher, student = bind_joint_params(
        [(t, s, 0.0) for t, s in nets])
    adam = AdamState.zeros(params.shape)
    decay_mask = _decay_mask(params.shape[1])
    protos = [empty_prototypes(num_classes, feat_dim)] * len(nets)
    epoch_traces: list[list] = [[] for _ in nets]
    step = 0
    ratios = [sampling_ratio(cfg.ams_mode, 0.0, cfg.fixed_ratio)] * len(nets)

    for epoch in range(cfg.epochs):
        if cfg.proto_strategy == "all":
            protos = _each_run(global_prototypes, zip(teachers, pools))
        step_traces: list[list] = [[] for _ in nets]
        for _ in range(steps_per_epoch):
            plans = _each_run(build_batch, (
                (*run_pools, cfg.batch_size, ratio, derive_seed(run_cfg.seed, "batch", step))
                for run_pools, ratio, run_cfg in zip(pools, ratios, cfgs)
            ))
            lr = cosine_lr(step, total_steps, cfg.learning_rate)
            protos, traces = train_step(
                teacher, student, pools, plans, protos, params, adam, cfg, lr, step,
                decay_mask,
            )
            ratios = [trace.ratio for trace in traces]
            for run_traces, trace in zip(step_traces, traces):
                run_traces.append(trace)
            step += 1
        for run_epochs, run_traces in zip(epoch_traces, step_traces):
            run_epochs.append(_epoch_trace(epoch, run_traces))

    return [
        FitResult(teacher=t, student=s, epoch_traces=traces, prototypes=p, steps=step)
        for (t, s), traces, p in zip(nets, epoch_traces, protos)
    ]


def global_prototypes(
    teacher: TeacherNet, pools: tuple[SamplePool, SamplePool]
) -> PrototypeSet:
    """Prototypes from every genuine pair of `pools`, in id order, under the current teacher."""
    paired = pools[0]
    _, fused = teacher_features(teacher, paired.feat_a, paired.feat_b)
    return compute_batch_prototypes(fused, paired.labels, teacher.num_classes)


def _epoch_trace(epoch: int, step_traces: list) -> EpochTrace:
    reports = [t.report for t in step_traces]
    n = len(reports)
    last = step_traces[-1]
    return EpochTrace(
        epoch=epoch,
        l_tea=sum(r.l_tea for r in reports) / n,
        l_stu=sum(r.l_stu for r in reports) / n,
        l_kl=sum(r.l_kl for r in reports) / n,
        l_pair=sum(r.l_pair for r in reports) / n,
        l_proto=sum(r.l_proto for r in reports) / n,
        total=sum(r.total for r in reports) / n,
        theta=last.theta,
        ratio=last.ratio,
        lr=last.lr,
    )


def export_trace_csv(traces: Sequence[EpochTrace], path) -> None:
    """Per-epoch training trace with loss terms, theta, ratio, and lr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "l_tea", "l_stu", "l_kl", "l_pair", "l_proto", "total",
             "theta", "ratio", "lr"]
        )
        for t in traces:
            writer.writerow(
                [t.epoch]
                + [repr(float(v)) for v in (t.l_tea, t.l_stu, t.l_kl, t.l_pair,
                                            t.l_proto, t.total, t.theta, t.ratio, t.lr)]
            )
