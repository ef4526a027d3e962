"""Training loop: loss routing, joint Adam updates, schedules, traces.

One step does, in order: batch composition, one teacher and one student
forward, prototype refresh from the teacher's fused features of the batch's
genuine pairs, loss evaluation, one joint Adam update over [teacher params |
student params | theta].

The networks' forward and backward chains, and the layout of their
gradients, live in nets (teacher_features, teacher_forward,
teacher_backward, student_forward, student_backward); this module only
calls them.  The chains write into the gradient buffer that
bind_joint_params lays out like the parameter buffer, so step_gradients
returns that buffer with theta's entry filled in and concatenates nothing;
adam_update works in place in the scratch arrays that AdamState.zeros puts
on its state.  Batch and subset means are np.add.reduce(x) / n and the
global norm is sqrt(g @ g): those are the expressions ndarray.mean and
np.linalg.norm evaluate in NumPy 2.x, so every value keeps its bits
without the wrappers' per-call cost.

fit prepares everything a step reads once, before the first step: the
training set as the pool pair from ams.prepare_pools (or takes that pair
ready-made), whose id-sorted columns a step (and the epoch-level
prototypes of the "all" strategy) gathers its rows from by index; one
parameter buffer [teacher | student | theta] that both nets are bound to
(nets.bind_joint_params), which Adam updates in place; and the mask that
keeps weight decay off theta.  theta is the buffer's last entry and is kept
nowhere else: each step's trace carries the sampling ratio at the updated
theta, and the next batch is drawn with it.
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
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

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

    def validate(self) -> None:
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
        self.loss_weights.validate()
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
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0, scratch=np.empty((2, n)))


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


def step_gradients(
    teacher: TeacherNet,
    student: StudentNet,
    pools: tuple[SamplePool, SamplePool],
    plan: BatchPlan,
    effective_protos: Union[PrototypeSet, Callable[[np.ndarray, np.ndarray], PrototypeSet], None],
    theta: float,
    cfg: TrainConfig,
) -> tuple[LossReport, np.ndarray]:
    """Weighted loss report and its gradient over [teacher | student | theta].

    This is the full objective of one step: terms with zero weight are
    skipped and reported as 0.0.  `pools` is the (paired, unpaired) pair
    from ams.prepare_pools that the plan was drawn from; modality B comes
    from the paired pool only.  Prototypes and the teacher side of the
    distillation term are constants with respect to the parameters; theta's
    entry comes from the expected-loss surrogate at `theta` (0.0 outside
    dynamic mode or when the batch has no pseudo-pairs), and prototype
    matching needs `effective_protos`.  `effective_protos` may also be a
    callable, which is called once, right after the teacher forward, with
    the fused features and labels of the genuine rows and returns the set
    to match against; that is how train_step refreshes the batch prototypes
    without a second teacher forward.  Runs its own forward passes,
    so it is self-contained and safe to call for gradient checking.  The
    gradient is nets.teacher_backward's, then nets.student_backward's,
    then theta's: the nets must be bound together by
    nets.bind_joint_params (UsageError otherwise), and it is their joint
    gradient buffer, written in place, so the next call returns the same
    array with new values; copy it to keep it.  A non-finite or negative
    term raises NumericHealthError from losses.total_loss.
    """
    _, grads = joint_buffers(teacher, student)
    w = cfg.loss_weights
    n_g, n_p = len(plan.genuine), len(plan.pseudo)
    if n_g == 0:
        raise ProtocolError("batch has no genuine pair")

    # Rows: genuine pairs, then recipients (modality A) or donors (modality B).
    paired, unpaired = pools
    b_rows, r_rows = plan.rows(paired, unpaired)
    g_rows = b_rows[:n_g]
    labels = np.concatenate((paired.labels[g_rows], unpaired.labels[r_rows]))
    feats_a = np.concatenate((paired.feat_a[g_rows], unpaired.feat_a[r_rows]))
    feats_b = paired.feat_b[b_rows]

    h_b, fused, logits_t = teacher_forward(teacher, feats_a, feats_b)
    if callable(effective_protos):
        effective_protos = effective_protos(fused[:n_g], labels[:n_g])
    feat_s, logits_s = student_forward(student, feats_a)

    # Upstream gradients, each allocated only when a term feeds it.
    l_tea, l_stu, l_kl, l_pair, l_proto = 0.0, 0.0, 0.0, 0.0, 0.0
    d_logits_t = d_logits_s = d_feat_s = d_h_b = None
    n = n_g + n_p
    if w.tea > 0.0:
        nll_t, d_logits_t = ce_loss(logits_t, labels)
        l_tea = float(np.add.reduce(nll_t) / n)
        d_logits_t /= n
        d_logits_t *= w.tea
    if w.stu > 0.0:
        nll_s, d_logits_s = ce_loss(logits_s, labels)
        l_stu = float(np.add.reduce(nll_s) / n)
        d_logits_s /= n
        d_logits_s *= w.stu
    if w.kl > 0.0:
        l_kl, g = kd_loss(logits_s[:n_g], logits_t[:n_g], cfg.kd_temperature)
        if d_logits_s is None:
            d_logits_s = np.zeros_like(logits_s)
        g *= w.kl
        d_logits_s[:n_g] += g
    if w.pair > 0.0:
        sims, vjp = similarity_matrix(feat_s[:n_g], h_b, cfg.sim_temperature)
        l_pair, d_sims = pair_loss(sims)
        d_anchor, d_h_b = vjp(d_sims)
        d_feat_s = np.zeros_like(feat_s)
        d_anchor *= w.pair
        d_feat_s[:n_g] += d_anchor
        d_h_b *= w.pair
    if w.proto > 0.0 and effective_protos is not None:
        l_proto, g, empty = proto_loss(
            feat_s[n_g:], effective_protos, cfg.proto_assignment, labels[n_g:]
        )
        if not empty:
            if d_feat_s is None:
                d_feat_s = np.zeros_like(feat_s)
            g *= w.proto
            d_feat_s[n_g:] += g

    report = total_loss(l_tea, l_stu, l_kl, l_pair, l_proto, w)
    teacher_backward(
        teacher, np.zeros_like(logits_t) if d_logits_t is None else d_logits_t, d_h_b
    )
    student_backward(
        student, np.zeros_like(logits_s) if d_logits_s is None else d_logits_s, d_feat_s
    )

    g_theta = 0.0
    if cfg.ams_mode == "dynamic" and n_p > 0:
        loss_genuine = (
            (w.tea * float(np.add.reduce(nll_t[:n_g]) / n_g) if w.tea > 0.0 else 0.0)
            + (w.stu * float(np.add.reduce(nll_s[:n_g]) / n_g) if w.stu > 0.0 else 0.0)
            + w.kl * l_kl
            + w.pair * l_pair
        )
        loss_pseudo = (
            (w.tea * float(np.add.reduce(nll_t[n_g:]) / n_p) if w.tea > 0.0 else 0.0)
            + (w.stu * float(np.add.reduce(nll_s[n_g:]) / n_p) if w.stu > 0.0 else 0.0)
            + w.proto * l_proto
        )
        g_theta = theta_gradient(theta, loss_genuine, loss_pseudo)

    grads[-1] = g_theta
    return report, grads


def train_step(
    teacher: TeacherNet,
    student: StudentNet,
    pools: tuple[SamplePool, SamplePool],
    plan: BatchPlan,
    protos: PrototypeSet,
    params: np.ndarray,
    adam: AdamState,
    cfg: TrainConfig,
    lr: float,
    step: int,
    decay_mask: np.ndarray,
) -> tuple[PrototypeSet, StepTrace]:
    """Run one training step; returns the new prototypes and the step's trace.

    `params` is the buffer [teacher | student | theta] that both nets are
    bound to (nets.bind_joint_params); the step's Adam update writes it and
    `adam` in place, which updates the nets and theta (params[-1]); the
    trace's ratio is the one at the updated theta.  A gradient whose global
    norm is not finite raises NumericHealthError before the update, so
    `params` keeps the last finite values.  `protos` is the running
    set under the "paired" strategy and a fixed epoch-level set under "all".
    `decay_mask` keeps weight decay off theta; fit builds it once
    (_decay_mask).
    """
    if joint_buffers(teacher, student)[0] is not params:
        raise UsageError("teacher and student are bound to another buffer than params")

    n_stale = 0
    effective_protos = None
    new_protos = protos
    if cfg.proto_strategy == "paired":

        def refresh(fused: np.ndarray, labels: np.ndarray) -> PrototypeSet:
            """Batch prototypes from the step's own teacher forward of the genuine rows."""
            nonlocal new_protos, n_stale
            batch_protos = compute_batch_prototypes(fused, labels, teacher.num_classes)
            new_protos = update_running_prototypes(protos, batch_protos, cfg.proto_momentum)
            n_stale = int(batch_protos.stale.sum())
            return with_fallback(batch_protos, new_protos)

        effective_protos = refresh
    elif cfg.proto_strategy == "all":
        effective_protos = protos
        n_stale = int(protos.stale.sum())

    try:
        report, grads = step_gradients(
            teacher, student, pools, plan, effective_protos, float(params[-1]), cfg
        )
        grads = clip_global_norm(grads, cfg.grad_clip)
    except (NumericHealthError, ProtocolError) as exc:
        raise type(exc)(f"step {step}: {exc}") from exc

    adam_update(params, grads, adam, lr, cfg.weight_decay, decay_mask)
    theta = float(params[-1])

    trace = StepTrace(
        step=step,
        report=report,
        ratio=sampling_ratio(cfg.ams_mode, theta, cfg.fixed_ratio),
        theta=theta,
        lr=lr,
        n_genuine=len(plan.genuine),
        n_pseudo=len(plan.pseudo),
        n_stale=n_stale,
    )
    return new_protos, trace


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
    Deterministic given (nets' initial parameters, cfg.seed).
    """
    cfg.validate()
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

    steps_per_epoch = math.ceil((len(pools[0]) + len(pools[1])) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch

    params = bind_joint_params(teacher, student, 0.0)
    adam = AdamState.zeros(params.size)
    decay_mask = _decay_mask(params.size)
    protos = empty_prototypes(teacher.num_classes, teacher.feat_dim)
    epoch_traces: list[EpochTrace] = []
    step = 0
    ratio = sampling_ratio(cfg.ams_mode, 0.0, cfg.fixed_ratio)

    for epoch in range(cfg.epochs):
        if cfg.proto_strategy == "all":
            protos = global_prototypes(teacher, pools)
        step_traces = []
        for _ in range(steps_per_epoch):
            plan = build_batch(
                *pools, cfg.batch_size, ratio, derive_seed(cfg.seed, "batch", step)
            )
            lr = cosine_lr(step, total_steps, cfg.learning_rate)
            protos, trace = train_step(
                teacher, student, pools, plan, protos, params, adam, cfg, lr, step,
                decay_mask,
            )
            ratio = trace.ratio
            step_traces.append(trace)
            step += 1
        epoch_traces.append(_epoch_trace(epoch, step_traces))

    return FitResult(
        teacher=teacher,
        student=student,
        epoch_traces=epoch_traces,
        prototypes=protos,
        steps=step,
    )


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
