"""Training loop: loss routing, joint Adam updates, schedules, traces.

One step does, in order: batch composition, one teacher and one student
forward, prototype refresh from the teacher's fused features of the batch's
genuine pairs, loss evaluation, one joint Adam update over [teacher params |
student params | theta].

Runs that train together step in lockstep along a leading run axis.
fit_runs trains R runs (in the harness, all of an arm's runs: every rate
and fold) whose step counts are equal as the rows of one (R, P) joint
buffer, one train_step per step for all of them.  The net chains, the
loss kernels, the prototype refresh, the loss checks and Adam run once
over the run axis; build_batch (each run's own rng stream), the gradient
clipping (each run's own norm), theta_gradient and the sampling ratio
(math.exp, whose bits np.exp does not share) and the step traces stay
per run.  The chains stack the runs whose batches have the same row count
(all of them unless a plan has a shortfall).  The row-wise terms
(cross-entropy, distillation, prototype matching) and the theta
surrogate's subset sums run over the whole stack, each run's mean
reducing exactly its own rows (losses.run_sums); the pair term, whose
products change bits with the row count, runs once per group of runs
sharing a genuine count n_g.  Nothing is padded, so each run gets the
bits it gets alone.  The runs' running prototypes are one PrototypeSet
along the run axis, and each FitResult gets its run's set.  fit is
fit_runs of one run, whose nets, batch and prototypes have no run axis.
A failure that belongs to one run carries its index as `exc.run`, which
the harness turns into its rate and fold.

Most steps are those of one run: every pool job is a one-run fit.  Such a
step runs the same code as a stack and pays only for work that belongs
to it.  The fit derives each run's batch-seed prefix once
(seeding.seed_stream), so a step's seed is one scramble.  One run's
batch is allocated without a run axis and needs no size or count
grouping.  One cross-entropy call takes the teacher's and the student's
logits stacked, and one log-softmax pass takes both sides of the
distillation term; the pair term's norms and unit vectors take both
sides' rows in one array.  A batch without a stale class returns its
prototypes without the fallback fill.  The epoch traces are running sums
of the step reports, added from 0 in step order as sum() adds them, so
they keep their bits.

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
that pair ready-made), whose id-sorted rows of a shared Dataset map a
plan's pool rows to dataset rows; one parameter buffer, a row [teacher |
student | theta] per run, that the nets are bound to
(nets.bind_joint_params), which Adam updates in place; and the mask that
keeps weight decay off theta.  A step takes each run's batch from its
Dataset's columns, labels and modality A once over the [genuine |
recipient] rows and modality B once over the [genuine | donor] rows,
straight into the run's slot of the batch stack; the epoch-level
prototypes of the "all" strategy take the paired rows the same way.  No
pool holds a copy of a feature column.  A run's theta is its row's last
entry and is kept nowhere else: each step's trace carries the sampling
ratio at the updated theta, and the run's next batch is drawn with it.
Gathering in id order makes a fit independent of the order of its input
samples.  Modality B is gathered from paired rows only.  Cross-entropy
is computed once per logit matrix, per row, and the theta surrogate's
subset losses are means over slices of those rows.

Loss routing per batch:
  l_tea   cross-entropy on teacher logits, genuine + pseudo rows
  l_stu   cross-entropy on student logits, all modality-A rows
  l_kl    distillation on genuine rows only (teacher side constant)
  l_pair  anchors = student features of genuine rows, candidates = teacher
          modality-B embeddings of every batch row (genuine and donors),
          positives on the diagonal
  l_proto pseudo-recipient student features vs current prototypes; under
          "true_class" a recipient whose class has no usable prototype yet
          is left out (losses.proto_loss)

Terms with zero weight are skipped entirely and reported as 0.0, so an
all-ablations-off run is computationally identical to plain CE+KD.  The
theta update uses the expected-loss surrogate from the ams module,
splitting the weighted objective into its genuine-subset and
pseudo-subset parts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional, Sequence, Union

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
    run_sums,
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
from .seeding import seed_stream
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
        if not math.isfinite(self.kd_temperature * self.kd_temperature):  # kd_loss scales by T²
            raise ConfigError(f"kd_temperature must have a finite square, got {self.kd_temperature}")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ConfigError(
                f"weight_decay must be nonnegative and finite, got {self.weight_decay}"
            )
        if self.ams_mode not in AMS_MODES:
            raise ConfigError(f"ams_mode must be one of {AMS_MODES}, got {self.ams_mode!r}")
        if not (0.0 < self.fixed_ratio <= 1.0):
            raise ConfigError(f"fixed_ratio must be in (0, 1], as every batch needs a genuine "
                              f"pair, got {self.fixed_ratio}")
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
        """A fresh state for parameters of `shape`: n, or (R, P) along the run axis.

        Both moments and the scratch rows are views of one block.  glibc hands
        the free top of its heap back to the system once it exceeds a trim
        threshold, which it raises to twice the largest mapped block freed so
        far.  The block a finished fit frees keeps that threshold above what a
        step of a later arm stack allocates and frees (about 2.4 MB at 15
        runs of 48 rows), so those pages are not returned and faulted back in
        on every step.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        block = np.zeros((4,) + shape)
        return cls(m=block[0], v=block[1], t=0, scratch=block[2:])


class StepTrace(NamedTuple):
    """One run's step: its loss report, the sampling ratio at its updated
    theta (the one its next batch is drawn with), the learning rate, and its
    genuine, pseudo and stale-class counts.  A named tuple, as a fit builds
    one per run and step."""

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
    effective_protos: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], PrototypeSet]],
    thetas: Sequence[float],
    cfg: TrainConfig,
) -> tuple[list, np.ndarray]:
    """Each run's weighted loss report and its gradient over [teacher | student | theta].

    `teacher` and `student` are k runs' nets along the run axis, bound
    together by nets.bind_joint_params (UsageError otherwise), and `pools`,
    `plans` and `thetas` hold one entry per run, in row order.  The plans
    must have one size N: the runs' batches form one (k, N, ...) stack that
    each net chain, the distillation and prototype terms and the theta
    surrogate run over once, each run's mean reducing exactly its own rows,
    and one cross-entropy call takes the teacher's and the student's logits
    of the stack together; the pair term runs once per group of runs with
    the same genuine count, as its products change bits with the row
    count.  Each run gets the bits it gets on its own.

    This is the full objective of one step: terms with zero weight are
    skipped and reported as 0.0.  A run's pools are the (paired, unpaired)
    pair from ams.prepare_pools that its plan was drawn from, which map the
    plan's rows to rows of their Dataset; modality B comes from paired rows
    only.  Prototypes and the teacher side of the distillation term are
    constants with respect to the parameters; a run's theta entry comes
    from the expected-loss surrogate at its theta (0.0 outside dynamic mode
    or when the batch has no pseudo-pairs).  Prototype matching needs
    `effective_protos` (None turns it off): it is called once, right after
    the teacher forward, with the (k, N, H) fused features and (k, N)
    labels of the batch stack and each run's genuine count (the rows the
    prototypes come from lead each batch), and returns the (k, C, H) sets
    to match against (one run's arrays, count and set have no run axis);
    that is how train_step refreshes the batch prototypes without a second
    teacher forward.  When some run has pseudo rows, every run's set needs
    a usable class.  Runs its own forward passes, so it is self-contained
    and safe to call for gradient checking.

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
    lead = (k,) if k > 1 else ()  # one run's nets have no run axis, nor has its batch

    # Rows: genuine pairs, then recipients (modality A) or donors (modality B),
    # each run's taken from its Dataset into its slot of the (k, N, ...) stack.
    first = pools[0][0].data
    labels = np.empty(lead + (n,), dtype=np.int64)
    feats_a = np.empty(lead + (n, first.feat_a.shape[1]))
    feats_b = np.empty(lead + (n, first.feat_b.shape[1]))
    n_gs = []
    for i, ((paired, unpaired), plan) in enumerate(zip(pools, plans)):
        n_g = plan.n_genuine
        try:
            if n_g == 0:
                if sampling_ratio(cfg.ams_mode, thetas[i], cfg.fixed_ratio) == 0.0:
                    raise NumericHealthError(f"theta {thetas[i]!r} drove the sampling ratio "
                                             f"to 0, so the batch has no genuine pair")
                raise ProtocolError("batch has no genuine pair")
            if plan.size != n:
                raise UsageError(f"plans stepped together need one size, got {plan.size} and {n}")
            b_rows, r_rows = plan.rows(paired, unpaired)
        except (NumericHealthError, ProtocolError, UsageError) as exc:
            raise _blame(exc, [i])
        n_gs.append(n_g)
        data, b_rows = paired.data, paired.rows[b_rows]
        a_rows = np.concatenate((b_rows[:n_g], unpaired.rows[r_rows]))
        # The pools checked their rows against the Dataset, so "wrap" takes
        # them as "raise" would, without buffering the output.
        slot = (i,) if k > 1 else ()
        data.labels.take(a_rows, 0, labels[slot], "wrap")
        data.feat_a.take(a_rows, 0, feats_a[slot], "wrap")
        data.feat_b.take(b_rows, 0, feats_b[slot], "wrap")
    # Each run's genuine rows lead its batch.  When every run splits at one count
    # (always so for one run), the terms take the genuine and the pseudo rows as
    # slices; otherwise they take the whole stack and (k, N) row masks.
    n_genuine = np.array(n_gs) if k > 1 else n_gs[0]
    some_pseudo = min(n_gs) < n
    genuine_rows = pseudo_rows = None
    if n_gs.count(n_gs[0]) == k:
        every_run = (slice(None),) * len(lead)
        genuine, pseudo = every_run + (slice(n_gs[0]),), every_run + (slice(n_gs[0], None),)
    else:
        genuine = pseudo = ()
        genuine_rows = np.arange(n) < n_genuine[:, None]
        pseudo_rows = ~genuine_rows

    h_b, fused, logits_t = teacher_forward(teacher, feats_a, feats_b)
    protos = None
    if effective_protos is not None:
        try:
            protos = effective_protos(fused, labels, n_genuine)
        except Exception as exc:
            raise _blame(exc, range(k))
    feat_s, logits_s = student_forward(student, feats_a)

    # Per-run term values (floats for one run), and upstream gradients, each
    # allocated only when a term feeds it.
    zero = np.zeros(k) if k > 1 else 0.0
    l_ce, l_kl, l_proto, l_pair = [zero, zero], zero, zero, zero  # l_ce: teacher, student
    d_ce = [None, None]
    ce_weights = (w.tea, w.stu)
    on = [side for side in (0, 1) if ce_weights[side] > 0.0]
    nll = np.zeros((0,) + labels.shape)  # per side that is on, each row's loss
    if on:
        # One cross-entropy call over the logits of the sides that are on, stacked
        # side first: every row's loss and gradient are its own.
        sides = (logits_t, logits_s)
        stacked = [sides[side] for side in on]
        try:
            nll, d_logits = ce_loss(np.concatenate(stacked), np.concatenate([labels] * len(on)))
        except Exception as exc:
            if getattr(exc, "run", None) is not None:
                exc.run %= k
            raise
        nll = nll.reshape((len(on),) + labels.shape)
        means = np.add.reduce(nll, axis=-1) / n
        d_logits /= n
        d_logits = d_logits.reshape((len(on),) + logits_t.shape)
        for j, side in enumerate(on):
            l_ce[side], d_ce[side] = means[j], d_logits[j]
            if ce_weights[side] != 1.0:  # x * 1.0 is x, bit for bit
                d_ce[side] *= ce_weights[side]
    d_logits_t, d_logits_s = d_ce
    d_feat_s = d_h_b = None
    try:
        if w.kl > 0.0:
            if d_logits_s is None:
                d_logits_s = np.zeros(logits_s.shape)
            l_kl, g = kd_loss(logits_s[genuine], logits_t[genuine], cfg.kd_temperature,
                              genuine_rows)
            g *= w.kl
            _add_rows(d_logits_s[genuine], g, genuine_rows)
        if w.proto > 0.0 and protos is not None and some_pseudo:
            l_proto, g, _ = proto_loss(feat_s[pseudo], protos, cfg.proto_assignment,
                                       labels[pseudo], pseudo_rows)
            d_feat_s = np.zeros(feat_s.shape)
            g *= w.proto
            _add_rows(d_feat_s[pseudo], g, pseudo_rows)
    except Exception as exc:
        raise _blame(exc, range(k))
    if w.pair > 0.0:
        # One call per group of runs sharing n_g: on the group's (N, ...) rows if
        # it is one run, else on a (k_g, N, ...) stack.
        if d_feat_s is None:
            d_feat_s = np.zeros(feat_s.shape)
        if genuine_rows is None:
            groups = {n_gs[0]: range(k)}
        else:
            groups = {}
            for i, count in enumerate(n_gs):
                groups.setdefault(count, []).append(i)
            l_pair, d_h_b = np.zeros(k), np.empty_like(h_b)
        for count, group in groups.items():
            sel = _entries(group, k)
            rows = sel + (slice(count),)
            try:
                sims, vjp = similarity_matrix(feat_s[rows], h_b[sel], cfg.sim_temperature)
                value, d_sims = pair_loss(sims)
                d_anchor, d_b = vjp(d_sims)
            except Exception as exc:
                raise _blame(exc, group)
            if len(groups) == 1:
                l_pair, d_h_b = value, d_b
            else:
                l_pair[group], d_h_b[sel] = value, d_b
            d_anchor *= w.pair
            d_feat_s[rows] += d_anchor  # `rows` may hold an index array: no view
        d_h_b *= w.pair

    try:
        report = total_loss(l_ce[0], l_ce[1], l_kl, l_pair, l_proto, w)
    except NumericHealthError as exc:
        raise _blame(exc, range(k))
    reports = [report] if k == 1 else [LossReport(*terms) for terms in zip(*(
        getattr(report, f.name).tolist() for f in fields(LossReport)))]
    teacher_backward(
        teacher, np.zeros(logits_t.shape) if d_logits_t is None else d_logits_t, d_h_b
    )
    student_backward(
        student, np.zeros(logits_s.shape) if d_logits_s is None else d_logits_s, d_feat_s
    )

    grads[:, -1] = 0.0
    if cfg.ams_mode == "dynamic" and some_pseudo:
        # Per side that is on, each run's sums of its genuine rows' and of its
        # pseudo rows' losses, as [part][side][run] floats.
        if genuine_rows is None:
            sums = [np.add.reduce(nll[(slice(None),) + part], axis=-1).reshape(-1, k).tolist()
                    for part in (genuine, pseudo)]
        else:
            sums = [[run_sums(side, mask).tolist() for side in nll]
                    for mask in (genuine_rows, pseudo_rows)]
        for i, (theta, count, report) in enumerate(zip(thetas, n_gs, reports)):
            n_p = n - count
            if n_p == 0:
                continue
            # Each side's weighted subset means; 0.0 for a side that is off.
            ce_g, ce_p = [0.0, 0.0], [0.0, 0.0]
            for j, side in enumerate(on):
                ce_g[side] = ce_weights[side] * (sums[0][j][i] / count)
                ce_p[side] = ce_weights[side] * (sums[1][j][i] / n_p)
            loss_genuine = ce_g[0] + ce_g[1] + w.kl * report.l_kl + w.pair * report.l_pair
            loss_pseudo = ce_p[0] + ce_p[1] + w.proto * report.l_proto
            try:
                grads[i, -1] = theta_gradient(theta, loss_genuine, loss_pseudo)
            except NumericHealthError as exc:
                raise _blame(exc, [i])
    return reports, grads


def _add_rows(out: np.ndarray, grad: np.ndarray, rows: Optional[np.ndarray]) -> None:
    """out += grad in place, on the (k, N) `rows` of the stack only (None: all)."""
    if rows is None:
        out += grad
    else:
        np.add(out, grad, out=out, where=rows[..., None])


def _entries(runs: list, k: int) -> tuple:
    """The index of `runs`' entries in the batch arrays of k runs: the whole
    array for one run, which has no run axis; a run's (N, ...) rows; or the
    (len(runs), N, ...) stack of theirs."""
    if k == 1:
        return ()
    if len(runs) == 1:
        return (runs[0],)
    return (slice(None),) if len(runs) == k else (np.array(runs),)


def train_step(
    teacher: TeacherNet,
    student: StudentNet,
    pools: Sequence[tuple[SamplePool, SamplePool]],
    plans: Sequence[BatchPlan],
    protos: PrototypeSet,
    params: np.ndarray,
    adam: AdamState,
    cfg: TrainConfig,
    lr: float,
    step: int,
    decay_mask: np.ndarray,
) -> tuple[PrototypeSet, list]:
    """Run one training step of R runs in lockstep; returns the runs' new
    prototypes, as one set along the run axis, and each run's step trace,
    in run order.

    `teacher` and `student` are the runs' nets along the run axis, and
    `params` is the (R, P) buffer, one row [teacher | student | theta] per
    run, that nets.bind_joint_params bound them to; `pools` and `plans`
    hold one entry per run, and `protos` the runs' (R, C, H) sets (one
    run's (C, H) set, as its nets have no run axis): their running sets
    under the "paired" strategy, whose refresh from the batch stack runs
    once per step_gradients call, and fixed epoch-level sets under "all".
    The runs whose plans have the same size share one step_gradients call
    (every run, unless a plan has a shortfall).  Each
    run's gradient row is clipped on its own; then one Adam update writes
    `params` and `adam` in place, which updates the nets and each theta
    (params[:, -1]); a trace's ratio is the one at the updated theta.  A
    gradient whose global norm is not finite raises NumericHealthError
    before the update, so `params` keeps the last finite values.
    `decay_mask` keeps weight decay off theta; fit builds it once
    (_decay_mask).  A failure that belongs to one run carries its index as
    `exc.run` (see _blame).
    """
    # step_gradients checks that the nets are bound together; here, that their
    # buffer is `params`.
    if teacher._flat.base is not params:
        joint_buffers(teacher, student)  # UsageError if they are not bound together
        raise UsageError("teacher and student are bound to another buffer than params")

    k = len(plans)
    n_stale = np.zeros(k, dtype=np.int64)
    refreshed = []  # (runs, their updated running sets) per step_gradients call

    def prototypes_of(runs):
        """The step_gradients prototype callback for `runs`: an index array, one
        run's index (its nets and set have no run axis), or every run (None)."""
        own = protos if runs is None else protos.select(runs)
        if cfg.proto_strategy == "all":
            return lambda fused, labels, n_genuine: own
        if cfg.proto_strategy == "none":
            return None

        def batch_prototypes(fused, labels, n_genuine) -> PrototypeSet:
            """Batch prototypes from the step's own teacher forward of the genuine rows;
            a set with no stale class has nothing to fill from the running set."""
            batch = compute_batch_prototypes(fused, labels, teacher.num_classes, n_genuine)
            running = update_running_prototypes(own, batch, cfg.proto_momentum)
            refreshed.append((runs, running))
            n_stale[slice(None) if runs is None else runs] = np.add.reduce(batch.stale, axis=-1)
            if np.logical_or.reduce(batch.stale, axis=None):
                return with_fallback(batch, running)
            return batch

        return batch_prototypes

    if cfg.proto_strategy == "all":
        n_stale[:] = np.add.reduce(protos.stale, axis=-1)
    thetas = params[:, -1].tolist()
    sizes = [plan.size for plan in plans]
    by_size: dict = {}
    if sizes.count(sizes[0]) != k:
        for run, size in enumerate(sizes):
            by_size.setdefault(size, []).append(run)
    try:
        if not by_size:
            reports, grads = step_gradients(teacher, student, pools, plans,
                                            prototypes_of(None), thetas, cfg)
        else:  # each size group steps on copies of its rows
            _, grads = joint_buffers(teacher, student)
            reports = [None] * k
            for group in by_size.values():
                rows = params[group]
                nets = stack_runs(teacher, student, rows, np.empty_like(rows))
                pick = lambda items: [items[run] for run in group]
                try:
                    group_reports, group_grads = step_gradients(
                        *nets, pick(pools), pick(plans),
                        prototypes_of(group[0] if len(group) == 1 else np.array(group)),
                        pick(thetas), cfg,
                    )
                except Exception as exc:
                    raise _blame(exc, group)
                grads[group] = group_grads
                for run, report in zip(group, group_reports):
                    reports[run] = report
        for run in range(k):
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
    new_protos = protos
    if len(refreshed) == 1:
        new_protos = refreshed[0][1]
    elif refreshed:
        new_protos = PrototypeSet(values=protos.values.copy(), counts=protos.counts.copy())
        for runs, running in refreshed:
            new_protos.values[runs] = running.values
            new_protos.counts[runs] = running.counts
    traces = []
    for run, (plan, theta, stale) in enumerate(zip(plans, params[:, -1].tolist(),
                                                   n_stale.tolist())):
        try:
            ratio = sampling_ratio(cfg.ams_mode, theta, cfg.fixed_ratio)
        except NumericHealthError as exc:
            raise _blame(exc, [run])
        traces.append(StepTrace(step, reports[run], ratio, theta, lr, plan.n_genuine,
                                plan.n_pseudo, stale))
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
    if prepared(samples):
        pools = samples
    elif any(isinstance(item, SamplePool) for item in samples):
        raise UsageError("a fit's pool pair must come from ams.prepare_pools")
    else:
        pools = prepare_pools(Dataset.from_samples(samples), np.arange(len(samples)))
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
    protos = _along_runs([empty_prototypes(num_classes, feat_dim)] * len(nets))
    epoch_traces: list[list] = [[] for _ in nets]
    step = 0
    batch_size = cfg.batch_size
    # Each run's pools and batch seeds (a function of the step), and the
    # sampling ratios the runs' next batches are drawn with.
    draws = [(paired, unpaired, seed_stream(run_cfg.seed, "batch"))
             for (paired, unpaired), run_cfg in zip(pools, cfgs)]
    ratios = [sampling_ratio(cfg.ams_mode, 0.0, cfg.fixed_ratio)] * len(nets)

    for epoch in range(cfg.epochs):
        if cfg.proto_strategy == "all":
            protos = _along_runs(_each_run(global_prototypes, zip(teachers, pools)))
        sums = [[0] * 6 for _ in nets]  # each run's report terms, summed in step order
        for _ in range(steps_per_epoch):
            plans = []
            for run, ((paired, unpaired, batch_seed), ratio) in enumerate(zip(draws, ratios)):
                try:
                    plans.append(build_batch(paired, unpaired, batch_size, ratio,
                                             batch_seed(step)))
                except Exception as exc:
                    raise _blame(exc, [run])
            lr = cosine_lr(step, total_steps, cfg.learning_rate)
            protos, traces = train_step(
                teacher, student, pools, plans, protos, params, adam, cfg, lr, step,
                decay_mask,
            )
            ratios = []
            for terms, trace in zip(sums, traces):
                ratios.append(trace.ratio)
                report = trace.report
                terms[0] += report.l_tea
                terms[1] += report.l_stu
                terms[2] += report.l_kl
                terms[3] += report.l_pair
                terms[4] += report.l_proto
                terms[5] += report.total
            step += 1
        for run_epochs, terms, trace in zip(epoch_traces, sums, traces):
            run_epochs.append(_epoch_trace(epoch, terms, steps_per_epoch, trace))

    return [
        FitResult(teacher=t, student=s, epoch_traces=traces,
                  prototypes=protos if len(nets) == 1 else protos.select(run), steps=step)
        for run, ((t, s), traces) in enumerate(zip(nets, epoch_traces))
    ]


def _along_runs(sets: list) -> PrototypeSet:
    """The runs' prototype sets along the run axis; one run's set has none, as
    its nets have none."""
    return sets[0] if len(sets) == 1 else PrototypeSet.stack(sets)


def global_prototypes(
    teacher: TeacherNet, pools: tuple[SamplePool, SamplePool]
) -> PrototypeSet:
    """Prototypes from every genuine pair of `pools`, in id order, under the current teacher."""
    paired = pools[0]
    data, rows = paired.data, paired.rows
    _, fused = teacher_features(teacher, data.feat_a[rows], data.feat_b[rows])
    return compute_batch_prototypes(fused, paired.labels, teacher.num_classes)


def _epoch_trace(epoch: int, sums: list, n: int, last: StepTrace) -> EpochTrace:
    """The epoch's mean report terms from their sums over its n steps, which the
    fit adds up from 0 in step order, as sum() would; theta, ratio and lr are
    the last step's."""
    l_tea, l_stu, l_kl, l_pair, l_proto, total = (value / n for value in sums)
    return EpochTrace(epoch=epoch, l_tea=l_tea, l_stu=l_stu, l_kl=l_kl, l_pair=l_pair,
                      l_proto=l_proto, total=total, theta=last.theta, ratio=last.ratio,
                      lr=last.lr)


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
