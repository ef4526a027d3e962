"""Class prototypes: per-class means of teacher fused features of paired samples.

A PrototypeSet is a value object: every update returns a new set.  The
`stale` flag, derived from the counts when the set is built, marks classes
whose stored vector is not backed by data from the relevant source (absent
from the batch, or never observed for a running set); stale entries are
excluded from nearest-prototype queries.  A set along the run axis holds
one set per run: (R, C, H) values and (R, C) counts, which the stacked
loss terms match against.

The refresh of a training step is one path for one run and for R runs:
compute_batch_prototypes takes the step's (R, N, H) batch stack and each
run's genuine count, and update_running_prototypes and with_fallback
work on (R, C, H) sets, all with array operations over the run axis.  A
class mean is np.add.reduce over the batch rows, with zeros in the rows
of other classes and other runs' uncounted rows, over the class count.
That reduction adds the rows one after another, as
np.add.reduce(rows, axis=0) of the class's rows alone does for H > 1, so
each run keeps the bits it gets on its own.  For H = 1 NumPy sums a
class's rows alone pairwise, so one-dimensional means reduce each run's
class rows on their own.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import LabelError, ProtocolError, ShapeError

PROTO_MOMENTUM_DEFAULT = 0.9


@dataclass(frozen=True)
class PrototypeSet:
    values: np.ndarray  # (num_classes, dim), or (R, num_classes, dim) along the run axis
    counts: np.ndarray  # (num_classes,) ints, or (R, num_classes)
    stale: np.ndarray = field(init=False)  # bools of the counts' shape: counts == 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stale", self.counts == 0)

    @classmethod
    def stack(cls, sets) -> "PrototypeSet":
        """The runs' sets along the run axis, in order."""
        return cls(values=np.stack([p.values for p in sets]),
                   counts=np.stack([p.counts for p in sets]))

    def select(self, runs) -> "PrototypeSet":
        """The sets of `runs` of a set along the run axis: one run's set for
        an index, the runs' stack for an index array or a slice."""
        return PrototypeSet(values=self.values[runs], counts=self.counts[runs])

    @property
    def num_classes(self) -> int:
        return self.values.shape[-2]

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def usable(self) -> np.ndarray:
        return ~self.stale


def empty_prototypes(num_classes: int, dim: int) -> PrototypeSet:
    """All-stale set: no class has been observed yet."""
    return PrototypeSet(values=np.zeros((num_classes, dim)),
                        counts=np.zeros(num_classes, dtype=np.int64))


def compute_batch_prototypes(
    fused_feats: np.ndarray, labels, num_classes: int, n_rows=None
) -> PrototypeSet:
    """Per-class arithmetic means of the given features.

    Takes one run's (N, H) features and N labels, or R runs' (R, N, H) and
    (R, N) along the run axis.  Each run's means run over its first
    n_rows rows (an int for one run, R ints along the run axis; default:
    all N), so a training step passes its batch stack and each run's
    genuine count.  Classes absent from those rows come back stale with
    count 0.  No counted row at all is allowed and yields an all-stale set;
    the trainer is responsible for falling back to a running set in that
    case.
    """
    fused_feats = np.asarray(fused_feats, dtype=np.float64)
    if fused_feats.ndim not in (2, 3):
        raise ShapeError(f"expected features (N, H) or (R, N, H), got shape {fused_feats.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != fused_feats.shape[:-1]:
        raise ShapeError(
            f"expected labels of shape {fused_feats.shape[:-1]}, got shape {labels.shape}"
        )
    if n_rows is not None:  # no run counts the rows past the largest count
        n_rows = np.asarray(n_rows)
        top = int(np.maximum.reduce(n_rows, axis=None))
        fused_feats, labels = fused_feats[..., :top, :], labels[..., :top]
    if labels.size:
        low, high = np.minimum.reduce(labels, axis=None), np.maximum.reduce(labels, axis=None)
        if low < 0 or high >= num_classes:
            raise LabelError(f"labels must lie in [0, {num_classes}), got range [{low}, {high}]")

    # member[i, ..., c]: row i of a run counts toward class c.  The rows hold
    # each class's features and zeros elsewhere, rows outermost, so one reduce
    # over them adds a class's rows one after another for every run and class
    # at once; adding a zero row leaves a sum as it was.
    member = labels.T[..., None] == np.arange(num_classes)
    if n_rows is not None and np.minimum.reduce(n_rows, axis=None) < top:
        member &= (np.arange(labels.shape[-1]) < n_rows[..., None]).T[..., None]
    counts = np.add.reduce(member, axis=0, dtype=np.int64)
    if fused_feats.shape[-1] == 1:
        # NumPy sums one column of values pairwise, not one after another, so a
        # one-dimensional mean reduces its run's class rows alone.
        column = fused_feats[..., 0]
        sums = np.zeros(counts.shape + (1,))
        for idx in np.ndindex(counts.shape):
            sums[idx] = np.add.reduce(column[idx[:-1]][member[(slice(None),) + idx]])
    else:
        rows = np.zeros(member.shape + fused_feats.shape[-1:])
        np.copyto(rows, fused_feats.swapaxes(0, -2)[..., None, :], where=member[..., None])
        sums = np.add.reduce(rows, axis=0)
    return PrototypeSet(values=sums / np.maximum(counts, 1)[..., None], counts=counts)


def update_running_prototypes(
    running: PrototypeSet, batch: PrototypeSet, momentum: float
) -> PrototypeSet:
    """Momentum-blend batch prototypes into a running set.

    Classes present in the batch move to m*running + (1-m)*batch; a class
    the running set has never observed adopts the batch value outright
    (blending against the zero placeholder would drag it toward the
    origin).  Classes stale in the batch keep their running entry.  Both
    sets are one run's (C, H), or R runs' (R, C, H) along the run axis.
    """
    if running.values.shape != batch.values.shape:
        raise ShapeError(f"prototype sets differ in shape: running {running.values.shape} "
                         f"vs batch {batch.values.shape}")
    if not (0.0 <= momentum < 1.0):
        raise ShapeError(f"momentum must be in [0, 1), got {momentum}")

    present = ~batch.stale[..., None]
    blend = momentum * running.values + (1.0 - momentum) * batch.values
    values = np.where(present & ~running.stale[..., None], blend,
                      np.where(present, batch.values, running.values))
    # a class stale in the batch has count 0 there, so its running count stays
    return PrototypeSet(values=values, counts=running.counts + batch.counts)


def with_fallback(batch: PrototypeSet, fallback: PrototypeSet) -> PrototypeSet:
    """Fill classes stale in `batch` from `fallback`; usable wherever either has data.
    Both sets are (C, H), or (R, C, H) along the run axis."""
    if batch.values.shape != fallback.values.shape:
        raise ShapeError("prototype sets are not compatible")
    fill = batch.stale & ~fallback.stale
    return PrototypeSet(values=np.where(fill[..., None], fallback.values, batch.values),
                        counts=np.where(fill, fallback.counts, batch.counts))


def nearest_prototypes_batch(feats: np.ndarray, protos: PrototypeSet) -> tuple[np.ndarray, np.ndarray]:
    """Class index and squared distance of each row's nearest usable prototype.

    Takes (N, H) features and a set of (C, H) prototypes, or (R, N, H) and
    a set along the run axis.  Ties go to the lowest class index.
    """
    feats = np.asarray(feats, dtype=np.float64)
    lead = protos.values.shape[:-2]
    if feats.ndim != len(lead) + 2 or feats.shape[:-2] != lead or feats.shape[-1] != protos.dim:
        raise ShapeError(f"expected features of shape {lead + ('N', protos.dim)}, "
                         f"got shape {feats.shape}")
    usable = protos.usable()
    any_usable = np.logical_or.reduce(usable, axis=-1, keepdims=True)
    if not np.logical_and.reduce(any_usable, axis=None):
        error = ProtocolError("no usable prototype: every class is stale")
        if any_usable.ndim > 1:  # the first run of a stack without one
            error.run = int(np.argwhere(~any_usable)[0][0])
        raise error
    d2 = ((feats[..., :, None, :] - protos.values[..., None, :, :]) ** 2).sum(axis=-1)
    d2 = np.where(usable[..., None, :], d2, np.inf)
    idx = np.argmin(d2, axis=-1)
    return idx.astype(np.int64), np.take_along_axis(d2, idx[..., None], axis=-1)[..., 0]


def export_prototypes_csv(protos: PrototypeSet, path) -> None:
    """Write one row per class: class,count,stale,z_0..z_{H-1}."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "count", "stale"] + [f"z_{i}" for i in range(protos.dim)])
        for c in range(protos.num_classes):
            row = [c, int(protos.counts[c]), int(protos.stale[c])]
            row += [repr(float(v)) for v in protos.values[c]]
            writer.writerow(row)
