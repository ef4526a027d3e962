"""Class prototypes: per-class means of teacher fused features of paired samples.

A PrototypeSet is a value object: every update returns a new set.  The
`stale` flag, derived from the counts when the set is built, marks classes
whose stored vector is not backed by data from the relevant source (absent
from the batch, or never observed for a running set); stale entries are
excluded from nearest-prototype queries.  A set along the run axis holds
one set per run: (R, C, H) values and (R, C) counts, which the stacked
loss terms match against.

A class mean is np.add.reduce(rows, axis=0) / count, the reduction
ndarray.mean runs, so it has the same bits without the wrapper's cost.
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
    fused_feats: np.ndarray, labels, num_classes: int
) -> PrototypeSet:
    """Per-class arithmetic means of the given features.

    Classes absent from the batch come back stale with count 0.  An empty
    feature matrix is allowed and yields an all-stale set; the trainer is
    responsible for falling back to a running set in that case.
    """
    fused_feats = np.asarray(fused_feats, dtype=np.float64)
    if fused_feats.ndim != 2:
        raise ShapeError(f"expected feature matrix (N, H), got shape {fused_feats.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (fused_feats.shape[0],):
        raise ShapeError(
            f"expected {fused_feats.shape[0]} labels, got shape {labels.shape}"
        )
    if labels.size:
        low, high = np.minimum.reduce(labels), np.maximum.reduce(labels)
        if low < 0 or high >= num_classes:
            raise LabelError(f"labels must lie in [0, {num_classes}), got range [{low}, {high}]")

    values = np.zeros((num_classes, fused_feats.shape[1]))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        rows = fused_feats[labels == c]
        counts[c] = len(rows)
        if len(rows):
            values[c] = np.add.reduce(rows, axis=0) / len(rows)
    return PrototypeSet(values=values, counts=counts)


def update_running_prototypes(
    running: PrototypeSet, batch: PrototypeSet, momentum: float
) -> PrototypeSet:
    """Momentum-blend batch prototypes into a running set.

    Classes present in the batch move to m*running + (1-m)*batch; a class
    the running set has never observed adopts the batch value outright
    (blending against the zero placeholder would drag it toward the
    origin).  Classes stale in the batch keep their running entry.
    """
    if running.dim != batch.dim:
        raise ShapeError(f"prototype dims differ: running {running.dim} vs batch {batch.dim}")
    if running.num_classes != batch.num_classes:
        raise ShapeError(
            f"class counts differ: running {running.num_classes} vs batch {batch.num_classes}"
        )
    if not (0.0 <= momentum < 1.0):
        raise ShapeError(f"momentum must be in [0, 1), got {momentum}")

    values = running.values.copy()
    counts = running.counts.copy()
    for c in range(running.num_classes):
        if batch.stale[c]:
            continue
        if running.stale[c]:
            values[c] = batch.values[c]
        else:
            values[c] = momentum * running.values[c] + (1.0 - momentum) * batch.values[c]
        counts[c] = running.counts[c] + batch.counts[c]
    return PrototypeSet(values=values, counts=counts)


def with_fallback(batch: PrototypeSet, fallback: PrototypeSet) -> PrototypeSet:
    """Fill classes stale in `batch` from `fallback`; usable wherever either has data."""
    if batch.dim != fallback.dim or batch.num_classes != fallback.num_classes:
        raise ShapeError("prototype sets are not compatible")
    values = batch.values.copy()
    counts = batch.counts.copy()
    fill = batch.stale & ~fallback.stale
    values[fill] = fallback.values[fill]
    counts[fill] = fallback.counts[fill]
    return PrototypeSet(values=values, counts=counts)


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
