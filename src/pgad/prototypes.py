"""Class prototypes: per-class means of teacher fused features of paired samples.

A PrototypeSet is a value object: every update returns a new set.  The
`stale` flag marks classes whose stored vector is not backed by data from
the relevant source (absent from the batch, or never observed for a
running set); stale entries are excluded from nearest-prototype queries.

A class mean is np.add.reduce(rows, axis=0) / count, the reduction
ndarray.mean runs, so it has the same bits without the wrapper's cost.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ProtocolError, ShapeError

PROTO_MOMENTUM_DEFAULT = 0.9


@dataclass(frozen=True)
class PrototypeSet:
    dim: int
    values: np.ndarray  # (num_classes, dim)
    counts: np.ndarray  # (num_classes,) ints
    stale: np.ndarray  # (num_classes,) bools

    @property
    def num_classes(self) -> int:
        return self.values.shape[0]

    def usable(self) -> np.ndarray:
        return ~self.stale


def empty_prototypes(num_classes: int, dim: int) -> PrototypeSet:
    """All-stale set: no class has been observed yet."""
    return PrototypeSet(
        dim=dim,
        values=np.zeros((num_classes, dim)),
        counts=np.zeros(num_classes, dtype=np.int64),
        stale=np.ones(num_classes, dtype=bool),
    )


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

    dim = fused_feats.shape[1]
    values = np.zeros((num_classes, dim))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        rows = fused_feats[labels == c]
        counts[c] = len(rows)
        if len(rows):
            values[c] = np.add.reduce(rows, axis=0) / len(rows)
    return PrototypeSet(dim=dim, values=values, counts=counts, stale=counts == 0)


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
    stale = running.stale.copy()
    for c in range(running.num_classes):
        if batch.stale[c]:
            continue
        if running.stale[c]:
            values[c] = batch.values[c]
        else:
            values[c] = momentum * running.values[c] + (1.0 - momentum) * batch.values[c]
        counts[c] = running.counts[c] + batch.counts[c]
        stale[c] = False
    return PrototypeSet(dim=running.dim, values=values, counts=counts, stale=stale)


def with_fallback(batch: PrototypeSet, fallback: PrototypeSet) -> PrototypeSet:
    """Fill classes stale in `batch` from `fallback`; usable wherever either has data."""
    if batch.dim != fallback.dim or batch.num_classes != fallback.num_classes:
        raise ShapeError("prototype sets are not compatible")
    values = batch.values.copy()
    counts = batch.counts.copy()
    stale = batch.stale.copy()
    fill = batch.stale & ~fallback.stale
    values[fill] = fallback.values[fill]
    counts[fill] = fallback.counts[fill]
    stale[fill] = False
    return PrototypeSet(dim=batch.dim, values=values, counts=counts, stale=stale)


def nearest_prototypes_batch(feats: np.ndarray, protos: PrototypeSet) -> tuple[np.ndarray, np.ndarray]:
    """Class index and squared distance of each row's nearest usable prototype.

    Ties go to the lowest class index.
    """
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != protos.dim:
        raise ShapeError(f"expected feature matrix (N, {protos.dim}), got shape {feats.shape}")
    usable = protos.usable()
    if not usable.any():
        raise ProtocolError("no usable prototype: every class is stale")
    d2 = ((feats[:, None, :] - protos.values[None, :, :]) ** 2).sum(axis=2)
    d2 = np.where(usable[None, :], d2, np.inf)
    idx = np.argmin(d2, axis=1)
    return idx.astype(np.int64), d2[np.arange(feats.shape[0]), idx]


def export_prototypes_csv(protos: PrototypeSet, path) -> None:
    """Write one row per class: class,count,stale,z_0..z_{H-1}."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "count", "stale"] + [f"z_{i}" for i in range(protos.dim)])
        for c in range(protos.num_classes):
            row = [c, int(protos.counts[c]), int(protos.stale[c])]
            row += [repr(float(v)) for v in protos.values[c]]
            writer.writerow(row)
