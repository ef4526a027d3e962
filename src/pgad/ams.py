"""Adaptive sampling of genuine pairs versus same-class pseudo-pairs.

A batch plan names which paired samples enter the batch as genuine pairs
and which unpaired modality-A samples get a same-class modality-B donor.
The genuine share is ceil(r * B) with r = sigmoid(theta) in dynamic mode,
a constant in fixed mode, and 1.0 (genuine-only batches) when disabled.

theta has no pathwise gradient because batch composition is a discrete
draw.  theta_gradient therefore differentiates the expected-loss surrogate

    L(theta) = r * loss_paired + (1 - r) * loss_pseudo

which gives d L / d theta = (loss_paired - loss_pseudo) * r * (1 - r).
The realized batches still follow the rounded counts.  theta itself lives
in the trainer's parameter buffer; the functions here take plain values.

prepare_pools takes a fit's training set as a synthdata.Dataset and the
rows to train on, validates it once and returns it as two SamplePools of
id-sorted, read-only columns gathered by row index: the genuine pairs, and
the modality-A-only recipients, which have no modality-B column.  Each
step's build_batch call draws a plan from them that names the batch by
ids and carries the rows it drew (BatchPlan.rows), so the trainer gathers
the batch without looking the ids up.  Lists of Samples are converted to
a Dataset first, so the sample API runs the same checks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Optional, Sequence

from .errors import (
    ConfigError,
    DonorExhaustionError,
    NumericHealthError,
    ProtocolError,
    RangeError,
    UsageError,
)
import numpy as np

from .synthdata import Dataset, Sample

AMS_MODES = ("none", "fixed", "dynamic")


def sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class BatchPlan:
    genuine: tuple
    pseudo: tuple  # (recipient modality-A id, donor id, shared class) triples
    unpaired_student_only: tuple
    shortfall: int = 0
    # (paired pool, unpaired pool, paired rows, unpaired rows) of the draw that
    # made this plan; not an init field, so dataclasses.replace drops it.
    _drawn: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.genuine) + len(self.pseudo)

    def rows(
        self, paired_pool: "SamplePool", unpaired_pool: "SamplePool"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of the batch: (paired-pool rows of the genuine pairs
        then of the donors, unpaired-pool rows of the recipients).

        These are the rows build_batch drew from these very pool objects.
        A plan not drawn from them, such as a dataclasses.replace edit or
        a plan drawn from other pools that hold the same samples, raises
        UsageError.
        """
        drawn = self._drawn
        if drawn is None or drawn[0] is not paired_pool or drawn[1] is not unpaired_pool:
            raise UsageError("the plan was not drawn by build_batch from these pools")
        return drawn[2], drawn[3]


def sampling_ratio(mode: str, theta: float, fixed_ratio: float) -> float:
    """Share of the batch reserved for genuine pairs (building a TrainConfig checks
    mode and fixed_ratio; a non-finite theta in dynamic mode is NumericHealthError)."""
    if mode == "none":
        return 1.0
    if mode == "fixed":
        return fixed_ratio
    if not math.isfinite(theta):
        raise NumericHealthError(f"theta must be finite, got {theta}")
    return sigmoid(theta)


class SamplePool:
    """An immutable AMS pool: rows of a dataset that are all paired or all unpaired.

    A pool takes `rows` of a Dataset (all of them by default).  Ids are
    unique within a pool.  The pool's columns are its rows sorted by id, as
    read-only arrays: int64 `ids` and `labels`, the `feat_a` matrix and, in
    a paired pool only, `feat_b` (None in an unpaired pool).
    `class_counts` maps each label to its number of rows; iterating a pool
    yields its rows as Samples, built on the first iteration and kept, as
    the pool never changes.  An unpaired pool built with `donors` is
    checked against that paired pool: the donor pool is nonempty, the two
    pools share no id, and every class of the unpaired pool has a donor.
    build_batch draws from such a pair without checking it again.
    """

    __slots__ = ("ids", "labels", "feat_a", "feat_b", "class_counts", "donors", "_samples")

    def __init__(
        self,
        data: Dataset,
        paired: bool,
        donors: Optional["SamplePool"] = None,
        rows: Optional[np.ndarray] = None,
    ):
        if paired and donors is not None:
            raise UsageError("only an unpaired pool draws from a donor pool")
        if donors is not None and not donors:
            raise ProtocolError(
                "paired pool is empty: every batch needs at least one genuine pair"
            )
        rows = np.arange(len(data)) if rows is None else np.asarray(rows, dtype=np.int64)
        ids, labels = data.ids[rows], data.labels[rows]
        wrong = np.flatnonzero(data.paired[rows] != paired)
        if wrong.size:
            detail = "has no modality-B features" if paired else "is paired"
            kind = "paired" if paired else "unpaired"
            raise UsageError(f"sample {ids[wrong[0]]} in the {kind} pool {detail}")
        if donors is not None:
            overlap = np.intersect1d(donors.ids, ids)
            if overlap.size:
                raise UsageError(
                    f"pools must be disjoint, shared ids: {overlap[:5].tolist()}"
                )
            lacking = np.flatnonzero(~np.isin(labels, list(donors.class_counts)))
            if lacking.size:
                raise DonorExhaustionError(
                    f"class {labels[lacking[0]]} has unpaired samples but no paired donor"
                )
        order = np.argsort(ids, kind="stable")
        rows, ids, labels = rows[order], ids[order], labels[order]
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise UsageError(f"ids repeat within a pool: {repeated[:5].tolist()}")
        feat_a = data.feat_a[rows]
        feat_b = data.feat_b[rows] if paired else None
        for column in (ids, labels, feat_a, feat_b):
            if column is not None:
                column.flags.writeable = False
        classes, counts = np.unique(labels, return_counts=True)
        class_counts = MappingProxyType(dict(zip(classes.tolist(), counts.tolist())))
        for name, value in (
            ("ids", ids), ("labels", labels), ("feat_a", feat_a), ("feat_b", feat_b),
            ("class_counts", class_counts), ("donors", donors), ("_samples", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"SamplePool is immutable, cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Sample]:
        if self._samples is None:
            feat_b = self.feat_b if self.feat_b is not None else [None] * len(self)
            rows = zip(self.ids.tolist(), self.labels.tolist(), self.feat_a, feat_b)
            object.__setattr__(self, "_samples", tuple(
                Sample(id=i, label=c, feat_a=a, feat_b=b) for i, c, a, b in rows
            ))
        return iter(self._samples)


def prepare_pools(data, rows) -> tuple[SamplePool, SamplePool]:
    """A training set as its (paired, unpaired) pool pair, validated and sorted once.

    `data` is a Dataset and `rows` the rows of it to train on, which its
    paired mask splits between the pools.  The sample API's form, paired
    Samples and unpaired Samples, is stacked into one Dataset and each
    sample is checked to be in the right pool.  Raises what build_batch
    raises for bad pools: ProtocolError for an empty paired pool,
    UsageError for a sample in the wrong pool or an id repeated within or
    across the pools, DonorExhaustionError for an unpaired class without a
    paired donor.
    """
    if isinstance(data, Dataset):
        rows = np.asarray(rows, dtype=np.int64)
        is_paired = data.paired[rows]
        paired_rows, unpaired_rows = rows[is_paired], rows[~is_paired]
    else:  # the sample API: (paired Samples, unpaired Samples)
        paired_samples, unpaired_samples = list(data), list(rows)
        data = Dataset.from_samples(paired_samples + unpaired_samples)
        paired_rows = np.arange(len(paired_samples))
        unpaired_rows = np.arange(len(paired_samples), len(data))
    paired = SamplePool(data, paired=True, rows=paired_rows)
    return paired, SamplePool(data, paired=False, donors=paired, rows=unpaired_rows)


def prepared(pools: Sequence) -> bool:
    """Whether `pools` is a (paired, unpaired) pair that prepare_pools returned."""
    return (len(pools) == 2 and isinstance(pools[1], SamplePool)
            and pools[1].donors is pools[0])


def build_batch(
    paired_pool: Sequence[Sample],
    unpaired_pool: Sequence[Sample],
    batch_size: int,
    r: float,
    seed: int,
) -> BatchPlan:
    """Compose one batch: ceil(r*B) genuine pairs, pseudo-pairs for the rest.

    Donors are drawn per class without replacement within the batch (a
    paired sample may appear once as its own genuine pair and once as a
    donor, but never donates twice).  When pseudo-pairs cannot fill the
    remainder, unused genuine pairs top the batch up; any residual gap is
    reported via `shortfall` rather than padded.  Deterministic given seed,
    and independent of the order of either pool.

    Pools from prepare_pools are drawn from directly; any other pools are
    prepared first, which validates and sorts them on every call.
    """
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    if not (0.0 <= r <= 1.0):
        raise RangeError(f"sampling ratio must be in [0, 1], got {r}")
    if not prepared((paired_pool, unpaired_pool)):
        paired_pool, unpaired_pool = prepare_pools(paired_pool, unpaired_pool)

    rng = np.random.default_rng(seed)
    n_genuine = min(math.ceil(r * batch_size), len(paired_pool), batch_size)
    order = rng.permutation(len(paired_pool))

    remainder = batch_size - n_genuine
    recipient_rows = donor_rows = classes = np.empty(0, dtype=np.int64)
    if remainder > 0 and len(unpaired_pool):
        recipients = rng.permutation(len(unpaired_pool))
        recipient_rows, donor_rows, classes = _pseudo_pairs(
            paired_pool, unpaired_pool, order, recipients, remainder
        )

    # Unused genuine pairs, in draw order, top up what pseudo-pairs left open.
    genuine_rows = order[: max(n_genuine, batch_size - len(recipient_rows))]
    recipient_ids = tuple(unpaired_pool.ids[recipient_rows].tolist())
    plan = BatchPlan(
        genuine=tuple(paired_pool.ids[genuine_rows].tolist()),
        pseudo=tuple(zip(recipient_ids, paired_pool.ids[donor_rows].tolist(), classes.tolist())),
        unpaired_student_only=recipient_ids,
        shortfall=batch_size - len(genuine_rows) - len(recipient_rows),
    )
    paired_rows = np.concatenate((genuine_rows, donor_rows))
    paired_rows.flags.writeable = recipient_rows.flags.writeable = False
    object.__setattr__(plan, "_drawn", (paired_pool, unpaired_pool, paired_rows, recipient_rows))
    return plan


def _pseudo_pairs(
    paired_pool: SamplePool,
    unpaired_pool: SamplePool,
    order: np.ndarray,
    recipients: np.ndarray,
    remainder: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(recipient rows, donor rows, classes) of the pseudo-pairs of one batch.

    Recipients are taken in draw order.  Each class hands out its donors in
    reverse paired draw order, one per recipient, so a recipient of
    within-class rank k is served if its class has more than k donors, and
    the first `remainder` served recipients are kept.  A rank over a prefix
    of an order equals its rank over the whole order, so both scans grow a
    prefix until it holds what the batch needs instead of walking whole pools.
    """
    donor_counts = paired_pool.class_counts
    n = remainder
    while True:
        labels = unpaired_pool.labels[recipients[:n]]
        served = np.zeros(len(labels), dtype=bool)
        for c in unpaired_pool.class_counts:
            is_c = labels == c
            served |= is_c & (is_c.cumsum() <= donor_counts[c])
        chosen = served.nonzero()[0][:remainder]
        if len(chosen) == remainder or n >= len(recipients):
            break
        n *= 2
    labels = labels[chosen]

    # The served recipients of a class have ranks 0, 1, ..., so they take
    # that class's first donors in reverse draw order, in recipient order.
    reverse = order[::-1]
    donors = np.empty(len(chosen), dtype=np.int64)
    for c in unpaired_pool.class_counts:
        is_c = labels == c
        k = int(np.count_nonzero(is_c))
        if not k:
            continue
        m = 2 * k * len(reverse) // donor_counts[c]  # twice the expected scan
        while True:
            window = reverse[:m]
            found = window[paired_pool.labels[window] == c][:k]
            if len(found) == k or m >= len(reverse):
                break
            m *= 2
        donors[is_c] = found
    return recipients[chosen], donors, labels


def theta_gradient(theta: float, loss_paired: float, loss_pseudo: float) -> float:
    """d(expected loss)/d(theta) under the surrogate described in the module docstring."""
    if not math.isfinite(loss_paired) or not math.isfinite(loss_pseudo):
        raise NumericHealthError(
            f"subset losses must be finite, got paired={loss_paired}, pseudo={loss_pseudo}"
        )
    r = sigmoid(theta)
    return (loss_paired - loss_pseudo) * r * (1.0 - r)


def export_ams_trace_csv(rows, path) -> None:
    """Write (epoch, theta, ratio) rows for offline ratio-evolution plots."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "theta", "ratio"])
        for epoch, theta, ratio in rows:
            writer.writerow([epoch, repr(float(theta)), repr(float(ratio))])
