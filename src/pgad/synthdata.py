"""Synthetic two-modality classification data with controllable missingness.

Each sample carries a modality-A feature vector, an optional modality-B
vector, and a class label.  Both modalities are driven by a shared
per-sample latent plus class-dependent means, so modality B carries real
complementary information rather than independent noise.  Missingness is
applied per class so the missing rate does not confound class balance.

The data is held as columns: a Dataset has one row per sample and a
`paired` mask saying whose modality B is observed.  The features do not
depend on the missing rate, so draw_datasets makes one feature draw and
masks it once per rate with paired_mask, and kfold_rows splits the rows into
folds.  The dataset CSV is read and written column by column too.  The
sample API (Sample, generate_dataset, apply_missingness, stratified_kfold)
adapts the drawing functions to lists of Sample objects.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InfeasibleSplitError,
    ProtocolError,
    RangeError,
    ShapeError,
    UsageError,
)
from .seeding import derive_seed


@dataclass(frozen=True)
class Sample:
    """One subject: modality-A features, optional modality-B features, label."""

    id: int
    label: int
    feat_a: np.ndarray
    feat_b: Optional[np.ndarray]

    @property
    def paired(self) -> bool:
        return self.feat_b is not None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Samples as read-only columns, one row per sample.

    `ids` and `labels` are int64 vectors, `feat_a` and `feat_b` the (n, dim_a)
    and (n, dim_b) feature matrices, and `paired` a bool mask: a row's
    modality B is observed where it is True, and its `feat_b` row must not be
    read where it is False.  Datasets masked from one draw share that draw's
    arrays.  Two datasets are equal when their columns are, except that
    only the paired rows of `feat_b` are compared (NaN cells compare equal),
    and a dataset unpickles with read-only columns again.
    """

    ids: np.ndarray
    labels: np.ndarray
    feat_a: np.ndarray
    feat_b: np.ndarray
    paired: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            column = np.asarray(getattr(self, f.name)).view()  # a view: the caller's flags stay
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        n = len(self.ids)
        if (self.ids.shape != (n,) or self.labels.shape != (n,) or self.paired.shape != (n,)
                or self.feat_a.ndim != 2 or self.feat_b.ndim != 2
                or len(self.feat_a) != n or len(self.feat_b) != n):
            raise ShapeError(
                f"dataset columns disagree: ids {self.ids.shape}, labels {self.labels.shape}, "
                f"feat_a {self.feat_a.shape}, feat_b {self.feat_b.shape}, "
                f"paired {self.paired.shape}"
            )

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            all(np.array_equal(getattr(self, name), getattr(other, name),
                               equal_nan=getattr(self, name).dtype.kind == "f")
                for name in ("ids", "labels", "feat_a", "paired"))
            and self.feat_b.shape == other.feat_b.shape
            and np.array_equal(self.feat_b[self.paired], other.feat_b[other.paired],
                               equal_nan=True)
        )

    def __reduce__(self):
        return Dataset, tuple(getattr(self, f.name) for f in fields(self))

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_samples(cls, samples: Sequence[Sample]) -> "Dataset":
        """The columns of `samples`, in their order; unobserved `feat_b` rows are NaN."""
        samples = list(samples)
        missing = np.full(next((s.feat_b.shape[0] for s in samples if s.paired), 0), np.nan)
        empty = np.empty((0, 0))
        return cls(
            ids=np.array([s.id for s in samples], dtype=np.int64),
            labels=np.array([s.label for s in samples], dtype=np.int64),
            feat_a=np.stack([s.feat_a for s in samples]) if samples else empty,
            feat_b=(np.stack([s.feat_b if s.paired else missing for s in samples])
                    if samples else empty),
            paired=np.array([s.paired for s in samples], dtype=bool),
        )

    def samples(self) -> list[Sample]:
        """The rows as Samples, each with its own copy of its features."""
        return [
            Sample(id=i, label=c, feat_a=a.copy(), feat_b=b.copy() if p else None)
            for i, c, a, b, p in zip(self.ids.tolist(), self.labels.tolist(), self.feat_a,
                                     self.feat_b, self.paired.tolist())
        ]


@dataclass(frozen=True)
class DatasetConfig:
    num_classes: int
    samples_per_class: int
    dim_a: int
    dim_b: int
    class_separation: float
    noise_scale: float
    missing_rate: float
    seed: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.samples_per_class < 2:
            raise ConfigError(f"samples_per_class must be >= 2, got {self.samples_per_class}")
        if self.dim_a < 1:
            raise ConfigError(f"dim_a must be >= 1, got {self.dim_a}")
        if self.dim_b < 1:
            raise ConfigError(f"dim_b must be >= 1, got {self.dim_b}")
        if self.dim_a < self.num_classes:
            raise ConfigError(
                f"dim_a must be >= num_classes to place class means, got dim_a={self.dim_a}"
            )
        if self.dim_b < self.num_classes:
            raise ConfigError(
                f"dim_b must be >= num_classes to place class means, got dim_b={self.dim_b}"
            )
        if not (self.class_separation >= 0.0) or not math.isfinite(self.class_separation):
            raise ConfigError(f"class_separation must be >= 0, got {self.class_separation}")
        if not (self.noise_scale > 0.0) or not math.isfinite(self.noise_scale):
            raise ConfigError(f"noise_scale must be > 0, got {self.noise_scale}")
        if not (0.0 <= self.missing_rate <= 1.0):
            raise ConfigError(f"missing_rate must be in [0, 1], got {self.missing_rate}")


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_ids: tuple
    test_ids: tuple


def round_half_up(x: float) -> int:
    """Round with half-up tie-breaking (0.5 -> 1), used for all count rounding."""
    return int(math.floor(x + 0.5))


def _orthonormal_directions(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Gram-Schmidt basis of `count` seeded random directions in `dim` dims."""
    raw = rng.standard_normal((count, dim))
    basis = []
    for v in raw:
        for b in basis:
            v = v - (v @ b) * b
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            raise ProtocolError("degenerate random directions while placing class means")
        basis.append(v / norm)
    return np.stack(basis)


SHARED_MEAN_FRACTION = 1.0 / 3.0
"""Fraction of squared class-mean separation placed in latent coordinates
both modalities see at full strength.  The remainder sits in coordinates
modality B observes fully but modality A only faintly."""

B_BLOCK_TRACE_IN_A = 0.4
"""Amplitude at which modality A observes the B-dominant latent block.
Strictly between 0 and 1: modality A retains a weak, learnable trace of
the class signal that modality B sees at full strength, so a teacher with
access to B holds knowledge a student limited to A can still apply."""


def generate_dataset(cfg: DatasetConfig) -> list[Sample]:
    """Generate `num_classes * samples_per_class` labeled two-modality samples.

    The samples of draw_datasets(cfg, [cfg.missing_rate]): ids 0..n-1 in
    class order, with exactly round(missing_rate * samples_per_class)
    samples per class lacking feat_b.  Fully deterministic given (cfg, cfg.seed).
    """
    return draw_datasets(cfg, (cfg.missing_rate,))[0].samples()


def draw_datasets(cfg: DatasetConfig, rates: Sequence[float]) -> tuple[Dataset, ...]:
    """One feature draw from `cfg`, masked at each of `rates` (cfg.missing_rate is unused).

    Each sample draws a latent vector z = mu[class] + eps with unit Gaussian
    eps.  The latent splits into a shared block (coordinates 0..s-1) and a
    B-dominant block; class means place one third of their squared separation
    in the shared block and two thirds in the B-dominant block (pairwise
    latent mean distance is exactly `class_separation`).  Modality B observes
    the whole latent at full strength while modality A sees the B-dominant
    block attenuated to a faint trace, through column-orthonormal mixing:

        feat_a = Q_a @ (z * [1,..,1, g,..,g]) + noise_scale * eps_a
        feat_b = Q_b @ z                      + noise_scale * eps_b

    with g = B_BLOCK_TRACE_IN_A.  Modality B therefore carries class
    information at far higher signal-to-noise than A, while the shared
    latent correlates the two modalities sample by sample.  The B-dominant
    block needs latent room: when min(dim_a, dim_b, 8) < 2 * num_classes the
    entire mean goes into the shared block and B degenerates to a correlated
    copy of A.  Ids are 0..n-1 in class order.  The features do not depend
    on the rate, so the returned datasets share one set of id, label and
    feature arrays and differ only in their paired_mask, drawn with the seed
    derived from (cfg.seed, "missing") at every rate.  Fully deterministic
    given (cfg, rates).
    """
    rng = np.random.default_rng(derive_seed(cfg.seed, "gen"))

    n_cls = cfg.num_classes
    spc = cfg.samples_per_class
    n = n_cls * spc
    scale = cfg.class_separation / math.sqrt(2.0)

    latent_dim = min(cfg.dim_a, cfg.dim_b, max(8, n_cls))
    shared_dim = latent_dim // 2
    if shared_dim < n_cls or latent_dim - shared_dim < n_cls:
        shared_dim = latent_dim

    means = np.zeros((n_cls, latent_dim))
    if shared_dim == latent_dim:
        means[:, :] = _orthonormal_directions(rng, latent_dim, n_cls) * scale
    else:
        w_sh = SHARED_MEAN_FRACTION
        dirs_shared = _orthonormal_directions(rng, shared_dim, n_cls)
        dirs_b_block = _orthonormal_directions(rng, latent_dim - shared_dim, n_cls)
        means[:, :shared_dim] = dirs_shared * (scale * math.sqrt(w_sh))
        means[:, shared_dim:] = dirs_b_block * (scale * math.sqrt(1.0 - w_sh))

    a_view = np.ones(latent_dim)
    a_view[shared_dim:] = B_BLOCK_TRACE_IN_A
    mix_a = np.linalg.qr(rng.standard_normal((cfg.dim_a, latent_dim)))[0]
    mix_b = np.linalg.qr(rng.standard_normal((cfg.dim_b, latent_dim)))[0]

    labels = np.repeat(np.arange(n_cls, dtype=np.int64), spc)
    latents = means[labels] + rng.standard_normal((n, latent_dim))
    eps_a = rng.standard_normal((n, cfg.dim_a))
    eps_b = rng.standard_normal((n, cfg.dim_b))

    drawn = Dataset(
        ids=np.arange(n, dtype=np.int64),
        labels=labels,
        feat_a=(latents * a_view) @ mix_a.T + cfg.noise_scale * eps_a,
        feat_b=latents @ mix_b.T + cfg.noise_scale * eps_b,
        paired=np.ones(n, dtype=bool),
    )
    seed = derive_seed(cfg.seed, "missing")
    return tuple(replace(drawn, paired=paired_mask(drawn.ids, drawn.labels, rate, seed))
                 for rate in rates)


def paired_mask(ids: np.ndarray, labels: np.ndarray, rate: float, seed: int) -> np.ndarray:
    """Bool mask of the rows that keep modality B: round(rate * class size)
    rows of each class lose it.

    Classes are visited in label order, and within a class one permutation
    picks rows in id order, so the mask depends only on (ids, labels, rate,
    seed), not on row order.
    """
    if not (0.0 <= rate <= 1.0):
        raise RangeError(f"missing rate must be in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    paired = np.ones(len(ids), dtype=bool)
    for label in np.unique(labels).tolist():
        rows = _class_rows(ids, labels, label)
        k = round_half_up(rate * len(rows))
        paired[rows[rng.permutation(len(rows))[:k]]] = False
    return paired


def _class_rows(ids: np.ndarray, labels: np.ndarray, label: int) -> np.ndarray:
    """Rows of class `label`, in id order."""
    rows = np.flatnonzero(labels == label)
    return rows[np.argsort(ids[rows], kind="stable")]


def apply_missingness(samples: Sequence[Sample], rate: float, seed: int) -> list[Sample]:
    """Remove feat_b from round(rate * class size) samples per class.

    The input must be fully paired and is not modified; the returned list
    preserves input order.  The removal mask is paired_mask's, so it depends
    only on (ids, labels, rate, seed), not on list order.
    """
    for s in samples:
        if not s.paired:
            raise UsageError(f"apply_missingness requires fully paired input, sample {s.id} is unpaired")
    keep = paired_mask(np.array([s.id for s in samples], dtype=np.int64),
                       np.array([s.label for s in samples], dtype=np.int64), rate, seed)
    return [
        s if kept else Sample(id=s.id, label=s.label, feat_a=s.feat_a, feat_b=None)
        for s, kept in zip(samples, keep.tolist())
    ]


def kfold_rows(ids: np.ndarray, labels: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """Stratified k-fold assignment: each fold's test rows, in row order.

    Per-fold class counts are within +/-1 of n_c/k.  Like paired_mask, the
    split depends only on (ids, labels, k, seed), not on row order.
    """
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    classes, counts = np.unique(labels, return_counts=True)
    for label, count in zip(classes.tolist(), counts.tolist()):
        if count < k:
            raise InfeasibleSplitError(f"class {label} has {count} samples, fewer than k={k}")

    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(ids), dtype=np.int64)
    for label in classes.tolist():
        rows = _class_rows(ids, labels, label)
        q, r = divmod(len(rows), k)
        sizes = [q + 1] * r + [q] * (k - r)
        fold_of[rows[rng.permutation(len(rows))]] = np.repeat(np.arange(k), sizes)
    return [np.flatnonzero(fold_of == fold) for fold in range(k)]


def stratified_kfold(samples: Sequence[Sample], k: int, seed: int) -> list[FoldSplit]:
    """kfold_rows' split of `samples`, as the sorted ids of each fold."""
    ids = np.array([s.id for s in samples], dtype=np.int64)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    all_ids = set(ids.tolist())
    folds = []
    for fold, rows in enumerate(kfold_rows(ids, labels, k, seed)):
        test_ids = set(ids[rows].tolist())
        folds.append(FoldSplit(fold_index=fold, train_ids=tuple(sorted(all_ids - test_ids)),
                               test_ids=tuple(sorted(test_ids))))
    return folds


def export_dataset_csv(data: Dataset, path) -> None:
    """Write `data` as CSV: id,label,paired,a_0..,b_0.. (b_* empty when unpaired).

    Every float cell is repr(float), so reading the file back gives the same
    values bit for bit.  The b_* columns follow feat_b's width, so a dataset
    whose rows are all unpaired keeps them, empty.
    """
    if not len(data):
        raise UsageError("cannot export an empty dataset")
    dim_a, dim_b = data.feat_a.shape[1], data.feat_b.shape[1]
    header = (
        ["id", "label", "paired"]
        + [f"a_{i}" for i in range(dim_a)]
        + [f"b_{i}" for i in range(dim_b)]
    )
    blank_b = "," * dim_b
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for sid, label, paired, a, b in zip(data.ids.tolist(), data.labels.tolist(),
                                            data.paired.tolist(), data.feat_a, data.feat_b):
            cells = a.tolist() + b.tolist() if paired else a.tolist()
            fh.write(f"{sid},{label},{int(paired)},{','.join(map(repr, cells))}"
                     f"{'' if paired else blank_b}\r\n")


def import_dataset_csv(path) -> Dataset:
    """Read a dataset written by export_dataset_csv; unpaired feat_b rows are NaN.

    The header must be id,label,paired,a_0..a_{n-1},b_0..b_{m-1} with n >= 1.
    Another header, a row whose cell count differs from the header's, a cell
    that does not parse as a number, an id or label outside int64, a negative
    label, an id repeated from an earlier row, a paired flag other than 0 or 1
    or one that disagrees with the b_* cells, a nan or inf feature cell, or
    text that is not CSV raises ProtocolError naming the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _read_dataset_rows(reader, path)
        except csv.Error as exc:
            raise ProtocolError(f"{path} line {reader.line_num}: {exc}") from exc


def _read_dataset_rows(reader, path) -> Dataset:
    header = next(reader, None)
    if header is None:
        raise ProtocolError(f"{path} is empty: a dataset CSV needs a header row")
    dim_a = sum(1 for h in header if h.startswith("a_"))
    dim_b = sum(1 for h in header if h.startswith("b_"))
    expected = (["id", "label", "paired"] + [f"a_{i}" for i in range(dim_a)]
                + [f"b_{i}" for i in range(dim_b)])
    if dim_a < 1 or header != expected:
        raise ProtocolError(f"{path}: dataset header must be id,label,paired,a_0..a_{{n-1}},"
                            f"b_0..b_{{m-1}} with n >= 1, got {','.join(header)!r}")
    # Columns grow as flat buffers; numpy wraps each once at the end.
    ids, labels, feat_a, feat_b = array("q"), array("q"), array("d"), array("d")
    paired, line_nums = bytearray(), array("q")
    missing_b = array("d", [math.nan]) * dim_b
    b_start = 3 + dim_a
    seen = set()
    for row in reader:
        where = f"{path} line {reader.line_num}"
        if len(row) != len(header):
            raise ProtocolError(f"{where}: {len(row)} cells, the header has {len(header)}")
        b_cells = row[b_start:]
        has_b = any(b_cells)
        try:
            sid, label = int(row[0]), int(row[1])
            ids.append(sid)
            labels.append(label)
            feat_a.extend(map(float, row[3:b_start]))
            feat_b.extend(map(float, b_cells) if has_b else missing_b)
        except (ValueError, OverflowError) as exc:
            raise ProtocolError(f"{where}: {exc}") from exc
        if sid in seen:
            raise ProtocolError(f"{where}: sample id {sid} repeats an earlier row")
        if label < 0:
            raise ProtocolError(f"{where}: sample {sid}: label must be >= 0, got {label}")
        if row[2] not in ("0", "1"):
            raise ProtocolError(f"{where}: sample {sid}: paired flag must be 0 or 1, "
                                f"got {row[2]!r}")
        if has_b != (row[2] == "1"):
            raise ProtocolError(f"{where}: sample {sid}: "
                                "paired flag disagrees with b_* columns")
        seen.add(sid)
        paired.append(has_b)
        line_nums.append(reader.line_num)
    n = len(ids)
    data = Dataset(
        ids=np.frombuffer(ids, dtype=np.int64),
        labels=np.frombuffer(labels, dtype=np.int64),
        feat_a=np.frombuffer(feat_a).reshape(n, dim_a),
        feat_b=np.frombuffer(feat_b).reshape(n, dim_b),
        paired=np.frombuffer(paired, dtype=bool),
    )
    finite = np.isfinite(data.feat_a).all(axis=1)
    finite &= np.isfinite(data.feat_b).all(axis=1) | ~data.paired  # unpaired rows hold NaN
    if not finite.all():
        row = int(np.argmin(finite))
        raise ProtocolError(f"{path} line {line_nums[row]}: sample {data.ids[row]}: "
                            "feature cells must be finite")
    return data
