"""Synthetic two-modality classification data with controllable missingness.

Each sample carries a modality-A feature vector, an optional modality-B
vector, and a class label.  Both modalities are driven by a shared
per-sample latent plus class-dependent means, so modality B carries real
complementary information rather than independent noise.  Missingness is
applied per class so the missing rate does not confound class balance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, InfeasibleSplitError, ProtocolError, RangeError, UsageError
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

    def validate(self) -> None:
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
    copy of A.  Afterwards exactly round(missing_rate * samples_per_class)
    samples per class lose feat_b.  Fully deterministic given (cfg, cfg.seed).
    """
    cfg.validate()
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

    labels = np.repeat(np.arange(n_cls), spc)
    latents = means[labels] + rng.standard_normal((n, latent_dim))
    eps_a = rng.standard_normal((n, cfg.dim_a))
    eps_b = rng.standard_normal((n, cfg.dim_b))

    feats_a = (latents * a_view) @ mix_a.T + cfg.noise_scale * eps_a
    feats_b = latents @ mix_b.T + cfg.noise_scale * eps_b

    samples = [
        Sample(id=i, label=int(labels[i]), feat_a=feats_a[i].copy(), feat_b=feats_b[i].copy())
        for i in range(n)
    ]
    return apply_missingness(samples, cfg.missing_rate, derive_seed(cfg.seed, "missing"))


def apply_missingness(samples: Sequence[Sample], rate: float, seed: int) -> list[Sample]:
    """Remove feat_b from round(rate * class size) samples per class.

    The input must be fully paired and is not modified; the returned list
    preserves input order.  The removal mask depends only on (ids, labels,
    rate, seed), not on list order.
    """
    if not (0.0 <= rate <= 1.0):
        raise RangeError(f"missing rate must be in [0, 1], got {rate}")
    for s in samples:
        if not s.paired:
            raise UsageError(f"apply_missingness requires fully paired input, sample {s.id} is unpaired")

    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s.id)

    drop: set[int] = set()
    for label in sorted(by_class):
        ids = sorted(by_class[label])
        k = round_half_up(rate * len(ids))
        order = rng.permutation(len(ids))
        drop.update(ids[j] for j in order[:k])

    return [
        Sample(id=s.id, label=s.label, feat_a=s.feat_a, feat_b=None) if s.id in drop else s
        for s in samples
    ]


def stratified_kfold(samples: Sequence[Sample], k: int, seed: int) -> list[FoldSplit]:
    """Stratified k-fold assignment: per-fold class counts within +/-1 of n_c/k."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    by_class: dict[int, list[int]] = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s.id)
    for label in sorted(by_class):
        if len(by_class[label]) < k:
            raise InfeasibleSplitError(
                f"class {label} has {len(by_class[label])} samples, fewer than k={k}"
            )

    rng = np.random.default_rng(seed)
    test_sets: list[set[int]] = [set() for _ in range(k)]
    for label in sorted(by_class):
        ids = sorted(by_class[label])
        order = rng.permutation(len(ids))
        shuffled = [ids[j] for j in order]
        q, r = divmod(len(shuffled), k)
        start = 0
        for fold in range(k):
            size = q + (1 if fold < r else 0)
            test_sets[fold].update(shuffled[start : start + size])
            start += size

    all_ids = {s.id for s in samples}
    folds = []
    for fold in range(k):
        test_ids = tuple(sorted(test_sets[fold]))
        train_ids = tuple(sorted(all_ids - test_sets[fold]))
        folds.append(FoldSplit(fold_index=fold, train_ids=train_ids, test_ids=test_ids))
    return folds


def export_dataset_csv(samples: Sequence[Sample], path) -> None:
    """Write samples as CSV: id,label,paired,a_0..,b_0.. (b_* empty when unpaired)."""
    if not samples:
        raise UsageError("cannot export an empty dataset")
    dim_a = samples[0].feat_a.shape[0]
    dims_b = [s.feat_b.shape[0] for s in samples if s.paired]
    dim_b = dims_b[0] if dims_b else 0
    header = (
        ["id", "label", "paired"]
        + [f"a_{i}" for i in range(dim_a)]
        + [f"b_{i}" for i in range(dim_b)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in samples:
            row = [s.id, s.label, int(s.paired)]
            row += [repr(float(v)) for v in s.feat_a]
            if s.paired:
                row += [repr(float(v)) for v in s.feat_b]
            else:
                row += [""] * dim_b
            writer.writerow(row)


def import_dataset_csv(path) -> list[Sample]:
    """Read a dataset written by export_dataset_csv.

    The header must be id,label,paired,a_0..a_{n-1},b_0..b_{m-1} with n >= 1.
    Another header, a row whose cell count differs from the header's, a cell
    that does not parse as a number, a paired flag that disagrees with the
    b_* cells, or text that is not CSV raises ProtocolError naming the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _read_dataset_rows(reader, path)
        except csv.Error as exc:
            raise ProtocolError(f"{path} line {reader.line_num}: {exc}") from exc


def _read_dataset_rows(reader, path) -> list[Sample]:
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
    samples = []
    for row in reader:
        if len(row) != len(header):
            raise ProtocolError(f"{path} line {reader.line_num}: {len(row)} cells, "
                                f"the header has {len(header)}")
        b_cells = row[3 + dim_a :]
        has_b = any(cell != "" for cell in b_cells)
        try:
            sid, label, paired_flag = int(row[0]), int(row[1]), bool(int(row[2]))
            a = np.array([float(v) for v in row[3 : 3 + dim_a]], dtype=np.float64)
            b = np.array([float(v) for v in b_cells], dtype=np.float64) if has_b else None
        except ValueError as exc:
            raise ProtocolError(f"{path} line {reader.line_num}: {exc}") from exc
        if has_b != paired_flag:
            raise ProtocolError(f"{path} line {reader.line_num}: sample {sid}: "
                                "paired flag disagrees with b_* columns")
        samples.append(Sample(id=sid, label=label, feat_a=a, feat_b=b))
    return samples
