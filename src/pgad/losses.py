"""The five training loss terms and their analytic gradients.

Every function is pure and returns (value, gradient) so callers can wire
gradients into whatever parameter flattening they use.  Softmax-type
quantities are computed via max-shifted log-sum-exp throughout; this also
guarantees nonnegative values numerically, not just mathematically.

Gradient conventions:
  ce_loss     -> per-row values and their gradient wrt the logits,
                 softmax - onehot; the batch loss is their mean, with
                 gradient (softmax - onehot) / N
  kd_loss     -> gradient wrt STUDENT logits only, T * (p_s - p_t) / N
                 (the teacher side is a constant)
  pair_loss   -> gradient wrt the similarity matrix entries; row i's
                 partner is column i
  proto_loss  -> gradient wrt the unpaired features; the nearest-prototype
                 assignment is piecewise constant, so no gradient flows
                 through the argmin and prototypes themselves are constants

Each kernel takes one run's (N, ...) batch or R runs' (R, N, ...) batches
along a leading run axis, and then returns per-run values as an (R,)
array where one run gets a float.  Every softmax, row norm and mean runs
along the last axes, so a run's values have the same bits in a stack as
on their own.  An input error that one run of a stack causes names that
run's position on the run axis as `exc.run`.

Means are np.add.reduce(x) / n and row norms sqrt(add.reduce(x * x, axis=-1)):
that is how ndarray.mean and np.linalg.norm compute them in NumPy 2.x, so
the values are bit for bit the same, without the wrappers' per-call cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    EmptyBatchError,
    LabelError,
    NumericHealthError,
    ProtocolError,
    RangeError,
    ShapeError,
    UsageError,
)
from .prototypes import PrototypeSet, nearest_prototypes_batch

KD_TEMPERATURE_DEFAULT = 2.0
SIM_TEMPERATURE_DEFAULT = 0.1
TERM_NAMES = ("l_tea", "l_stu", "l_kl", "l_pair", "l_proto")


@dataclass(frozen=True)
class LossWeights:
    tea: float = 1.0
    stu: float = 1.0
    kl: float = 0.5
    pair: float = 0.5
    proto: float = 0.5

    def __post_init__(self) -> None:
        for name in ("tea", "stu", "kl", "pair", "proto"):
            v = getattr(self, name)
            if not (v >= 0.0) or not math.isfinite(v):
                raise ConfigError(f"loss weight {name} must be a finite nonnegative real, got {v}")


@dataclass(frozen=True)
class LossReport:
    l_tea: float
    l_stu: float
    l_kl: float
    l_pair: float
    l_proto: float
    total: float


def _row_reduce(ufunc, x: np.ndarray) -> np.ndarray:
    """ufunc.reduce(x, axis=-1, keepdims=True) for np.add or np.maximum.

    Many rows of fewer than 8 entries, such as a stack of class logits, are
    folded from the left, column by column: np.add.reduce sums such a row in
    that order, so the bits are the same, but NumPy reduces a short last
    axis one row at a time, which takes longer from about 64 rows on.
    """
    if not 0 < x.shape[-1] < 8 or x.size < 64 * x.shape[-1]:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for c in range(1, x.shape[-1]):
        ufunc(out, x[..., c : c + 1], out=out)
    return out


def _shifted_lse(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row max, z minus it, log of the row sums of exp of that), all keepdims."""
    top = _row_reduce(np.maximum, z)
    shifted = z - top
    return top, shifted, np.log(_row_reduce(np.add, np.exp(shifted)))


def _in_run(exc: Exception, where) -> Exception:
    """`exc`, naming the run of a stack it belongs to as `exc.run`: `where` is
    the index of a failing entry, whose first part is its run for a stack
    (one index more than one run's entries have)."""
    if len(where) > 1:
        exc.run = int(where[0])
    return exc


def _rows_of_each_run(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """table[..., idx, :] taken run by run: rows idx (N,) of a (C, ...) table,
    or rows idx (R, N) of an (R, C, ...) table."""
    if idx.ndim == 1:
        return table[idx]
    return table[np.arange(len(idx))[:, None], idx]


def run_sums(values: np.ndarray, rows=None):
    """Each run's np.add.reduce of its row values over exactly its `rows`, in
    row order: a float64 scalar for one run's (N,) values, an (R,) array for
    (R, N).  `rows` is a bool mask of the values' shape (None: every row).
    A run's sum has the bits its rows get reduced on their own, whatever
    the other runs hold."""
    if rows is None:
        return np.add.reduce(values, axis=-1)
    if values.ndim == 1:
        return np.add.reduce(values[rows])
    return np.array([np.add.reduce(v[m]) for v, m in zip(values, rows)])


def _per_run(value):
    """A float for one run's reduced value, the (R,) array for a stack's."""
    return float(value) if value.ndim == 0 else value


def _log_softmax(z: np.ndarray) -> np.ndarray:
    _, shifted, log_sum = _shifted_lse(z)
    shifted -= log_sum
    return shifted


def ce_loss(logits: np.ndarray, labels):
    """Per-row softmax cross-entropy and its gradient wrt the logits.

    Takes (N, C) logits and N labels, or (R, N, C) and (R, N) along the run
    axis.  Returns (negative log-likelihoods of the labels' shape, softmax -
    onehot).  The batch loss is the mean of the first, with gradient the
    second over N; a subset's loss is the mean of a slice, as each row
    depends on its own logits only.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim not in (2, 3):
        raise ShapeError(f"expected logits (N, C) or (R, N, C), got shape {logits.shape}")
    n, c = logits.shape[-2:]
    if n == 0:
        raise EmptyBatchError("ce_loss needs at least one sample")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"expected labels of shape {logits.shape[:-1]}, got {labels.shape}")
    if np.minimum.reduce(labels, axis=None) < 0 or np.maximum.reduce(labels, axis=None) >= c:
        raise _in_run(LabelError(f"labels must lie in [0, {c})"),
                      np.argwhere((labels < 0) | (labels >= c))[0])

    logp = _log_softmax(logits)
    rows, cols, by_row = np.arange(labels.size), labels.reshape(-1), logp.reshape(-1, c)
    nll = -by_row[rows, cols]
    grad = np.exp(logp, out=logp)
    by_row[rows, cols] -= 1.0  # a view of grad
    return nll.reshape(labels.shape), grad


def kd_loss(
    student_logits: np.ndarray, teacher_logits: np.ndarray, temperature: float, rows=None
) -> tuple[float, np.ndarray]:
    """Temperature-softened KL(teacher ‖ student), mean over samples, scaled by T².

    Takes (N, C) logit matrices, or (R, N, C) along the run axis, whose
    values come back as an (R,) array.  Only the student side receives a
    gradient.  `rows`, a bool mask of the logits' leading shape, picks the
    rows each run's mean runs over (run_sums); the other rows get a zero
    gradient.  A stack of runs with different row sets thus takes one call.
    """
    if temperature <= 0.0 or not math.isfinite(temperature):
        raise RangeError(f"temperature must be positive, got {temperature}")
    s = np.asarray(student_logits, dtype=np.float64)
    t = np.asarray(teacher_logits, dtype=np.float64)
    if s.ndim not in (2, 3):
        raise ShapeError(f"kd_loss expects (N, C) or (R, N, C) logits, got shape {s.shape}")
    if s.shape != t.shape:
        raise ShapeError(f"logit shapes differ: student {s.shape} vs teacher {t.shape}")
    n = s.shape[-2] if rows is None else np.add.reduce(rows, axis=-1)
    if (n == 0) if rows is None else not n.all():
        raise EmptyBatchError("kd_loss needs at least one sample")

    log_ps = _log_softmax(s / temperature)
    log_pt = _log_softmax(t / temperature)
    pt = np.exp(log_pt)
    kl_per_sample = _row_reduce(np.add, pt * (log_pt - log_ps))[..., 0]
    value = np.maximum(temperature**2 * (run_sums(kl_per_sample, rows) / n), 0.0)
    grad = temperature * (np.exp(log_ps) - pt)
    if rows is None:
        grad /= n
    else:
        grad /= n[..., None, None]
        grad[~rows] = 0.0
    return _per_run(value), grad


def similarity_matrix(feats_a: np.ndarray, feats_b: np.ndarray, temperature: float):
    """All-pairs temperature-scaled cosine similarities plus a VJP.

    Takes (N_a, H) and (N_b, H) features, or (R, N_a, H) and (R, N_b, H)
    along the run axis.  Returns (S, vjp) with S[..., i, j] =
    cos(a_i, b_j)/temperature and vjp(dS) -> (d feats_a, d feats_b).
    """
    if temperature <= 0.0 or not math.isfinite(temperature):
        raise RangeError(f"temperature must be positive, got {temperature}")
    a = np.asarray(feats_a, dtype=np.float64)
    b = np.asarray(feats_b, dtype=np.float64)
    if (a.ndim not in (2, 3) or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-1]):
        raise ShapeError(f"expected (N_a, H) and (N_b, H) features with the same run axes, "
                         f"got {a.shape} and {b.shape}")
    na = np.sqrt(np.add.reduce(a * a, axis=-1))
    nb = np.sqrt(np.add.reduce(b * b, axis=-1))
    if np.logical_or.reduce(na < 1e-12, axis=None) or np.logical_or.reduce(nb < 1e-12, axis=None):
        zero = np.concatenate((na, nb), axis=-1) < 1e-12
        raise _in_run(DegenerateInputError("cosine similarity is undefined for a zero vector"),
                      np.argwhere(zero)[0])
    a_hat = a / na[..., None]
    b_hat = b / nb[..., None]
    sims = (a_hat @ b_hat.mT) / temperature

    def vjp(d_sims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d_sims = np.asarray(d_sims, dtype=np.float64)
        if d_sims.shape != sims.shape:
            raise ShapeError(f"expected upstream grad of shape {sims.shape}, got {d_sims.shape}")
        d_a_hat = (d_sims @ b_hat) / temperature
        d_b_hat = (d_sims.mT @ a_hat) / temperature
        d_a = ((d_a_hat - np.add.reduce(d_a_hat * a_hat, axis=-1, keepdims=True) * a_hat)
               / na[..., None])
        d_b = ((d_b_hat - np.add.reduce(d_b_hat * b_hat, axis=-1, keepdims=True) * b_hat)
               / nb[..., None])
        return d_a, d_b

    return sims, vjp


def pair_loss(sim_matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax-over-candidates loss anchoring row i at its genuine partner, column i.

    Takes an (N_a, N_b) matrix, or (R, N_a, N_b) along the run axis, whose
    values come back as an (R,) array.  The denominator of each row runs
    over all columns, so there must be at least as many columns as rows.
    """
    sims = np.asarray(sim_matrix, dtype=np.float64)
    if sims.ndim not in (2, 3):
        raise ShapeError(f"expected similarity matrix, got shape {sims.shape}")
    n_a, n_b = sims.shape[-2:]
    if n_a == 0 or n_b == 0:
        raise EmptyBatchError("pair_loss needs a nonempty similarity matrix")
    if n_b < n_a:
        raise ShapeError(f"row i pairs with column i, but {sims.shape} has fewer columns than rows")

    top, shifted, log_sum = _shifted_lse(sims)
    lse = log_sum[..., 0] + top[..., 0]
    rows = np.arange(n_a)
    value = np.add.reduce(lse - sims[..., rows, rows], axis=-1) / n_a
    shifted -= log_sum
    grad = np.exp(shifted, out=shifted)  # the row softmax
    grad[..., rows, rows] -= 1.0
    grad /= n_a
    return _per_run(value), grad


def proto_loss(
    unpaired_feats: np.ndarray,
    protos: PrototypeSet,
    assignment: str = "nearest",
    labels=None,
    rows=None,
) -> tuple[float, np.ndarray, bool]:
    """Mean squared distance from each feature to its assigned prototype.

    Takes (N, H) features and a set of (C, H) prototypes, or (R, N, H) and
    a set of (R, C, H) along the run axis, whose values come back as an
    (R,) array.  Returns (value, gradient, empty).  An empty feature set is
    a no-op: (0.0, zero-size gradient, empty=True).  The assignment is
    either the nearest usable prototype (default) or the feature's
    true-class prototype when assignment="true_class" and labels are given.
    Under "true_class" a feature whose class has no usable prototype has
    nothing to match and is left out: the mean runs over a run's other
    features, and a run with none gets 0.0 and a zero gradient.  `rows`, a
    bool mask of the features' leading shape, picks the features each
    run's mean runs over (run_sums); the others are left out the same way.
    Every run's set needs a usable class.
    """
    feats = np.asarray(unpaired_feats, dtype=np.float64)
    if feats.ndim not in (2, 3) or protos.values.ndim != feats.ndim \
            or protos.values.shape[:-2] != feats.shape[:-2]:
        raise ShapeError(f"expected features (N, H) or (R, N, H) with prototypes of the same "
                         f"run axes, got {feats.shape} and {protos.values.shape}")
    if feats.shape[-2] == 0:
        return _per_run(np.zeros(feats.shape[:-2])), np.zeros_like(feats), True
    if feats.shape[-1] != protos.dim:
        raise ShapeError(f"feature dim {feats.shape[-1]} != prototype dim {protos.dim}")
    all_stale = np.logical_and.reduce(protos.stale, axis=-1, keepdims=True)
    if np.logical_or.reduce(all_stale, axis=None):
        raise _in_run(ProtocolError("no usable prototype: every class is stale"),
                      np.argwhere(all_stale)[0])

    if assignment == "nearest":
        idx, _ = nearest_prototypes_batch(feats, protos)
    elif assignment == "true_class":
        if labels is None:
            raise UsageError("assignment='true_class' requires labels")
        idx = np.asarray(labels, dtype=np.int64)
        if idx.shape != feats.shape[:-1]:
            raise ShapeError(f"expected labels of shape {feats.shape[:-1]}, got {idx.shape}")
        if (np.minimum.reduce(idx, axis=None) < 0
                or np.maximum.reduce(idx, axis=None) >= protos.num_classes):
            raise _in_run(LabelError(f"labels must lie in [0, {protos.num_classes})"),
                          np.argwhere((idx < 0) | (idx >= protos.num_classes))[0])
    else:
        raise ConfigError(f"assignment must be 'nearest' or 'true_class', got {assignment!r}")

    diff = feats - _rows_of_each_run(protos.values, idx)
    n = scale = feats.shape[-2] if rows is None else np.add.reduce(rows, axis=-1)
    matched = rows
    if assignment == "true_class":
        stale = _rows_of_each_run(protos.stale, idx)  # no prototype to match
        if np.logical_or.reduce(stale, axis=None):
            matched = ~stale if rows is None else rows & ~stale
            n = np.add.reduce(matched, axis=-1)
    if matched is not None:
        diff[~matched] = 0.0  # left out
        n = np.maximum(n, 1)
        scale = n[..., None, None]
    value = run_sums(np.add.reduce(diff * diff, axis=-1), rows) / n
    return _per_run(value), 2.0 * diff / scale, False


def total_loss(
    l_tea: float,
    l_stu: float,
    l_kl: float,
    l_pair: float,
    l_proto: float,
    weights: LossWeights,
) -> LossReport:
    """Weighted combination of the five terms; rejects non-finite or negative input.

    Takes one run's terms as floats, or R runs' as (R,) arrays along the
    run axis, whose report then holds (R,) arrays; the first run with a bad
    term is named as `exc.run`.
    """
    terms = np.array((l_tea, l_stu, l_kl, l_pair, l_proto), dtype=np.float64)
    # the smallest term is NaN if any is
    if not (np.minimum.reduce(terms, axis=None) >= 0.0
            and np.maximum.reduce(terms, axis=None) < math.inf):
        bad = ~np.isfinite(terms) | (terms < 0.0)
        where = np.argwhere(bad.T)[0]  # the first run's first bad term
        run_terms = terms[(slice(None),) + tuple(where[:-1])]
        name, term = TERM_NAMES[where[-1]], run_terms[where[-1]]
        kind = "is not finite" if not math.isfinite(term) else "is negative"
        raise _in_run(NumericHealthError(f"loss term {name} {kind}: {term}"), where)
    l_tea, l_stu, l_kl, l_pair, l_proto = terms if terms.ndim > 1 else terms.tolist()
    total = (
        weights.tea * l_tea
        + weights.stu * l_stu
        + weights.kl * l_kl
        + weights.pair * l_pair
        + weights.proto * l_proto
    )
    if terms.ndim == 1:
        if not math.isfinite(total):
            raise NumericHealthError(f"total loss is not finite: {total}")
    elif not np.logical_and.reduce(np.isfinite(total)):
        run = int(np.argmin(np.isfinite(total)))
        raise _in_run(NumericHealthError(f"total loss is not finite: {total[run]}"), (run, 0))
    return LossReport(l_tea, l_stu, l_kl, l_pair, l_proto, total=total)
