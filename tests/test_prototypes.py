"""Prototype sets: batch means, running updates, fallbacks, nearest queries."""

import numpy as np
import pytest

from pgad.errors import LabelError, ProtocolError, ShapeError
from pgad.prototypes import (
    PrototypeSet,
    compute_batch_prototypes,
    empty_prototypes,
    export_prototypes_csv,
    nearest_prototypes_batch,
    update_running_prototypes,
    with_fallback,
)


def test_empty_prototypes_all_stale():
    p = empty_prototypes(3, 4)
    assert p.num_classes == 3 and p.dim == 4
    assert p.stale.all()
    assert not p.usable().any()
    assert (p.counts == 0).all()


def test_batch_prototypes_exact_means():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 20.0]])
    labels = [0, 0, 1]
    p = compute_batch_prototypes(feats, labels, num_classes=3)
    assert np.allclose(p.values[0], [2.0, 3.0], atol=1e-12)
    assert np.allclose(p.values[1], [10.0, 20.0], atol=1e-12)
    assert list(p.counts) == [2, 1, 0]
    assert list(p.stale) == [False, False, True]


def test_batch_prototypes_fuzz_against_loop_means():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        dim = int(rng.integers(1, 6))
        n_cls = int(rng.integers(2, 5))
        feats = rng.standard_normal((n, dim)) * 10
        labels = rng.integers(0, n_cls, size=n)
        p = compute_batch_prototypes(feats, labels, n_cls)
        for c in range(n_cls):
            members = feats[labels == c]
            if members.shape[0] == 0:
                assert p.stale[c]
            else:
                mean = members.sum(axis=0) / members.shape[0]
                assert np.abs(p.values[c] - mean).max() <= 1e-12
                assert p.counts[c] == members.shape[0]


def test_batch_prototypes_translation_equivariance():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((12, 3))
    labels = rng.integers(0, 2, size=12)
    shift = np.array([5.0, -3.0, 0.25])
    p0 = compute_batch_prototypes(feats, labels, 2)
    p1 = compute_batch_prototypes(feats + shift, labels, 2)
    assert np.allclose(p1.values, p0.values + shift, atol=1e-12)


def test_batch_prototypes_permutation_invariance():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((15, 4))
    labels = rng.integers(0, 3, size=15)
    perm = rng.permutation(15)
    p0 = compute_batch_prototypes(feats, labels, 3)
    p1 = compute_batch_prototypes(feats[perm], labels[perm], 3)
    assert np.allclose(p0.values, p1.values, atol=1e-12)
    assert np.array_equal(p0.counts, p1.counts)


def test_batch_prototypes_empty_batch_allowed():
    p = compute_batch_prototypes(np.zeros((0, 3)), [], 2)
    assert p.stale.all()


def test_batch_prototypes_errors():
    with pytest.raises(ShapeError):
        compute_batch_prototypes(np.zeros(3), [0], 2)
    with pytest.raises(ShapeError):
        compute_batch_prototypes(np.zeros((2, 3)), [0], 2)
    with pytest.raises(LabelError):
        compute_batch_prototypes(np.zeros((2, 3)), [0, 2], 2)


def test_update_running_blends_with_momentum():
    running = PrototypeSet(dim=2, values=np.array([[10.0, 0.0], [0.0, 0.0]]),
                           counts=np.array([4, 0]),
                           stale=np.array([False, True]))
    batch = compute_batch_prototypes(np.array([[0.0, 10.0], [6.0, 6.0]]), [0, 1], 2)
    out = update_running_prototypes(running, batch, momentum=0.9)
    assert np.allclose(out.values[0], [9.0, 1.0], atol=1e-12)
    # class 1 was never observed: adopt the batch value outright
    assert np.allclose(out.values[1], [6.0, 6.0], atol=1e-12)
    assert list(out.counts) == [5, 1]
    assert not out.stale.any()


def test_update_running_keeps_entry_when_batch_stale():
    running = PrototypeSet(dim=2, values=np.array([[1.0, 2.0], [3.0, 4.0]]),
                           counts=np.array([2, 2]),
                           stale=np.array([False, False]))
    batch = empty_prototypes(2, 2)
    out = update_running_prototypes(running, batch, momentum=0.5)
    assert np.array_equal(out.values, running.values)
    assert np.array_equal(out.counts, running.counts)
    assert not out.stale.any()


def test_update_running_is_pure():
    running = empty_prototypes(2, 2)
    batch = compute_batch_prototypes(np.ones((2, 2)), [0, 1], 2)
    out = update_running_prototypes(running, batch, momentum=0.9)
    assert running.stale.all()  # input untouched
    assert not out.stale.any()


def test_update_running_errors():
    a = empty_prototypes(2, 2)
    b = empty_prototypes(2, 3)
    with pytest.raises(ShapeError):
        update_running_prototypes(a, b, 0.9)
    c = empty_prototypes(3, 2)
    with pytest.raises(ShapeError):
        update_running_prototypes(a, c, 0.9)
    with pytest.raises(ShapeError):
        update_running_prototypes(a, a, 1.0)


def test_with_fallback_fills_only_stale_classes():
    batch = compute_batch_prototypes(np.array([[1.0, 1.0]]), [0], 2)
    fallback = PrototypeSet(dim=2, values=np.array([[9.0, 9.0], [7.0, 7.0]]),
                            counts=np.array([5, 5]),
                            stale=np.array([False, False]))
    out = with_fallback(batch, fallback)
    assert np.allclose(out.values[0], [1.0, 1.0])  # batch entry wins
    assert np.allclose(out.values[1], [7.0, 7.0])  # filled from fallback
    assert not out.stale.any()

    still_stale = with_fallback(batch, empty_prototypes(2, 2))
    assert still_stale.stale[1] and not still_stale.stale[0]
    with pytest.raises(ShapeError):
        with_fallback(batch, empty_prototypes(2, 3))


def test_nearest_prototype_basic_and_ties():
    protos = PrototypeSet(dim=1, values=np.array([[0.0], [2.0]]),
                          counts=np.array([1, 1]),
                          stale=np.array([False, False]))
    idx, d2 = nearest_prototypes_batch(np.array([[0.4], [1.0], [1.7]]), protos)
    assert idx.tolist() == [0, 0, 1]  # the exact tie at 1.0 goes to the lowest index
    assert d2[0] == pytest.approx(0.16) and d2[2] == pytest.approx(0.09)


def test_nearest_prototype_skips_stale():
    protos = PrototypeSet(dim=1, values=np.array([[0.0], [2.0]]),
                          counts=np.array([0, 1]),
                          stale=np.array([True, False]))
    idx, _ = nearest_prototypes_batch(np.array([[0.1]]), protos)
    assert idx.tolist() == [1]
    with pytest.raises(ProtocolError):
        nearest_prototypes_batch(np.array([[0.1]]), empty_prototypes(2, 1))
    with pytest.raises(ShapeError):
        nearest_prototypes_batch(np.array([[0.1, 0.2]]), protos)
    with pytest.raises(ShapeError):
        nearest_prototypes_batch(np.array([0.1]), protos)


def test_nearest_batch_agrees_with_scalar_version():
    rng = np.random.default_rng(4)
    protos = PrototypeSet(dim=3, values=rng.standard_normal((4, 3)),
                          counts=np.array([1, 0, 1, 1]),
                          stale=np.array([False, True, False, False]))
    feats = rng.standard_normal((20, 3))
    idx, d2 = nearest_prototypes_batch(feats, protos)
    for i in range(20):
        ref = [((feats[i] - protos.values[c]) ** 2).sum() for c in (0, 2, 3)]
        assert idx[i] == (0, 2, 3)[int(np.argmin(ref))]
        assert d2[i] == pytest.approx(min(ref), abs=1e-12)
    with pytest.raises(ShapeError):
        nearest_prototypes_batch(feats[:, :2], protos)
    with pytest.raises(ProtocolError):
        nearest_prototypes_batch(feats, empty_prototypes(2, 3))


def test_prototypes_csv_layout(tmp_path):
    protos = compute_batch_prototypes(
        np.array([[1.5, -2.0], [0.5, 4.0]]), [0, 0], 3
    )
    path = tmp_path / "protos.csv"
    export_prototypes_csv(protos, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "class,count,stale,z_0,z_1"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2" and first[2] == "0"
    assert float(first[3]) == pytest.approx(1.0)
    # stale class rows carry count 0 and flag 1
    assert lines[3].split(",")[:3] == ["2", "0", "1"]
