"""Prototype sets: batch means, running updates, fallbacks, nearest queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_stale_and_dim_follow_the_arrays():
    p = PrototypeSet(values=np.zeros((3, 4)), counts=np.array([2, 0, 1]))
    assert p.dim == 4
    assert p.stale.tolist() == [False, True, False]
    with pytest.raises(TypeError):
        PrototypeSet(values=np.zeros((3, 4)), counts=np.array([2, 0, 1]),
                     stale=np.zeros(3, dtype=bool))


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
    running = PrototypeSet(values=np.array([[10.0, 0.0], [0.0, 0.0]]),
                           counts=np.array([4, 0]))
    batch = compute_batch_prototypes(np.array([[0.0, 10.0], [6.0, 6.0]]), [0, 1], 2)
    out = update_running_prototypes(running, batch, momentum=0.9)
    assert np.allclose(out.values[0], [9.0, 1.0], atol=1e-12)
    # class 1 was never observed: adopt the batch value outright
    assert np.allclose(out.values[1], [6.0, 6.0], atol=1e-12)
    assert list(out.counts) == [5, 1]
    assert not out.stale.any()


def test_update_running_keeps_entry_when_batch_stale():
    running = PrototypeSet(values=np.array([[1.0, 2.0], [3.0, 4.0]]),
                           counts=np.array([2, 2]))
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
    fallback = PrototypeSet(values=np.array([[9.0, 9.0], [7.0, 7.0]]),
                            counts=np.array([5, 5]))
    out = with_fallback(batch, fallback)
    assert np.allclose(out.values[0], [1.0, 1.0])  # batch entry wins
    assert np.allclose(out.values[1], [7.0, 7.0])  # filled from fallback
    assert not out.stale.any()

    still_stale = with_fallback(batch, empty_prototypes(2, 2))
    assert still_stale.stale[1] and not still_stale.stale[0]
    with pytest.raises(ShapeError):
        with_fallback(batch, empty_prototypes(2, 3))


def test_nearest_prototype_basic_and_ties():
    protos = PrototypeSet(values=np.array([[0.0], [2.0]]),
                          counts=np.array([1, 1]))
    idx, d2 = nearest_prototypes_batch(np.array([[0.4], [1.0], [1.7]]), protos)
    assert idx.tolist() == [0, 0, 1]  # the exact tie at 1.0 goes to the lowest index
    assert d2[0] == pytest.approx(0.16) and d2[2] == pytest.approx(0.09)


def test_nearest_prototype_skips_stale():
    protos = PrototypeSet(values=np.array([[0.0], [2.0]]),
                          counts=np.array([0, 1]))
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
    protos = PrototypeSet(values=rng.standard_normal((4, 3)),
                          counts=np.array([1, 0, 1, 1]))
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


def reference_prototypes(feats, labels, num_classes):
    """One run's class means as a per-class loop: np.add.reduce over the
    class's rows alone, over their count (zeros for an absent class)."""
    values = np.zeros((num_classes, feats.shape[1]))
    counts = np.zeros(num_classes, dtype=np.int64)
    for c in range(num_classes):
        rows = feats[labels == c]
        counts[c] = len(rows)
        if len(rows):
            values[c] = np.add.reduce(rows, axis=0) / len(rows)
    return values, counts


def same_set(a, b) -> bool:
    return (a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes()
            and np.array_equal(a.counts, b.counts) and np.array_equal(a.stale, b.stale))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_stacked_refresh_equals_the_refresh_of_each_run(data):
    """compute_batch_prototypes over an (R, N, H) stack with each run's genuine
    count, then update_running_prototypes and with_fallback over the (R, C, H)
    sets, give every run the bits of the same calls on its rows alone, and
    the batch means have the bits of a per-class loop."""
    r = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(1, 48))
    h = data.draw(st.sampled_from([1, 2, 16]))
    c = data.draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    feats = rng.standard_normal((r, n, h)) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    present = data.draw(st.lists(st.sampled_from(range(c)), min_size=1, max_size=c,
                                 unique=True))  # the classes the batches draw from
    labels = rng.choice(present, size=(r, n))
    n_genuine = np.array(data.draw(st.lists(st.integers(1, n), min_size=r, max_size=r)))
    running = PrototypeSet(values=rng.standard_normal((r, c, h)),
                           counts=rng.integers(0, 3, size=(r, c)))  # stale where 0
    momentum = data.draw(st.sampled_from([0.0, 0.5, 0.9]))

    batch = compute_batch_prototypes(feats, labels, c, n_genuine)
    updated = update_running_prototypes(running, batch, momentum)
    effective = with_fallback(batch, updated)
    for i, count in enumerate(n_genuine.tolist()):
        alone = compute_batch_prototypes(feats[i, :count], labels[i, :count], c)
        values, counts = reference_prototypes(feats[i, :count], labels[i, :count], c)
        assert same_set(alone, PrototypeSet(values=values, counts=counts))
        assert same_set(batch.select(i), alone)
        alone_updated = update_running_prototypes(running.select(i), alone, momentum)
        assert same_set(updated.select(i), alone_updated)
        assert same_set(effective.select(i), with_fallback(alone, alone_updated))
