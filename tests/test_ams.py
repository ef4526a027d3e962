"""Batch composition between genuine and pseudo pairs, and the theta surrogate."""

import hashlib
import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgad.ams import (
    BatchPlan,
    SamplePool,
    build_batch,
    export_ams_trace_csv,
    prepare_pools,
    sampling_ratio,
    sigmoid,
    theta_gradient,
)
from pgad.errors import (
    ConfigError,
    DonorExhaustionError,
    NumericHealthError,
    ProtocolError,
    RangeError,
    UsageError,
)
from pgad.seeding import derive_seed
from pgad.synthdata import (
    Dataset,
    DatasetConfig,
    Sample,
    draw_datasets,
    generate_dataset,
    kfold_rows,
)
from pgad.trainer import TrainConfig


def pools(missing_rate=0.5, spc=20, seed=3, num_classes=2):
    cfg = DatasetConfig(
        num_classes=num_classes, samples_per_class=spc, dim_a=4, dim_b=4,
        class_separation=3.0, noise_scale=1.0, missing_rate=missing_rate, seed=seed,
    )
    ds = generate_dataset(cfg)
    paired = [s for s in ds if s.paired]
    unpaired = [s for s in ds if not s.paired]
    return ds, paired, unpaired


def test_sigmoid_basics():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0)
    assert sigmoid(-50.0) == pytest.approx(0.0, abs=1e-20)
    for x in (-700.0, 700.0):  # extreme inputs must not overflow
        v = sigmoid(x)
        assert 0.0 <= v <= 1.0
    assert sigmoid(1.5) + sigmoid(-1.5) == pytest.approx(1.0, abs=1e-12)


def test_train_config_validates_the_sampling_settings():
    """Checked when built, by the constructor and by replace alike."""
    for bad, message in (
        ({"ams_mode": "auto"}, "ams_mode must be one of"),
        ({"fixed_ratio": 1.5}, "fixed_ratio must be in"),
        ({"ams_mode": "fixed", "fixed_ratio": 0.0}, "every batch needs a genuine pair"),
        ({"ams_mode": "none", "fixed_ratio": math.nan}, "fixed_ratio must be in"),
    ):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**bad)
        with pytest.raises(ConfigError, match=message):
            replace(TrainConfig(), **bad)


def test_sampling_ratio_per_mode():
    assert sampling_ratio("none", 0.0, 0.5) == 1.0
    assert sampling_ratio("fixed", 0.0, 0.3) == 0.3
    assert sampling_ratio("dynamic", 0.0, 0.5) == 0.5
    assert sampling_ratio("dynamic", 2.0, 0.5) == pytest.approx(sigmoid(2.0))


def test_sampling_ratio_rejects_a_non_finite_theta():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericHealthError, match="theta must be finite"):
            sampling_ratio("dynamic", theta, 0.5)
    # outside dynamic mode theta is not read
    assert sampling_ratio("fixed", math.nan, 0.3) == 0.3


def test_build_batch_counts_and_membership():
    ds, paired, unpaired = pools()
    by_id = {s.id: s for s in ds}
    plan = build_batch(paired, unpaired, batch_size=16, r=0.5, seed=0)
    assert len(plan.genuine) == 8  # ceil(0.5 * 16)
    assert len(plan.pseudo) == 8
    assert plan.size == 16
    assert plan.shortfall == 0
    for gid in plan.genuine:
        assert by_id[gid].paired
    for rec, donor, label in plan.pseudo:
        assert not by_id[rec].paired
        assert by_id[donor].paired
        assert by_id[rec].label == label
        assert by_id[donor].label == label
    assert plan.unpaired_student_only == tuple(p[0] for p in plan.pseudo)


def test_build_batch_donors_unique_within_batch():
    _, paired, unpaired = pools(missing_rate=0.7)
    for seed in range(20):
        plan = build_batch(paired, unpaired, batch_size=12, r=0.25, seed=seed)
        donors = [d for _, d, _ in plan.pseudo]
        assert len(donors) == len(set(donors))
        recipients = [r for r, _, _ in plan.pseudo]
        assert len(recipients) == len(set(recipients))


def test_build_batch_deterministic_in_seed():
    _, paired, unpaired = pools()
    a = build_batch(paired, unpaired, 16, 0.5, seed=42)
    b = build_batch(paired, unpaired, 16, 0.5, seed=42)
    assert a == b
    c = build_batch(paired, unpaired, 16, 0.5, seed=43)
    assert a != c


def test_build_batch_order_independent():
    """Shuffling pool list order must not change the plan."""
    _, paired, unpaired = pools()
    rng = np.random.default_rng(0)
    plan_sorted = build_batch(paired, unpaired, 16, 0.5, seed=7)
    paired_shuffled = [paired[i] for i in rng.permutation(len(paired))]
    unpaired_shuffled = [unpaired[i] for i in rng.permutation(len(unpaired))]
    plan_shuffled = build_batch(paired_shuffled, unpaired_shuffled, 16, 0.5, seed=7)
    assert plan_sorted == plan_shuffled


def test_build_batch_r_extremes():
    _, paired, unpaired = pools()
    all_genuine = build_batch(paired, unpaired, 10, 1.0, seed=1)
    assert len(all_genuine.genuine) == 10 and not all_genuine.pseudo

    r0 = build_batch(paired, unpaired, 10, 0.0, seed=1)
    assert len(r0.genuine) == 0
    assert len(r0.pseudo) == 10


def test_build_batch_tops_up_with_genuine_when_recipients_run_out():
    # only 2 unpaired samples per class exist, so a mostly-pseudo request
    # falls back to extra genuine pairs
    _, paired, unpaired = pools(missing_rate=0.1, spc=20)
    assert len(unpaired) == 4
    plan = build_batch(paired, unpaired, 16, 0.25, seed=5)
    assert len(plan.pseudo) <= 4
    assert plan.size == 16
    assert plan.shortfall == 0


def test_build_batch_shortfall_when_nothing_left():
    _, paired, _ = pools(missing_rate=0.0, spc=3)
    plan = build_batch(paired, [], batch_size=10, r=0.2, seed=0)
    # 6 paired samples exist in total; the batch cannot reach 10
    assert len(plan.genuine) == 6
    assert plan.shortfall == 4


def test_build_batch_errors():
    ds, paired, unpaired = pools()
    with pytest.raises(ConfigError):
        build_batch(paired, unpaired, 1, 0.5, seed=0)
    with pytest.raises(RangeError):
        build_batch(paired, unpaired, 8, 1.2, seed=0)
    with pytest.raises(ProtocolError):
        build_batch([], unpaired, 8, 0.5, seed=0)
    with pytest.raises(UsageError):
        build_batch(unpaired, paired, 8, 0.5, seed=0)  # pools swapped
    with pytest.raises(UsageError):
        build_batch(paired, paired, 8, 0.5, seed=0)  # overlap and paired-in-unpaired


def test_build_batch_donor_class_missing():
    _, paired, unpaired = pools()
    class0_paired = [s for s in paired if s.label == 0]
    class1_unpaired = [s for s in unpaired if s.label == 1]
    with pytest.raises(DonorExhaustionError):
        build_batch(class0_paired, class1_unpaired, 8, 0.5, seed=0)


# sha256 of the plans below, recorded from the list-based composer that
# sorted and scanned both pools on every call; the array draw must give the
# same plans byte for byte.
GOLDEN_PLANS_SHA256 = "43d139e221ee1c12f71440e8a0e99a18cea4281d47ad865d49fddcabecfef788"


@pytest.mark.parametrize("prepared", [False, True])
def test_build_batch_plans_match_golden_digest(prepared):
    cases = [
        (*pools(rate, 30, 17, num_classes=3)[1:], 16, r)
        for rate in (0.2, 0.5, 0.7)
        for r in (0.0, 0.25, 0.5, 1.0)
    ]
    cases.append((*pools(0.1, 20, 5)[1:], 16, 0.25))  # 4 recipients: genuine top-up
    for r in (0.0, 0.5):  # one donor per class: recipients skipped, top-up, shortfall
        cases.append((*pools(0.9, 10, 5, num_classes=3)[1:], 16, r))
    cases.append((pools(0.0, 3, 5)[1], [], 10, 0.2))  # 6 paired, no unpaired: shortfall
    digest = hashlib.sha256()
    for paired, unpaired, batch_size, r in cases:
        args = prepare_pools(paired, unpaired) if prepared else (paired, unpaired)
        for seed in range(50):
            plan = build_batch(*args, batch_size, r, seed)
            digest.update(repr((plan.genuine, plan.pseudo, plan.shortfall)).encode())
    assert digest.hexdigest() == GOLDEN_PLANS_SHA256


def reference_plan(paired_pool, unpaired_pool, batch_size, r, seed):
    """The list-based composer, kept as the reference for the array draw."""
    rng = np.random.default_rng(seed)
    paired_sorted = sorted(paired_pool, key=lambda s: s.id)
    unpaired_sorted = sorted(unpaired_pool, key=lambda s: s.id)
    n_genuine = min(math.ceil(r * batch_size), len(paired_sorted), batch_size)
    paired_order = [paired_sorted[i] for i in rng.permutation(len(paired_sorted))]
    donors_by_class = {}
    for s in paired_order:
        donors_by_class.setdefault(s.label, []).append(s)
    remainder = batch_size - n_genuine
    pseudo = []
    if remainder > 0 and unpaired_sorted:
        for i in rng.permutation(len(unpaired_sorted)):
            rec = unpaired_sorted[i]
            if len(pseudo) == remainder:
                break
            if donors_by_class.get(rec.label):
                pseudo.append((rec.id, donors_by_class[rec.label].pop().id, rec.label))
    still_short = max(0, batch_size - n_genuine - len(pseudo))
    genuine = [s.id for s in paired_order[: n_genuine + still_short]]
    return tuple(genuine), tuple(pseudo), batch_size - len(genuine) - len(pseudo)


@st.composite
def random_pools(draw):
    num_classes = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    is_paired = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    is_paired[0] = True
    feat = np.zeros(2)
    samples = [Sample(id=i, label=c, feat_a=feat, feat_b=feat if p else None)
               for i, c, p in zip(ids, labels, is_paired)]
    paired = [s for s in samples if s.paired]
    donor_classes = {s.label for s in paired}
    unpaired = [s for s in samples if not s.paired and s.label in donor_classes]
    return paired, unpaired


@settings(max_examples=200, deadline=None)
@given(pool_pair=random_pools(), batch_size=st.integers(2, 24),
       r=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       shuffle_seed=st.integers(0, 2**16))
def test_build_batch_prepared_pools_match_plain_lists_and_reference(
    pool_pair, batch_size, r, seed, shuffle_seed
):
    paired, unpaired = pool_pair
    rng = np.random.default_rng(shuffle_seed)
    shuffled = ([paired[i] for i in rng.permutation(len(paired))],
                [unpaired[i] for i in rng.permutation(len(unpaired))])
    plan = build_batch(*prepare_pools(paired, unpaired), batch_size, r, seed)
    assert plan == build_batch(*shuffled, batch_size, r, seed)
    assert (plan.genuine, plan.pseudo, plan.shortfall) == reference_plan(
        *shuffled, batch_size, r, seed
    )

    by_id = {s.id: s for s in paired + unpaired}
    assert len(set(plan.genuine)) == len(plan.genuine)
    assert all(by_id[g].paired for g in plan.genuine)
    recipients = [rec for rec, _, _ in plan.pseudo]
    donors = [donor for _, donor, _ in plan.pseudo]
    assert len(set(recipients)) == len(recipients)
    assert len(set(donors)) == len(donors)
    for rec, donor, label in plan.pseudo:
        assert not by_id[rec].paired and by_id[donor].paired
        assert by_id[rec].label == by_id[donor].label == label
    assert len(plan.genuine) + len(plan.pseudo) + plan.shortfall == batch_size
    assert plan.shortfall >= 0


@st.composite
def class_pools(draw):
    """A (paired, unpaired) pool pair drawn class by class: each class has
    1-40 paired samples, often only 1-3 (scarce donors), and 0-60 unpaired
    ones, with ids shuffled across classes and pools."""
    num_classes = draw(st.integers(1, 3))
    sizes = []
    for _ in range(num_classes):
        n_paired = draw(st.integers(1, 3) | st.integers(1, 40))
        sizes.append((n_paired, draw(st.integers(0, 60))))
    total = sum(p + u for p, u in sizes)
    ids = draw(st.permutations(range(total)))
    feat = np.zeros(2)
    paired, unpaired, at = [], [], 0
    for label, (n_paired, n_unpaired) in enumerate(sizes):
        for k in range(n_paired + n_unpaired):
            sample = Sample(id=ids[at], label=label, feat_a=feat,
                            feat_b=feat if k < n_paired else None)
            (paired if k < n_paired else unpaired).append(sample)
            at += 1
    return paired, unpaired


@settings(max_examples=300, deadline=None)
@given(pool_pair=class_pools(), batch_size=st.integers(2, 64), r=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_build_batch_matches_the_reference_over_pool_compositions(pool_pair, batch_size, r, seed):
    """With plentiful donors every recipient of the first draws is served;
    with scarce ones recipients are skipped, the scans grow and genuine
    pairs top the batch up.  Either way the plan is the reference's."""
    paired, unpaired = pool_pair
    plan = build_batch(*prepare_pools(paired, unpaired), batch_size, r, seed)
    assert (plan.genuine, plan.pseudo, plan.shortfall) == reference_plan(
        paired, unpaired, batch_size, r, seed)


def test_the_pseudo_pair_draw_runs_every_branch_on_the_reference_cases():
    """The compositions below reach each branch of ams._pseudo_pairs: every
    recipient served, the recipient prefix grown, a class without chosen
    recipients, and the donor window grown; each plan is the reference's."""
    import sys

    from pgad import ams

    code = ams._pseudo_pairs.__code__
    lines, first = inspect.getsourcelines(ams._pseudo_pairs)
    branch_lines = {name: first + next(i for i, line in enumerate(lines) if text in line)
                    for name, text in (("all served", "chosen = recipients[:remainder]"),
                                       ("prefix grown", "n *= 2"),
                                       ("class skipped", "continue"),
                                       ("window grown", "m *= 2"))}
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    cases = [(pools(0.5, 20, 3), 16, 0.5), (pools(0.9, 10, 5, num_classes=3), 16, 0.0),
             (pools(0.9, 10, 5, num_classes=3), 16, 0.5), (pools(0.7, 30, 17, 3), 16, 0.25),
             (pools(0.5, 20, 3, num_classes=3), 4, 0.75)]
    sys.settrace(tracer)
    try:
        plans = [(case, seed, build_batch(*prepare_pools(*case[0][1:]), *case[1:], seed))
                 for case in cases for seed in range(40)]
    finally:
        sys.settrace(None)
    for ((_, paired, unpaired), batch_size, r), seed, plan in plans:
        assert (plan.genuine, plan.pseudo, plan.shortfall) == reference_plan(
            paired, unpaired, batch_size, r, seed)
    for name, line in branch_lines.items():
        assert line in ran, name


def lookup_rows(pool, ids):
    """Rows of `ids` in an id-sorted pool, by binary search: the reference
    for the rows a plan carries."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.searchsorted(pool.ids, ids)
    assert np.array_equal(pool.ids[rows], ids)
    return rows


@pytest.mark.parametrize("rate", [0.0, 0.5, 0.9])
def test_plan_rows_carried_from_the_draw_equal_the_id_lookup(rate):
    """A plan carries the rows it was drawn at: the pool rows of its ids."""
    _, paired, unpaired = pools(rate, 20, 4)
    prepped = prepare_pools(paired, unpaired)
    for seed in range(20):
        plan = build_batch(*prepped, 16, 0.5, seed)
        b_rows, r_rows = plan.rows(*prepped)
        assert [r.dtype for r in (b_rows, r_rows)] == [np.int64, np.int64]
        donors = [p[1] for p in plan.pseudo]
        assert np.array_equal(b_rows, lookup_rows(prepped[0], list(plan.genuine) + donors))
        assert np.array_equal(r_rows, lookup_rows(prepped[1], plan.unpaired_student_only))
        assert replace(plan) == plan  # the carried rows take no part in equality


def test_an_edited_plan_drops_the_carried_rows():
    _, paired, unpaired = pools(0.5, 20, 4)
    prepped = prepare_pools(paired, unpaired)
    plan = build_batch(*prepped, 16, 0.5, 0)
    rec, _, cls = plan.pseudo[0]
    bad = replace(plan, pseudo=((rec, rec, cls),) + plan.pseudo[1:])
    for edited in (bad, replace(plan)):
        with pytest.raises(UsageError, match="not drawn by build_batch from these pools"):
            edited.rows(*prepped)


def test_a_plan_gives_its_rows_only_for_the_pool_objects_it_was_drawn_from():
    _, paired, unpaired = pools(0.5, 20, 4)
    prepped = prepare_pools(paired, unpaired)
    other = prepare_pools(paired, unpaired)  # equal pools, other objects
    plan = build_batch(*prepped, 16, 0.5, 0)
    assert plan == build_batch(*other, 16, 0.5, 0) == build_batch(paired, unpaired, 16, 0.5, 0)
    plan.rows(*prepped)
    for args in (other, (prepped[0], other[1]), (other[0], prepped[1]), prepped[::-1]):
        with pytest.raises(UsageError, match="not drawn by build_batch from these pools"):
            plan.rows(*args)
    with pytest.raises(UsageError):  # drawn from pools build_batch prepared itself
        build_batch(paired, unpaired, 16, 0.5, 0).rows(*prepped)


def test_sample_pool_is_sorted_read_only_and_iterable():
    _, paired, unpaired = pools()
    paired_pool, unpaired_pool = prepare_pools(paired[::-1], unpaired)
    assert list(paired_pool.ids) == sorted(s.id for s in paired)
    assert [s.id for s in paired_pool] == list(paired_pool.ids)
    assert list(paired_pool.labels) == [s.label for s in paired_pool]
    assert len(paired_pool) == len(paired) and unpaired_pool.donors is paired_pool
    with pytest.raises(ValueError):
        paired_pool.ids[0] = -1
    with pytest.raises(AttributeError):
        paired_pool.donors = unpaired_pool


def test_sample_pool_columns_are_id_sorted_and_read_only():
    ds, _, _ = pools()
    shuffled = [ds[i] for i in np.random.default_rng(0).permutation(len(ds))]
    pool_pair = prepare_pools([s for s in shuffled if s.paired],
                              [s for s in shuffled if not s.paired])
    by_id = {s.id: s for s in ds}
    paired_pool, unpaired_pool = pool_pair
    assert unpaired_pool.data is paired_pool.data  # one Dataset that both pools view
    data = paired_pool.data
    for pool in pool_pair:
        assert np.array_equal(pool.ids, sorted(s.id for s in pool))
        assert np.array_equal(data.ids[pool.rows], pool.ids)
        for row, i in enumerate(pool.ids.tolist()):
            assert pool.labels[row] == by_id[i].label
            assert np.array_equal(data.feat_a[pool.rows[row]], by_id[i].feat_a)
            if pool.paired:
                assert np.array_equal(data.feat_b[pool.rows[row]], by_id[i].feat_b)
        assert (data.paired[pool.rows] == pool.paired).all()
        for column in (pool.rows, pool.ids, pool.labels):
            assert not column.flags.writeable
    assert data.feat_b[paired_pool.rows].shape == (len(paired_pool), 4)
    assert not unpaired_pool.paired  # no modality B to gather a donor from
    _, empty = prepare_pools(paired_pool, [])
    assert empty.data.feat_a[empty.rows].shape == (0, 4)  # as wide as its donors' columns


def test_sample_pool_errors():
    ds, paired, unpaired = pools()
    with pytest.raises(UsageError, match="in the paired pool has no modality-B"):
        SamplePool(Dataset.from_samples(ds), paired=True)  # mixed paired and unpaired
    with pytest.raises(UsageError, match="in the unpaired pool is paired"):
        SamplePool(Dataset.from_samples(ds), paired=False)
    data = Dataset.from_samples(paired)
    with pytest.raises(UsageError):
        SamplePool(data, paired=True, donors=SamplePool(data, paired=True))
    with pytest.raises(ProtocolError):
        prepare_pools([], unpaired)
    with pytest.raises(UsageError, match=rf"ids repeat within a pool: \[{paired[1].id}\]"):
        build_batch(paired + paired[1:2], unpaired, 8, 0.5, seed=0)
    twin = Sample(id=paired[0].id, label=paired[0].label, feat_a=paired[0].feat_a, feat_b=None)
    with pytest.raises(UsageError, match=rf"shared ids: \[{twin.id}\]"):
        prepare_pools(paired, unpaired + [twin])


def test_pools_from_dataset_rows_equal_pools_from_sample_lists():
    cfg = DatasetConfig(num_classes=3, samples_per_class=20, dim_a=4, dim_b=4,
                        class_separation=3.0, noise_scale=1.0, missing_rate=0.0, seed=3)
    (data,) = draw_datasets(cfg, (0.5,))
    rows = np.random.default_rng(0).choice(len(data), 40, replace=False)  # any order
    samples = data.samples()
    chosen = [samples[i] for i in rows]
    from_rows = prepare_pools(data, rows)
    from_lists = prepare_pools([s for s in chosen if s.paired], [s for s in chosen if not s.paired])
    for a, b in zip(from_rows, from_lists):
        assert a.data is data and a.paired == b.paired
        for name in ("ids", "labels", "feat_a") + (("feat_b",) if a.paired else ()):
            column, other = getattr(data, name)[a.rows], getattr(b.data, name)[b.rows]
            assert column.tobytes() == other.tobytes()
            assert column.shape == other.shape
        for name in ("rows", "ids", "labels"):
            assert not getattr(a, name).flags.writeable
        assert a.class_counts == b.class_counts
        assert [(s.id, s.label) for s in a] == [(s.id, s.label) for s in b]
    assert from_rows[1].donors is from_rows[0]
    assert build_batch(*from_rows, 16, 0.5, 4) == build_batch(*from_lists, 16, 0.5, 4)

    no_paired = np.flatnonzero(~data.paired)
    with pytest.raises(ProtocolError, match="paired pool is empty"):
        prepare_pools(data, no_paired)
    with pytest.raises(ProtocolError, match="paired pool is empty"):
        prepare_pools([], [samples[i] for i in no_paired])
    # class 2 keeps only unpaired rows: no donor for it
    lacking = np.flatnonzero(data.paired | (data.labels == 2))
    lacking = lacking[~((data.labels[lacking] == 2) & data.paired[lacking])]
    with pytest.raises(DonorExhaustionError, match="class 2 has unpaired samples"):
        prepare_pools(data, lacking)
    kept = [samples[i] for i in lacking]
    with pytest.raises(DonorExhaustionError, match="class 2 has unpaired samples"):
        prepare_pools([s for s in kept if s.paired], [s for s in kept if not s.paired])


def test_theta_gradient_surrogate_closed_form():
    for theta in (-2.0, -0.5, 0.0, 0.7, 3.0):
        r = sigmoid(theta)
        got = theta_gradient(theta, 2.0, 0.5)
        assert got == pytest.approx((2.0 - 0.5) * r * (1 - r), abs=1e-12)


def test_theta_gradient_matches_fd_of_expected_loss():
    lp, lq = 1.7, 0.4
    h = 1e-6
    for theta in (-1.0, 0.0, 0.8):
        f = lambda th: sigmoid(th) * lp + (1 - sigmoid(th)) * lq
        fd = (f(theta + h) - f(theta - h)) / (2 * h)
        got = theta_gradient(theta, lp, lq)
        assert got == pytest.approx(fd, abs=1e-8)


def test_theta_gradient_sign_pushes_toward_cheaper_subset():
    # pseudo subset cheaper: positive gradient lowers theta via descent,
    # shrinking the genuine share
    assert theta_gradient(0.0, 2.0, 1.0) > 0
    assert theta_gradient(0.0, 1.0, 2.0) < 0
    assert theta_gradient(0.0, 1.5, 1.5) == 0.0


def test_theta_gradient_errors():
    with pytest.raises(NumericHealthError):
        theta_gradient(0.0, math.nan, 1.0)
    with pytest.raises(NumericHealthError):
        theta_gradient(0.0, 1.0, math.inf)


def test_ams_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    export_ams_trace_csv([(0, 0.0, 0.5), (1, 0.25, sigmoid(0.25))], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,theta,ratio"
    assert lines[1] == "0,0.0,0.5"
    assert len(lines) == 3


def test_the_fold_pools_of_a_cell_copy_no_feature_column():
    """A cell's five fold pools view its Dataset: building them for a
    4000-row cohort at rate 0.2 (the benchmark's large cohort, about 1 MB of
    features) allocates their rows, ids and labels only: under 1 MB at its
    peak, where a copy of the pools' feature columns alone takes about 4 MB."""
    cfg = DatasetConfig(num_classes=2, samples_per_class=2000, dim_a=16, dim_b=16,
                        class_separation=6.5, noise_scale=1.6, missing_rate=0.0, seed=101)
    (data,) = draw_datasets(cfg, (0.2,))
    folds = kfold_rows(data.ids, data.labels, 5, derive_seed(cfg.seed, "folds"))
    train_rows = [np.setdiff1d(np.arange(len(data)), test) for test in folds]
    tracemalloc.start()
    try:
        cell = [prepare_pools(data, rows) for rows in train_rows]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(pool.data is data for pools in cell for pool in pools)
    assert sum(len(paired) + len(unpaired) for paired, unpaired in cell) == 4 * len(data)
    assert peak < 1 << 20, f"{peak} bytes"


def test_a_drawn_plan_builds_its_id_tuples_when_first_read():
    """build_batch keeps the drawn rows and counts; the id tuples appear on
    first read and make the plan equal to, and print like, the plan built
    from them by keyword."""
    _, paired, unpaired = pools(0.5, 20, 4)
    prepped = prepare_pools(paired, unpaired)
    plan = build_batch(*prepped, 16, 0.5, 3)
    assert not {"genuine", "pseudo", "unpaired_student_only"} & set(vars(plan))
    assert (plan.n_genuine, plan.n_pseudo, plan.size) == (8, 8, 16)
    assert not {"genuine", "pseudo", "unpaired_student_only"} & set(vars(plan))
    by_keyword = BatchPlan(genuine=plan.genuine, pseudo=plan.pseudo,
                           unpaired_student_only=plan.unpaired_student_only,
                           shortfall=plan.shortfall)
    assert by_keyword == plan and repr(by_keyword) == repr(plan)
    assert hash(by_keyword) == hash(plan)
    assert (by_keyword.n_genuine, by_keyword.n_pseudo) == (plan.n_genuine, plan.n_pseudo)
    assert plan.unpaired_student_only == tuple(rec for rec, _, _ in plan.pseudo)
    b_rows, r_rows = plan.rows(*prepped)
    assert not b_rows.flags.writeable and not r_rows.flags.writeable
    with pytest.raises(AttributeError):
        plan.size_of_batch
