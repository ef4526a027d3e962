"""Synthetic two-modality dataset: generation, missingness, folds, CSV round-trips."""

import csv
import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgad.errors import (
    ConfigError,
    InfeasibleSplitError,
    ProtocolError,
    RangeError,
    ShapeError,
    UsageError,
)
from pgad.synthdata import (
    Dataset,
    DatasetConfig,
    Sample,
    apply_missingness,
    draw_datasets,
    export_dataset_csv,
    generate_dataset,
    import_dataset_csv,
    kfold_rows,
    paired_mask,
    round_half_up,
    stratified_kfold,
)


def small_cfg(**overrides) -> DatasetConfig:
    base = dict(
        num_classes=2,
        samples_per_class=20,
        dim_a=6,
        dim_b=5,
        class_separation=4.0,
        noise_scale=1.0,
        missing_rate=0.0,
        seed=7,
    )
    base.update(overrides)
    return DatasetConfig(**base)


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4999) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(0.0) == 0


def test_config_validation_rejects_bad_fields():
    """Checked when built, by the constructor and by replace alike."""
    for bad in ({"num_classes": 1}, {"samples_per_class": 1}, {"dim_a": 0},
                {"dim_a": 1},  # fewer dims than classes
                {"class_separation": -1.0}, {"noise_scale": 0.0}, {"missing_rate": 1.5}):
        with pytest.raises(ConfigError):
            small_cfg(**bad)
        with pytest.raises(ConfigError):
            replace(small_cfg(), **bad)


def test_generate_dataset_shapes_labels_ids():
    cfg = small_cfg()
    ds = generate_dataset(cfg)
    assert len(ds) == 40
    assert [s.id for s in ds] == list(range(40))
    counts = {0: 0, 1: 0}
    for s in ds:
        counts[s.label] += 1
        assert s.feat_a.shape == (6,)
        assert s.feat_b.shape == (5,)
        assert s.paired
        assert np.isfinite(s.feat_a).all() and np.isfinite(s.feat_b).all()
    assert counts == {0: 20, 1: 20}


def test_generate_dataset_deterministic_and_seed_sensitive():
    a = generate_dataset(small_cfg())
    b = generate_dataset(small_cfg())
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.feat_a, sb.feat_a)
        assert np.array_equal(sa.feat_b, sb.feat_b)
    c = generate_dataset(small_cfg(seed=8))
    assert not np.array_equal(a[0].feat_a, c[0].feat_a)


def test_generate_dataset_class_signal_present():
    """Class means of both modalities must be separated well beyond noise."""
    cfg = small_cfg(samples_per_class=300, class_separation=6.0)
    ds = generate_dataset(cfg)
    for attr in ("feat_a", "feat_b"):
        m0 = np.mean([getattr(s, attr) for s in ds if s.label == 0], axis=0)
        m1 = np.mean([getattr(s, attr) for s in ds if s.label == 1], axis=0)
        gap = float(np.linalg.norm(m0 - m1))
        assert gap > 1.0, f"{attr}: class mean gap {gap} too small"


def test_modality_b_carries_stronger_class_signal():
    """The B view sees the class mean at full strength, the A view partly attenuated."""
    cfg = small_cfg(dim_a=8, dim_b=8, samples_per_class=2000, class_separation=6.0,
                    noise_scale=0.5, seed=3)
    ds = generate_dataset(cfg)
    gaps = {}
    for attr in ("feat_a", "feat_b"):
        m0 = np.mean([getattr(s, attr) for s in ds if s.label == 0], axis=0)
        m1 = np.mean([getattr(s, attr) for s in ds if s.label == 1], axis=0)
        gaps[attr] = float(np.linalg.norm(m0 - m1))
    assert gaps["feat_b"] > gaps["feat_a"] + 0.5


def test_generate_dataset_missingness_counts():
    for rate in (0.0, 0.2, 0.5, 0.7, 1.0):
        ds = generate_dataset(small_cfg(missing_rate=rate))
        expected = round_half_up(rate * 20)
        for label in (0, 1):
            unpaired = sum(1 for s in ds if s.label == label and not s.paired)
            assert unpaired == expected, f"rate={rate} label={label}"


def test_apply_missingness_preserves_feat_a_and_order():
    ds = generate_dataset(small_cfg())
    out = apply_missingness(ds, 0.5, seed=11)
    assert [s.id for s in out] == [s.id for s in ds]
    for before, after in zip(ds, out):
        assert np.array_equal(before.feat_a, after.feat_a)
        assert after.label == before.label


def test_apply_missingness_mask_is_order_independent():
    ds = generate_dataset(small_cfg())
    forward = apply_missingness(ds, 0.3, seed=5)
    reversed_in = apply_missingness(list(reversed(ds)), 0.3, seed=5)
    dropped_fwd = {s.id for s in forward if not s.paired}
    dropped_rev = {s.id for s in reversed_in if not s.paired}
    assert dropped_fwd == dropped_rev


def test_apply_missingness_rejects_bad_input():
    ds = generate_dataset(small_cfg())
    with pytest.raises(RangeError):
        apply_missingness(ds, 1.0001, seed=0)
    half = apply_missingness(ds, 0.5, seed=0)
    with pytest.raises(UsageError):
        apply_missingness(half, 0.5, seed=0)


def test_stratified_kfold_partition_and_balance():
    ds = generate_dataset(small_cfg(samples_per_class=23))
    folds = stratified_kfold(ds, 5, seed=2)
    assert len(folds) == 5
    all_test = []
    for f in folds:
        all_test.extend(f.test_ids)
        assert set(f.train_ids) | set(f.test_ids) == {s.id for s in ds}
        assert set(f.train_ids) & set(f.test_ids) == set()
        # per-class balance within +/- 1 of 23/5
        by_id = {s.id: s.label for s in ds}
        for label in (0, 1):
            n = sum(1 for i in f.test_ids if by_id[i] == label)
            assert 4 <= n <= 5
    assert sorted(all_test) == [s.id for s in ds]


def test_stratified_kfold_deterministic():
    ds = generate_dataset(small_cfg())
    f1 = stratified_kfold(ds, 4, seed=9)
    f2 = stratified_kfold(ds, 4, seed=9)
    assert [f.test_ids for f in f1] == [f.test_ids for f in f2]
    f3 = stratified_kfold(ds, 4, seed=10)
    assert [f.test_ids for f in f1] != [f.test_ids for f in f3]


def test_stratified_kfold_errors():
    ds = generate_dataset(small_cfg())
    with pytest.raises(ConfigError):
        stratified_kfold(ds, 1, seed=0)
    tiny = [s for s in ds if s.label == 0][:3] + [s for s in ds if s.label == 1]
    with pytest.raises(InfeasibleSplitError):
        stratified_kfold(tiny, 4, seed=0)


def test_dataset_csv_round_trip(tmp_path):
    for data in draw_datasets(small_cfg(), (0.0, 0.5, 1.0)):
        path = tmp_path / "data.csv"
        export_dataset_csv(data, path)
        back = import_dataset_csv(path)
        assert back == data
        assert np.isnan(back.feat_b[~back.paired]).all()
        # the b_* columns follow feat_b's width, also when every row is unpaired
        assert path.read_text().splitlines()[0].endswith(",b_0,b_1,b_2,b_3,b_4")
    # an all-unpaired file written without b_* columns reads with a zero-width feat_b
    path.write_bytes(b"id,label,paired,a_0\r\n0,1,0,0.5\r\n")
    back = import_dataset_csv(path)
    assert back.feat_b.shape == (1, 0) and not back.paired.any()
    export_dataset_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_dataset_equality_ignores_the_feat_b_rows_of_unpaired_samples():
    (data,) = draw_datasets(small_cfg(), (0.5,))
    masked = np.where(data.paired[:, None], data.feat_b, np.nan)
    assert replace(data, feat_b=masked) == data
    assert replace(data, feat_b=np.where(data.paired[:, None], 0.0, data.feat_b)) != data
    assert replace(data, feat_b=data.feat_b[:, :4]) != data


# sha256 of export_dataset_csv's bytes for PINNED_CSV_CONFIG's draw at rate
# 0.5, recorded from the per-sample writer that the columnar writer replaced.
PINNED_CSV_SHA256 = "2507ca537e805c878a2637e16837763d05b90ca75e6ef4a7e9a7200f607c5cdd"
PINNED_CSV_CONFIG = dict(num_classes=3, samples_per_class=17, dim_a=4, dim_b=9, seed=3)


def test_dataset_csv_bytes_match_the_pinned_digest(tmp_path):
    (data,) = draw_datasets(small_cfg(**PINNED_CSV_CONFIG), (0.5,))
    assert 0 < data.paired.sum() < len(data)
    path = tmp_path / "data.csv"
    export_dataset_csv(data, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CSV_SHA256


def test_dataset_csv_rejects_empty_and_flag_mismatch(tmp_path):
    header_only = tmp_path / "header.csv"
    header_only.write_text("id,label,paired,a_0,a_1,b_0\n")
    empty = import_dataset_csv(header_only)
    assert len(empty) == 0 and empty.feat_a.shape == (0, 2) and empty.feat_b.shape == (0, 1)
    with pytest.raises(UsageError):
        export_dataset_csv(empty, tmp_path / "x.csv")
    (data,) = draw_datasets(small_cfg(dim_a=2, dim_b=2, samples_per_class=2), (0.0,))
    path = tmp_path / "bad.csv"
    export_dataset_csv(data, path)
    lines = path.read_text().splitlines()
    # claim unpaired while b_* columns hold data
    first = lines[1].split(",")
    first[2] = "0"
    lines[1] = ",".join(first)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ProtocolError):
        import_dataset_csv(path)


@pytest.mark.parametrize("header,row", [
    ("id,label", "1,0"),
    ("id,label,paired", "1,0,0"),
    ("id,label,paired,b_0,a_0", "1,0,1,0.5,0.25"),
    ("id,label,paired,a_0,a_2", "1,0,0,0.5,0.25"),
    ("label,id,paired,a_0", "0,1,0,0.5"),
], ids=["no_features", "no_a", "b_before_a", "gap", "order"])
def test_dataset_csv_rejects_a_header_other_than_the_exported_one(tmp_path, header, row):
    path = tmp_path / "odd.csv"
    path.write_text(f"{header}\n{row}\n")
    with pytest.raises(ProtocolError, match=r"odd\.csv: dataset header must be"):
        import_dataset_csv(path)


def test_dataset_csv_wraps_a_field_over_the_csv_size_limit(tmp_path):
    (data,) = draw_datasets(small_cfg(dim_a=2, dim_b=2, samples_per_class=2), (0.0,))
    path = tmp_path / "quoted.csv"
    export_dataset_csv(data, path)
    lines = path.read_text().splitlines()
    # an unclosed quote runs the field on to the end of a large file
    path.write_text("\n".join(lines[:2] + ['"' + "0.5," * 40000]) + "\n")
    with pytest.raises(ProtocolError, match="quoted.csv line"):
        import_dataset_csv(path)


# A replacement cell: mostly CSV structure and number syntax, some anything.
CELL_TEXT = st.text(
    st.sampled_from('0123456789-.,"\n\rabe_ ') | st.characters(exclude_categories=("Cs",)),
    max_size=8,
)
CSV_EDITS = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 50), st.integers(0, 50), CELL_TEXT),
    st.tuples(st.just("cut"), st.integers(0, 50), st.integers(0, 400)),
)


@settings(max_examples=300, deadline=None)
@given(edit=CSV_EDITS)
@example(edit=("cell", 0, 0, "\n\n"))  # an empty header and an empty row
@example(edit=("cell", 0, 0, "x,y\n1,0\n"))  # a two-column header and row
@example(edit=("cell", 0, 3, "b_9"))  # a b_* column among the a_* ones
@example(edit=("cell", 1, 2, "5"))  # a paired flag other than 0 or 1
@example(edit=("cell", 1, 1, "-3"))  # a negative label
@example(edit=("cell", 2, 0, "0"))  # the id of the row before
@example(edit=("cell", 1, 3, "nan"))  # a non-finite a_* cell of a paired row
@example(edit=("cell", 2, 8, "inf"))  # ... of an unpaired row
@example(edit=("cell", 1, 9, "-inf"))  # a non-finite b_* cell of a paired row
def test_dataset_csv_reads_an_edited_file_back_or_raises_protocol_error(tmp_path_factory, edit):
    path = tmp_path_factory.mktemp("edit") / "data.csv"
    export_dataset_csv(draw_datasets(small_cfg(samples_per_class=3), (0.5,))[0], path)
    lines = path.read_text().splitlines()
    i = edit[1] % len(lines)
    if edit[0] == "cell":
        cells = lines[i].split(",")
        cells[edit[2] % len(cells)] = edit[3]
        lines[i] = ",".join(cells)
    else:
        lines[i] = lines[i][: edit[2]]
    path.write_text("\n".join(lines) + "\n")
    try:
        back = import_dataset_csv(path)
    except ProtocolError:
        return
    assert back.feat_a.shape == (len(back), 6) and back.feat_b.shape == (len(back), 5)
    assert (back.labels >= 0).all()
    assert len(np.unique(back.ids)) == len(back)
    assert np.isnan(back.feat_b[~back.paired]).all()
    assert np.isfinite(back.feat_a).all() and np.isfinite(back.feat_b[back.paired]).all()
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [row[2] for row in rows] == ["1" if p else "0" for p in back.paired.tolist()]


def test_fuzz_missingness_counts_and_determinism():
    rng = np.random.default_rng(0)
    for trial in range(30):
        spc = int(rng.integers(3, 30))
        rate = float(rng.uniform(0.0, 1.0))
        seed = int(rng.integers(0, 1000))
        cfg = small_cfg(samples_per_class=spc, missing_rate=rate, seed=seed)
        ds = generate_dataset(cfg)
        expected = round_half_up(rate * spc)
        for label in (0, 1):
            got = sum(1 for s in ds if s.label == label and not s.paired)
            assert got == expected
        again = generate_dataset(cfg)
        assert [s.paired for s in ds] == [s.paired for s in again]


def test_sample_paired_property():
    s = Sample(id=0, label=1, feat_a=np.zeros(3), feat_b=None)
    assert not s.paired
    t = Sample(id=1, label=0, feat_a=np.zeros(3), feat_b=np.ones(2))
    assert t.paired


# sha256 of generate_dataset's samples over DRAW_CONFIGS x RATES, recorded
# from the per-sample generator that the columnar draw replaced.
GOLDEN_DRAW_DIGEST = "776a96d61f04299ac9d0bc1e89a92485070b880434d542f5625ed251968b1653"
DRAW_CONFIGS = [
    dict(),
    dict(num_classes=3, samples_per_class=17, dim_a=4, dim_b=9, seed=3),
    dict(samples_per_class=5, dim_a=2, dim_b=2, seed=1),
]
RATES = (0.0, 0.2, 0.5, 0.7, 1.0)


def test_generate_dataset_matches_golden_digest():
    digest = hashlib.sha256()
    for overrides in DRAW_CONFIGS:
        for rate in RATES:
            for s in generate_dataset(small_cfg(**overrides, missing_rate=rate)):
                digest.update(repr((s.id, s.label)).encode() + s.feat_a.tobytes()
                              + (s.feat_b.tobytes() if s.paired else b"-"))
    assert digest.hexdigest() == GOLDEN_DRAW_DIGEST


@pytest.mark.parametrize("overrides", DRAW_CONFIGS)
def test_draw_datasets_equal_generate_dataset_bit_for_bit(overrides):
    cfg = small_cfg(**overrides, missing_rate=0.9)  # draw_datasets masks at its rates only
    datasets = draw_datasets(cfg, RATES)
    assert len(datasets) == len(RATES)
    for rate, data in zip(RATES, datasets):
        samples = generate_dataset(replace(cfg, missing_rate=rate))
        assert data.ids.tolist() == [s.id for s in samples]
        assert data.labels.tolist() == [s.label for s in samples]
        assert data.paired.tolist() == [s.paired for s in samples]
        assert data.feat_a.tobytes() == np.stack([s.feat_a for s in samples]).tobytes()
        paired_b = [s.feat_b for s in samples if s.paired]
        if paired_b:
            assert data.feat_b[data.paired].tobytes() == np.stack(paired_b).tobytes()
        # one draw: every rate's dataset reads the same arrays
        for name in ("ids", "labels", "feat_a", "feat_b"):
            assert np.shares_memory(getattr(data, name), getattr(datasets[0], name))


def reference_missing_ids(samples, rate, seed):
    """The per-sample missingness loop the mask replaced: the ids losing feat_b."""
    rng = np.random.default_rng(seed)
    by_class = {}
    for s in samples:
        by_class.setdefault(s.label, []).append(s.id)
    drop = set()
    for label in sorted(by_class):
        ids = sorted(by_class[label])
        order = rng.permutation(len(ids))
        drop.update(ids[j] for j in order[: round_half_up(rate * len(ids))])
    return drop


@pytest.mark.parametrize("rate", RATES + (0.33,))
def test_paired_mask_matches_the_per_sample_reference_in_any_order(rate):
    full = generate_dataset(small_cfg(num_classes=3, samples_per_class=13, dim_a=4, dim_b=4))
    for shuffle_seed in range(3):
        order = np.random.default_rng(shuffle_seed).permutation(len(full))
        shuffled = [full[i] for i in order]
        ids = np.array([s.id for s in shuffled])
        labels = np.array([s.label for s in shuffled])
        mask = paired_mask(ids, labels, rate, seed=21)
        expected = reference_missing_ids(shuffled, rate, 21)
        assert set(ids[~mask].tolist()) == expected
        assert {s.id for s in apply_missingness(shuffled, rate, seed=21) if not s.paired} == expected
    with pytest.raises(RangeError):
        paired_mask(ids, labels, -0.1, seed=0)


def test_kfold_rows_match_stratified_kfold_in_any_order():
    ds = generate_dataset(small_cfg(num_classes=3, samples_per_class=11, dim_a=4, dim_b=4))
    folds = stratified_kfold(ds, 4, seed=6)
    order = np.random.default_rng(1).permutation(len(ds))
    ids = np.array([ds[i].id for i in order])
    labels = np.array([ds[i].label for i in order])
    tests = kfold_rows(ids, labels, 4, seed=6)
    assert [sorted(ids[rows].tolist()) for rows in tests] == [list(f.test_ids) for f in folds]
    assert all(np.array_equal(rows, np.sort(rows)) for rows in tests)
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(len(ds)))


def test_dataset_columns_are_read_only_and_pickle_with_value_equality():
    ds = generate_dataset(small_cfg(missing_rate=0.4))
    data = Dataset.from_samples(ds)
    assert len(data) == len(ds) and np.isnan(data.feat_b[~data.paired]).all()
    for before, after in zip(ds, data.samples()):
        assert (before.id, before.label, before.paired) == (after.id, after.label, after.paired)
        assert np.array_equal(before.feat_a, after.feat_a)
        assert after.feat_b is None or np.array_equal(before.feat_b, after.feat_b)
    back = pickle.loads(pickle.dumps(data))
    assert back == data
    assert back != replace(data, paired=np.ones(len(data), dtype=bool))
    for obj in (data, back):
        for column in (obj.ids, obj.labels, obj.feat_a, obj.feat_b, obj.paired):
            assert not column.flags.writeable
    owned = np.arange(3)
    Dataset(ids=owned, labels=owned, feat_a=np.zeros((3, 1)), feat_b=np.zeros((3, 1)),
            paired=np.ones(3, dtype=bool))
    assert owned.flags.writeable  # the caller's array is not frozen, only the view
    with pytest.raises(ShapeError):
        Dataset(ids=owned, labels=owned[:2], feat_a=np.zeros((3, 1)),
                feat_b=np.zeros((3, 1)), paired=np.ones(3, dtype=bool))
