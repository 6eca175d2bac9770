import json

import numpy as np
import pytest

from dynamo.tasks import (
    SequenceDataset,
    TaskError,
    TaskSpec,
    bag_of_tokens,
    gen_topic_task,
    gen_valence_task,
    load_dataset,
    save_dataset,
    split_dataset,
    write_csv,
)


def _valence_spec(**kw):
    base = dict(kind="valence_sentiment", vocab_size=48, num_classes=2,
                t_min=4, t_max=10, noise_rate=0.0, seed=7, num_sequences=200)
    base.update(kw)
    return TaskSpec(**base)


def _topic_spec(**kw):
    base = dict(kind="topic_classification", vocab_size=48, num_classes=3,
                t_min=6, t_max=12, noise_rate=0.0, seed=7, num_sequences=200)
    base.update(kw)
    return TaskSpec(**base)


def test_valence_labels_match_token_values():
    ds = gen_valence_task(_valence_spec())
    vals = ds.valence
    assert vals.shape == (ds.vocab_size,) and set(vals) == {1.0, -1.0, 0.0}
    for seq, lab in zip(ds.sequences, ds.labels):
        total = vals[np.array(seq)].sum()
        assert total != 0.0  # zero-sum sequences are regenerated
        assert lab == (1 if total > 0 else 0)


def test_valence_all_positive_tokens_label_one():
    ds = gen_valence_task(_valence_spec())
    vals = ds.valence
    pos = [t for t in range(ds.vocab_size) if vals[t] > 0]
    # direct check of the labeling rule on a constructed sequence
    assert sum(vals[t] for t in pos[:3]) > 0


@pytest.mark.parametrize("generate,spec", [(gen_valence_task, _valence_spec),
                                           (gen_topic_task, _topic_spec)],
                         ids=["valence", "topic"])
def test_valence_noise_flips_exact_fraction(generate, spec):
    clean = generate(spec(noise_rate=0.0))
    noisy = generate(spec(noise_rate=0.1))
    assert clean.sequences == noisy.sequences
    flipped = [(a, b) for a, b in zip(clean.labels, noisy.labels) if a != b]
    assert len(flipped) == 20  # floor(0.1 * 200)
    # a flipped label is another class of the task
    assert all(0 <= b < clean.num_classes for _, b in flipped)


def test_valence_determinism_byte_for_byte(tmp_path):
    a = gen_valence_task(_valence_spec())
    b = gen_valence_task(_valence_spec())
    save_dataset(a, tmp_path / "a")
    save_dataset(b, tmp_path / "b")
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_valence_spec_validation():
    with pytest.raises(TaskError):
        gen_valence_task(_valence_spec(num_classes=3))
    with pytest.raises(TaskError):
        gen_valence_task(_valence_spec(t_min=0))
    with pytest.raises(TaskError):
        gen_valence_task(_topic_spec())


def test_topic_labels_are_argmax_without_ties():
    ds = gen_topic_task(_topic_spec())
    C = ds.num_classes
    block = ds.vocab_size // (C + 1)
    for seq, lab in zip(ds.sequences, ds.labels):
        counts = np.zeros(C, dtype=int)
        for t in seq:
            if t < C * block:
                counts[t // block] += 1
        top = counts.max()
        assert (counts == top).sum() == 1
        assert lab == counts.argmax()


def test_topic_class_frequencies_roughly_uniform():
    ds = gen_topic_task(_topic_spec(num_sequences=10_000, seed=1))
    freq = np.bincount(ds.labels, minlength=3) / len(ds)
    assert np.all(np.abs(freq - 1 / 3) < 0.03)


def test_topic_pure_block_sequence_labeled_by_block():
    ds = gen_topic_task(_topic_spec())
    block = ds.vocab_size // 4
    vals = [2 * block, 2 * block + 1, 2 * block + 2]  # all from block 2
    counts = np.zeros(3, dtype=int)
    for t in vals:
        counts[t // block] += 1
    assert counts.argmax() == 2


def test_split_partition_and_sizes():
    ds = gen_valence_task(_valence_spec(num_sequences=100))
    split_dataset(ds, (0.5, 0.5, 0.0), seed=3)
    assert len(ds.indices("base_train")) == 50
    assert len(ds.indices("meta_unlabeled")) == 50
    assert len(ds.indices("ssl_labeled")) == 0
    assert len(ds.indices("test")) == 0
    all_idx = sorted(sum((ds.indices(t) for t in
                          ("base_train", "meta_unlabeled", "ssl_labeled", "test")), []))
    assert all_idx == list(range(100))


def test_split_deterministic():
    a = gen_valence_task(_valence_spec(num_sequences=60))
    b = gen_valence_task(_valence_spec(num_sequences=60))
    split_dataset(a, (0.4, 0.4, 0.01), seed=9)
    split_dataset(b, (0.4, 0.4, 0.01), seed=9)
    assert a.splits == b.splits


def test_split_fraction_overflow_rejected():
    ds = gen_valence_task(_valence_spec(num_sequences=10))
    with pytest.raises(TaskError):
        split_dataset(ds, (0.6, 0.5, 0.0), seed=0)


def test_base_train_subfraction_floor_rule():
    ds = gen_valence_task(_valence_spec(num_sequences=100))
    split_dataset(ds, (0.5, 0.5, 0.0), seed=3)
    sub = ds.base_train_subset(0.25)
    assert len(sub) == 12  # floor(0.25 * 50)
    assert sub == ds.indices("base_train")[:12]
    assert ds.base_train_subset(1.0) == ds.indices("base_train")


def test_round_trip_serialization(tmp_path):
    ds = gen_valence_task(_valence_spec(num_sequences=50))
    split_dataset(ds, (0.4, 0.4, 0.02), seed=1)
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert back.sequences == ds.sequences
    assert back.labels == ds.labels
    assert back.splits == ds.splits
    assert back.valence.tobytes() == ds.valence.tobytes()
    assert back.vocab_size == ds.vocab_size
    save_dataset(back, tmp_path / "ds2")
    assert (tmp_path / "ds.txt").read_bytes() == (tmp_path / "ds2.txt").read_bytes()
    assert (tmp_path / "ds.json").read_bytes() == (tmp_path / "ds2.json").read_bytes()


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(TaskError):
        load_dataset(tmp_path / "nope")


def test_bag_of_tokens_features():
    ds = SequenceDataset("valence_sentiment", 6, 2,
                         sequences=[[0, 0, 1], [5, 5]], labels=[1, 0])
    feats = bag_of_tokens(ds, [0, 1])
    assert np.allclose(feats[0], [2 / 3, 1 / 3, 0, 0, 0, 0])
    assert np.allclose(feats[1], [0, 0, 0, 0, 0, 1.0])


def test_bag_of_tokens_matches_per_row_counts_bitwise():
    rng = np.random.default_rng(5)
    seqs = [list(rng.integers(0, 9, size=rng.integers(1, 30))) for _ in range(40)]
    ds = SequenceDataset("valence_sentiment", 9, 2, sequences=seqs, labels=[0] * 40)
    idxs = [int(i) for i in rng.permutation(40)[:25]] + [3, 3]
    want = np.array([np.bincount(seqs[i], minlength=9) / len(seqs[i]) for i in idxs])
    assert bag_of_tokens(ds, idxs).tobytes() == want.tobytes()
    assert bag_of_tokens(ds, []).shape == (0, 9)


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0, 1, 0.5, 0.25, 0.75, "1.0", np.int64(-4), np.float64(1 / 3)),
            [True, 12345678901, 0.1 + 0.2, -0.0, 1e300, 1e-20, np.nan, None]]
    write_csv(path, list("abcdefgh"), rows, comment="config_hash=abc")
    assert path.read_text().splitlines() == [
        "# config_hash=abc", "a,b,c,d,e,f,g,h", "0,1,0.5,0.25,0.75,1.0,-4,0.3333333333",
        "1,12345678901,0.3,-0,1e+300,1e-20,,"]
