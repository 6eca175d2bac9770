import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynamo.tasks import (
    ScalarDraws,
    SequenceDataset,
    TaskError,
    TaskSpec,
    bag_of_tokens,
    gen_topic_task,
    gen_valence_task,
    generate,
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


# -- the scalar-draw replay against the Generator it replays -------------------------

# A call is (range size n, or None for `random()`; low end; repeats).
_RANGES = st.sampled_from([1, 2, 3, 3 * 2**30, 2**32 - 1]) | st.integers(1, 2**32 - 1)
_CALLS = st.lists(st.tuples(st.none() | _RANGES, st.integers(-50, 50), st.integers(1, 300)),
                  max_size=12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), buffered=st.booleans(), calls=_CALLS)
@example(seed=1, buffered=False, calls=[(None, 0, 3 * ScalarDraws.BLOCK)])
@example(seed=2, buffered=True, calls=[(1, 4, 5), (3, 0, 2 * ScalarDraws.BLOCK)])
@example(seed=3, buffered=True, calls=[(3 * 2**30, 0, 300), (2**32 - 1, -7, 300)])
def test_scalar_draws_replay_the_generators_scalar_calls(seed, buffered, calls):
    """Every value, and the Generator's state on hand-back, equal what the
    Generator's own scalar calls give: with a half buffered at entry, across
    blocks of words, at one-value ranges and at ranges where Lemire's
    rejection loop runs; the Generator's own draws after hand-back agree."""
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # a 32-bit draw leaves the high half of its word buffered
        assert got.integers(0, 5) == want.integers(0, 5)
    with ScalarDraws(got) as draw:
        for n, lo, repeats in calls:
            for _ in range(repeats):
                if n is None:
                    assert draw.random() == want.random()
                else:
                    assert draw.integers(lo, lo + n) == want.integers(lo, lo + n)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 9, size=5).tolist() == want.integers(0, 9, size=5).tolist()
    assert got.permutation(40).tolist() == want.permutation(40).tolist()
    assert got.random() == want.random()


def test_scalar_draws_reject_a_quarter_of_draws_at_three_quarters_of_the_range():
    """At n = 3 * 2**30 a 32-bit draw u is rejected when u % 4 == 0, so the
    loop runs on about a quarter of the draws."""
    halves = []

    class Counted(ScalarDraws):
        def _uint32(self):
            halves.append(super()._uint32())
            return halves[-1]

    with Counted(np.random.default_rng(4)) as draw:
        for _ in range(2000):
            draw.integers(0, 3 * 2**30)
    assert 2300 < len(halves) < 2900
    assert sum(u % 4 == 0 for u in halves) == len(halves) - 2000


@pytest.mark.parametrize("lo,hi", [(0, 0), (3, 2), (0, 2**32)])
def test_scalar_draws_refuse_a_range_they_do_not_replay(lo, hi):
    with ScalarDraws(np.random.default_rng(0)) as draw, pytest.raises(ValueError):
        draw.integers(lo, hi)


# -- the generators against their scalar-call reference ------------------------------


def _draw_lengths(rng, spec):
    return int(rng.integers(spec.t_min, spec.t_max + 1))


def _reference_valence_task(spec: TaskSpec) -> SequenceDataset:
    """The valence generator as it drew from the Generator itself."""
    spec.validate()
    if spec.kind != "valence_sentiment":
        raise TaskError("spec.kind must be valence_sentiment")
    rng = np.random.default_rng(spec.seed)
    third = spec.vocab_size // 3
    values = np.zeros(spec.vocab_size)
    values[:third] = 1.0
    values[third:2 * third] = -1.0
    sequences, labels = [], []
    for _ in range(spec.num_sequences):
        while True:
            T = _draw_lengths(rng, spec)
            toks = rng.integers(0, spec.vocab_size, size=T)
            total = values[toks].sum()
            if total != 0.0:
                break
        sequences.append([int(t) for t in toks])
        labels.append(1 if total > 0 else 0)
    n_flip = int(np.floor(spec.noise_rate * spec.num_sequences))
    for i in rng.permutation(spec.num_sequences)[:n_flip]:
        labels[i] = 1 - labels[i]
    return SequenceDataset("valence_sentiment", spec.vocab_size, 2, sequences,
                           labels, valence=values, seed=spec.seed)


def _reference_topic_task(spec: TaskSpec) -> SequenceDataset:
    """The topic generator as it drew from the Generator itself."""
    spec.validate()
    if spec.kind != "topic_classification":
        raise TaskError("spec.kind must be topic_classification")
    rng = np.random.default_rng(spec.seed)
    C = spec.num_classes
    block = spec.vocab_size // (C + 1)
    if block < 1:
        raise TaskError("vocab too small for topic blocks")
    # tokens [c*block, (c+1)*block) belong to topic c; the tail is noise
    block_of = np.full(spec.vocab_size, -1, dtype=np.int64)
    for c in range(C):
        block_of[c * block:(c + 1) * block] = c
    sequences, labels = [], []
    for _ in range(spec.num_sequences):
        while True:
            T = _draw_lengths(rng, spec)
            topic = int(rng.integers(0, C))
            toks = np.empty(T, dtype=np.int64)
            for t in range(T):
                u = rng.random()
                if u < 0.5:
                    toks[t] = rng.integers(topic * block, (topic + 1) * block)
                elif u < 0.8:
                    toks[t] = rng.integers(C * block, spec.vocab_size)
                else:
                    toks[t] = rng.integers(0, C * block)
            counts = np.bincount(block_of[toks][block_of[toks] >= 0], minlength=C)
            top = counts.max()
            if top > 0 and (counts == top).sum() == 1:
                break
        sequences.append([int(t) for t in toks])
        labels.append(int(counts.argmax()))
    n_flip = int(np.floor(spec.noise_rate * spec.num_sequences))
    for i in rng.permutation(spec.num_sequences)[:n_flip]:
        old = labels[i]
        labels[i] = int((old + 1 + rng.integers(0, C - 1)) % C)
    return SequenceDataset("topic_classification", spec.vocab_size, C, sequences,
                           labels, valence=None, seed=spec.seed)


@st.composite
def _task_specs(draw):
    kind = draw(st.sampled_from(["valence_sentiment", "topic_classification"]))
    C = 2 if kind == "valence_sentiment" else draw(st.integers(3, 6))
    t_min = draw(st.integers(1, 12))
    return TaskSpec(kind, vocab_size=draw(st.integers(3 * C, 64)), num_classes=C,
                    t_min=t_min, t_max=draw(st.integers(t_min, t_min + 20)),
                    noise_rate=draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.49)),
                    seed=draw(st.integers(0, 2**32 - 1)),
                    num_sequences=draw(st.integers(1, 40)))


@settings(max_examples=200, deadline=None)
@given(spec=_task_specs())
@example(spec=_valence_spec(t_min=5, t_max=5, num_sequences=1))
@example(spec=_valence_spec(vocab_size=6, t_min=1, t_max=1, noise_rate=0.3, num_sequences=7))
@example(spec=_topic_spec(num_classes=5, vocab_size=15, t_min=3, t_max=3, noise_rate=0.3))
@example(spec=_topic_spec(num_classes=3, vocab_size=9, num_sequences=1))
def test_generators_match_their_scalar_call_reference(spec):
    """Each generated dataset, and the file `save_dataset` writes of it, is
    what the generators gave when they drew each scalar from the Generator."""
    reference = {"valence_sentiment": _reference_valence_task,
                 "topic_classification": _reference_topic_task}[spec.kind]
    want, got = reference(spec), generate(spec)
    assert (got.kind, got.vocab_size, got.num_classes, got.seed) == (
        want.kind, want.vocab_size, want.num_classes, want.seed)
    assert got.sequences == want.sequences and got.labels == want.labels
    assert all(type(t) is int for seq in got.sequences for t in seq)
    assert (got.valence is None if want.valence is None
            else got.valence.tobytes() == want.valence.tobytes())
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(got, Path(tmp) / "ds")
        text = (Path(tmp) / "ds.txt").read_text()
    assert text == "".join(f"{lab}\t{','.join(str(t) for t in seq)}\n"
                           for lab, seq in zip(want.labels, want.sequences))


# -- file checks ---------------------------------------------------------------------


@pytest.mark.parametrize("token", [-1, 6])
def test_save_refuses_a_token_outside_the_vocabulary(tmp_path, token):
    ds = SequenceDataset("valence_sentiment", 6, 2, sequences=[[0, 5], [1, token]],
                         labels=[1, 0])
    with pytest.raises(TaskError, match="outside the vocabulary"):
        save_dataset(ds, tmp_path / "ds")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("corrupt", [
    lambda splits: splits["test"].extend(splits["base_train"][:2]),
    lambda splits: splits["meta_unlabeled"].append(splits["meta_unlabeled"][0]),
    lambda splits: splits.update(bogus=splits.pop("ssl_labeled")),
], ids=["test_leaks_base_train", "duplicate_index", "unknown_tag"])
def test_load_refuses_a_corrupt_split_manifest(tmp_path, corrupt):
    ds = split_dataset(gen_valence_task(_valence_spec(num_sequences=20)),
                       (0.4, 0.3, 0.1), seed=1)
    save_dataset(ds, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds.json").read_text())
    corrupt(manifest["splits"])
    (tmp_path / "ds.json").write_text(json.dumps(manifest))
    with pytest.raises(TaskError, match="unknown tag or list an index twice"):
        load_dataset(tmp_path / "ds")
