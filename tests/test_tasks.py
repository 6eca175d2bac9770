import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynamo.tasks import (
    SequenceDataset,
    TaskError,
    TaskSpec,
    bag_of_tokens,
    gen_topic_task,
    gen_valence_task,
    generate,
    load_dataset,
    padded,
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


def _dataset(V, C, sequences, labels, **kw) -> SequenceDataset:
    """A valence-kind dataset of the given token lists, laid out as the
    generators and the loader lay one out."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    flat = np.array([t for seq in sequences for t in seq], dtype=np.int64)
    return SequenceDataset("valence_sentiment", V, C, padded(flat, lengths), lengths,
                           np.array(labels, dtype=np.int64), **kw)


def _sequences(ds) -> list[list[int]]:
    """Each sequence of `ds` as the list of its token ids."""
    return [row[:n].tolist() for row, n in zip(ds.tokens, ds.lengths)]


def _assert_layout(ds):
    """int64 arrays, one token row per length and label, each zero past its
    length and the longest row unpadded."""
    assert ds.tokens.dtype == ds.lengths.dtype == ds.labels.dtype == np.int64
    assert ds.tokens.shape == (len(ds.lengths), ds.lengths.max(initial=0))
    assert ds.labels.shape == ds.lengths.shape
    assert not ds.tokens[np.arange(ds.tokens.shape[1]) >= ds.lengths[:, None]].any()


def test_valence_labels_match_token_values():
    ds = gen_valence_task(_valence_spec())
    vals = ds.valence
    assert vals.shape == (ds.vocab_size,) and set(vals) == {1.0, -1.0, 0.0}
    for seq, lab in zip(_sequences(ds), ds.labels):
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
    assert _sequences(clean) == _sequences(noisy)
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
    for seq, lab in zip(_sequences(ds), ds.labels):
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
    assert back.tokens.tobytes() == ds.tokens.tobytes()
    assert back.lengths.tobytes() == ds.lengths.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.splits == ds.splits
    assert back.valence.tobytes() == ds.valence.tobytes()
    assert back.vocab_size == ds.vocab_size
    save_dataset(back, tmp_path / "ds2")
    assert (tmp_path / "ds.txt").read_bytes() == (tmp_path / "ds2.txt").read_bytes()
    assert (tmp_path / "ds.json").read_bytes() == (tmp_path / "ds2.json").read_bytes()


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(TaskError):
        load_dataset(tmp_path / "nope")


def test_rows_trim_to_the_longest_selected_row_in_idxs_order():
    ds = _dataset(9, 2, [[1, 2, 3, 4, 5], [6], [7, 8], [3, 3, 3]], [0, 1, 0, 1])
    tokens, lengths = ds.rows([2, 1, 3, 2])
    assert tokens.tolist() == [[7, 8, 0], [6, 0, 0], [3, 3, 3], [7, 8, 0]]
    assert lengths.tolist() == [2, 1, 3, 2]
    assert tokens.dtype == lengths.dtype == np.int64
    assert ds.rows(np.array([0]))[0].tolist() == [[1, 2, 3, 4, 5]]
    tokens, lengths = ds.rows([])
    assert tokens.shape == (0, 0) and lengths.shape == (0,)


def test_bag_of_tokens_features():
    ds = _dataset(6, 2, [[0, 0, 1], [5, 5]], [1, 0])
    feats = bag_of_tokens(ds, [0, 1])
    assert np.allclose(feats[0], [2 / 3, 1 / 3, 0, 0, 0, 0])
    assert np.allclose(feats[1], [0, 0, 0, 0, 0, 1.0])


def test_bag_of_tokens_matches_per_row_counts_bitwise():
    rng = np.random.default_rng(5)
    seqs = [list(rng.integers(0, 9, size=rng.integers(1, 30))) for _ in range(40)]
    ds = _dataset(9, 2, seqs, [0] * 40)
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


# -- the generators against their task rules -----------------------------------------


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


def _saved(ds) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, Path(tmp) / "ds")
        return (Path(tmp) / "ds.txt").read_bytes(), (Path(tmp) / "ds.json").read_bytes()


@settings(max_examples=200, deadline=None)
@given(spec=_task_specs())
@example(spec=_valence_spec(t_min=5, t_max=5, num_sequences=1))
@example(spec=_valence_spec(vocab_size=6, t_min=1, t_max=1, noise_rate=0.3, num_sequences=7))
@example(spec=_topic_spec(num_classes=5, vocab_size=15, t_min=3, t_max=3, noise_rate=0.3))
@example(spec=_topic_spec(num_classes=3, vocab_size=9, num_sequences=1))
# perfbench's size: several blocks of attempts
@example(spec=_valence_spec(vocab_size=30, t_min=8, t_max=24, noise_rate=0.05,
                            num_sequences=2400, seed=11))
@example(spec=_topic_spec(vocab_size=30, t_min=8, t_max=24, noise_rate=0.05,
                          num_sequences=2400, seed=12))
def test_generators_obey_their_spec(spec):
    """Every sequence has a length in [t_min, t_max] and tokens in [0, V);
    no valence sequence sums to zero, and no topic sequence has tied or no
    topic tokens; exactly floor(noise_rate * n) labels differ from the rule's
    label (the sign of the sum, the argmax of the block counts); and two
    calls with one spec write identical files."""
    ds, V, C = generate(spec), spec.vocab_size, spec.num_classes
    assert (ds.kind, ds.vocab_size, ds.num_classes, ds.seed) == (spec.kind, V, C, spec.seed)
    _assert_layout(ds)
    seqs = _sequences(ds)
    assert len(seqs) == spec.num_sequences
    assert all(spec.t_min <= len(seq) <= spec.t_max for seq in seqs)
    assert all(0 <= t < V for seq in seqs for t in seq)
    assert all(0 <= lab < C for lab in ds.labels)
    if spec.kind == "valence_sentiment":
        totals = np.array([ds.valence[seq].sum() for seq in seqs])
        assert np.all(totals != 0)
        rule = (totals > 0).astype(int)
    else:
        block = V // (C + 1)
        counts = np.array([np.bincount([t // block for t in seq if t < C * block], minlength=C)
                           for seq in seqs])
        top = counts.max(axis=1)
        assert np.all(top > 0) and np.all((counts == top[:, None]).sum(axis=1) == 1)
        rule = counts.argmax(axis=1)
    assert (rule != ds.labels).sum() == np.floor(spec.noise_rate * spec.num_sequences)
    assert _saved(generate(spec)) == _saved(ds)


# The SHA-256 of the `.txt` and `.json` files that `save_dataset` writes of one
# small dataset of each kind. Every run reads datasets drawn this way, so a
# change to the generators' draw order changes every run file; this pins it.
@pytest.mark.parametrize("spec,txt,manifest", [
    (_valence_spec(noise_rate=0.1, num_sequences=50),
     "91f14c58dda3023ee5084fcbfd2de7a981ac5981fa6a9cabb3efad28d5515fa0",
     "843dbd92e01d8972641c0fac763848ec21fcc9756fc63a1e23c8aa45746d4851"),
    (_topic_spec(noise_rate=0.1, num_sequences=50),
     "f27fd9cdfbae8ba4e49c5a1f3defd2752cf3e61ebfe32907f475fe27dbffc045",
     "8ab37e9d1a2c1228817abc8e6a30836b36d9fd6d34d5c7823df6e4182f10bfe4"),
], ids=["valence", "topic"])
def test_generators_write_their_pinned_files(spec, txt, manifest):
    assert [hashlib.sha256(data).hexdigest() for data in _saved(generate(spec))] == [
        txt, manifest]


def test_generators_keep_the_task_statistics():
    """20,000 sequences of each kind (t 8-24, V 30, no noise) keep the
    statistics of the generator that drew each scalar from the Generator
    in turn, over seeds 1-5: topic sequences are 0.2994 noise tokens, and
    mean lengths are 16.03 (topic) and 16.13 (valence)."""
    topic = generate(TaskSpec("topic_classification", 30, 3, 8, 24, 0.0, 1, 20_000))
    valence = generate(TaskSpec("valence_sentiment", 30, 2, 8, 24, 0.0, 1, 20_000))
    tokens = np.concatenate(_sequences(topic))
    assert abs(np.mean(tokens >= 3 * (30 // 4)) - 0.2994) < 0.004
    assert abs(topic.lengths.mean() - 16.03) < 0.15
    assert abs(valence.lengths.mean() - 16.13) < 0.15


# -- file checks ---------------------------------------------------------------------


@pytest.mark.parametrize("token", [-1, 6])
def test_save_refuses_a_token_outside_the_vocabulary(tmp_path, token):
    ds = _dataset(6, 2, [[0, 5], [1, token]], [1, 0])
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


def _edit_saved(tmp_path, lines=None, manifest=None):
    """Save a 20-sequence valence dataset (vocab 48) at tmp_path/ds, then
    apply `lines(list of text lines)` and `manifest(dict)` in place."""
    ds = split_dataset(gen_valence_task(_valence_spec(num_sequences=20)),
                       (0.4, 0.3, 0.1), seed=1)
    save_dataset(ds, tmp_path / "ds")
    text = (tmp_path / "ds.txt").read_text().splitlines()
    data = json.loads((tmp_path / "ds.json").read_text())
    if lines:
        lines(text)
    if manifest:
        manifest(data)
    (tmp_path / "ds.txt").write_text("".join(line + "\n" for line in text))
    (tmp_path / "ds.json").write_text(json.dumps(data))
    return tmp_path / "ds"


def _set_line(i, line):
    return lambda text: text.__setitem__(i, line)


_OUT_OF_RANGE = "a token, label, split index or valence entry is out of range"


@pytest.mark.parametrize("lines,manifest,match", [
    (_set_line(3, "1 5,6"), None, "corrupt dataset .*ValueError"),
    (_set_line(3, "1\t5\t6"), None, "corrupt dataset .*ValueError"),
    (_set_line(3, "1\t"), None, "invalid literal for int.* ''"),
    (_set_line(3, "1\t5,,6"), None, "invalid literal for int.* ''"),
    (_set_line(3, "1\t5,x"), None, "invalid literal for int.* 'x'"),
    (_set_line(3, "1\t5,6.0"), None, "invalid literal for int.* '6.0'"),
    (_set_line(3, "y\t5,6"), None, "invalid literal for int.* 'y'"),
    (_set_line(3, "1\t5,-1"), None, _OUT_OF_RANGE),
    (_set_line(3, "1\t48,6"), None, _OUT_OF_RANGE),
    (_set_line(3, f"1\t{10**30}"), None, _OUT_OF_RANGE),
    (_set_line(3, "2\t5,6"), None, _OUT_OF_RANGE),
    (_set_line(3, "-1\t5,6"), None, _OUT_OF_RANGE),
    (None, lambda m: m["splits"]["test"].append(20), _OUT_OF_RANGE),
    (None, lambda m: m["splits"]["test"].append("3"), _OUT_OF_RANGE),
    (None, lambda m: m["valence"].update({"5": "happy"}), _OUT_OF_RANGE),
    (None, lambda m: m["valence"].update({"48": "neutral"}), _OUT_OF_RANGE),
    (None, lambda m: m.pop("kind"), "corrupt dataset .*KeyError"),
], ids=["no_tab", "two_tabs", "no_tokens", "empty_token", "non_integer_token",
        "float_token", "non_integer_label", "negative_token", "token_at_vocab_size",
        "token_beyond_int64", "label_at_num_classes", "negative_label",
        "split_index_past_the_end", "split_index_not_int", "valence_tag", "valence_token",
        "manifest_key"])
def test_load_refuses_what_its_docstring_lists(tmp_path, lines, manifest, match):
    path = _edit_saved(tmp_path, lines, manifest)
    with pytest.raises(TaskError, match=match):
        load_dataset(path)


def test_load_refuses_bad_json(tmp_path):
    path = _edit_saved(tmp_path)
    (tmp_path / "ds.json").write_text("{")
    with pytest.raises(TaskError, match="corrupt dataset .*JSONDecodeError"):
        load_dataset(path)


@st.composite
def _datasets(draw):
    V, C = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    sequences = [draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=12))
                 for _ in range(n)]
    labels = [draw(st.integers(0, C - 1)) for _ in range(n)]
    valence = draw(st.none() | st.lists(st.sampled_from([1.0, -1.0, 0.0]),
                                        min_size=V, max_size=V))
    ds = _dataset(V, C, sequences, labels, seed=draw(st.integers(0, 99)),
                  valence=None if valence is None else np.array(valence))
    fractions = draw(st.tuples(*[st.sampled_from([0.0, 0.1, 0.25, 0.3])] * 3))
    return split_dataset(ds, fractions, seed=draw(st.integers(0, 99)))


@settings(max_examples=100, deadline=None)
@given(ds=_datasets())
def test_save_load_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, Path(tmp) / "ds")
        back = load_dataset(Path(tmp) / "ds")
    _assert_layout(back)
    assert _sequences(back) == _sequences(ds) and back.labels.tolist() == ds.labels.tolist()
    assert back.splits == ds.splits
    assert (back.valence is None if ds.valence is None
            else back.valence.tobytes() == ds.valence.tobytes())
    assert (back.kind, back.vocab_size, back.num_classes, back.seed) == (
        ds.kind, ds.vocab_size, ds.num_classes, ds.seed)
