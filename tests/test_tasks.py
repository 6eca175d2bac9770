import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynamo import tasks
from dynamo.tasks import (
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


# -- the blocks of words against the Generator they come from ------------------------

# A step is (words to refill; words to skip; a 32-bit draw after).
_STEPS = st.lists(st.tuples(st.integers(1, 3 * tasks._Words.BLOCK),
                            st.integers(0, 300), st.booleans()), max_size=8)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), buffered=st.booleans(), steps=_STEPS)
@example(seed=1, buffered=False, steps=[(3 * tasks._Words.BLOCK, 300, True), (1, 4, True)])
@example(seed=2, buffered=True, steps=[(2 * tasks._Words.BLOCK, 300, False), (5, 3, True)])
def test_words_hand_the_generator_back_where_its_own_calls_leave_it(seed, buffered, steps):
    """Each refill holds the Generator's next words, past `BLOCK` too, after
    a `words[0]` whose high half is the buffered half. When the position in
    them moves as the Generator's own calls move it (a word per `random_raw`
    word; a buffered half, else the low half of the next word, per 32-bit
    draw), `seek` on exit leaves the Generator in the state its calls leave,
    with or without a half buffered, and its next draws agree."""
    want, got = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # a 32-bit draw leaves the high half of its word buffered
        assert got.integers(0, 5) == want.integers(0, 5)
    with tasks._Words(got) as draw:
        for size, skip, half in steps:
            draw.refill(size)
            ahead = np.random.PCG64()
            ahead.state = want.bit_generator.state
            assert draw.words[1:].tolist() == ahead.random_raw(size).tolist()
            assert int(draw.words[0]) >> 32 == draw.half
            skip = min(skip, len(draw.words) - draw.next - 1)
            want.bit_generator.random_raw(skip)
            draw.next += skip
            if half:  # `integers(0, 2**32)` is one 32-bit draw, never rejected
                if draw.has_half:
                    assert want.integers(0, 2**32) == draw.half
                    draw.has_half = False
                else:
                    word = int(draw.words[draw.next])
                    assert want.integers(0, 2**32) == word & 0xFFFFFFFF
                    draw.next, draw.has_half, draw.half = draw.next + 1, True, word >> 32
    assert got.bit_generator.state == want.bit_generator.state
    assert got.integers(0, 9, size=5).tolist() == want.integers(0, 9, size=5).tolist()
    assert got.permutation(40).tolist() == want.permutation(40).tolist()
    assert got.random() == want.random()


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
# perfbench's size: the replay walks several blocks of words
@example(spec=_valence_spec(vocab_size=30, t_min=8, t_max=24, noise_rate=0.05,
                            num_sequences=2400, seed=11))
@example(spec=_topic_spec(vocab_size=30, t_min=8, t_max=24, noise_rate=0.05,
                          num_sequences=2400, seed=12))
@example(spec=_topic_spec(vocab_size=30, t_min=16, t_max=16, num_sequences=2400))
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


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_PCG_INVERSE = pow(_PCG_MULT, -1, 1 << 128)


def _planted_generator(position: int, buffered: bool) -> np.random.Generator:
    """A PCG64 Generator whose 64-bit word number `position` (from 0) is 0,
    so both its halves are rejected by any range that is no power of two;
    with a 32-bit half buffered at the start when `buffered`. PCG64 steps its
    128-bit state s to s * mult + inc, then outputs rotr64(hi ^ lo, hi >> 58):
    a state with hi ^ lo == 0 outputs 0, and stepping back from it `position`
    + 1 times gives the start."""
    state, inc = (0x0123456789ABCDEF << 64) | 0x0123456789ABCDEF, (0xDA3E39CB94B95BDB << 1) | 1
    for _ in range(position + 1):
        state = (state - inc) * _PCG_INVERSE % (1 << 128)
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": int(buffered), "uinteger": 0x9E3779B9}
    check = np.random.PCG64()
    check.state = bitgen.state
    assert check.random_raw(position + 1)[-1] == 0
    return np.random.Generator(bitgen)


def _planted_run(monkeypatch, spec, position, buffered, block=None):
    """Generate `spec` from `_planted_generator(position, buffered)` (its
    `_Words.BLOCK` set to `block`, if given) and check it against the
    scalar-call reference. Returns, per walk of `_replay`, its number of
    attempts and the words the Generator took for its last attempt, or None
    when it decoded every attempt in bulk."""
    reference = {"valence_sentiment": _reference_valence_task,
                 "topic_classification": _reference_topic_task}[spec.kind]
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _planted_generator(position, buffered))
    if block:
        monkeypatch.setattr(tasks._Words, "BLOCK", block)
    want, walk, drawn = reference(spec), tasks._walk, []

    def recorded(draw, spec, need, lead, paired, ranges, attempt):
        words = []

        def counted(rng):
            ahead = np.random.PCG64()
            ahead.state = rng.bit_generator.state
            tokens = attempt(rng)
            while ahead.state["state"] != rng.bit_generator.state["state"]:
                words.extend(ahead.random_raw(1).tolist())
            return tokens

        attempts = walk(draw, spec, need, lead, paired, ranges, counted)
        drawn.append((len(attempts.lengths), None if attempts.exact is None else words))
        return attempts

    monkeypatch.setattr(tasks, "_walk", recorded)
    got = generate(spec)
    assert got.sequences == want.sequences and got.labels == want.labels
    return drawn


@pytest.mark.parametrize("spec,position,buffered,block", [
    # the zero word holds the 2nd and 3rd tokens of the first attempt
    (_valence_spec(noise_rate=0.3, num_sequences=50), 1, False, None),
    # ... its 3rd and 4th, after the buffered half gave the length
    (_valence_spec(noise_rate=0.3, num_sequences=50), 1, True, None),
    # ... its 1st and 2nd, after the length and topic and the 1st `random()`
    (_topic_spec(noise_rate=0.3, num_sequences=50), 2, False, None),
    # ... its 2nd and 3rd, after the buffered half gave the length
    (_topic_spec(noise_rate=0.3, num_sequences=50), 3, True, None),
    # an attempt far into the stream
    (_valence_spec(noise_rate=0.3, num_sequences=50), 200, False, None),
    # one attempt with t_min == t_max fills the words drawn for it, so the
    # rejected halves run past them
    (_valence_spec(t_min=5, t_max=5, noise_rate=0.3, num_sequences=1), 1, False, None),
    (_topic_spec(t_min=5, t_max=5, noise_rate=0.3, num_sequences=1), 1, True, None),
    # the last attempt of a 64-word block runs past it, and more attempts follow
    (_topic_spec(t_min=5, t_max=5, noise_rate=0.3, num_sequences=50), 56, False, 64),
    (_topic_spec(t_min=5, t_max=5, noise_rate=0.3, num_sequences=50), 57, True, 64),
], ids=["valence", "valence_buffered", "topic", "topic_buffered", "valence_later",
        "valence_past_words", "topic_past_words", "topic_past_block",
        "topic_past_block_buffered"])
def test_generators_replay_a_rejected_half_like_the_generator(monkeypatch, spec, position,
                                                              buffered, block):
    """A half that Lemire's test rejects sends its attempt to the Generator,
    which draws another half; the attempts after it and the label flips
    drawn after the hand-back stay aligned with the Generator's own calls."""
    drawn = _planted_run(monkeypatch, spec, position, buffered, block)
    assert any(0 in words for _, words in drawn if words)  # it drew the zero word


@pytest.mark.parametrize("spec", [
    _valence_spec(vocab_size=6, t_min=1, t_max=3, noise_rate=0.3, num_sequences=8),
    _topic_spec(vocab_size=12, t_min=1, t_max=3, noise_rate=0.3, num_sequences=4),
], ids=["valence", "topic"])
def test_generators_hand_the_generator_back_after_any_attempt_it_drew(monkeypatch, spec):
    """The zero word planted at each of the first 40 word positions, with
    and without a half buffered at the start, puts a rejected half in every
    attempt of a small dataset in turn, the last one it needs included.
    Every run matches the scalar-call reference, so the attempts after the
    Generator's and the label flips drawn after the hand-back stay aligned."""
    assert spec.noise_rate * spec.num_sequences >= 1  # flips are drawn after the hand-back
    for buffered in (False, True):
        covered, totals, last = set(), [], 0
        for position in range(40):
            with monkeypatch.context() as patch:
                drawn = _planted_run(patch, spec, position, buffered)
            ends = np.cumsum([n for n, _ in drawn])  # each walk's attempts end there
            totals.append(ends[-1])
            for (_, words), end in zip(drawn, ends):
                if words and 0 in words:  # the Generator drew the zero word
                    covered.add(end - 1)
                    last += end == ends[-1]
        assert covered >= set(range(min(totals))) and last > 0


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
    ds = SequenceDataset("valence_sentiment", V, C, sequences, labels, seed=draw(st.integers(0, 99)),
                         valence=None if valence is None else np.array(valence))
    fractions = draw(st.tuples(*[st.sampled_from([0.0, 0.1, 0.25, 0.3])] * 3))
    return split_dataset(ds, fractions, seed=draw(st.integers(0, 99)))


@settings(max_examples=100, deadline=None)
@given(ds=_datasets())
def test_save_load_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, Path(tmp) / "ds")
        back = load_dataset(Path(tmp) / "ds")
    assert back.sequences == ds.sequences and back.labels == ds.labels
    assert all(type(t) is int for seq in back.sequences for t in seq)
    assert all(type(lab) is int for lab in back.labels)
    assert back.splits == ds.splits
    assert (back.valence is None if ds.valence is None
            else back.valence.tobytes() == ds.valence.tobytes())
    assert (back.kind, back.vocab_size, back.num_classes, back.seed) == (
        ds.kind, ds.vocab_size, ds.num_classes, ds.seed)
