"""Synthetic sequence-classification tasks, dataset splits, and file I/O.

Two generators: a sentiment-style valence task whose ground truth is a
running sum of per-token valences (so a plain integrator solves it), and a
topic task labeled by the dominant token block (>= 3 classes, to exercise a
second readout head). Both are pure functions of their seed.

Each generator draws its sequences one scalar at a time from
`np.random.default_rng(seed)`, in a fixed order, and the datasets on disk are
that order's output. Vectorised draws would consume the stream in a new order
and so change every dataset, so the generators keep the scalar order but take
the scalars from `ScalarDraws`, which replays the Generator's PCG64 words in
bulk (`random_raw`) and returns exactly what its scalar `random()` and
`integers(lo, hi)` calls would. That costs a fraction of a Generator call per
scalar, and the datasets stay byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

SPLIT_TAGS = ("base_train", "meta_unlabeled", "ssl_labeled", "test")
VALENCE_SIGNS = {"positive": 1.0, "negative": -1.0, "neutral": 0.0}  # the manifest's tags
_VALENCE_TAGS = {sign: tag for tag, sign in VALENCE_SIGNS.items()}


class TaskError(Exception):
    pass


@dataclass
class TaskSpec:
    kind: str  # "valence_sentiment" | "topic_classification"
    vocab_size: int
    num_classes: int
    t_min: int
    t_max: int
    noise_rate: float
    seed: int
    num_sequences: int
    name: str = ""  # the config's name for the task; no generator reads it

    def validate(self):
        if self.kind not in ("valence_sentiment", "topic_classification"):
            raise TaskError(f"unknown task kind {self.kind!r}")
        if self.t_min < 1 or self.t_max < self.t_min:
            raise TaskError("need 1 <= t_min <= t_max")
        if not 0.0 <= self.noise_rate < 0.5:
            raise TaskError("noise_rate must be in [0, 0.5)")
        if self.kind == "valence_sentiment" and self.num_classes != 2:
            raise TaskError("valence task is binary")
        if self.kind == "topic_classification" and self.num_classes < 3:
            raise TaskError("topic task needs num_classes >= 3")
        if self.vocab_size < 3 * max(1, self.num_classes):
            raise TaskError("vocab too small for the requested class count")
        if self.num_sequences < 1:
            raise TaskError("num_sequences must be positive")


@dataclass
class SequenceDataset:
    kind: str
    vocab_size: int
    num_classes: int
    sequences: list[list[int]]
    labels: list[int]
    splits: dict[str, list[int]] = field(default_factory=dict)
    # one sign per token id, +1 positive, -1 negative, 0 neutral; None for a
    # task without valences
    valence: np.ndarray | None = None
    seed: int = 0

    def __len__(self) -> int:
        return len(self.sequences)

    def indices(self, tag: str) -> list[int]:
        if tag not in SPLIT_TAGS:
            raise TaskError(f"unknown split tag {tag!r}")
        return self.splits.get(tag, [])

    def subset(self, idxs) -> tuple[list[list[int]], np.ndarray]:
        return [self.sequences[i] for i in idxs], np.array(
            [self.labels[i] for i in idxs], dtype=np.int64)

    def base_train_subset(self, fraction: float) -> list[int]:
        """First floor(fraction * |base_train|) indices of the base share.

        The base share keeps the split shuffle's order, so sub-fractions are
        nested: the 25% subset is contained in the 50% subset.
        """
        pool = self.indices("base_train")
        return pool[:share(fraction, len(pool))]


class ScalarDraws:
    """The scalar draws of a PCG64 `np.random.Generator`, replayed in bulk.

    `random()` and `integers(lo, hi)` (1 <= hi - lo < 2**32) return exactly
    what the Generator's own scalar calls would, in the same order: both are
    fixed functions of its 64-bit words (O'Neill 2014), which this class draws
    in blocks of `BLOCK` through `bit_generator.random_raw`. `random()` is a
    word's top 53 bits over 2**53. `integers` is Lemire's bounded integer
    (Lemire 2019, ACM TOMACS) on 32-bit halves, low half first, with the high
    half buffered for the next call, as PCG64 does; a one-value range draws
    nothing. Used as a context manager, on exit it hands the Generator back at
    the state those scalar calls would have left, buffered half included, so
    later draws from the Generator itself continue the same stream.
    """

    BLOCK = 256

    def __init__(self, rng: np.random.Generator):
        self._bitgen = rng.bit_generator
        self._start = self._bitgen.state
        self._has_half = bool(self._start["has_uint32"])
        self._half = self._start["uinteger"]
        self._words: list[int] = []
        self._next = 0
        self._used = 0  # words of the blocks before the current one

    def __enter__(self) -> ScalarDraws:
        return self

    def __exit__(self, *exc) -> None:
        """Hand the Generator back at the state the scalar calls leave."""
        self._bitgen.state = self._start
        self._bitgen.advance(self._used + self._next)  # clears the buffered half
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        self._bitgen.state = state

    def _word(self) -> int:
        if self._next == len(self._words):
            self._used += len(self._words)
            self._words = self._bitgen.random_raw(self.BLOCK).tolist()
            self._next = 0
        self._next += 1
        return self._words[self._next - 1]

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._word()
        self._has_half, self._half = True, word >> 32
        return word & 0xFFFFFFFF

    def random(self) -> float:
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if not 0 < n < 1 << 32:
            raise ValueError(f"integers needs 1 <= hi - lo < 2**32, got {n}")
        if n == 1:
            return lo
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:  # only then can it fall below the threshold
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return lo + (m >> 32)


def gen_valence_task(spec: TaskSpec) -> SequenceDataset:
    """Tokens carry a fixed valence in {+1,-1,0} by vocab third; the label is
    the sign of the summed valence. Zero-sum draws are regenerated and a
    noise_rate fraction of labels is flipped afterwards."""
    spec.validate()
    if spec.kind != "valence_sentiment":
        raise TaskError("spec.kind must be valence_sentiment")
    rng = np.random.default_rng(spec.seed)
    V, third = spec.vocab_size, spec.vocab_size // 3
    signs = [1] * third + [-1] * third + [0] * (V - 2 * third)
    sequences, labels = [], []
    with ScalarDraws(rng) as draw:
        for _ in range(spec.num_sequences):
            while True:
                T = draw.integers(spec.t_min, spec.t_max + 1)
                toks = [draw.integers(0, V) for _ in range(T)]
                total = sum([signs[t] for t in toks])
                if total != 0:
                    break
            sequences.append(toks)
            labels.append(1 if total > 0 else 0)
    n_flip = int(np.floor(spec.noise_rate * spec.num_sequences))
    for i in rng.permutation(spec.num_sequences)[:n_flip]:
        labels[i] = 1 - labels[i]
    return SequenceDataset("valence_sentiment", V, 2, sequences, labels,
                           valence=np.array(signs, dtype=np.float64), seed=spec.seed)


def gen_topic_task(spec: TaskSpec) -> SequenceDataset:
    """Vocab is split into `num_classes` topic blocks plus shared noise
    tokens; each sequence leans toward a latent topic and the label is the
    argmax of realized block counts (ties regenerated)."""
    spec.validate()
    if spec.kind != "topic_classification":
        raise TaskError("spec.kind must be topic_classification")
    rng = np.random.default_rng(spec.seed)
    V, C = spec.vocab_size, spec.num_classes
    block = V // (C + 1)
    if block < 1:
        raise TaskError("vocab too small for topic blocks")
    # tokens [c*block, (c+1)*block) belong to topic c; the tail is noise
    sequences, labels = [], []
    with ScalarDraws(rng) as draw:
        for _ in range(spec.num_sequences):
            while True:
                T = draw.integers(spec.t_min, spec.t_max + 1)
                topic = draw.integers(0, C)
                toks = []
                for _ in range(T):
                    u = draw.random()
                    if u < 0.5:
                        toks.append(draw.integers(topic * block, (topic + 1) * block))
                    elif u < 0.8:
                        toks.append(draw.integers(C * block, V))
                    else:
                        toks.append(draw.integers(0, C * block))
                counts = [0] * C
                for t in toks:
                    if t < C * block:
                        counts[t // block] += 1
                top = max(counts)
                if top > 0 and counts.count(top) == 1:
                    break
            sequences.append(toks)
            labels.append(counts.index(top))
    n_flip = int(np.floor(spec.noise_rate * spec.num_sequences))
    for i in rng.permutation(spec.num_sequences)[:n_flip]:
        old = labels[i]
        labels[i] = int((old + 1 + rng.integers(0, C - 1)) % C)
    return SequenceDataset("topic_classification", V, C, sequences,
                           labels, valence=None, seed=spec.seed)


def generate(spec: TaskSpec) -> SequenceDataset:
    if spec.kind == "valence_sentiment":
        return gen_valence_task(spec)
    return gen_topic_task(spec)


def share(fraction: float, n: int) -> int:
    """How many of `n` examples a `fraction` takes: the floor rule of the
    split shares and the base_train sub-fractions."""
    return int(np.floor(fraction * n))


def split_dataset(ds: SequenceDataset, fractions: tuple[float, float, float],
                  seed: int) -> SequenceDataset:
    """Tag every example with one of base_train / meta_unlabeled / ssl_labeled /
    test. `fractions` are whole-dataset shares of the first three tags (floor
    rule); the remainder is the test split."""
    if min(fractions) < 0 or sum(fractions) > 1.0 + 1e-12:
        raise TaskError("split fractions must be nonnegative and sum to <= 1")
    n = len(ds)
    order = np.random.default_rng(seed).permutation(n)
    cuts = np.cumsum([share(f, n) for f in fractions])
    ds.splits = {
        "base_train": [int(i) for i in order[:cuts[0]]],
        "meta_unlabeled": [int(i) for i in order[cuts[0]:cuts[1]]],
        "ssl_labeled": [int(i) for i in order[cuts[1]:cuts[2]]],
        "test": [int(i) for i in order[cuts[2]:]],
    }
    return ds


def bag_of_tokens(ds: SequenceDataset, idxs) -> np.ndarray:
    """Length-normalized token count features, for the residual-MLP family."""
    seqs = [ds.sequences[i] for i in idxs]
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    tokens = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=lengths.sum())
    rows = np.repeat(np.arange(len(seqs)), lengths)
    counts = np.bincount(rows * ds.vocab_size + tokens, minlength=len(seqs) * ds.vocab_size)
    return counts.reshape(len(seqs), ds.vocab_size) / lengths[:, None]


# -- file format ---------------------------------------------------------------


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(x)
    return "" if x is None or x != x else f"{x:.10g}"  # x != x only for NaN


def write_csv(path, header: list[str], rows, comment: str | None = None) -> None:
    """Write a CSV export: an optional `# comment` line, the header, then one
    line per row. Every cell of every table is formatted here: a string as
    is, an integer (Python or numpy) with `str`, any other real number with
    `.10g`, and NaN or None as an empty cell."""
    lines = [f"# {comment}\n"] if comment else []
    lines += [",".join(map(_cell, cells)) + "\n" for cells in [header, *rows]]
    with open(path, "w") as f:
        f.writelines(lines)


def write_json(path, obj) -> None:
    """Write a JSON output or manifest, every one in the same layout: keys
    sorted, one space of indent."""
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True))


def save_dataset(ds: SequenceDataset, path: str | Path) -> None:
    """Write `<path>.txt` (label<TAB>comma-separated token ids per line) and
    `<path>.json` (manifest with vocab, classes, splits, seed and the valence
    signs as a token -> positive/negative/neutral map)."""
    path = Path(path)
    names = {tok: str(tok) for tok in range(ds.vocab_size)}
    try:
        lines = [f"{lab}\t{','.join([names[t] for t in seq])}\n"
                 for lab, seq in zip(ds.labels, ds.sequences)]
    except KeyError as e:
        raise TaskError(f"token {e.args[0]!r} is outside the vocabulary "
                        f"[0, {ds.vocab_size})") from None
    path.with_suffix(".txt").write_text("".join(lines))
    manifest = {
        "kind": ds.kind,
        "vocab_size": ds.vocab_size,
        "num_classes": ds.num_classes,
        "seed": ds.seed,
        "valence": None if ds.valence is None else {
            str(tok): _VALENCE_TAGS[sign] for tok, sign in enumerate(ds.valence)},
        "splits": ds.splits,
    }
    write_json(path.with_suffix(".json"), manifest)


def load_dataset(path: str | Path) -> SequenceDataset:
    """Read a dataset written by `save_dataset`. Raises TaskError on a missing
    file, bad JSON, a missing manifest key, a malformed line, a token or label
    out of range, a split index outside the dataset, a bad valence entry, an
    unknown split tag, or an index listed twice in the splits (within one split
    or across two, which would leak training sequences into another split)."""
    path = Path(path)
    try:
        manifest = json.loads(path.with_suffix(".json").read_text())
        body = path.with_suffix(".txt").read_text()
        lines = [line.split("\t") for line in body.splitlines()]
        valence = [(int(k), v) for k, v in (manifest.get("valence") or {}).items()]
        ds = SequenceDataset(
            kind=manifest["kind"],
            vocab_size=manifest["vocab_size"],
            num_classes=manifest["num_classes"],
            sequences=[[int(t) for t in toks.split(",")] for _, toks in lines],
            labels=[int(lab) for lab, _ in lines],
            splits={k: list(v) for k, v in manifest.get("splits", {}).items()},
            seed=manifest["seed"],
        )
        listed = [i for idxs in ds.splits.values() for i in idxs]
        in_range = (all(0 <= min(s) and max(s) < ds.vocab_size for s in ds.sequences)
                    and all(0 <= lab < ds.num_classes for lab in ds.labels)
                    and all(type(i) is int and 0 <= i < len(ds) for i in listed)
                    and all(0 <= tok < ds.vocab_size and tag in VALENCE_SIGNS
                            for tok, tag in valence))
        splits_ok = set(ds.splits) <= set(SPLIT_TAGS) and len(set(listed)) == len(listed)
        if in_range and valence:  # a token the map leaves out is neutral
            ds.valence = np.zeros(ds.vocab_size)
            for tok, tag in valence:
                ds.valence[tok] = VALENCE_SIGNS[tag]
    except OSError as e:
        raise TaskError(f"cannot read dataset {path}: {e}") from e
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise TaskError(f"corrupt dataset {path}: {e!r}") from e
    if not in_range:
        raise TaskError(f"corrupt dataset {path}: a token, label, split index "
                        "or valence entry is out of range")
    if not splits_ok:
        raise TaskError(f"corrupt dataset {path}: the splits have an unknown tag "
                        "or list an index twice")
    return ds
