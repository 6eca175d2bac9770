"""Synthetic sequence-classification tasks, dataset splits, and file I/O.

Two generators: a sentiment-style valence task whose ground truth is a
running sum of per-token valences (so a plain integrator solves it), and a
topic task labeled by the dominant token block (>= 3 classes, to exercise a
second readout head). Both are pure functions of their seed.
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


def _draw_lengths(rng, spec):
    return int(rng.integers(spec.t_min, spec.t_max + 1))


def gen_valence_task(spec: TaskSpec) -> SequenceDataset:
    """Tokens carry a fixed valence in {+1,-1,0} by vocab third; the label is
    the sign of the summed valence. Zero-sum draws are regenerated and a
    noise_rate fraction of labels is flipped afterwards."""
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


def gen_topic_task(spec: TaskSpec) -> SequenceDataset:
    """Vocab is split into `num_classes` topic blocks plus shared noise
    tokens; each sequence leans toward a latent topic and the label is the
    argmax of realized block counts (ties regenerated)."""
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
    lines = [f"{lab}\t{','.join(str(t) for t in seq)}\n"
             for lab, seq in zip(ds.labels, ds.sequences)]
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
    out of range, a split index outside the dataset, or a bad valence entry."""
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
        in_range = (all(0 <= min(s) and max(s) < ds.vocab_size for s in ds.sequences)
                    and all(0 <= lab < ds.num_classes for lab in ds.labels)
                    and all(type(i) is int and 0 <= i < len(ds)
                            for idxs in ds.splits.values() for i in idxs)
                    and all(0 <= tok < ds.vocab_size and tag in VALENCE_SIGNS
                            for tok, tag in valence))
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
    return ds
