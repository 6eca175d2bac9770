"""Synthetic sequence-classification tasks, dataset splits, and file I/O.

Two generators: a sentiment-style valence task whose ground truth is a
running sum of per-token valences (so a plain integrator solves it), and a
topic task labeled by the dominant token block (>= 3 classes, to exercise a
second readout head). Both are pure functions of their seed: each draws
blocks of attempts with `np.random.default_rng(seed)`'s bulk calls and keeps
the ones its task accepts.

A dataset holds its sequences as int64 arrays from the draw on: `tokens` (N,
longest), each row zero past its `lengths` entry, and `labels` (N,);
`SequenceDataset.rows` slices from them the batch `rollout_batch` takes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    tokens: np.ndarray  # (N, longest) int64, zero past each row's length
    lengths: np.ndarray  # (N,) int64
    labels: np.ndarray  # (N,) int64
    splits: dict[str, list[int]] = field(default_factory=dict)
    # one sign per token id, +1 positive, -1 negative, 0 neutral; None for a
    # task without valences
    valence: np.ndarray | None = None
    seed: int = 0

    def __len__(self) -> int:
        return len(self.lengths)

    def indices(self, tag: str) -> list[int]:
        if tag not in SPLIT_TAGS:
            raise TaskError(f"unknown split tag {tag!r}")
        return self.splits.get(tag, [])

    def rows(self, idxs) -> tuple[np.ndarray, np.ndarray]:
        """The sequences `idxs`, in that order, as `rollout_batch` takes them:
        (B, T) token ids zero-padded to the longest of them, and lengths."""
        lengths = self.lengths[idxs]
        return self.tokens[idxs, :lengths.max(initial=0)], lengths

    def base_train_subset(self, fraction: float) -> list[int]:
        """First floor(fraction * |base_train|) indices of the base share.

        The base share keeps the split shuffle's order, so sub-fractions are
        nested: the 25% subset is contained in the 50% subset.
        """
        pool = self.indices("base_train")
        return pool[:share(fraction, len(pool))]


def padded(flat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sequences laid end to end in `flat` as one int64 row each, in order,
    zero-padded to the longest of `lengths`."""
    mat = np.zeros((len(lengths), lengths.max(initial=0)), dtype=np.int64)
    mat[np.arange(mat.shape[1]) < lengths[:, None]] = flat
    return mat


_BLOCK = 1 << 10  # attempts drawn at once at most: gen-data's peak stays below train-base's


def _accepted(rng: np.random.Generator, spec: TaskSpec,
              draw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The padded tokens, lengths and labels of the first `spec.num_sequences`
    attempts that `draw` accepts, then exactly floor(noise_rate *
    num_sequences) labels flipped to another class.

    Attempts are drawn in blocks: their lengths by one `integers` call, then
    `draw(lengths, offsets, att)` draws every token of the block (attempt i's
    tokens at `offsets[i]`, `att` naming each token's attempt) and returns
    them, whether each attempt is accepted, and each attempt's label. A block
    holds a quarter more attempts than are still needed, at most `_BLOCK`."""
    flats, lengths, labels = [], [], []
    while (need := spec.num_sequences - sum(map(len, labels))) > 0:
        size = min(_BLOCK, math.ceil(1.25 * need))
        drawn = rng.integers(spec.t_min, spec.t_max + 1, size=size)
        att = np.repeat(np.arange(size), drawn)
        tokens, accepted, label = draw(drawn, np.cumsum(drawn) - drawn, att)
        kept = accepted & (np.cumsum(accepted) <= need)
        flats.append(tokens[kept[att]])
        lengths.append(drawn[kept])
        labels.append(label[kept])
    labels, lengths = np.concatenate(labels), np.concatenate(lengths)
    flips = rng.permutation(spec.num_sequences)[:share(spec.noise_rate, spec.num_sequences)]
    labels[flips] = (labels[flips] + rng.integers(1, spec.num_classes, size=len(flips))
                     ) % spec.num_classes
    return padded(np.concatenate(flats), lengths), lengths, labels


def gen_valence_task(spec: TaskSpec) -> SequenceDataset:
    """Tokens carry a fixed valence in {+1,-1,0} by vocab third; the label is
    the sign of the summed valence. Zero-sum draws are regenerated and a
    noise_rate fraction of labels is flipped afterwards."""
    spec.validate()
    if spec.kind != "valence_sentiment":
        raise TaskError("spec.kind must be valence_sentiment")
    rng = np.random.default_rng(spec.seed)
    V, third = spec.vocab_size, spec.vocab_size // 3
    signs = np.array([1] * third + [-1] * third + [0] * (V - 2 * third))

    def draw(lengths, offsets, att):
        tokens = rng.integers(0, V, size=len(att))
        total = np.add.reduceat(signs[tokens], offsets)
        return tokens, total != 0, (total > 0).astype(np.int64)

    return SequenceDataset("valence_sentiment", V, 2, *_accepted(rng, spec, draw),
                           valence=signs.astype(np.float64), seed=spec.seed)


def gen_topic_task(spec: TaskSpec) -> SequenceDataset:
    """Vocab is split into `num_classes` topic blocks plus shared noise
    tokens; each sequence leans toward a latent topic and the label is the
    argmax of realized block counts (ties and all-noise draws regenerated).

    Each token comes from the attempt's topic block with probability 0.5,
    from the noise tokens with 0.3, and else from all topic blocks."""
    spec.validate()
    if spec.kind != "topic_classification":
        raise TaskError("spec.kind must be topic_classification")
    rng = np.random.default_rng(spec.seed)
    V, C = spec.vocab_size, spec.num_classes
    block = V // (C + 1)  # validate's V >= 3C makes it at least 2
    # tokens [c*block, (c+1)*block) belong to topic c; the tail is noise

    def draw(lengths, offsets, att):
        topic = rng.integers(0, C, size=len(lengths))[att]
        u = rng.random(len(att))
        near, noise = u < 0.5, (u >= 0.5) & (u < 0.8)
        tokens = rng.integers(np.where(near, topic * block, np.where(noise, C * block, 0)),
                              np.where(near, (topic + 1) * block, np.where(noise, V, C * block)))
        topical = tokens < C * block
        counts = np.bincount(att[topical] * C + tokens[topical] // block,
                             minlength=len(lengths) * C).reshape(-1, C)
        top = counts.max(axis=1)
        untied = (top > 0) & ((counts == top[:, None]).sum(axis=1) == 1)
        return tokens, untied, counts.argmax(axis=1)

    return SequenceDataset("topic_classification", V, C, *_accepted(rng, spec, draw),
                           valence=None, seed=spec.seed)


def generate(spec: TaskSpec) -> SequenceDataset:
    if spec.kind == "valence_sentiment":
        return gen_valence_task(spec)
    return gen_topic_task(spec)


def share(fraction: float, n: int) -> int:
    """How many of `n` examples a `fraction` takes: the floor rule of the
    split shares and the base_train sub-fractions."""
    return int(np.floor(fraction * n))


def split_sizes(fractions: tuple[float, float, float], n: int) -> dict[str, int]:
    """The size of each split (`SPLIT_TAGS`) of `n` examples: `fractions` are
    whole-dataset shares of the first three tags (floor rule); the remainder
    is the test split. Raises TaskError unless the fractions are nonnegative
    and sum to <= 1."""
    if min(fractions) < 0 or sum(fractions) > 1.0 + 1e-12:
        raise TaskError("split fractions must be nonnegative and sum to <= 1")
    sizes = [share(f, n) for f in fractions]
    return dict(zip(SPLIT_TAGS, [*sizes, n - sum(sizes)]))


def split_dataset(ds: SequenceDataset, fractions: tuple[float, float, float],
                  seed: int) -> SequenceDataset:
    """Tag every example with one of base_train / meta_unlabeled / ssl_labeled /
    test, in the sizes `split_sizes` gives, after one seeded permutation."""
    sizes = split_sizes(fractions, len(ds))
    order = np.random.default_rng(seed).permutation(len(ds))
    cuts = np.cumsum([0, *sizes.values()])
    ds.splits = {tag: [int(i) for i in order[lo:hi]]
                 for tag, lo, hi in zip(SPLIT_TAGS, cuts, cuts[1:])}
    return ds


def bag_of_tokens(ds: SequenceDataset, idxs) -> np.ndarray:
    """Length-normalized token count features, for the residual-MLP family."""
    tokens, lengths = ds.rows(idxs)
    B, V = len(lengths), ds.vocab_size
    ids = (np.arange(B)[:, None] * V + tokens)[np.arange(tokens.shape[1]) < lengths[:, None]]
    return np.bincount(ids, minlength=B * V).reshape(B, V) / lengths[:, None]


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
    real = ds.tokens[np.arange(ds.tokens.shape[1]) < ds.lengths[:, None]]
    outside = real[(real < 0) | (real >= ds.vocab_size)]
    if outside.size:
        raise TaskError(f"token {int(outside[0])} is outside the vocabulary "
                        f"[0, {ds.vocab_size})")
    names = [str(tok) for tok in range(ds.vocab_size)]
    flat, ends = [names[t] for t in real.tolist()], np.cumsum(ds.lengths).tolist()
    lines = [f"{lab}\t{','.join(flat[end - n:end])}\n"
             for lab, end, n in zip(ds.labels.tolist(), ends, ds.lengths.tolist())]
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
    file, bad JSON, a missing manifest key, a malformed line (no tab, an empty
    token list or a non-integer token), a token or label out of range, a split
    index outside the dataset, a bad valence entry, an unknown split tag, or
    an index listed twice in the splits (within one split or across two,
    which would leak training sequences into another split).

    The tokens are parsed by numpy, 256 lines a call, with `int`'s rules,
    and their ranges are checked on the parsed array."""
    path = Path(path)
    try:
        manifest = json.loads(path.with_suffix(".json").read_text())
        body = path.with_suffix(".txt").read_text()
        lines = [line.split("\t") for line in body.splitlines()]
        if any(len(parts) != 2 for parts in lines):
            raise ValueError("a line is not a label, a tab and the tokens")
        labels, texts = zip(*lines) if lines else ((), ())
        lengths = np.array([text.count(",") + 1 for text in texts], dtype=np.int64)
        try:  # 256 lines a call, so few token strings live at once
            chunks = [np.array(",".join(texts[at:at + 256]).split(","), dtype=np.int64)
                      for at in range(0, len(texts), 256)]
            tokens = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            label_ids = np.array(labels, dtype=np.int64)
        except OverflowError:  # beyond int64, so beyond any range: read as -1
            tokens, label_ids = np.full(lengths.sum(), -1), np.full(len(labels), -1)
        valence = [(int(k), v) for k, v in (manifest.get("valence") or {}).items()]
        ds = SequenceDataset(
            manifest["kind"], manifest["vocab_size"], manifest["num_classes"],
            padded(tokens, lengths), lengths, label_ids, seed=manifest["seed"],
            splits={k: list(v) for k, v in manifest.get("splits", {}).items()})
        listed, n = [i for idxs in ds.splits.values() for i in idxs], len(ds)
        in_range = (all(0 <= x.min() and x.max() < top for x, top in
                        ((tokens, ds.vocab_size), (label_ids, ds.num_classes)) if x.size)
                    and all(type(i) is int and 0 <= i < n for i in listed)
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
