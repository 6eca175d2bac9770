"""Synthetic sequence-classification tasks, dataset splits, and file I/O.

Two generators: a sentiment-style valence task whose ground truth is a
running sum of per-token valences (so a plain integrator solves it), and a
topic task labeled by the dominant token block (>= 3 classes, to exercise a
second readout head). Both are pure functions of their seed.

Each generator's datasets are the output of scalar `random()` and
`integers(lo, hi)` calls on `np.random.default_rng(seed)`, in a fixed order:
per attempt a length, the topic task's topic, then the tokens, and attempts
repeat until enough are accepted. Vectorised Generator draws would consume
the stream in another order and change every dataset. But each scalar call
is a fixed function of the Generator's PCG64 words, and which words and
32-bit halves it takes depends only on the calls before it, unless Lemire's
rejection test rejects a half. So `_replay` draws the words in blocks
(`random_raw`, `_Words`), walks each attempt's extent from its length alone,
and maps every length, topic and token of a block in a few numpy passes.
An attempt that holds a half the rejection test could reject is drawn by
the Generator's own calls instead. The datasets stay byte-identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate, chain
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


class _Words:
    """The 64-bit words of a PCG64 `np.random.Generator`, drawn in blocks
    through `bit_generator.random_raw` for `_walk` to decode, and the
    Generator's position in them.

    `words[next]` is the next word, and `words[0]` is no word of the stream:
    its high half is the half that was buffered when `words[1]` was drawn.
    `has_half` and `half` are the Generator's buffered 32-bit half (`half`
    stays after it is used, as in the Generator). Used as a context manager,
    it hands the Generator back on exit at `words[next]` with that half.
    """

    BLOCK = 1 << 12  # words: 32 kB, and a few times that while `_replay` decodes them

    def __init__(self, rng: np.random.Generator):
        self.rng, self._bitgen = rng, rng.bit_generator
        self.restart()

    def __enter__(self) -> _Words:
        return self

    def __exit__(self, *exc) -> None:
        self.seek()

    def seek(self) -> None:
        """Put the Generator at `words[next]`, with the buffered half."""
        self._bitgen.state = self._start
        self._bitgen.advance(self.next - 1)  # clears the buffered half
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = int(self.has_half), self.half
        self._bitgen.state = state

    def restart(self) -> None:
        """Start an empty block at the Generator's state."""
        self._start = self._bitgen.state
        self.next = 1
        self.has_half, self.half = bool(self._start["has_uint32"]), self._start["uinteger"]
        self.words = np.array([self.half << 32], dtype=np.uint64)

    def refill(self, size: int) -> None:
        """Draw `size` words from `words[next]` on."""
        self.seek()
        self.restart()
        self.words = np.concatenate([self.words, self._bitgen.random_raw(size)])


def _scaled(halves: np.ndarray, n) -> np.ndarray:
    """Lemire's map of 32-bit halves (as uint64) to [0, n), for halves it
    does not reject; `n` is one range or one per half."""
    return ((halves * np.asarray(n, dtype=np.uint64)) >> np.uint64(32)).astype(np.int64)


@dataclass
class _Attempts:
    """The attempts walked in one block of words, laid out for decoding.

    Per attempt: its length, its first token's offset and the halves of its
    lead draws. Per token: its attempt, the half its `integers` draw maps, and
    the value of its `random()` draw when attempts pair them. When the
    Generator drew the last attempt, `exact` holds its tokens; its halves and
    values here mean nothing."""
    lengths: np.ndarray
    offsets: np.ndarray
    att: np.ndarray
    halves: np.ndarray
    u: np.ndarray | None
    lead: list[np.ndarray]
    exact: list[int] | None

    def tokens(self, lo, n) -> np.ndarray:
        """Every token: its half mapped to [lo, lo + n) (one range, or one per
        token), or the token the Generator drew."""
        tokens = lo + _scaled(self.halves, n)
        if self.exact is not None:
            tokens[self.offsets[-1]:] = self.exact
        return tokens


def _walk(draw: _Words, spec: TaskSpec, need: int, lead: int, paired: bool,
          ranges, attempt) -> _Attempts:
    """Walk up to `need` attempts from `draw`'s position, refilled with
    enough words for that many of the longest (at most `BLOCK`), lay out
    their draws and leave `draw` at the end of the last one.

    An attempt draws, in order: its length T by `integers(t_min, t_max + 1)`
    (nothing when t_min == t_max), `lead` more `integers`, then per token one
    `integers`, after one `random()` when `paired`. Unless a half is
    rejected, where each draw falls follows from T alone. With f = 1 when a
    half is buffered at the attempt's start, its k-th `integers` draw (k from
    0) takes the low half of a fresh word when f + k is even, and else the
    high half of the last word an `integers` draw took; each `random()` takes
    a fresh word and leaves the buffered half alone. So the loop below reads
    only T, and numpy places every draw afterwards. An attempt that touches a
    half Lemire's test could reject, (h * n) mod 2**32 < n for a range n of
    `ranges` or of T, is drawn by the Generator instead, handed to
    `attempt(rng)` at the attempt's start, and the walk ends after it. Every
    attempt ends on an `integers` draw, so a half buffered between attempts
    is the high half of the word before the next fresh one."""
    n_t = spec.t_max - spec.t_min + 1
    first = lead + (n_t > 1)  # the `integers` draws before the first token
    longest = (first + spec.t_max + 1) // 2 + paired * spec.t_max
    draw.refill(max(longest, min(draw.BLOCK, need * longest)))
    words = draw.words
    halves32 = words.astype("<u8", copy=False).view("<u4")  # low half first
    risk = np.zeros(len(halves32), dtype=bool)
    for n in {n_t, *ranges} - {1}:
        risk |= halves32 * np.uint32(n) < n  # the product wraps mod 2**32
    risk[0] = False  # `words[0]`'s low half is no half of the stream
    halves = halves32.astype(np.uint64)
    risky = np.flatnonzero(risk).tolist() + [len(halves)]
    n_words, n_halves = len(words), len(halves)
    w, f, r = draw.next, int(draw.has_half), 0
    firsts, lengths = [], []
    for _ in range(need):
        p = 2 * w - f  # the half of the attempt's first `integers` draw
        if n_t == 1:
            T = spec.t_min
        elif p < n_halves:
            T = spec.t_min + (int(halves32[p]) * n_t >> 32)
        else:
            break
        draws = first + T
        end = w + (draws + 1 - f) // 2 + paired * T
        if end > n_words:
            break
        while risky[r] < p:
            r += 1
        firsts.append(p)
        if risky[r] < 2 * end:
            break
        lengths.append(T)
        w, f = end, (f + draws) % 2
    draw.next, draw.has_half, draw.half = w, bool(f), int(halves[2 * w - 1])
    exact = None
    if len(lengths) < len(firsts):  # the last attempt holds a risky half
        draw.seek()
        exact = attempt(draw.rng)
        draw.restart()
        lengths.append(len(exact))

    def halves_of(s, g, k):
        """The half that the k-th `integers` draw of attempts starting at
        word s with flag g maps: in the last word an `integers` draw took,
        after the `random()` words before it. The Generator's attempt may
        have run past the block, so its (unused) places are clipped."""
        fresh = 1 - (g + k) % 2
        word = s + (k + 2 - g) // 2 - 1 + paired * np.maximum(0, k - first + fresh)
        return halves.take(2 * word + 1 - fresh, mode="clip")

    lengths = np.array(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    att = np.repeat(np.arange(len(lengths)), lengths)
    i = np.arange(len(att)) - offsets[att]  # the token's place in its attempt
    g = np.array(firsts, dtype=np.int64) % 2  # each attempt's f and start word s,
    s = (np.array(firsts, dtype=np.int64) + g) // 2  # from its first half 2 * s - f
    w, f = s[att], g[att]
    token_halves = halves_of(w, f, first + i)
    lead_halves = [halves_of(s, g, k) for k in range(n_t > 1, first)]
    u = None
    if paired:  # token i's `random()` word follows the `integers` words before it
        u = (words.take(w + (first + i + 1 - f) // 2 + i, mode="clip") >> np.uint64(11)
             ).astype(np.float64) * (1.0 / 9007199254740992.0)
    return _Attempts(lengths, offsets, att, token_halves, u, lead_halves, exact)


def _replay(rng: np.random.Generator, spec: TaskSpec, lead: int, paired: bool, ranges,
            attempt, judge) -> tuple[list[list[int]], list[int]]:
    """The tokens and labels of the first `spec.num_sequences` attempts that
    `judge` accepts, replayed from `rng`'s words in blocks (see `_walk`).
    `judge(attempts)` returns every token of a block, whether each attempt
    is accepted, and each attempt's label. A walk takes no more attempts
    than are still needed, so the last one ends on the last accepted
    attempt, and `rng` is handed back where its own calls would leave it."""
    sequences, labels = [], []
    with _Words(rng) as draw:
        while len(sequences) < spec.num_sequences:
            attempts = _walk(draw, spec, spec.num_sequences - len(sequences), lead, paired,
                             ranges, attempt)
            tokens, accepted, label = judge(attempts)
            kept = np.flatnonzero(accepted)
            flat = tokens.tolist()
            sequences += [flat[o:o + t] for o, t in zip(attempts.offsets[kept].tolist(),
                                                        attempts.lengths[kept].tolist())]
            labels += label[kept].tolist()
    return sequences, labels


def gen_valence_task(spec: TaskSpec) -> SequenceDataset:
    """Tokens carry a fixed valence in {+1,-1,0} by vocab third; the label is
    the sign of the summed valence. Zero-sum draws are regenerated and a
    noise_rate fraction of labels is flipped afterwards.

    An attempt draws its length T, then T tokens by `integers(0, V)`: T + 1
    halves in a row (T when t_min == t_max). `_replay` maps them all in
    bulk; `attempt` below is the same draw order in the Generator's calls,
    for the attempts where a half may be rejected."""
    spec.validate()
    if spec.kind != "valence_sentiment":
        raise TaskError("spec.kind must be valence_sentiment")
    rng = np.random.default_rng(spec.seed)
    V, third = spec.vocab_size, spec.vocab_size // 3
    signs = np.array([1] * third + [-1] * third + [0] * (V - 2 * third))

    def attempt(rng):
        return rng.integers(0, V, size=rng.integers(spec.t_min, spec.t_max + 1)).tolist()

    def judge(attempts):
        tokens = attempts.tokens(0, V)
        total = np.add.reduceat(signs[tokens], attempts.offsets)
        return tokens, total != 0, (total > 0).astype(np.int64)

    sequences, labels = _replay(rng, spec, 0, False, (V,), attempt, judge)
    n_flip = int(np.floor(spec.noise_rate * spec.num_sequences))
    for i in rng.permutation(spec.num_sequences)[:n_flip]:
        labels[i] = 1 - labels[i]
    return SequenceDataset("valence_sentiment", V, 2, sequences, labels,
                           valence=signs.astype(np.float64), seed=spec.seed)


def gen_topic_task(spec: TaskSpec) -> SequenceDataset:
    """Vocab is split into `num_classes` topic blocks plus shared noise
    tokens; each sequence leans toward a latent topic and the label is the
    argmax of realized block counts (ties regenerated).

    An attempt draws its length T and its topic by `integers`, then per
    token u = `random()` and the token by `integers` from the topic's block
    (u < 0.5), the noise tokens (u < 0.8) or all topic blocks. `_replay`
    places and maps these draws in bulk; `attempt` below is the same draw
    order in the Generator's calls, for the attempts where a half may be
    rejected."""
    spec.validate()
    if spec.kind != "topic_classification":
        raise TaskError("spec.kind must be topic_classification")
    rng = np.random.default_rng(spec.seed)
    V, C = spec.vocab_size, spec.num_classes
    block = V // (C + 1)
    if block < 1:
        raise TaskError("vocab too small for topic blocks")
    # tokens [c*block, (c+1)*block) belong to topic c; the tail is noise

    def attempt(rng):
        T, topic = rng.integers(spec.t_min, spec.t_max + 1), rng.integers(0, C)
        toks = []
        for _ in range(T):
            u = rng.random()
            if u < 0.5:
                toks.append(rng.integers(topic * block, (topic + 1) * block))
            elif u < 0.8:
                toks.append(rng.integers(C * block, V))
            else:
                toks.append(rng.integers(0, C * block))
        return toks

    def judge(attempts):
        topic = _scaled(attempts.lead[0], C)[attempts.att]
        near, noise = attempts.u < 0.5, (attempts.u >= 0.5) & (attempts.u < 0.8)
        tokens = attempts.tokens(np.where(near, topic * block, np.where(noise, C * block, 0)),
                                 np.where(near, block, np.where(noise, V - C * block, C * block)))
        topical = tokens < C * block
        counts = np.bincount(attempts.att[topical] * C + tokens[topical] // block,
                             minlength=len(attempts.lengths) * C).reshape(-1, C)
        top = counts.max(axis=1)
        untied = (top > 0) & ((counts == top[:, None]).sum(axis=1) == 1)
        return tokens, untied, counts.argmax(axis=1)

    sequences, labels = _replay(rng, spec, 1, True, (C, block, V - C * block, C * block),
                                attempt, judge)
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
        lengths = [text.count(",") + 1 for text in texts]
        try:  # 256 lines a call, so few token strings live at once
            chunks = [np.array(",".join(texts[at:at + 256]).split(","), dtype=np.int64)
                      for at in range(0, len(texts), 256)]
            tokens = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            label_ids = np.array(labels, dtype=np.int64)
        except OverflowError:  # beyond int64, so beyond any range
            tokens = label_ids = np.array([-1])
        flat = tokens.tolist()
        valence = [(int(k), v) for k, v in (manifest.get("valence") or {}).items()]
        ds = SequenceDataset(
            kind=manifest["kind"],
            vocab_size=manifest["vocab_size"],
            num_classes=manifest["num_classes"],
            sequences=[flat[end - n:end] for end, n in zip(accumulate(lengths), lengths)],
            labels=label_ids.tolist(),
            splits={k: list(v) for k, v in manifest.get("splits", {}).items()},
            seed=manifest["seed"],
        )
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
