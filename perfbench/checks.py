"""Output checks and quality figures read from a `dynamo` run directory.

Each CLI stage's outputs are named here by glob pattern; their SHA-256
digest is compared across repeated invocations (the determinism contract in
the `dynamo.cli` docstring). Files a stage may add later for logging are not
matched, so they stay out of the byte-identical set.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

OUTPUTS = {
    "gen-data": ("data/*.json", "data/*.txt"),
    "train-base": ("base/base_*.json", "base/base_*.bin", "base/metrics.csv"),
    "train-meta": ("meta.json", "meta.bin", "meta_loss.csv"),
    "analyze": ("atlas.csv", "spectrum.csv", "landscape.csv", "svcca_mds.csv",
                "analysis_summary.json"),
    "ssl": ("ssl_trajectory.csv", "ssl_result.json"),
    "fixed-points": ("fixed_points_*.csv", "fixed_points_*.json",
                     "score_map_*.csv"),
}
META_CHECKPOINT = ("meta.json", "meta.bin")


def digest(run_dir: Path, patterns) -> str | None:
    """SHA-256 over the matched files' relative paths and bytes; None when
    nothing matches."""
    files = sorted({p for pat in patterns for p in run_dir.glob(pat) if p.is_file()})
    if not files:
        return None
    h = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        h.update(f"{path.relative_to(run_dir).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a `dynamo` CSV export, skipping `#` comment lines."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _column(path: Path, name: str) -> list[float]:
    return [float(row[name]) for row in read_csv(path) if row[name] != ""]


def check_stage(stage: str, run_dir: Path, cfg: dict, output: str) -> list[str]:
    """Stage-specific output checks; returns the failures found."""
    fails: list[str] = []
    if stage == "train-base":
        accs = _column(run_dir / "base" / "metrics.csv", "test_accuracy")
        if len(accs) != sum(p["count"] for p in cfg["population"]):
            fails.append("train-base: metrics.csv does not list every base")
        if not all(0.0 <= a <= 1.0 for a in accs):
            fails.append("train-base: test accuracy outside [0, 1]")
    elif stage == "train-meta":
        path = run_dir / "meta_loss.csv"
        rows = read_csv(path)
        if len(rows) != cfg["meta_training"]["max_steps"]:
            fails.append(f"train-meta: {len(rows)} loss rows, expected "
                         f"{cfg['meta_training']['max_steps']}")
        for col in ("hidden_loss", "output_loss", "total_loss"):
            if not all(math.isfinite(v) for v in _column(path, col)):
                fails.append(f"train-meta: non-finite {col}")
    elif stage == "analyze":
        accs = _column(run_dir / "landscape.csv", "accuracy")
        grid = cfg["analysis"]["grid"]
        if len(accs) != grid * grid:
            fails.append(f"analyze: {len(accs)} landscape cells, expected {grid * grid}")
        if not all(0.0 <= a <= 1.0 for a in accs):
            fails.append("analyze: landscape accuracy outside [0, 1]")
    elif stage == "ssl":
        losses = _column(run_dir / "ssl_trajectory.csv", "labeled_loss")
        if any(b > a for a, b in zip(losses, losses[1:])):
            fails.append("ssl: labeled loss rose between steps")
        if "VIOLATED" in output:
            fails.append("ssl: meta parameters changed during the search")
    elif stage == "fixed-points":
        tol = cfg["fixed_points"]["tol"]
        for path in run_dir.glob("fixed_points_*.csv"):
            res = _column(path, "residual")
            if any(not r <= tol for r in res):
                fails.append(f"fixed-points: {path.name} has a residual above tol {tol}")
    return fails


def quality(run_dir: Path) -> dict[str, float]:
    """Deterministic per-seed figures that show a run did its full work:
    mean base test accuracy, mean total meta loss over the last 10% of
    steps, landscape argmax accuracy, final SSL test accuracy, and the
    number of fixed points kept."""
    out: dict[str, float] = {}
    base = run_dir / "base" / "metrics.csv"
    if base.exists():
        accs = _column(base, "test_accuracy")
        out["base_acc"] = sum(accs) / len(accs)
    meta = run_dir / "meta_loss.csv"
    if meta.exists():
        loss = _column(meta, "total_loss")
        tail = loss[-max(1, math.ceil(len(loss) / 10)):]
        out["meta_loss"] = sum(tail) / len(tail)
    summary = run_dir / "analysis_summary.json"
    if summary.exists():
        out["landscape_acc"] = json.loads(summary.read_text())["landscape_argmax_accuracy"]
    ssl = run_dir / "ssl_result.json"
    if ssl.exists():
        out["ssl_acc"] = json.loads(ssl.read_text())["test_accuracy"]
    for path in sorted(run_dir.glob("fixed_points_*.json")):
        out["fixed_points_kept"] = json.loads(path.read_text())["num_fixed_points"]
    return out
