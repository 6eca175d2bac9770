import filecmp
import json
import shutil

import numpy as np
import pytest

from dynamo.cli import (
    ConfigError,
    config_hash,
    load_base_checkpoint,
    load_checkpoint,
    load_config,
    load_meta_checkpoint,
    main,
    save_checkpoint,
    validate_config,
)
from dynamo.models import init_base_model
from dynamo.numgrad import NumericError


def _mini_config(**overrides):
    cfg = {
        "seed": 5,
        "tasks": [{
            "name": "valence", "kind": "valence_sentiment", "vocab_size": 12,
            "num_classes": 2, "t_min": 3, "t_max": 6, "noise_rate": 0.0,
            "num_sequences": 120, "seed": 3,
        }],
        "splits": {"base_train": 0.4, "meta_unlabeled": 0.4,
                   "ssl_labeled": 0.05, "seed": 2},
        "population": [
            {"task": "valence", "count": 2, "cell_kind": "gru",
             "hidden_dim": 5, "input_dim": 4, "train_fraction": 1.0,
             "task_group": 0},
        ],
        "base_training": {"epochs": 2, "lr": 3e-3, "batch_size": 8,
                          "weight_decay": 0.0},
        "meta": {"hidden_dim": 8, "input_dim": 4, "embed_dim": 2},
        "meta_training": {"max_steps": 30, "batch_size": 4, "lr": 3e-3,
                          "weight_decay": 0.0},
        "analysis": {"grid": 3, "top_k": 2, "svcca_dims": 4,
                     "svcca_sequences": 10, "mds_dim": 2},
        "ssl": {"steps": 3, "lr": 0.5},
        "fixed_points": {"tol": 1e-3, "max_steps": 200, "candidates": 12,
                         "batch_sequences": 6, "samples_per_seq": 2,
                         "score_grid": 2},
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _run(*argv):
    return main(list(argv))


# -- config handling -----------------------------------------------------------


def test_config_rejects_unknown_keys(tmp_path):
    cfg = _mini_config()
    cfg["typo_key"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = _mini_config()
    cfg["tasks"][0]["vocabulary"] = 10
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_config_rejects_bad_fractions_and_empty_tasks(tmp_path):
    cfg = _mini_config()
    cfg["splits"]["base_train"] = 0.9
    path = _write_config(tmp_path, cfg)
    assert _run("gen-data", "--config", str(path), "--out", str(tmp_path / "o")) == 2

    cfg2 = _mini_config()
    cfg2["tasks"] = []
    path2 = _write_config(tmp_path, cfg2, "c2.json")
    assert _run("gen-data", "--config", str(path2), "--out", str(tmp_path / "o")) == 2


def test_config_hash_is_stable():
    cfg = _mini_config()
    assert config_hash(cfg) == config_hash(json.loads(json.dumps(cfg)))
    other = _mini_config(seed=6)
    assert config_hash(cfg) != config_hash(other)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


# -- checkpoints ----------------------------------------------------------------


def test_checkpoint_round_trip_float32(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
    save_checkpoint(tmp_path / "ck", tensors, {"kind": "test"})
    back, manifest = load_checkpoint(tmp_path / "ck")
    assert manifest["kind"] == "test"
    for k, v in tensors.items():
        assert back[k].shape == v.shape
        assert np.array_equal(back[k], v.astype(np.float32).astype(np.float64))
    # save(load(save(x))) is byte-identical
    save_checkpoint(tmp_path / "ck2", back, {"kind": "test"})
    assert (tmp_path / "ck.bin").read_bytes() == (tmp_path / "ck2.bin").read_bytes()


def test_checkpoint_offsets_validated(tmp_path):
    save_checkpoint(tmp_path / "ck", {"a": np.zeros(4)}, {})
    manifest = json.loads((tmp_path / "ck.json").read_text())
    manifest["tensors"][0]["offset"] = 9999
    (tmp_path / "ck.json").write_text(json.dumps(manifest))
    from dynamo.cli import IOFailure
    with pytest.raises(IOFailure):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e39, -1e39])
def test_save_checkpoint_refuses_state_not_finite_in_float32(tmp_path, bad):
    tensors = {"a": np.zeros(3), "b": np.array([np.finfo(np.float32).max, bad])}
    with pytest.raises(NumericError):
        save_checkpoint(tmp_path / "sub" / "ck", tensors, {})
    assert not (tmp_path / "sub").exists()  # neither file, nor the directory


def test_base_checkpoint_round_trip(tmp_path):
    model = init_base_model("gru", 12, 4, 5, 2, 0, seed=1,
                            info={"model_id": "base_000", "task": "valence"})
    from dynamo.cli import save_base_checkpoint
    save_base_checkpoint(tmp_path / "base_000", model)
    back = load_base_checkpoint(tmp_path / "base_000")
    assert back.cell_kind == "gru"
    assert back.hidden_dim == 5
    assert back.info["model_id"] == "base_000"
    for k in model.params:
        f32 = model.params[k].astype(np.float32).astype(np.float64)
        assert np.array_equal(back.params[k], f32)


# -- pipeline -------------------------------------------------------------------


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny full pipeline run shared by the command tests."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = _mini_config()
    path = _write_config(root, cfg)
    out = root / "run"
    assert _run("gen-data", "--config", str(path), "--out", str(out)) == 0
    assert _run("train-base", "--config", str(path), "--out", str(out)) == 0
    assert _run("train-meta", "--config", str(path), "--out", str(out)) == 0
    return path, out


def test_gen_data_outputs_and_determinism(tmp_path):
    cfg = _mini_config()
    path = _write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _run("gen-data", "--config", str(path), "--out", str(out1)) == 0
    assert _run("gen-data", "--config", str(path), "--out", str(out2)) == 0
    for name in ("valence.txt", "valence.json"):
        assert (out1 / "data" / name).read_bytes() == (out2 / "data" / name).read_bytes()


def test_train_base_missing_dataset_is_io_error(tmp_path):
    cfg = _mini_config()
    path = _write_config(tmp_path, cfg)
    assert _run("train-base", "--config", str(path),
                "--out", str(tmp_path / "empty")) == 3


def test_train_base_outputs(pipeline):
    _, out = pipeline
    ckpts = sorted((out / "base").glob("base_*.json"))
    assert len(ckpts) == 2
    metrics = (out / "base" / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("# config_hash=")
    assert metrics[1].startswith("model_id,")
    assert len(metrics) == 2 + 2
    seeds = {json.loads(p.read_text())["info"]["seed"] for p in ckpts}
    assert len(seeds) == 2  # distinct per-model seeds


def test_train_meta_outputs(pipeline):
    _, out = pipeline
    state, mf = load_meta_checkpoint(out / "meta")
    assert state.embeddings.shape == (2, 2)
    assert set(mf["embeddings_by_model"]) == {"base_000", "base_001"}
    loss_lines = (out / "meta_loss.csv").read_text().splitlines()
    assert loss_lines[1] == "step,model_id,hidden_loss,output_loss,total_loss"
    assert len(loss_lines) == 2 + 30


def test_meta_checkpoint_accuracy_reproducible(pipeline, tmp_path):
    _, out = pipeline
    from dynamo.atlas import evaluate_at
    from dynamo.tasks import load_dataset
    ds = load_dataset(out / "data" / "valence")
    s1, _ = load_meta_checkpoint(out / "meta")
    s2, _ = load_meta_checkpoint(out / "meta")
    a1 = evaluate_at(s1.meta, s1.embeddings[0], 0, ds)
    a2 = evaluate_at(s2.meta, s2.embeddings[0], 0, ds)
    assert a1 == a2


def test_analyze_outputs(pipeline):
    path, out = pipeline
    assert _run("analyze", "--config", str(path), "--out", str(out),
                "--svcca") == 0
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[1] == "component,eigenvalue,cumulative_fraction"
    assert len(spectrum) == 2 + 2  # d = 2 rows, descending
    eig = [float(r.split(",")[1]) for r in spectrum[2:]]
    assert eig == sorted(eig, reverse=True)
    atlas_lines = (out / "atlas.csv").read_text().splitlines()
    assert len(atlas_lines) == 2 + 2
    summary = json.loads((out / "analysis_summary.json").read_text())
    assert "components_for_variance" in summary
    assert (out / "landscape.csv").exists()
    assert (out / "svcca_mds.csv").exists()


def test_ssl_outputs(pipeline):
    path, out = pipeline
    assert _run("ssl", "--config", str(path), "--out", str(out)) == 0
    traj = (out / "ssl_trajectory.csv").read_text().splitlines()
    assert traj[1].startswith("step,theta_0")
    assert len(traj) == 2 + 4  # init + 3 steps
    result = json.loads((out / "ssl_result.json").read_text())
    assert "improvement_over_best_base" in result


def test_fixed_points_theta_sources(pipeline):
    path, out = pipeline
    assert _run("fixed-points", "--config", str(path), "--out", str(out),
                "--theta", "base_000") == 0
    assert _run("fixed-points", "--config", str(path), "--out", str(out),
                "--theta", "centroid:train_fraction=1.0") == 0
    assert _run("fixed-points", "--config", str(path), "--out", str(out),
                "--theta", "0.1,0.2") == 0
    assert (out / "fixed_points_base_000.csv").exists()
    assert (out / "fixed_points_explicit.csv").exists()
    report = json.loads((out / "fixed_points_base_000.json").read_text())
    assert report["num_fixed_points"] >= 0
    # residual contract: every exported row is within tolerance
    rows = (out / "fixed_points_base_000.csv").read_text().splitlines()[2:]
    for row in rows:
        assert float(row.split(",")[1]) <= 1e-3
    assert _run("fixed-points", "--config", str(path), "--out", str(out),
                "--theta", "bogus,source") == 2


def test_average_command(pipeline):
    path, out = pipeline
    assert _run("average", "--config", str(path), "--out", str(out),
                "--ids", "base_000,base_001") == 0
    rows = (out / "average_report.csv").read_text().splitlines()
    assert rows[1] == "model_id,meta_accuracy,base_accuracy"
    assert rows[-1].startswith("average,")
    assert _run("average", "--config", str(path), "--out", str(out),
                "--ids", "base_000") == 0
    single = (out / "average_report.csv").read_text().splitlines()
    own = float(single[2].split(",")[1])
    avg = float(single[3].split(",")[1])
    assert own == avg  # averaging a single model is the identity
    assert _run("average", "--config", str(path), "--out", str(out),
                "--ids", "base_000,missing") == 2


def test_full_rerun_is_byte_identical(tmp_path):
    cfg = _mini_config()
    path = _write_config(tmp_path, cfg)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert _run("gen-data", "--config", str(path), "--out", str(out)) == 0
        assert _run("train-base", "--config", str(path), "--out", str(out)) == 0
        assert _run("train-meta", "--config", str(path), "--out", str(out)) == 0
        assert _run("analyze", "--config", str(path), "--out", str(out)) == 0
        assert _run("ssl", "--config", str(path), "--out", str(out)) == 0
        outs.append(out)
    a, b = outs
    files = ["data/valence.txt", "data/valence.json", "base/base_000.bin",
             "base/base_000.json", "base/metrics.csv", "meta.bin", "meta.json",
             "meta_loss.csv", "atlas.csv", "spectrum.csv", "landscape.csv",
             "analysis_summary.json", "ssl_trajectory.csv", "ssl_result.json"]
    for f in files:
        assert filecmp.cmp(a / f, b / f, shallow=False), f


@pytest.fixture(scope="module")
def residual_pipeline(tmp_path_factory):
    """A tiny residual-MLP population with its meta model."""
    root = tmp_path_factory.mktemp("residual")
    cfg = _mini_config(
        population=[{"task": "valence", "count": 2, "cell_kind": "residual_mlp",
                     "hidden_dim": 6, "input_dim": 12, "num_blocks": 2,
                     "task_group": 0}],
        meta={"embed_dim": 2})
    path = _write_config(root, cfg)
    out = root / "run"
    for stage in ("gen-data", "train-base", "train-meta"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    return path, out


@pytest.mark.parametrize("argv,code", [
    (("analyze",), 0),
    (("analyze", "--svcca"), 2),    # SVCCA compares recurrent hidden states
    (("ssl",), 0),
    (("average", "--ids", "base_000,base_001"), 0),
    (("fixed-points", "--theta", "base_000"), 2),  # recurrent cells only
])
def test_residual_run_commands_exit_cleanly(residual_pipeline, argv, code):
    path, out = residual_pipeline
    analysis = [out / f for f in ("atlas.csv", "spectrum.csv", "landscape.csv",
                                  "analysis_summary.json")]
    if code:
        for f in analysis:
            f.unlink(missing_ok=True)
    assert _run(*argv, "--config", str(path), "--out", str(out)) == code
    if code:
        # a refused command leaves no partial analysis behind
        assert not [f.name for f in analysis if f.exists()]


def test_nonfinite_base_checkpoint_is_io_failure(tmp_path):
    path = _write_config(tmp_path, _mini_config())
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    blob = out / "base" / "base_000.bin"
    blob.write_bytes(np.full(blob.stat().st_size // 4, np.nan, dtype="<f4").tobytes())
    assert _run("train-meta", "--config", str(path), "--out", str(out)) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_meta_run_is_numeric_failure_and_saves_nothing(tmp_path):
    cfg = _mini_config()
    cfg["meta_training"].update(optimizer="sgd_nesterov", lr=1e6)
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    assert _run("train-meta", "--config", str(path), "--out", str(out)) == 4
    assert not (out / "meta.json").exists()
    assert not (out / "meta.bin").exists()


def _truncate_json(ck):
    ck.write_text(ck.read_text()[:200])


def _drop_manifest_key(ck):
    manifest = json.loads(ck.read_text())
    del manifest["hidden_dim"]
    ck.write_text(json.dumps(manifest))


def _shape_length_mismatch(ck):
    manifest = json.loads(ck.read_text())
    manifest["tensors"][0]["shape"][0] += 1
    ck.write_text(json.dumps(manifest))


def _nonfinite_value(ck):
    blob = ck.with_suffix(".bin")
    blob.write_bytes(np.array([np.inf], dtype="<f4").tobytes() + blob.read_bytes()[4:])


@pytest.mark.parametrize("corrupt", [_truncate_json, _drop_manifest_key,
                                     _shape_length_mismatch, _nonfinite_value])
def test_corrupt_meta_checkpoint_is_io_failure(pipeline, tmp_path, corrupt):
    path, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    corrupt(run / "meta.json")
    assert _run("ssl", "--config", str(path), "--out", str(run)) == 3
