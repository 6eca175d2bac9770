import dataclasses
import filecmp
import json
import shutil
import warnings
from collections import Counter

import numpy as np
import pytest

from dynamo.cli import (
    _BASE_TRAINING,
    _META_TRAINING,
    ConfigError,
    build_parser,
    config_hash,
    derived_seed,
    load_base_checkpoint,
    load_checkpoint,
    load_config,
    load_meta_checkpoint,
    main,
    save_checkpoint,
    train_config_from,
    validate_config,
)
from dynamo import cli, dynamics
from dynamo import tasks as tasks_module
from dynamo import trainer as trainer_module
from dynamo.atlas import fit_pca, grid_accuracies
from dynamo.models import init_base_model
from dynamo.numgrad import NumericError
from dynamo.tasks import load_dataset
from dynamo.trainer import TrainConfig


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


def test_validate_config_returns_resolved_copy():
    task = {k: v for k, v in _mini_config()["tasks"][0].items()
            if k not in ("noise_rate", "seed")}
    cfg = {"tasks": [task], "population": [{"task": "valence", "count": 1}]}
    written = json.loads(json.dumps(cfg))
    resolved = validate_config(cfg)
    assert cfg == written  # the config as written is left alone
    assert resolved["seed"] == 0 and "out_dir" not in resolved
    assert resolved["tasks"][0]["noise_rate"] == 0.05 and resolved["tasks"][0]["seed"] == 0
    assert resolved["population"][0] == {
        "task": "valence", "count": 1, "cell_kind": "gru", "hidden_dim": 24,
        "input_dim": 12, "train_fraction": 1.0, "task_group": 0, "num_blocks": 0}
    assert resolved["base_training"] == resolved["meta"] == {}  # trainer defaults
    assert resolved["fixed_points"]["samples_per_seq"] == 2
    assert resolved["ssl"]["task"] == resolved["analysis"]["landscape_task"] == "valence"
    second_head = [{"task": "valence", "count": 1},
                   {"task": "valence", "count": 1, "task_group": 1}]
    for section in ({"ssl": {"task": "topic"}}, {"analysis": {"landscape_task": "x"}},
                    {"population": second_head}):
        with pytest.raises(ConfigError):
            validate_config(dict(cfg, **section))


@pytest.mark.parametrize("section,update,codes", [
    ("population", {"cell_kind": "lstm"}, (2, 2)),
    ("population", {"cell_kind": "residual_mlp", "input_dim": 12}, (2, 2)),  # no num_blocks
    # residual features are as wide as the vocabulary (12)
    ("population", {"cell_kind": "residual_mlp", "num_blocks": 2, "input_dim": 5}, (2, 2)),
    ("meta", {"cell_kind": "lstm"}, (2, 2)),
    ("base_training", {"optimizer": "rmsprop"}, (2, 2)),
    ("meta_training", {"hidden_metric": "L3"}, (2, 2)),
    ("meta_training", {"output_divergence": "hellinger"}, (2, 2)),
    ("tasks", {"name": "a/b"}, (2, 2)),  # a task name is a file stem and a CSV cell
    ("tasks", {"name": "../escaped"}, (2, 2)),
    ("tasks", {"name": "val,ence"}, (2, 2)),
    ("tasks", {"name": "v1.5"}, (2, 2)),  # with_suffix would cut it to v1
    # refused as the config loads, not by the stage that builds the section
    ("tasks", {"t_min": 7}, (2, 2)),  # t_max is 6
    ("tasks", {"kind": "parity"}, (2, 2)),
    ("tasks", {"noise_rate": 0.7}, (2, 2)),
    ("tasks", {"num_classes": 3}, (2, 2)),  # a valence task is binary
    ("population", {"lr": -1}, (2, 2)),
    ("base_training", {"batch_size": 0}, (2, 2)),
    ("meta_training", {"lr": -1}, (2, 2)),
], ids=["unknown_base_cell", "residual_without_blocks", "residual_input_dim_not_vocab",
        "unknown_meta_cell", "unknown_optimizer", "unknown_hidden_metric", "unknown_divergence",
        "task_name_slash", "task_name_dotdot", "task_name_comma", "task_name_dot",
        "task_t_min_past_t_max", "unknown_task_kind", "task_noise_rate", "valence_classes",
        "entry_lr", "base_batch_size", "meta_lr"])
def test_bad_model_config_is_config_error(tmp_path, section, update, codes):
    cfg = _mini_config()
    (cfg[section][0] if isinstance(cfg[section], list) else cfg[section]).update(update)
    if "name" in update:  # keep the population on the renamed task
        cfg["population"][0]["task"] = update["name"]
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert tuple(_run(stage, "--config", str(path), "--out", str(out))
                 for stage in ("gen-data", "train-base")) == codes
    assert not list(out.glob("base/base_*"))
    if codes[0] == 2:
        assert sorted(tmp_path.iterdir()) == [path]  # nothing written anywhere


@pytest.mark.parametrize("section,key,value", [
    ("base_training", "max_steps", 3),
    ("base_training", "lambda", 0.5),
    ("base_training", "hidden_metric", "L1"),
    ("base_training", "output_divergence", "KL_on_softmax"),
    ("base_training", "normalize_hidden_by_dim", False),
    ("meta_training", "epochs", 2),
    ("base_training", "theta_lr", 0.1),
    ("meta_training", "theta_lr", 0.1),
    ("base_training", "cosine", False),
    ("meta_training", "cosine", True),
    (None, "out_dir", "elsewhere"),
])
def test_keys_no_stage_reads_are_config_errors(tmp_path, monkeypatch, section, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = _mini_config()
    (cfg[section] if section else cfg)[key] = value
    path = _write_config(tmp_path, cfg)
    assert _run("gen-data", "--config", str(path)) == 2
    assert sorted(tmp_path.iterdir()) == [path]  # no run_<hash>, no out_dir


@pytest.mark.parametrize("section,key", [
    ("population", "count"), ("base_training", "epochs"), ("meta_training", "lr"),
    (None, "seed")])
def test_bool_is_not_a_number_in_the_config(tmp_path, monkeypatch, section, key):
    # bool subclasses int: true must not pass for a count, a rate or a seed
    monkeypatch.chdir(tmp_path)
    cfg = _mini_config()
    entry = cfg[section] if section else cfg
    (entry[0] if isinstance(entry, list) else entry)[key] = True
    path = _write_config(tmp_path, cfg)
    assert _run("gen-data", "--config", str(path)) == 2
    assert sorted(tmp_path.iterdir()) == [path]  # no run_<hash> written


# one value per key, each unlike TrainConfig's default
_TRAINING_VALUES = {
    "optimizer": "sgd_nesterov", "lr": 0.5, "batch_size": 3, "weight_decay": 0.5,
    "cosine_freq": 0.5, "momentum": 0.5, "epochs": 3, "max_steps": 3,
    "lambda": 0.5, "hidden_metric": "L1", "output_divergence": "squared_L2_on_logits",
    "normalize_hidden_by_dim": False}


@pytest.mark.parametrize("section", [_BASE_TRAINING, _META_TRAINING],
                         ids=["base_training", "meta_training"])
def test_every_training_key_sets_its_train_config_field(section):
    default = dataclasses.asdict(TrainConfig(seed=0))
    for key in section:
        tcfg = dataclasses.asdict(train_config_from({key: _TRAINING_VALUES[key]}, seed=0))
        changed = [f for f in default if tcfg[f] != default[f]]
        assert changed == ["lam" if key == "lambda" else key], key


def test_parser_options_are_run_inputs_only():
    # the config sets every value a run computes with; a flag only names the
    # config, the run directory, the seed, or what a command reads or adds
    subparsers = build_parser()._subparsers._group_actions[0].choices
    options = {name: {opt for action in p._actions for opt in action.option_strings}
               - {"-h", "--help"} for name, p in subparsers.items()}
    common = {"--config", "--out", "--seed"}
    assert options == {"gen-data": common, "train-base": common, "train-meta": common,
                       "analyze": common | {"--svcca"}, "ssl": common,
                       "fixed-points": common | {"--theta", "--score-map"},
                       "average": common | {"--ids"}}


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


def _model_fields(model) -> dict:
    return {f.name: getattr(model, f.name) for f in dataclasses.fields(model)
            if f.name != "params"}


def test_base_checkpoint_round_trip(tmp_path):
    model = init_base_model("gru", 12, 4, 5, 2, 0, seed=1,
                            info={"model_id": "base_000", "task": "valence"})
    from dynamo.cli import base_checkpoint
    save_checkpoint(tmp_path / "base_000", *base_checkpoint(model))
    back = load_base_checkpoint(tmp_path / "base_000")
    assert _model_fields(back) == _model_fields(model)
    assert back.cell_kind == "gru" and back.info["model_id"] == "base_000"
    for k in model.params:
        f32 = model.params[k].astype(np.float32).astype(np.float64)
        assert np.array_equal(back.params[k], f32)


# -- pipeline -------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory, perfbench_tracer):
    """One tiny full pipeline run shared by the command tests, its training
    commands run under the benchmark's tracer; the tracer is returned too."""
    root = tmp_path_factory.mktemp("pipe")
    cfg = _mini_config()
    path = _write_config(root, cfg)
    out = root / "run"
    assert _run("gen-data", "--config", str(path), "--out", str(out)) == 0
    tracer = perfbench_tracer.Tracer().install()
    try:
        assert _run("train-base", "--config", str(path), "--out", str(out)) == 0
        assert _run("train-meta", "--config", str(path), "--out", str(out)) == 0
    finally:
        tracer.uninstall()
    return path, out, tracer


@pytest.fixture(scope="module")
def pipeline(traced_pipeline):
    """The shared pipeline's config path and run directory."""
    return traced_pipeline[:2]


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


@pytest.mark.parametrize("suffix,corrupt", [
    (".json", lambda text: "{"),
    (".json", lambda text: text.replace('"vocab_size"', '"vocab"')),
    (".json", lambda text: text.replace('"test": [', '"test": [1000000,')),
    (".txt", lambda text: text.replace("\t", " ", 1)),
    (".txt", lambda text: text.replace(",", ",x,", 1)),
    (".txt", lambda text: "1\t3,12\n" + text),  # vocab_size is 12
    (".txt", lambda text: "1\t-1\n" + text),
    (".txt", lambda text: "2\t3,4\n" + text),  # two classes
    (".json", lambda text: text.replace('"positive"', '"positiv"', 1)),
    (".json", lambda text: text.replace('"0": ', '"99": ', 1)),
    (".json", lambda text: text.replace('"11": ', '"-1": ', 1)),  # would relabel 11
], ids=["bad_json", "missing_key", "split_index", "line_without_tab",
        "non_integer_token", "token_past_vocab", "negative_token", "label_past_classes",
        "unknown_valence_tag", "valence_token_past_vocab", "negative_valence_token"])
def test_corrupt_dataset_is_io_error(tmp_path, suffix, corrupt):
    path = _write_config(tmp_path, _mini_config())
    out = tmp_path / "run"
    assert _run("gen-data", "--config", str(path), "--out", str(out)) == 0
    data = out / "data" / f"valence{suffix}"
    data.write_text(corrupt(data.read_text()))
    assert _run("train-base", "--config", str(path), "--out", str(out)) == 3
    assert not (out / "base").exists()


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


_RESIDUAL_POPULATION = [{"task": "valence", "count": 2, "cell_kind": "residual_mlp",
                         "hidden_dim": 6, "input_dim": 12, "num_blocks": 2,
                         "task_group": 0}]


@pytest.mark.parametrize("population,blocks", [(None, 1), (_RESIDUAL_POPULATION, 2)],
                         ids=["gru", "residual"])
def test_meta_checkpoint_round_trips_every_state_map(tmp_path, monkeypatch,
                                                     population, blocks):
    cfg = _mini_config()
    if population:
        cfg.update(population=population, meta={"embed_dim": 2})
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    trained = []
    monkeypatch.setattr(cli, "train_meta", lambda *args: trained.append(
        trainer_module.train_meta(*args)) or trained[-1])
    for stage in ("gen-data", "train-base", "train-meta"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    state, _ = load_meta_checkpoint(out / "meta")
    want = trained[0]
    assert _model_fields(state.meta) == _model_fields(want.meta)
    names = sorted(f"{x}{t}" for x in "wb" for t in range(blocks))
    assert [sorted(vm) for vm in state.state_maps] == [names, names]
    for vm, vm_want in zip(state.state_maps, want.state_maps):
        for k, a in vm_want.items():
            assert np.array_equal(vm[k], a.astype(np.float32).astype(np.float64)), k
    assert state.embeddings.shape == want.embeddings.shape
    assert np.array_equal(state.embeddings,
                          want.embeddings.astype(np.float32).astype(np.float64))


def test_meta_checkpoint_accuracy_reproducible(pipeline, tmp_path):
    _, out = pipeline
    ds = load_dataset(out / "data" / "valence")
    s1, _ = load_meta_checkpoint(out / "meta")
    s2, _ = load_meta_checkpoint(out / "meta")
    a1 = grid_accuracies(s1.meta, s1.embeddings[0], 0, ds)
    a2 = grid_accuracies(s2.meta, s2.embeddings[0], 0, ds)
    assert a1 == a2


def test_analyze_outputs(pipeline):
    path, out = pipeline
    assert _run("analyze", "--config", str(path), "--out", str(out),
                "--svcca") == 0
    spectrum = [r.split(",") for r in (out / "spectrum.csv").read_text().splitlines()]
    assert spectrum[1] == ["component", "eigenvalue", "cumulative_fraction"]
    assert [r[0] for r in spectrum[2:]] == ["0", "1"]  # d = 2 rows, descending
    eig = [float(r[1]) for r in spectrum[2:]]
    assert eig == sorted(eig, reverse=True)
    want = fit_pca(load_meta_checkpoint(out / "meta")[0].embeddings).spectrum
    cum = 0.0
    for row, lam in zip(spectrum[2:], want):  # the loop that np.cumsum replaced
        cum += lam
        assert [float(x) for x in row[1:]] == pytest.approx([lam, cum / want.sum()], rel=1e-9)
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
    state, _ = load_meta_checkpoint(out / "meta")
    ds = load_dataset(out / "data" / "valence")
    mean_acc = grid_accuracies(state.meta, state.embeddings[[0, 1]].mean(axis=0), 0, ds)[0]
    assert rows[-1] == f"average,{mean_acc:.10g},"
    assert _run("average", "--config", str(path), "--out", str(out),
                "--ids", "base_000") == 0
    single = (out / "average_report.csv").read_text().splitlines()
    own = float(single[2].split(",")[1])
    avg = float(single[3].split(",")[1])
    assert own == avg  # averaging a single model is the identity
    assert _run("average", "--config", str(path), "--out", str(out),
                "--ids", "base_000,missing") == 2


_SCORE_MAP = ("fixed-points", "--theta", "base_000", "--score-map")


@pytest.mark.parametrize("keys,value,argv", [
    (("seed",), -1, ("gen-data",)),
    ((), None, ("gen-data", "--seed", "-1")),
    (("tasks", 0, "seed"), -1, ("gen-data",)),
    (("splits", "seed"), -1, ("gen-data",)),
    (("population", 0, "hidden_dim"), -1, ("train-base",)),
    (("population", 0, "input_dim"), -2, ("train-base",)),
    (("meta", "hidden_dim"), -3, ("train-meta",)),
    (("population", 0, "hidden_dim"), 0, ("train-meta",)),
    (("analysis", "grid"), 0, ("analyze",)),
    (("analysis", "svcca_sequences"), 0, ("analyze", "--svcca")),
    (("analysis", "svcca_dims"), 0, ("analyze", "--svcca")),
    (("analysis", "top_k"), -1, ("analyze",)),
    (("analysis", "mds_dim"), 0, ("analyze", "--svcca")),
    (("fixed_points", "score_grid"), 0, _SCORE_MAP),
    (("fixed_points", "batch_sequences"), 0, _SCORE_MAP),
    ((), None, ("fixed-points", "--theta", "nan,nan")),
    (("analysis", "variance_threshold"), 0, ("analyze",)),
    (("analysis", "variance_threshold"), 1.5, ("analyze",)),
    (("ssl", "lr"), -1, ("ssl",)),
    (("ssl", "lr"), 0, ("ssl",)),
    # each of these four exited 0 with empty or collapsed output
    (("fixed_points", "candidates"), 0, ("fixed-points", "--theta", "base_000")),
    (("fixed_points", "samples_per_seq"), 0, _SCORE_MAP),
    (("analysis", "extent_scale"), 0, ("analyze",)),
    (("fixed_points", "tol"), 0, ("gen-data",)),  # every command checks the whole config
    # trained exactly as 1.0 but was labelled 2.0
    (("population", 0, "train_fraction"), 2.0, ("train-base",)),
    # switched deduplication off
    (("fixed_points", "dedup_radius"), -0.01, ("fixed-points", "--theta", "base_000")),
], ids=["seed", "seed_flag", "task_seed", "splits_seed", "base_hidden_dim",
        "base_input_dim", "meta_hidden_dim", "base_hidden_dim_zero", "grid",
        "svcca_sequences", "svcca_dims", "top_k", "mds_dim", "score_grid",
        "batch_sequences", "theta_nan", "variance_threshold_zero",
        "variance_threshold_past_one", "ssl_lr_negative", "ssl_lr_zero", "candidates",
        "samples_per_seq", "extent_scale", "tol", "train_fraction_past_one",
        "dedup_radius_negative"])
def test_out_of_range_value_is_config_error(pipeline, tmp_path, capsys, keys, value, argv):
    cfg = json.loads(pipeline[0].read_text())
    if keys:
        *parents, key = keys
        section = cfg
        for k in parents:
            section = section[k]
        section[key] = value
    err = _assert_refused_untouched(pipeline[1], tmp_path, capsys, cfg, argv)
    assert not keys or f".{keys[-1]} " in err  # the refusal names the key


@pytest.fixture(scope="module")
def generated(pipeline, tmp_path_factory):
    """A run directory holding only what gen-data wrote for the shared pipeline."""
    run = tmp_path_factory.mktemp("generated") / "run"
    shutil.copytree(pipeline[1] / "data", run / "data")
    return run


@pytest.mark.parametrize("change", [
    # 60 + 54 + 6 of the 120 sequences: the floor rule leaves no test sequence
    lambda cfg: cfg["splits"].update(base_train=0.5, meta_unlabeled=0.45,
                                     ssl_labeled=0.05),
    # 0.001 of the 48 base_train sequences is none
    lambda cfg: cfg["population"].append(dict(cfg["population"][0], train_fraction=0.001)),
], ids=["empty_test_split", "empty_train_fraction"])
@pytest.mark.parametrize("argv", [("gen-data",), ("train-base",)],
                         ids=["gen_data", "train_base"])
def test_empty_split_is_config_error_before_any_output(pipeline, generated, tmp_path,
                                                       capsys, change, argv):
    cfg = json.loads(pipeline[0].read_text())
    change(cfg)
    _assert_refused_untouched(generated, tmp_path, capsys, cfg, argv)


def _assert_refused_untouched(out, tmp_path, capsys, cfg, argv):
    """`argv` run with `cfg` on a copy of the run directory `out` exits 2 with
    a config error, no traceback and no RuntimeWarning, and writes nothing;
    returns the error output."""
    run = tmp_path / "run"
    shutil.copytree(out, run)
    before = {f: f.read_bytes() for f in run.rglob("*") if f.is_file()}
    path = _write_config(tmp_path, cfg)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(*argv, "--config", str(path), "--out", str(run)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert {f: f.read_bytes() for f in run.rglob("*") if f.is_file()} == before
    assert sorted(tmp_path.iterdir()) == [path, run]
    return err


@pytest.fixture(scope="module")
def traced_analyses(traced_pipeline):
    """The pipeline's run directory after the analysis commands, and the
    tracer of its training and analysis commands."""
    path, out, tracer = traced_pipeline
    tracer.install()
    try:
        for argv in (("analyze", "--svcca"), ("ssl",),
                     ("fixed-points", "--theta", "base_000", "--score-map"),
                     ("average", "--ids", "base_000,base_001")):
            assert _run(*argv, "--config", str(path), "--out", str(out)) == 0
    finally:
        tracer.uninstall()
    return out, tracer


def test_every_table_is_rectangular(traced_analyses):
    out, _ = traced_analyses
    tables = {t.name: t for t in out.rglob("*.csv")}
    assert set(tables) >= {"metrics.csv", "meta_loss.csv", "atlas.csv", "spectrum.csv",
                           "landscape.csv", "svcca_mds.csv", "ssl_trajectory.csv",
                           "fixed_points_base_000.csv", "score_map_base_000.csv",
                           "average_report.csv"}
    for name, table in tables.items():
        rows = [ln.split(",") for ln in table.read_text().splitlines() if ln[0] != "#"]
        assert len(set(rows[0])) == len(rows[0]), name
        assert {len(row) for row in rows} == {len(rows[0])}, name


def test_perfbench_tracer_reads_every_traced_call(traced_analyses):
    # a signature change would drop the span attributes (e.g. candidates) into `absent`
    _, tracer = traced_analyses
    assert tracer.absent == []
    spans = [s for s in tracer.spans if s[0] == "dynamics.find_fixed_points"]
    assert spans and all(s[4]["candidates"] == 12 for s in spans)


def test_traced_train_meta_rolls_each_base_once_per_chunk(traced_analyses):
    # perfbench sees the chunked base rollouts as rollout_batch spans
    out, tracer = traced_analyses
    spans = tracer.spans

    def under(sid, name):
        while sid >= 0 and spans[sid][0] != name:
            sid = spans[sid][3]
        return sid >= 0

    rolls = [sid for sid, s in enumerate(spans) if s[0] == "models.rollout_batch"
             and under(sid, "trainer.train_meta")]
    rows = [ln.split(",") for ln in (out / "meta_loss.csv").read_text().splitlines()[2:]]
    per_roll = trainer_module.BASE_ROLL_ROWS // _mini_config()["meta_training"]["batch_size"]
    steps = Counter(row[1] for row in rows)
    assert len(rolls) == sum(-(-n // per_roll) for n in steps.values()) > 0
    assert {s[0] for s in spans} >= {"trainer.train_base", "trainer.train_meta"}


@pytest.mark.parametrize("population,meta", [
    ([{"task": "valence", "count": 2, "cell_kind": "gru", "hidden_dim": 5,
       "input_dim": 4, "task_group": 0},
      {"task": "valence", "count": 1, "cell_kind": "vanilla_rnn", "hidden_dim": 3,
       "input_dim": 4, "task_group": 0}],
     {"hidden_dim": 8, "input_dim": 4, "embed_dim": 2}),
    ([{"task": "valence", "count": 2, "cell_kind": "residual_mlp", "hidden_dim": 6,
       "input_dim": 12, "num_blocks": 2, "task_group": 0}],
     {"embed_dim": 2}),
], ids=["recurrent", "residual"])
def test_base_roll_rows_leave_meta_outputs_unchanged(tmp_path, monkeypatch,
                                                     population, meta):
    # one rollout per step (1 row) and per sixteen 4-row batches (64 rows)
    path = _write_config(tmp_path, _mini_config(population=population, meta=meta))
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    outputs = []
    for rows in (1, 64):
        monkeypatch.setattr(trainer_module, "BASE_ROLL_ROWS", rows)
        assert _run("train-meta", "--config", str(path), "--out", str(out)) == 0
        outputs.append([(out / f).read_bytes() for f in ("meta.bin", "meta_loss.csv")])
    assert outputs[0] == outputs[1]


def test_score_map_reads_samples_per_seq(pipeline, tmp_path, monkeypatch):
    _, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg = _mini_config()
    cfg["fixed_points"]["samples_per_seq"] = 3
    path = _write_config(tmp_path, cfg)
    seen = {}
    score_map = dynamics.score_map

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return score_map(*args, **kwargs)

    monkeypatch.setattr(dynamics, "score_map", spy)
    assert _run("fixed-points", "--config", str(path), "--out", str(run),
                "--theta", "base_000", "--score-map") == 0
    assert seen["samples_per_seq"] == 3


def test_score_map_spans_the_landscape_plane(pipeline, tmp_path):
    # both grids read analysis.extent_scale
    _, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    cfg = _mini_config()
    cfg["analysis"]["extent_scale"] = 3.0
    path = _write_config(tmp_path, cfg)
    for argv in (("analyze",), ("fixed-points", "--theta", "base_000", "--score-map")):
        assert _run(*argv, "--config", str(path), "--out", str(run)) == 0
    extremes = []
    for name in ("landscape.csv", "score_map_base_000.csv"):
        rows = [ln.split(",") for ln in (run / name).read_text().splitlines()[2:]]
        uv = np.array([[float(r[0]), float(r[1])] for r in rows])
        extremes.append((uv.min(axis=0), uv.max(axis=0)))
    np.testing.assert_array_equal(extremes[0], extremes[1])


def test_score_map_lies_on_the_landscape_plane_of_its_task(tmp_path):
    # with bases on two equal tasks, both grids span the plane of the first
    # task's bases alone: the same origin, axes and extremes
    cfg = _mini_config()
    cfg["tasks"].append(dict(cfg["tasks"][0], name="valence2"))
    cfg["population"].append(dict(cfg["population"][0], task="valence2", task_group=1))
    cfg["fixed_points"]["score_grid"] = cfg["analysis"]["grid"]
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    for argv in (("gen-data",), ("train-base",), ("train-meta",), ("analyze",),
                 ("fixed-points", "--theta", "base_000", "--score-map")):
        assert _run(*argv, "--config", str(path), "--out", str(out)) == 0, argv
    planes = []
    for name in ("landscape.csv", "score_map_base_000.csv"):
        rows = [ln.split(",") for ln in (out / name).read_text().splitlines()[2:]]
        planes.append(np.array([[float(c) for c in r[:4]] for r in rows]))  # u, v, theta
    np.testing.assert_array_equal(planes[0], planes[1])


@pytest.mark.parametrize("counts,scored", [((1, 1), False), ((2, 1), True)])
def test_analyze_scores_no_silhouette_of_singletons(tmp_path, counts, scored):
    # one GRU and one vanilla-RNN base are two one-point clusters: no score
    cfg = _mini_config()
    gru = cfg["population"][0]
    cfg["population"] = [dict(gru, count=counts[0]),
                         dict(gru, count=counts[1], cell_kind="vanilla_rnn")]
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base", "train-meta", "analyze"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0, stage
    summary = json.loads((out / "analysis_summary.json").read_text())
    assert ("silhouette_cell_kind" in summary) == scored


@pytest.mark.parametrize("count,scored", [(1, False), (2, True)])
def test_analyze_svcca_scores_train_fraction_clusters(tmp_path, count, scored):
    # two train_fraction values: the SVCCA+MDS coordinates get a silhouette
    # only when each value has two bases
    cfg = _mini_config()
    gru = cfg["population"][0]
    cfg["population"] = [dict(gru, count=count),
                         dict(gru, count=count, train_fraction=0.5)]
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base", "train-meta", ("analyze", "--svcca")):
        argv = (stage,) if isinstance(stage, str) else stage
        assert _run(*argv, "--config", str(path), "--out", str(out)) == 0, stage
    summary = json.loads((out / "analysis_summary.json").read_text())
    assert ("silhouette_svcca_mds" in summary) == scored
    if scored:
        assert -1.0 <= summary["silhouette_svcca_mds"] <= 1.0


def test_diverging_base_entry_is_numeric_failure_and_saves_none_of_its_bases(tmp_path,
                                                                              capsys):
    # the second entry's step leaves float32: it writes no checkpoint, while
    # the first entry's stay
    cfg = _mini_config()
    cfg["population"].append(dict(cfg["population"][0], lr=1e39))
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert _run("gen-data", "--config", str(path), "--out", str(out)) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("train-base", "--config", str(path), "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert sorted(p.name for p in (out / "base").iterdir()) == [
        "base_000.bin", "base_000.json", "base_001.bin", "base_001.json"]


def test_seed_override_applies_to_every_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, _mini_config())
    seeds = []
    collect = dynamics.collect_candidates

    def spy(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return collect(*args, **kwargs)

    monkeypatch.setattr(dynamics, "collect_candidates", spy)
    for argv in (("gen-data",), ("train-base",), ("train-meta",), ("analyze",),
                 ("ssl",), ("fixed-points", "--theta", "base_000"),
                 ("average", "--ids", "base_000,base_001")):
        assert _run(*argv, "--config", str(path), "--seed", "7") == 0, argv
    runs = [p.name for p in tmp_path.glob("run_*")]
    assert runs == [f"run_{config_hash(_mini_config(seed=7))}"]
    manifest = json.loads((tmp_path / runs[0] / "base" / "base_000.json").read_text())
    assert manifest["info"]["seed"] == derived_seed(7, 1, 0)
    assert seeds == [derived_seed(7, 3)]


def test_task_without_base_models_has_no_readout_head(tmp_path):
    cfg = _mini_config(ssl={"steps": 3, "lr": 0.5, "task": "topic"})
    cfg["tasks"].append(dict(cfg["tasks"][0], name="topic",
                             kind="topic_classification", num_classes=3))
    cfg["analysis"]["landscape_task"] = "topic"
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base", "train-meta"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    written = sorted(out.iterdir())
    assert _run("ssl", "--config", str(path), "--out", str(out)) == 2
    assert _run("fixed-points", "--config", str(path), "--out", str(out),
                "--theta", "base_000") == 2
    assert sorted(out.iterdir()) == written  # refused before writing anything
    # analyze skips the landscape of a task that no base model was trained on
    # and the SVCCA baseline of its bases
    assert _run("analyze", "--config", str(path), "--out", str(out), "--svcca") == 0
    assert (out / "atlas.csv").exists() and not (out / "landscape.csv").exists()
    assert not (out / "svcca_mds.csv").exists()


def test_score_map_of_a_task_without_valences_is_config_error(tmp_path, capsys):
    cfg = _mini_config()
    cfg["tasks"][0].update(kind="topic_classification", num_classes=3)
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base", "train-meta"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    written = sorted(out.iterdir())
    capsys.readouterr()
    assert _run(*_SCORE_MAP, "--config", str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert sorted(out.iterdir()) == written  # refused before writing anything
    assert _run("fixed-points", "--theta", "base_000", "--config", str(path),
                "--out", str(out)) == 0


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
    cfg = _mini_config(population=_RESIDUAL_POPULATION, meta={"embed_dim": 2})
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


@pytest.mark.parametrize("fixture,meta", [
    ("pipeline", {"cell_kind": "residual_mlp", "hidden_dim": 5}),
    ("residual_pipeline", {"cell_kind": "gru", "embed_dim": 2}),
    ("residual_pipeline", {"input_dim": 3, "embed_dim": 2}),
], ids=["residual_meta_of_gru_bases", "gru_meta_of_residual_bases",
        "residual_meta_input_dim"])
def test_meta_model_of_the_other_family_is_config_error(request, tmp_path, capsys,
                                                        fixture, meta):
    path, out = request.getfixturevalue(fixture)
    run = tmp_path / "run"
    shutil.copytree(out, run, ignore=shutil.ignore_patterns("meta.*", "meta_loss.csv"))
    cfg = json.loads(path.read_text())
    cfg["meta"] = meta
    config = _write_config(tmp_path, cfg)
    capsys.readouterr()
    assert _run("train-meta", "--config", str(config), "--out", str(run)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not list(run.glob("meta*"))


def test_analyze_svcca_without_a_base_checkpoint_is_io_error(pipeline, tmp_path, capsys):
    # the SVCCA baseline reads the bases the meta checkpoint names, before any output
    path, out = pipeline
    run = tmp_path / "run"
    analysis = ("atlas.csv", "spectrum.csv", "landscape.csv", "svcca_mds.csv",
                "analysis_summary.json")
    shutil.copytree(out, run, ignore=shutil.ignore_patterns("base_001.*", *analysis))
    capsys.readouterr()
    assert _run("analyze", "--svcca", "--config", str(path), "--out", str(run)) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "base_001" in err and "Traceback" not in err
    assert not [f for f in analysis if (run / f).exists()]


def _file_in_place_of_out(out):
    out.parent.joinpath("file").write_text("")
    return ("gen-data",), out.parent / "file" / "run"


def _file_in_place_of_base_dir(out):
    out.joinpath("base").write_text("")
    return ("train-base",), out


def _directory_in_place_of_atlas_csv(out):
    out.joinpath("atlas.csv").mkdir()
    return ("analyze",), out


@pytest.mark.parametrize("block", [_file_in_place_of_out, _file_in_place_of_base_dir,
                                   _directory_in_place_of_atlas_csv])
def test_unwritable_output_is_io_error(pipeline, tmp_path, capsys, block):
    path, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run, ignore=shutil.ignore_patterns("base", "atlas.csv"))
    argv, target = block(run)
    capsys.readouterr()
    assert _run(*argv, "--config", str(path), "--out", str(target)) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv,outputs", [
    (("train-meta",), ("meta.*", "meta_loss.csv")),
    (("analyze", "--svcca"), ("atlas.csv", "spectrum.csv", "landscape.csv", "svcca_mds.csv",
                              "analysis_summary.json")),
    (("ssl",), ("ssl_trajectory.csv", "ssl_result.json")),
    (_SCORE_MAP, ("score_map_base_000.csv", "fixed_points_base_000.csv",
                  "fixed_points_base_000.json")),
], ids=["train_meta", "analyze_svcca", "ssl", "score_map"])
def test_failed_output_write_leaves_the_run_directory_as_it_was(
        pipeline, tmp_path, capsys, monkeypatch, argv, outputs):
    # the command's last payload cannot be written, so none of its outputs lands
    path, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run, ignore=shutil.ignore_patterns(*outputs))

    def tree():
        return {p: p.is_file() and p.read_bytes() for p in run.rglob("*")}
    before = tree()
    for name in ("write_csv", "write_json"):
        def failing(target, *args, write=getattr(tasks_module, name)):
            if target.name == outputs[-1]:
                raise OSError(f"cannot write {target.name}")
            write(target, *args)
        monkeypatch.setattr(tasks_module, name, failing)
    capsys.readouterr()
    assert _run(*argv, "--config", str(path), "--out", str(run)) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err
    assert not list(run.glob(".staging-*"))
    assert tree() == before


def _directory_in_place_of_landscape_csv(run, monkeypatch):
    run.joinpath("landscape.csv").unlink(missing_ok=True)  # an earlier analyze's
    run.joinpath("landscape.csv").mkdir()


def _file_in_place_of_an_output_directory(run, monkeypatch):
    # no command writes a top-level file and a nested one in one call, so
    # analyze's outputs gain a nested one, which sorts after all of them
    write = cli.Run.write
    monkeypatch.setattr(cli.Run, "write",
                        lambda self, outputs: write(self, {**outputs, "sub/extra.json": {}}))
    run.joinpath("sub").write_text("a file where a directory goes")


@pytest.mark.parametrize("block", [_directory_in_place_of_landscape_csv,
                                   _file_in_place_of_an_output_directory])
def test_blocked_output_path_is_refused_before_any_rename(pipeline, tmp_path, capsys,
                                                          monkeypatch, block):
    # the outputs that sort before the blocked path must not land either
    path, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    block(run, monkeypatch)

    def tree():
        return {p: p.is_file() and p.read_bytes() for p in run.rglob("*")}
    before = tree()
    capsys.readouterr()
    assert _run("analyze", "--config", str(path), "--out", str(run)) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err
    assert not list(run.glob(".staging-*"))
    assert tree() == before


def test_nonfinite_base_checkpoint_is_io_failure(tmp_path):
    path = _write_config(tmp_path, _mini_config())
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    blob = out / "base" / "base_000.bin"
    blob.write_bytes(np.full(blob.stat().st_size // 4, np.nan, dtype="<f4").tobytes())
    assert _run("train-meta", "--config", str(path), "--out", str(out)) == 3


def test_diverging_meta_run_is_numeric_failure_and_saves_nothing(tmp_path):
    cfg = _mini_config()
    cfg["meta_training"].update(optimizer="sgd_nesterov", lr=1e6)
    path = _write_config(tmp_path, cfg)
    out = tmp_path / "run"
    for stage in ("gen-data", "train-base"):
        assert _run(stage, "--config", str(path), "--out", str(out)) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("train-meta", "--config", str(path), "--out", str(out)) == 4
    assert not (out / "meta.json").exists()
    assert not (out / "meta.bin").exists()
    # overflow while diverging is reported once, as the numeric failure
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_DIRECTION = np.linspace(-1.0, 1.0, 8) + 0.3


@pytest.mark.parametrize("points", [
    np.stack([0.1 * _DIRECTION, 0.12 * _DIRECTION + 0.01]),
    np.outer(np.linspace(-0.02, 0.03, 5), _DIRECTION) + 0.05,
], ids=["two_points", "collinear"])
def test_fixed_points_report_no_ratio_without_thickness(pipeline, tmp_path,
                                                        monkeypatch, points):
    path, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    k = len(points)
    fps = dynamics.FixedPointSet(points, np.zeros(k), np.zeros(k, int))
    monkeypatch.setattr(dynamics, "find_fixed_points", lambda *a, **kw: fps)
    assert _run("fixed-points", "--config", str(path), "--out", str(run),
                "--theta", "base_000") == 0
    report = json.loads((run / "fixed_points_base_000.json").read_text())
    assert report["num_fixed_points"] == k and report["extent"] > 0
    assert report["extent_thickness_ratio"] is None


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


def _drop_base_model_id(ck):
    manifest = json.loads(ck.read_text())
    del manifest["bases"][1]["model_id"]
    ck.write_text(json.dumps(manifest))


@pytest.mark.parametrize("corrupt", [_truncate_json, _drop_manifest_key,
                                     _shape_length_mismatch, _nonfinite_value,
                                     _drop_base_model_id])
def test_corrupt_meta_checkpoint_is_io_failure(pipeline, tmp_path, corrupt):
    path, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    corrupt(run / "meta.json")
    assert _run("ssl", "--config", str(path), "--out", str(run)) == 3


def _rewrite_checkpoint(prefix, edit):
    """Save checkpoint `prefix` again after `edit(tensors, manifest)`."""
    tensors, manifest = load_checkpoint(prefix)
    del manifest["tensors"]
    edit(tensors, manifest)
    save_checkpoint(prefix, tensors, manifest)


def _extra_base_entry(tensors, manifest):
    manifest["bases"].append(dict(manifest["bases"][-1], model_id="base_999"))


def _drop(*names):
    def edit(tensors, manifest):
        for name in names:
            del tensors[name]
    return edit


def _wider_embeddings(tensors, manifest):
    tensors["embeddings"] = np.pad(tensors["embeddings"], ((0, 0), (0, 1)))


def _wider_base_hidden_dim(tensors, manifest):
    manifest["hidden_dim"] += 1


_AVERAGE = ("average", "--ids", "base_000,base_001")


@pytest.mark.parametrize("fixture,checkpoint,edit,argv", [
    ("pipeline", "meta", _extra_base_entry, ("average", "--ids", "base_000,base_999")),
    ("pipeline", "meta", _extra_base_entry, ("analyze",)),
    ("pipeline", "meta", _drop("meta/w_h"), _AVERAGE),
    ("pipeline", "meta", _drop("vmap0/w0", "vmap0/b0"), _AVERAGE),
    ("pipeline", "meta", _wider_embeddings, _AVERAGE),
    ("residual_pipeline", "meta", _drop("vmap1/w1", "vmap1/b1"), _AVERAGE),
    ("pipeline", "base/base_000", _drop("w_h"), ("train-meta",)),
    ("pipeline", "base/base_001", _wider_base_hidden_dim, ("train-meta",)),
], ids=["extra_base_entry_average", "extra_base_entry_analyze", "meta_tensor_dropped",
        "state_map_dropped", "embedding_row_too_wide", "residual_block_map_dropped",
        "base_tensor_dropped", "base_hidden_dim_unlike_its_tensors"])
def test_checkpoint_unlike_its_manifest_is_io_error(request, tmp_path, capsys, fixture,
                                                     checkpoint, edit, argv):
    path, out = request.getfixturevalue(fixture)
    run = tmp_path / "run"
    shutil.copytree(out, run)
    _rewrite_checkpoint(run / checkpoint, edit)
    capsys.readouterr()
    assert _run(*argv, "--config", str(path), "--out", str(run)) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "Traceback" not in err
    assert "does not match its manifest" in err


def _assert_refused(argv, config, run, code, capsys):
    """`argv` on `run` exits `code` with its error line and no traceback, and
    leaves `run` byte-for-byte as it was."""
    before = {f: f.is_file() and f.read_bytes() for f in run.rglob("*")}
    capsys.readouterr()
    assert _run(*argv, "--config", str(config), "--out", str(run)) == code
    err = capsys.readouterr().err
    assert err.startswith({2: "config error: ", 3: "i/o error: "}[code]), err
    assert "Traceback" not in err
    assert {f: f.is_file() and f.read_bytes() for f in run.rglob("*")} == before


@pytest.fixture(scope="module")
def planeless_runs(tmp_path_factory):
    """Trained runs with no plane through the embeddings of the analysed task:
    one base model on that task, or a one-dimensional embedding space."""
    one_base = _mini_config()
    one_base["tasks"].append(dict(one_base["tasks"][0], name="valence2"))
    one_base["population"].append(dict(one_base["population"][0], task="valence2",
                                       count=1, task_group=1))
    one_base["analysis"]["landscape_task"] = one_base["ssl"]["task"] = "valence2"
    one_dim = _mini_config(meta={"hidden_dim": 8, "input_dim": 4, "embed_dim": 1})
    runs = {}
    for name, cfg in (("one_base", one_base), ("one_dim", one_dim)):
        root = tmp_path_factory.mktemp(name)
        path = _write_config(root, cfg)
        for stage in ("gen-data", "train-base", "train-meta"):
            assert _run(stage, "--config", str(path), "--out", str(root / "run")) == 0
        runs[name] = path, root / "run"
    return runs


@pytest.mark.parametrize("argv", [("analyze",), _SCORE_MAP], ids=["analyze", "score_map"])
@pytest.mark.parametrize("name", ["one_base", "one_dim"])
def test_no_plane_is_config_error_before_any_output(planeless_runs, tmp_path, capsys,
                                                    name, argv):
    path, out = planeless_runs[name]
    run = tmp_path / "run"
    shutil.copytree(out, run)
    _assert_refused(argv, path, run, 2, capsys)


def _base_info_without(key):
    def edit(tensors, manifest):
        del manifest["info"][key]
    return edit


def _no_base_info(tensors, manifest):
    del manifest["info"]


@pytest.mark.parametrize("edit", [_base_info_without("task"), _base_info_without("model_id"),
                                  _no_base_info], ids=["no_task", "no_model_id", "no_info"])
def test_base_info_without_model_id_or_task_is_io_error(pipeline, tmp_path, capsys, edit):
    path, out = pipeline
    run = tmp_path / "run"
    shutil.copytree(out, run)
    _rewrite_checkpoint(run / "base" / "base_001", edit)
    _assert_refused(("train-meta",), path, run, 3, capsys)
