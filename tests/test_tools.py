import ast
import dataclasses
import importlib.util
import shutil
import sys
from pathlib import Path

import numpy as np

from dynamo import cli, models
from dynamo.cli import build_parser, validate_config

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def _rundiff():
    return _tool("rundiff")


def test_rundiff_lists_every_file_that_is_not_identical(tmp_path):
    rundiff = _rundiff()
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "base").mkdir(parents=True)
        (root / "same.csv").write_text("1,2\n")
        (root / "base" / "x.bin").write_bytes(b"\x00\x01")
    (b / "base" / "x.bin").write_bytes(b"\x00\x02")
    (a / "left.json").write_text("{}")
    (b / "right.json").write_text("{}")
    assert rundiff.differing(a, b) == ["left.json (only in the first tree)",
                                       "right.json (only in the second tree)",
                                       str(Path("base", "x.bin"))]
    assert rundiff.differing(a, a) == []


def test_rundiff_lists_a_directory_on_one_side_only(tmp_path):
    # a staging directory left empty by a failed write is a difference
    rundiff = _rundiff()
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "base").mkdir(parents=True)
        (root / "base" / "x.bin").write_bytes(b"\x00")
    (b / ".staging-x").mkdir()
    assert rundiff.differing(a, b) == [".staging-x (only in the second tree)"]


def test_rundiff_reports_how_large_each_difference_is(tmp_path):
    rundiff = _rundiff()
    a, b = tmp_path / "a", tmp_path / "b"
    files = {
        "close.csv": ("# c=1\nu,v\n2.0,x\n-4.0,y\n", "# c=2\nu,v\n2.0,x\n-4.00002,y\n"),
        "small.csv": ("u\n1e-3\n", "u\n2e-3\n"),
        "text.csv": ("u,v\n1,x\n", "u,v\n1,z\n"),
        "rows.csv": ("u\n1\n", "u\n1\n2\n"),
        "empty.csv": ("u,v\n1,\n", "u,v\n1,3\n"),
        "nums.json": ('{"a": [1.0, 2.0], "b": {"c": 10.0}, "d": "s"}',
                      '{"a": [1.0, 2.0], "b": {"c": 10.5}, "d": "s"}'),
        "keys.json": ('{"a": 1.0}', '{"b": 1.0}'),
        # a key on one side only is named; the keys both sides have compare
        "meta.json": ('{"lambda": 1.0, "hidden_metric": "L2_squared", "n": [2, 3]}',
                      '{"lambda": 1.0, "n": [2, 3]}'),
        "moved.json": ('{"a": 1.0, "b": {"c": 2.0}}', '{"a": 1.5, "b": {}, "d": "s"}'),
    }
    for root, side in ((a, 0), (b, 1)):
        root.mkdir()
        for name, texts in files.items():
            (root / name).write_text(texts[side])
    assert rundiff.differing(a, b) == [
        "close.csv (relative 5e-06)", "empty.csv (non-numeric)",
        "keys.json (only in the first tree: /a; only in the second tree: /b)",
        "meta.json (only in the first tree: /hidden_metric)",
        "moved.json (only in the first tree: /b/c; only in the second tree: /d; relative 0.5)",
        "nums.json (relative 0.05)", "rows.csv (non-numeric)", "small.csv (relative 0.001)",
        "text.csv (non-numeric)"]


def test_rundiff_runs_the_recurrent_analyses_on_recurrent_workloads_only():
    rundiff = _rundiff()
    for name, workload in rundiff.WORKLOADS.items():
        argv = rundiff.stages(workload)
        assert argv[:3] == [("gen-data",), ("train-base",), ("train-meta",)]
        recurrent = name != "train-residual"
        assert (("analyze", "--svcca") in argv) == recurrent
        assert any(stage[0] == "fixed-points" for stage in argv) == recurrent


def test_rundiff_runs_every_command_on_the_recurrent_workloads():
    # a command that no stage names would escape the byte-identity check
    rundiff = _rundiff()
    subparsers = build_parser()._subparsers._group_actions[0].choices
    recurrent = [w for w in rundiff.WORKLOADS.values()
                 if all(p["cell_kind"] != "residual_mlp" for p in w.population)]
    assert recurrent
    assert {stage[0] for w in recurrent for stage in rundiff.stages(w)} == set(subparsers)
    for workload in rundiff.WORKLOADS.values():
        # `fixed-points --score-map` needs token valences on analysis.task
        cfg = validate_config(workload.config(1))
        task = next(t for t in cfg["tasks"] if t["name"] == cfg["analysis"]["task"])
        assert task["kind"] == "valence_sentiment", workload.name


def test_rundiff_reports_each_seed(tmp_path, monkeypatch, capsys):
    rundiff = _rundiff()
    trees = []
    for name in ("parent", "change"):
        (tmp_path / name / "src" / "dynamo").mkdir(parents=True)
        (tmp_path / name / "src" / "dynamo" / "cli.py").write_text("")
        trees.append(tmp_path / name)

    def fake_run(tree, config, out, argv):
        # the change's run differs from the parent's on seed 2 only
        out.mkdir()
        seed2 = config.parent.parent.name == "seed2"
        (out / "run.txt").write_text(str(tree.name == "change" and seed2))

    monkeypatch.setattr(rundiff, "run_tree", fake_run)
    work = tmp_path / "work"
    code = rundiff.main([*map(str, trees), "--seed", "1", "--seed", "2",
                         "--work", str(work)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-2:] == ["seed 1: 0 files differ",
                          f"seed 2: {len(rundiff.WORKLOADS)} files differ"]
    for name in rundiff.WORKLOADS:
        assert f"seed 1, {name}: 0 of 1 files differ" in lines
        assert f"seed 2, {name}: 1 of 1 files differ" in lines
        assert (work / "seed2" / name / "change" / "run.txt").is_file()
    capsys.readouterr()
    assert rundiff.main([*map(str, trees), "--work", str(tmp_path / "one")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "seed 1: 0 files differ"


def test_rundiff_summary_counts_each_trees_source_lines(tmp_path, monkeypatch, capsys):
    rundiff = _rundiff()
    trees = []
    for name, lines in (("parent", 3), ("change", 2)):
        src = tmp_path / name / "src" / "dynamo"
        src.mkdir(parents=True)
        (src / "cli.py").write_text("x = 1\n" * lines)
        (src / "models.py").write_text("y = 2\n")
        (src / "__init__.py").write_text("# not counted\n")
        trees.append(tmp_path / name)
    monkeypatch.setattr(rundiff, "run_tree", lambda tree, config, out, argv: out.mkdir())
    assert rundiff.main([*map(str, trees), "--work", str(tmp_path / "work")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [f"{trees[0]}: 4 lines in src/dynamo (without __init__.py)",
                          f"{trees[1]}: 3 lines in src/dynamo (without __init__.py)",
                          "seed 1: 0 files differ"]


def _tiny_workload(tool):
    """atlas-dynamics cut down to a few seconds of every stage."""
    gru = {"cell_kind": "gru", "hidden_dim": 4, "input_dim": 4, "task": "valence",
           "count": 2, "task_group": 0}
    return dataclasses.replace(
        tool.WORKLOADS["atlas-dynamics"], name="tiny", population=(gru,),
        num_sequences=60, base_training={"epochs": 1, "lr": 0.03, "batch_size": 8},
        meta={"cell_kind": "gru", "hidden_dim": 4, "input_dim": 4, "embed_dim": 2},
        meta_training={"max_steps": 3, "batch_size": 4, "lr": 0.003}, ssl_labeled=0.05,
        extra={"analysis": {"grid": 2, "svcca_sequences": 8},
               "ssl": {"steps": 2},
               "fixed_points": {"max_steps": 20, "candidates": 8, "score_grid": 2}})


def test_peakmem_prints_each_stage_peak_of_each_workload(monkeypatch, capsys):
    peakmem = _tool("peakmem")
    tiny = _tiny_workload(peakmem)
    monkeypatch.setattr(peakmem, "WORKLOADS", {"tiny": tiny})
    assert peakmem.main(["--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["| Stage | tiny |", "|---|---|"]
    rows = [line.strip("| ").split(" | ") for line in lines[2:]]
    assert [row[0] for row in rows] == [stage[0] for stage in peakmem.stages(tiny)]
    assert all(float(row[1]) > 0 for row in rows)


def _expand(ranges):
    """The line numbers of a traffic range list such as "3-7, 12"."""
    lines = []
    for part in ranges.split(", "):
        lo, _, hi = part.partition("-")
        lines += range(int(lo), int(hi or lo) + 1)
    return lines


def test_layers_times_two_copies_of_one_tree_and_finds_a_changed_kernel(tmp_path):
    # a tiny atlas run, both trees timed once; the second tree's vanilla-RNN
    # step is one ulp off, and only its layers may differ
    layers = _tool("layers")
    trees = []
    for name in ("a", "b"):
        shutil.copytree(ROOT / "src" / "dynamo", tmp_path / name / "src" / "dynamo",
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(layers.load_tree(tmp_path / name))
    assert trees[0].numgrad is not trees[1].numgrad
    step = trees[1].numgrad.CELLS["vanilla_rnn"]
    trees[1].numgrad.CELLS["vanilla_rnn"] = lambda *a: (np.nextafter(step(*a)[0], np.inf), ())
    cfg = {"seed": 5,
           "tasks": [{"name": "valence", "kind": "valence_sentiment", "vocab_size": 12,
                      "num_classes": 2, "t_min": 3, "t_max": 6, "noise_rate": 0.0,
                      "num_sequences": 120, "seed": 3}],
           "splits": {"base_train": 0.4, "meta_unlabeled": 0.4, "ssl_labeled": 0.05,
                      "seed": 2},
           "population": [{"task": "valence", "count": 2, "cell_kind": "gru",
                           "hidden_dim": 5, "input_dim": 4, "train_fraction": 1.0,
                           "task_group": 0}],
           "base_training": {"epochs": 1, "lr": 3e-3, "batch_size": 8},
           "meta": {"hidden_dim": 6, "input_dim": 4, "embed_dim": 2},
           "meta_training": {"max_steps": 5, "batch_size": 4, "lr": 3e-3},
           "analysis": {"grid": 2, "svcca_sequences": 5},
           "fixed_points": {"tol": 1e-3, "max_steps": 20, "candidates": 6, "score_grid": 2}}
    (tmp_path / "work").mkdir()
    found = layers.measure(layers.prepare(trees, cfg, tmp_path / "work", rows=(3, 5), calls=2),
                           rounds=1)
    kernels = [f"{cell}_{fn}[{n}]" for cell in ("gru", "rnn") for n in (3, 5)
               for fn in ("step", "step_vjp")]
    assert [layer.name for layer in found] == kernels + [
        "grid_accuracies", "descent[fixed-points]", "descent[score-map]"]
    assert [layer.name for layer in found if not layer.same] == kernels[4:]
    assert all(len(t) == 1 and t[0] > 0 for layer in found for t in layer.times)
    lines = layers.table(found)
    assert len(lines) == 1 + len(found)
    assert lines[1].startswith("gru_step[3] ") and lines[1].endswith("/1   same")
    assert lines[5].endswith("DIFFER")


def test_traffic_lists_the_lines_no_stage_runs(monkeypatch, capsys):
    traffic = _tool("traffic")
    monkeypatch.setattr(traffic, "WORKLOADS", {"tiny": _tiny_workload(traffic)})
    assert traffic.main(["--seed", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    module = out.index(next(line for line in out if line.startswith("models.py: ")))
    listed = {}
    for line in out[module + 1:]:
        if not line.startswith("  "):
            break
        name, _, ranges = line.strip().partition(": ")
        listed[name] = _expand(ranges)
    # no stage calls rollout: its whole body after the docstring is listed
    tree = ast.parse(Path(models.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    body = defs["rollout"].body[1:]
    assert listed["rollout"] == list(range(body[0].lineno, body[-1].end_lineno + 1))
    # every stage steps rollout_batch's recurrent loop
    loop = next(node for node in ast.walk(defs["rollout_batch"])
                if isinstance(node, ast.For) and ast.unparse(node.iter) == "range(T)")
    assert not set(listed.get("rollout_batch", ())) & set(range(loop.lineno,
                                                               loop.end_lineno + 1))


def test_traffic_lists_the_config_keys_and_options_no_workload_sets():
    traffic = _tool("traffic")
    workloads = traffic.WORKLOADS.values()
    lines = traffic.knob_report([w.config(1) for w in workloads],
                                [stage for w in workloads for stage in traffic.stages(w)])
    options = next(i for i, line in enumerate(lines) if line.startswith("CLI options: "))
    # each key no workload sets stays a key for a reason: lambda is the paper's
    # weight of the output loss and emulation fidelity's lever, analysis.task
    # the only way to analyse the second task of a two-task run, and
    # dedup_radius the scale a spread-relative radius will replace
    assert lines[:options] == ["config keys: 3 of 43 not set by any workload",
                               "  meta_training.lambda", "  analysis.task",
                               "  fixed_points.dedup_radius"]
    # every option is passed: the runners add --config and --out, and the
    # stages name the rest
    assert lines[options:] == ["CLI options: 0 of 18 not passed by any stage"]
    lines = traffic.knob_report([{"seed": 1, "population": [{"task": "a", "count": 1}]}],
                                [("ssl",)])
    assert "  population[].count" not in lines and "  population[].hidden_dim" in lines
    assert "  ssl --config" not in lines and "  analyze --svcca" in lines


def test_config_schema_keys():
    # a new key must be added here, as a new option must be added to
    # test_cli's parser pin
    keys = _tool("traffic").schema_keys(cli._CONFIG)
    assert keys == [
        "seed",
        *(f"tasks[].{k}" for k in ("name", "kind", "vocab_size", "num_classes", "t_min",
                                   "t_max", "noise_rate", "num_sequences", "seed")),
        *(f"splits.{k}" for k in ("base_train", "meta_unlabeled", "ssl_labeled", "seed")),
        *(f"population[].{k}" for k in ("task", "count", "cell_kind", "hidden_dim",
                                        "input_dim", "train_fraction", "task_group",
                                        "num_blocks")),
        *(f"base_training.{k}" for k in ("lr", "batch_size", "epochs")),
        *(f"meta.{k}" for k in ("cell_kind", "hidden_dim", "input_dim", "embed_dim")),
        *(f"meta_training.{k}" for k in ("lr", "batch_size", "max_steps", "lambda")),
        *(f"analysis.{k}" for k in ("grid", "svcca_sequences", "task")),
        *(f"ssl.{k}" for k in ("steps", "lr")),
        *(f"fixed_points.{k}" for k in ("tol", "dedup_radius", "max_steps", "candidates",
                                        "score_grid")),
    ]
    assert len(keys) == 43
