import configparser
import csv
import json
import os
import platform
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modeqaoa import baselines, bench, bo, shots, simulator, stage2
from modeqaoa.baselines import GdConfig

from modeqaoa.bench import (
    AGGREGATE_METRICS, EXPERIMENTS, METHODS, RECORD_KEYS, ExperimentConfig,
    _build_config, aggregate_rows, build_parser, config_from_ini, config_hash, config_to_ini, derive_seed,
    load_records, main, make_instance, records_to_jsonl, run_cell,
    run_experiment, run_method, summarize, write_outputs, write_plot_data,
)
from modeqaoa.graph import assign_weights, from_json, index_to_bits, random_regular, with_optimum
from modeqaoa.resources import pooled_savings
from modeqaoa.stage2 import AmplifyConfig, _draw
from modeqaoa.shots import AdaptiveConfig


SMALL = ExperimentConfig.for_experiment(
    "single", n_values=(4,), instances_per_point=2, t_max=12,
    methods=("map_bo", "exp_bo"), n_fix=200, n_final=500)


def test_config_grids():
    qubit = ExperimentConfig.for_experiment("qubit_sweep")
    assert qubit.n_values == (3, 4, 6, 8, 10, 12)
    assert qubit.p_values == (2,)
    # the defaults are the qubit_sweep preset, so the two configs sweep one grid
    default = ExperimentConfig()
    assert [getattr(default, name) for name in bench._AXES.values()] == \
        [getattr(qubit, name) for name in bench._AXES.values()]
    depth = ExperimentConfig.for_experiment("depth_sweep")
    assert depth.n_values == (10,)
    assert depth.p_values == (1, 2, 3, 4, 5, 6)
    noise = ExperimentConfig.for_experiment("noise_sweep")
    assert noise.noise_lambdas == (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)
    with pytest.raises(ValueError):
        ExperimentConfig.for_experiment("bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("nope",))


TWO_EACH = dict(n_values=(4, 6), p_values=(1, 3), noise_lambdas=(0.0, 0.01))
# per experiment: its preset sweep points, then its points with TWO_EACH, where
# only the swept axis takes both values
SWEEP_POINTS = {
    "qubit_sweep": ([(n, 2, 0.0) for n in (3, 4, 6, 8, 10, 12)],
                    [(4, 1, 0.0), (6, 1, 0.0)]),
    "depth_sweep": ([(10, p, 0.0) for p in range(1, 7)],
                    [(4, 1, 0.0), (4, 3, 0.0)]),
    "noise_sweep": ([(10, 2, lam) for lam in (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)],
                    [(4, 1, 0.0), (4, 1, 0.01)]),
    "single": ([(6, 2, 0.0)], [(4, 1, 0.0)]),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sweep_points(experiment):
    preset, two_each = SWEEP_POINTS[experiment]
    assert ExperimentConfig.for_experiment(experiment).sweep_points() == preset
    cfg = ExperimentConfig.for_experiment(experiment, **TWO_EACH)
    assert cfg.sweep_points() == two_each


# per experiment: the keys of its TWO_EACH points, and the key of
# (n, p, lambda) = (8, 5, 0.004)
SWEEP_KEYS = {
    "qubit_sweep": (["n=4", "n=6"], "n=8"),
    "depth_sweep": (["p=1", "p=3"], "p=5"),
    "noise_sweep": (["lambda=0.0", "lambda=0.01"], "lambda=0.004"),
    "single": (["single"], "single"),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_sweep_keys(experiment):
    keys, key_of_point = SWEEP_KEYS[experiment]
    cfg = ExperimentConfig.for_experiment(experiment, **TWO_EACH)
    assert [cfg.sweep_key(*point) for point in cfg.sweep_points()] == keys
    assert cfg.sweep_key(8, 5, 0.004) == key_of_point


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig.for_experiment("single")
    b = ExperimentConfig.for_experiment("single")
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    c = ExperimentConfig.for_experiment("single", t_max=7)
    assert config_hash(a) != config_hash(c)


# every field of every section away from its default: int, float, str, bool
# and tuples of int, float and str
EVERY_FIELD_SET = ExperimentConfig(
    experiment="depth_sweep", n_values=(5, 7), p_values=(1, 3), noise_lambdas=(0.0, 0.25),
    instances_per_point=3, weight_scheme="uniform", methods=("exp_gd", "map_bo"),
    threshold=0.75, t_max=44, n_fix=321, n_final=777, stage2_enabled=True,
    adaptive=AdaptiveConfig(pilot_shots=50, max_shots=800, tau_conf=0.8, tau_var=0.03,
                            bootstrap_resamples=150),
    gd=GdConfig(iterations=9, learning_rate=0.1, exact_gradient=True),
    amplify_cfg=AmplifyConfig(steps=20, shots_per_shift=64, learning_rate=0.2,
                              reeval_period=4, use_exact=True))


def test_config_ini_roundtrip():
    cfg = EVERY_FIELD_SET
    default = ExperimentConfig()
    sections = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            sections.append((value, getattr(default, f.name)))
        else:
            assert value != getattr(default, f.name), f.name
    for obj, base in sections:
        for f in fields(obj):
            assert getattr(obj, f.name) != getattr(base, f.name), f.name
    text = config_to_ini(cfg)
    back = config_from_ini(text)
    assert back == cfg
    assert config_to_ini(back) == text  # stable fixed point


def test_config_ini_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_ini("[experiment]\nbogus_key = 1\n")
    with pytest.raises(ValueError):
        config_from_ini("[adaptive]\nbogus = 2\n")


@pytest.mark.parametrize("name", ["adaptive", "gd", "amplify_cfg"])
def test_config_ini_refuses_nested_names_in_experiment(tmp_path, capsys, monkeypatch, name):
    # these fields hold a section; [experiment] used to parse `adaptive = 3` into
    # adaptive=('3',), and the run died inside its first cell
    with pytest.raises(ValueError, match=f"unknown key '{name}' in section \\[experiment\\]"):
        config_from_ini(f"[experiment]\n{name} = 3\n")
    ini = tmp_path / "nested.ini"
    ini.write_text(f"[experiment]\n{name} = 3\n")
    cells = []
    monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
    out = tmp_path / "out"
    rc = main(["bench", "--seed", "1", "--out", str(out), "--experiment", "single",
               "--n-values", "4", "--instances", "1", "--methods", "map_bo",
               "--t-max", "3", "--config", str(ini)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: unknown key '{name}'")
    assert cells == []
    assert not out.exists()


def test_config_ini_booleans_are_strict():
    for word, value in (("true", True), ("Yes", True), ("on", True), ("1", True),
                        ("False", False), ("no", False), ("OFF", False), ("0", False)):
        cfg = config_from_ini(f"[experiment]\nstage2_enabled = {word}\n")
        assert cfg.stage2_enabled is value
    for word in ("ture", "2", "enabled", ""):
        with pytest.raises(ValueError, match="Not a boolean"):
            config_from_ini(f"[experiment]\nstage2_enabled = {word}\n")
        with pytest.raises(ValueError, match="Not a boolean"):
            config_from_ini(f"[gd]\nexact_gradient = {word}\n")
    for value in (True, False):
        cfg = ExperimentConfig(stage2_enabled=value, gd=GdConfig(exact_gradient=value))
        assert config_from_ini(config_to_ini(cfg)) == cfg


@pytest.mark.parametrize("lambdas", [(-0.3,), (0.0, 1.5), (float("nan"),)])
def test_config_rejects_noise_outside_unit_interval(lambdas):
    with pytest.raises(ValueError, match="noise_lambdas"):
        ExperimentConfig(noise_lambdas=lambdas)
    ExperimentConfig(noise_lambdas=(0.0, 1.0))


def test_cli_bench_negative_lambda_exits_2(tmp_path, capsys):
    out = tmp_path / "neg"
    rc = main(["bench", "--seed", "2", "--out", str(out), "--experiment", "noise_sweep",
               "--n-values", "4", "--lambdas", "-0.3", "--instances", "1",
               "--methods", "exp_bo", "--t-max", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: noise_lambdas")
    assert not out.exists()


BAD_GRIDS = {
    "p_values": ["--experiment", "depth_sweep", "--n-values", "4", "--p-values", "1", "0"],
    "n_values": ["--experiment", "qubit_sweep", "--n-values", "4", "1"],
    "n_values above the cap": ["--experiment", "qubit_sweep", "--n-values", "6", "25"],
    # a repeated value used to run the same cells twice
    "n_values repeated": ["--experiment", "qubit_sweep", "--n-values", "4", "4"],
    "p_values repeated": ["--experiment", "depth_sweep", "--n-values", "4",
                          "--p-values", "1", "2", "1"],
    "noise_lambdas repeated": ["--experiment", "noise_sweep", "--n-values", "4",
                               "--lambdas", "0", "0.0"],
    "methods repeated": ["--experiment", "single", "--n-values", "4",
                         "--methods", "exp_bo", "exp_bo"],
    # the whole map_bo cell used to run before the exp_bo cell failed on these
    **{field: ["--experiment", "single", "--n-values", "6", "--methods", "map_bo", "exp_bo",
               "--" + field.replace("_", "-"), "0"] for field in ("t_max", "n_fix", "n_final")},
}


@pytest.mark.parametrize("case", list(BAD_GRIDS))
def test_cli_bench_rejects_bad_grid_before_any_cell(tmp_path, capsys, monkeypatch, case):
    # a bad value used to fail only when its cell came up, after the earlier
    # cells had run, and with nothing written
    cells = []
    real_run_cell = bench.run_cell
    monkeypatch.setattr(bench, "run_cell",
                        lambda *a, **k: cells.append(a) or real_run_cell(*a, **k))
    out = tmp_path / "out"
    rc = main(["bench", "--seed", "1", "--out", str(out), "--instances", "1",
               "--methods", "exp_bo", "--t-max", "3"] + BAD_GRIDS[case])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + case.split()[0])
    assert cells == []
    assert not out.exists()


# Adam's one setting; its moments are constants, and an INI that sets one is
# refused as an unknown key (test_cli_refuses_removed_adam_keys)
BAD_ADAM = {
    "learning_rate": "[stage2]\nlearning_rate = -0.05\n",
    "learning_rate_nan": "[gd]\nlearning_rate = nan\n",
    # inf used to pass the checks and fail exp_gd's second iteration, after
    # the first iteration's shots were charged
    "gd_learning_rate_inf": "[gd]\nlearning_rate = inf\n",
    "stage2_learning_rate_inf": "[stage2]\nlearning_rate = inf\n",
}


@pytest.mark.parametrize("case", list(BAD_ADAM))
def test_cli_bench_rejects_bad_adam_settings_before_any_cell(tmp_path, capsys, monkeypatch,
                                                              case):
    # stage 2 used to run on these until Adam failed or descended, after the
    # search cells had run
    ini = tmp_path / "adam.ini"
    ini.write_text(BAD_ADAM[case])
    cells = []
    real_run_cell = bench.run_cell
    monkeypatch.setattr(bench, "run_cell",
                        lambda *a, **k: cells.append(a) or real_run_cell(*a, **k))
    out = tmp_path / "out"
    rc = main(["bench", "--seed", "1", "--out", str(out), "--instances", "1",
               "--experiment", "single", "--n-values", "4", "--methods", "exp_bo",
               "--t-max", "3", "--stage2", "--config", str(ini)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: learning_rate must be >= 0")
    assert cells == []
    assert not out.exists()


# keys that once set the graph degree and the batch growth; every instance
# is 3-regular and every batch doubles, so an INI that sets one, by hand or
# in an older config_resolved.ini, is refused as an unknown key
@pytest.mark.parametrize("section,key,value,cls", [
    ("experiment", "degree", "3", ExperimentConfig),
    ("adaptive", "growth", "2.0", AdaptiveConfig)], ids=["degree", "growth"])
def test_cli_refuses_degree_and_growth(tmp_path, capsys, monkeypatch, section, key, value,
                                       cls):
    with pytest.raises(TypeError, match=key):
        cls(**{key: 3})
    ini = tmp_path / "removed.ini"
    ini.write_text(f"[{section}]\n{key} = {value}\n")
    cells = []
    monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
    out = tmp_path / "out"
    rc = main(["bench", "--seed", "1", "--out", str(out), "--instances", "1",
               "--experiment", "single", "--n-values", "4", "--methods", "map_bo",
               "--t-max", "3", "--config", str(ini)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: unknown key {key!r} in section [{section}]\n"
    assert cells == []
    assert not out.exists()


def test_cli_report_refuses_ini_with_degree_and_growth(tmp_path, capsys):
    # the config_resolved.ini of a default run made while both keys were
    # settings; report refuses it on the first and writes nothing
    old = tmp_path / "old"
    old.mkdir()
    (old / "config_resolved.ini").write_text(config_to_ini(ExperimentConfig()).replace(
        "instances_per_point = 10\n", "instances_per_point = 10\ndegree = 3\n").replace(
        "pilot_shots = 100\n", "pilot_shots = 100\ngrowth = 2.0\n"))
    (old / "records.jsonl").write_text("")
    assert main(["report", "--indir", str(old)]) == 2
    assert capsys.readouterr().err == "error: unknown key 'degree' in section [experiment]\n"
    assert sorted(os.listdir(old)) == ["config_resolved.ini", "records.jsonl"]


def test_cli_gen_refuses_degree(tmp_path, capsys):
    # gen writes 3-regular instances only; --degree is no longer a flag
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "6", "--count", "1", "--seed", "1", "--out", str(tmp_path),
              "--degree", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree 3" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("section,key", [(section, key) for section in ("gd", "stage2")
                                         for key in ("adam_beta1", "adam_beta2", "adam_eps")])
def test_cli_refuses_removed_adam_keys(tmp_path, capsys, monkeypatch, section, key):
    # Adam's moments are constants of bo; a key that once set one is unknown,
    # in an INI written by hand or in an older config_resolved.ini
    ini = tmp_path / "adam.ini"
    ini.write_text(f"[{section}]\n{key} = 0.5\n")
    cells = []
    monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
    out = tmp_path / "out"
    rc = main(["bench", "--seed", "1", "--out", str(out), "--instances", "1",
               "--experiment", "single", "--n-values", "4", "--methods", "exp_gd",
               "--t-max", "3", "--stage2", "--config", str(ini)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: unknown key {key!r} in section [{section}]\n"
    assert cells == []
    assert not out.exists()
    old = tmp_path / "old"
    old.mkdir()
    (old / "config_resolved.ini").write_text(config_to_ini(ExperimentConfig()).replace(
        f"[{section}]\n", f"[{section}]\n{key} = 0.5\n"))
    (old / "records.jsonl").write_text("")
    assert main(["report", "--indir", str(old)]) == 2
    assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err
    assert sorted(os.listdir(old)) == ["config_resolved.ini", "records.jsonl"]


# INI blocks the parser refuses, each with its error; [tpe] and [stagnation]
# held the search's settings, now constants of bo, and an older
# config_resolved.ini still carries them
REFUSED_BLOCKS = {
    "misspelt": ("[stagnaton]\npatience = 3\n", "unknown section [stagnaton]"),
    "tpe": ("[tpe]\nstartup_trials = 10\ngood_fraction = 0.25\n"
            "candidates_per_suggest = 24\nbandwidth_floor = 0.05\n", "unknown section [tpe]"),
    "stagnation": ("[stagnation]\npatience = 30\nmin_delta = 1e-09\n",
                   "unknown section [stagnation]"),
    # configparser copies [DEFAULT] keys into every section, so t_max would
    # apply once an [experiment] section exists and be ignored without one
    "default": ("[DEFAULT]\nt_max = 5\n", "unknown key 't_max' in section [DEFAULT]"),
}


@pytest.mark.parametrize("case", list(REFUSED_BLOCKS))
def test_cli_refuses_unknown_sections_and_default_keys(tmp_path, capsys, monkeypatch, case):
    # these used to be skipped without a word, and the run went on with the defaults
    block, message = REFUSED_BLOCKS[case]
    ini = tmp_path / "refused.ini"
    ini.write_text(block)
    cells = []
    monkeypatch.setattr(bench, "run_cell", lambda *a, **k: cells.append(a))
    out = tmp_path / "out"
    rc = main(["bench", "--seed", "1", "--out", str(out), "--instances", "1",
               "--experiment", "single", "--n-values", "4", "--methods", "map_bo",
               "--t-max", "3", "--config", str(ini)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert cells == []
    assert not out.exists()
    old = tmp_path / "old"
    old.mkdir()
    (old / "config_resolved.ini").write_text(config_to_ini(ExperimentConfig()).replace(
        "[gd]\n", f"{block}\n[gd]\n"))
    (old / "records.jsonl").write_text("")
    assert main(["report", "--indir", str(old)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(os.listdir(old)) == ["config_resolved.ini", "records.jsonl"]


def test_config_rejects_bad_grid_values():
    for kwargs in (dict(n_values=(1,)), dict(n_values=(4, simulator.MAX_QUBITS + 1)),
                   dict(p_values=(0,)), dict(p_values=(2, -1)),
                   dict(t_max=0), dict(n_fix=0), dict(n_final=-1),
                   dict(n_values=(4, 6, 4)), dict(p_values=(2, 2)),
                   dict(noise_lambdas=(0.0, 0.01, 0.0)), dict(methods=("exp_bo", "exp_bo")),
                   dict(weight_scheme="bogus")):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ExperimentConfig(**kwargs)
    ExperimentConfig(n_values=(2, simulator.MAX_QUBITS), p_values=(1,))


def test_cli_refuses_gd_shots_per_eval(tmp_path, capsys, monkeypatch):
    # exp_gd spends n_fix shots per evaluation; the [gd] key that once named a
    # second budget, and was ignored, is now an unknown key, in an INI written
    # by hand or in an older config_resolved.ini
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0],
                                                  [2, 3, 1.0], [0, 3, 1.0]]}))
    ini = tmp_path / "gd.ini"
    ini.write_text("[gd]\niterations = 2\n")
    argv = ["run", "--instance", str(inst), "--method", "exp_gd", "--seed", "1",
            "--n-fix", "150", "--n-final", "200", "--config", str(ini)]
    assert main(argv) == 0
    # 2 iterations x (1 + 2 * 2p) evaluations of n_fix = 150 shots at p = 2
    assert json.loads(capsys.readouterr().out)["ledger"]["optimization_shots"] == 2 * 9 * 150
    ini.write_text("[gd]\niterations = 2\nshots_per_eval = 50\n")
    runs = []
    monkeypatch.setattr(bench, "run_method", lambda *a, **k: runs.append(a))
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unknown key 'shots_per_eval' in section [gd]\n"
    assert runs == []
    old = tmp_path / "old"
    old.mkdir()
    (old / "config_resolved.ini").write_text(config_to_ini(ExperimentConfig()).replace(
        "exact_gradient = False\n", "exact_gradient = False\nshots_per_eval = 1000\n"))
    (old / "records.jsonl").write_text("")
    assert main(["report", "--indir", str(old)]) == 2
    assert "unknown key 'shots_per_eval'" in capsys.readouterr().err
    assert sorted(os.listdir(old)) == ["config_resolved.ini", "records.jsonl"]


def test_derive_seed_stable():
    a = derive_seed(123, (6, 2, 0.0), 0, "instance")
    b = derive_seed(123, (6, 2, 0.0), 0, "instance")
    assert a == b
    assert 0 <= a < 2**63
    assert derive_seed(123, (6, 2, 0.0), 1, "instance") != a
    assert derive_seed(124, (6, 2, 0.0), 0, "instance") != a


def test_make_instance_deterministic():
    a = make_instance(SMALL, 9, 4, 2, 0.0, 0)
    b = make_instance(SMALL, 9, 4, 2, 0.0, 0)
    assert a.edges == b.edges
    assert a.optimum is not None


def test_run_cell_record_shape():
    record, result, trace = run_cell(SMALL, 5, 4, 2, 0.0, 0, "map_bo")
    assert list(record) == RECORD_KEYS
    assert record["method"] == "map_bo"
    assert record["total_shots"] == result.ledger.total_shots
    assert record["trials"] == len(result.trials)
    assert trace is None
    assert 0.0 <= record["final_mode_accuracy"] <= 1.0
    with pytest.raises(ValueError):
        run_cell(SMALL, 5, 4, 2, 0.0, 0, "bogus")


@given(st.integers(0, 2 ** 31), st.sampled_from([0.0, 0.01]))
@settings(max_examples=6, deadline=None)
def test_ledger_phases_sum_to_drawn_shots(seed, lam):
    # every shot sampled is charged to exactly one phase: the search, the
    # final evaluation (bo.finish_run) or stage 2; exp_gd's gradient draws
    # indices with sample_halves rather than a histogram with sample, and
    # every stage-2 read of its one bin is a binomial draw in _draw
    inst = with_optimum(assign_weights(random_regular(4, 3, seed=seed % 7), "uniform",
                                       seed=seed % 5))
    cfg = ExperimentConfig.for_experiment(
        "single", n_values=(4,), t_max=11, n_fix=120, n_final=300,
        stage2_enabled=True, amplify_cfg=AmplifyConfig(steps=4, shots_per_shift=50))
    for method in METHODS:
        drawn = {"optimization": 0, "final_eval": 0, "stage2": 0}
        with pytest.MonkeyPatch.context() as mp:
            for module, phase in ((shots, "optimization"), (baselines, "optimization"),
                                  (bo, "final_eval")):
                def counted(dist, n_shots, sample_seed, phase=phase):
                    drawn[phase] += n_shots
                    return simulator.sample(dist, n_shots, sample_seed)
                mp.setattr(module, "sample", counted)

            def counted_halves(halves, n_shots, noise, rng):
                drawn["optimization"] += sum(n_shots)
                return simulator.sample_halves(halves, n_shots, noise, rng)
            mp.setattr(baselines, "sample_halves", counted_halves)

            def counted_draw(p, n_shots, read_seed):
                drawn["stage2"] += 0 if n_shots is None else n_shots
                return _draw(p, n_shots, read_seed)
            mp.setattr(stage2, "_draw", counted_draw)
            result, _ = run_method(cfg, inst, 2, lam, method, seed, seed + 1)
        ledger = result.ledger
        assert ledger.optimization_shots == drawn["optimization"] > 0
        assert ledger.final_eval_shots == drawn["final_eval"] == cfg.n_final
        assert ledger.stage2_shots == drawn["stage2"]
        assert (ledger.stage2_shots > 0) == (method == "map_bo")
        assert ledger.total_shots == ledger.to_dict()["total_shots"] == sum(drawn.values())


def test_run_cell_stage2_trace():
    cfg = ExperimentConfig.for_experiment(
        "single", n_values=(4,), instances_per_point=1, t_max=11,
        methods=("map_bo",), n_final=400, stage2_enabled=True)
    record, result, trace = run_cell(cfg, 5, 4, 2, 0.0, 0, "map_bo")
    assert trace is not None
    assert len(trace) >= 2
    assert result.ledger.stage2_shots > 0
    assert record["total_shots"] == result.ledger.total_shots


def test_run_experiment_order_and_jsonl(tmp_path):
    records, traces = run_experiment(SMALL, master_seed=3)
    assert len(records) == 2 * 2  # 2 instances x 2 methods
    assert [r["method"] for r in records] == ["map_bo", "exp_bo"] * 2
    assert traces == []
    text = records_to_jsonl(records)
    lines = text.strip().split("\n")
    assert len(lines) == 4
    parsed = [json.loads(line) for line in lines]
    assert all(list(p) == RECORD_KEYS for p in parsed)


def test_aggregate_rows_mean_std():
    records = [
        {"method": "map_bo", "n": 4, "p": 2, "lambda": 0.0, **{m: v for m, v in
         zip(AGGREGATE_METRICS, [1.0, 0.9, 1.0, 100, 80, 20, 50, 5, 40.0, 3.0])}},
        {"method": "map_bo", "n": 4, "p": 2, "lambda": 0.0, **{m: v for m, v in
         zip(AGGREGATE_METRICS, [0.5, 0.8, 0.9, 200, 150, 50, None, 7, 60.0, 5.0])}},
    ]
    rows = aggregate_rows(records, SMALL)
    by_metric = {r["metric"]: r for r in rows}
    acc = by_metric["final_mode_accuracy"]
    assert acc["mean"] == pytest.approx(0.75)
    assert acc["std"] == pytest.approx(np.std([1.0, 0.5]))  # population std
    assert acc["count"] == 2
    thr = by_metric["shots_to_threshold"]
    assert thr["mean"] == 50.0 and thr["count"] == 1


def test_write_outputs_artifacts(tmp_path):
    records, traces = run_experiment(SMALL, master_seed=3)
    out = tmp_path / "outputs"
    write_outputs(records, traces, SMALL, str(out), master_seed=3, elapsed=1.0)
    assert (out / "records.jsonl").exists()
    assert (out / "aggregates.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "config_resolved.ini").exists()
    assert (out / "meta.json").exists()
    assert (out / "plots" / "threshold_shots.csv").exists()
    assert (out / "plots" / "pareto.csv").exists()
    with open(out / "plots" / "pareto.csv") as fh:
        header = fh.readline().strip()
    assert header == "method,n,total_shots,final_mode_accuracy"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["master_seed"] == 3
    assert "elapsed_seconds" in meta
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    assert meta["platform"] == platform.platform()
    loaded = load_records(str(out / "records.jsonl"))
    assert loaded == [json.loads(json.dumps({k: r[k] for k in RECORD_KEYS}))
                      for r in records]


def test_summary_savings_and_band(tmp_path):
    records, _ = run_experiment(SMALL, master_seed=3)
    summary = summarize(records, SMALL)
    assert summary["experiment"] == "single"
    entry = summary["sweep_points"][0]
    assert "avg_point_shots" in entry
    assert isinstance(entry["avg_point_shots_in_guard_band"], bool)
    assert isinstance(entry["avg_point_shots_in_typical_band"], bool)
    assert entry["s_q"] > 0
    assert entry["s_cl"] > 0
    # S_q must equal the ratio of summed optimization shots
    shots = {m: sum(r["optimization_shots"] for r in records if r["method"] == m)
             for m in ("map_bo", "exp_bo")}
    assert entry["s_q"] == pytest.approx(shots["exp_bo"] / shots["map_bo"])


def test_summary_classical_saving_counts_each_points_edges():
    # K3 (n <= degree), K5 (n * degree odd) and a 3-regular graph: S_cl takes
    # each point's edge count from the graph its instances were built on
    cfg = ExperimentConfig.for_experiment(
        "qubit_sweep", n_values=(3, 5, 6), instances_per_point=1, t_max=11,
        methods=("map_bo", "exp_bo"), n_fix=200, n_final=300)
    records, _ = run_experiment(cfg, master_seed=5)
    points = summarize(records, cfg)["sweep_points"]
    assert [p["n"] for p in points] == [3, 5, 6]
    for point, edges in zip(points, (3, 10, 9)):
        n = point["n"]
        num_edges = make_instance(cfg, 5, n, 2, 0.0, 0).num_edges
        assert num_edges == edges
        runs = {r["method"]: r for r in records if r["n"] == n}
        mapped = runs["map_bo"]
        _, want = pooled_savings(
            runs["exp_bo"]["optimization_shots"], mapped["optimization_shots"],
            mapped["trials"], round(mapped["avg_distinct"] * mapped["trials"]) / mapped["trials"],
            num_edges, cfg.adaptive.bootstrap_resamples)
        assert point["s_cl"] == want


def test_summary_guard_band_follows_adaptive_config():
    # the band is the adaptive controller's [pilot_shots, max_shots]
    cfg = replace(SMALL, adaptive=AdaptiveConfig(pilot_shots=200, max_shots=2000))
    for avg, inside in ((1500.0, True), (150.0, False), (200.0, True), (2000.5, False)):
        record = {"n": 4, "p": 2, "lambda": 0.0, "method": "map_bo", "avg_point_shots": avg}
        entry = summarize([record], cfg)["sweep_points"][0]
        assert entry["avg_point_shots_in_guard_band"] is inside, avg


def test_noise_sweep_plot_files(tmp_path):
    cfg = ExperimentConfig.for_experiment(
        "noise_sweep", noise_lambdas=(0.0, 0.01), n_values=(4,),
        instances_per_point=1, t_max=11, methods=("map_bo", "exp_bo"),
        n_fix=150, n_final=300)
    records, _ = run_experiment(cfg, master_seed=1)
    plot_dir = tmp_path / "plots"
    write_plot_data(records, cfg, str(plot_dir))
    assert (plot_dir / "noise_panels.csv").exists()
    assert (plot_dir / "noise_pareto.csv").exists()
    with open(plot_dir / "noise_panels.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["lambda"] for r in rows} == {"0.0", "0.01"}


def test_cli_gen_run_roundtrip(tmp_path, capsys):
    out = tmp_path / "instances"
    rc = main(["gen", "--n", "4", "--count", "2", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    files = sorted(os.listdir(out))
    assert files == ["instance_n4_0.json", "instance_n4_1.json"]
    data = json.loads((out / files[0]).read_text())
    assert data["n"] == 4
    capsys.readouterr()

    rc = main(["run", "--instance", str(out / files[0]), "--method", "map_bo",
               "--depth", "1", "--seed", "5", "--t-max", "11"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "best_bitstring" in payload
    assert payload["metrics"]["final_mode_accuracy"] >= 0.0


def test_cli_run_json_writes_indices_as_bitstrings(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 6, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0],
                                                  [3, 4, 1.0], [4, 5, 1.0], [0, 5, 1.0]]}))
    args = ["--depth", "1", "--seed", "5", "--t-max", "11", "--n-final", "300"]
    assert main(["run", "--instance", str(inst), "--method", "exp_bo", *args]) == 0
    payload = json.loads(capsys.readouterr().out)
    result, _ = run_method(ExperimentConfig(t_max=11, n_final=300),
                           with_optimum(from_json(inst.read_text())), 1, 0.0, "exp_bo",
                           5, derive_seed(5, "stage2"))
    assert payload["best_bitstring"] == index_to_bits(result.best_index, 6)
    assert payload["final_eval"]["mode"] == index_to_bits(result.final_eval.mode, 6)
    assert payload["best_objective"] == result.best_objective


def test_cli_run_negative_noise_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0],
                                                  [2, 3, 1.0], [0, 3, 1.0]]}))
    rc = main(["run", "--instance", str(inst), "--method", "map_bo", "--seed", "1",
               "--t-max", "2", "--noise", "-0.5"])
    assert rc == 2
    assert "lambda_per_gate must lie in [0, 1]" in capsys.readouterr().err


def test_cli_run_stage2_metrics_count_stage2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0],
                                                  [2, 3, 1.0], [0, 3, 1.0]]}))
    ini = tmp_path / "stage2.ini"
    ini.write_text("[experiment]\nstage2_enabled = true\n")
    base = ["run", "--instance", str(inst), "--method", "map_bo", "--depth", "1",
            "--seed", "5", "--t-max", "11", "--n-final", "300"]
    for extra in (["--stage2"], ["--config", str(ini)]):
        assert main(base + extra) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"]["stage2_shots"] > 0
        assert payload["metrics"]["total_shots"] == payload["ledger"]["total_shots"]
        assert len(payload["stage2_trace"]) >= 2


@pytest.mark.parametrize("edges", [[], [[0, 1, 0.0], [1, 2, 0.0]]])
@pytest.mark.parametrize("method", ["map_bo", "exp_bo", "exp_gd"])
def test_cli_run_refuses_zero_total_weight(tmp_path, capsys, monkeypatch, edges, method):
    # every method divides by the total weight somewhere; each refuses the
    # instance before it evaluates a circuit, so run exits 2 having built none
    built = []
    real = simulator.outcome_distribution
    for module in (bo, baselines, shots):
        monkeypatch.setattr(module, "outcome_distribution",
                            lambda *args: built.append(args) or real(*args))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 4, "edges": edges}))
    rc = main(["run", "--instance", str(inst), "--method", method, "--seed", "1",
               "--t-max", "20"])
    assert rc == 2
    assert "total weight must be positive" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("text", ['{"n": 4}', '{"n": "4", "edges": [[0, 1, 1.0]]}',
                                  "[1, 2]", '{"n": 4, "edges": [5]}'])
def test_cli_run_malformed_instance_exits_2(tmp_path, capsys, text):
    inst = tmp_path / "bad.json"
    inst.write_text(text)
    rc = main(["run", "--instance", str(inst), "--method", "map_bo", "--seed", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_bench_and_report(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = main(["bench", "--seed", "2", "--out", str(out), "--experiment",
               "single", "--n-values", "4", "--instances", "1",
               "--methods", "map_bo", "exp_bo", "--t-max", "11",
               "--n-fix", "150", "--n-final", "300"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["report", "--indir", str(out), "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert (tmp_path / "rep" / "aggregates.csv").exists()
    with open(out / "aggregates.csv") as a, open(tmp_path / "rep" / "aggregates.csv") as b:
        assert a.read() == b.read()


def test_cli_report_warns_on_other_numpy(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--seed", "2", "--out", str(out), "--experiment",
                 "single", "--n-values", "4", "--instances", "1",
                 "--methods", "exp_bo", "--t-max", "11", "--n-fix", "150",
                 "--n-final", "300"]) == 0
    capsys.readouterr()
    assert main(["report", "--indir", str(out)]) == 0
    assert "warning" not in capsys.readouterr().err
    meta = json.loads((out / "meta.json").read_text())
    (out / "meta.json").write_text(json.dumps({**meta, "numpy": "1.0.0"}))
    assert main(["report", "--indir", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning:") and "numpy 1.0.0" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", [["--lambdas", "0.5"], ["--n-values", "10"],
                                  ["--p-values", "3"], ["--instances", "2"],
                                  ["--methods", "exp_bo"], ["--weights", "uniform"],
                                  ["--experiment", "noise_sweep"]])
def test_cli_run_rejects_grid_flags(tmp_path, capsys, flag):
    # run reads noise and depth from --noise and --depth; a sweep-grid flag
    # would be silently ignored, so argparse refuses it
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1.0]]}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--instance", str(inst), "--method", "exp_bo", "--seed", "1"]
             + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_run_config_warns_on_grid_keys(tmp_path, capsys):
    # the grid keys of an INI [experiment] section shape only a bench sweep;
    # run names them on stderr and prints the same JSON as without them
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0],
                                                  [2, 3, 1.0], [0, 3, 1.0]]}))
    plain, grid = tmp_path / "plain.ini", tmp_path / "grid.ini"
    plain.write_text("[experiment]\nt_max = 11\n")
    grid.write_text("[experiment]\nnoise_lambdas = 0.5\nt_max = 11\nn_values = 10\n")
    base = ["run", "--instance", str(inst), "--method", "exp_bo", "--seed", "1",
            "--n-final", "300", "--config"]
    assert main(base + [str(plain)]) == 0
    want = capsys.readouterr()
    assert want.err == ""
    assert main(base + [str(grid)]) == 0
    got = capsys.readouterr()
    assert got.out == want.out
    assert got.err.startswith("warning:") and len(got.err.splitlines()) == 1
    assert "noise_lambdas, n_values" in got.err and "--noise" in got.err
    assert "t_max" not in got.err
    # a bench config_resolved.ini spells out every key and still runs
    out = tmp_path / "bench"
    assert main(["bench", "--seed", "2", "--out", str(out), "--experiment", "single",
                 "--n-values", "4", "--instances", "1", "--methods", "exp_bo",
                 "--t-max", "11", "--n-fix", "150", "--n-final", "300"]) == 0
    capsys.readouterr()
    assert main(base + [str(out / "config_resolved.ini")]) == 0
    err = capsys.readouterr().err
    assert "experiment, n_values, p_values, noise_lambdas, instances_per_point, " \
           "weight_scheme, methods" in err


def test_bench_config_warns_when_experiment_replaces_ini_grid(tmp_path, capsys):
    # --experiment naming another sweep than the INI takes that sweep's preset
    # grid; the INI grid keys it drops are named on stderr, the others kept
    ini = tmp_path / "qubit.ini"
    ini.write_text("[experiment]\nexperiment = qubit_sweep\nn_values = 4 6\n"
                   "instances_per_point = 2\nt_max = 11\n")
    base = ["bench", "--seed", "1", "--out", str(tmp_path / "x"), "--config", str(ini)]
    cfg = _build_config(build_parser().parse_args(base + ["--experiment", "noise_sweep"]))
    err = capsys.readouterr().err
    assert err.startswith("warning:") and len(err.splitlines()) == 1
    assert "noise_sweep" in err and "n_values" in err and str(ini) in err
    assert "instances_per_point" not in err and "t_max" not in err
    assert cfg.experiment == "noise_sweep" and cfg.n_values == (10,)
    assert cfg.instances_per_point == 2 and cfg.t_max == 11
    for extra in ([], ["--experiment", "qubit_sweep"]):
        cfg = _build_config(build_parser().parse_args(base + extra))
        assert capsys.readouterr().err == ""
        assert cfg.n_values == (4, 6)
    # an INI that sets no grid axis loses nothing to the preset
    ini.write_text("[experiment]\nexperiment = qubit_sweep\nt_max = 11\n")
    _build_config(build_parser().parse_args(base + ["--experiment", "noise_sweep"]))
    assert capsys.readouterr().err == ""


def test_bench_config_without_experiment_key_takes_the_flags_preset(tmp_path, capsys):
    # an INI that names no sweep is a qubit_sweep one, so --experiment
    # noise_sweep replaces its grid keys with the noise preset and says so
    ini = tmp_path / "plain.ini"
    ini.write_text("[experiment]\nn_values = 4 6\nt_max = 0\n")
    base = ["bench", "--seed", "1", "--out", str(tmp_path / "x"), "--config", str(ini)]
    cfg = _build_config(build_parser().parse_args(
        base + ["--experiment", "noise_sweep", "--t-max", "11"]))
    err = capsys.readouterr().err
    assert err.startswith("warning:") and len(err.splitlines()) == 1
    assert "noise_sweep" in err and "n_values" in err and str(ini) in err
    assert cfg == ExperimentConfig.for_experiment("noise_sweep", t_max=11)
    # the config is validated once, after the flags: the INI's t_max = 0
    # is refused only when no flag replaces it
    with pytest.raises(ValueError, match="t_max"):
        _build_config(build_parser().parse_args(base))


@pytest.mark.parametrize("key", ["n_values", "p_values", "noise_lambdas", "methods"])
def test_cli_bench_rejects_empty_axis(tmp_path, capsys, key):
    # an empty grid axis used to run nothing and exit 0, or fail with exit 1
    ini = tmp_path / "empty.ini"
    ini.write_text(f"[experiment]\nexperiment = noise_sweep\n{key} =\n")
    assert main(["bench", "--seed", "1", "--out", str(tmp_path / "x"),
                 "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "x").exists()
    with pytest.raises(ValueError, match=key):
        ExperimentConfig(**{key: ()})


def test_cli_bench_warns_on_unswept_values(tmp_path, capsys):
    # qubit_sweep sweeps n alone, so a second lambda would go unrun unannounced
    base = ["bench", "--seed", "2", "--experiment", "qubit_sweep", "--n-values", "4",
            "--instances", "1", "--methods", "exp_bo", "--t-max", "11",
            "--n-fix", "150", "--n-final", "300"]
    assert main(base + ["--out", str(tmp_path / "a"), "--lambdas", "0"]) == 0
    want = capsys.readouterr()
    assert want.err == ""
    assert main(base + ["--out", str(tmp_path / "b"), "--lambdas", "0", "0.01",
                        "--p-values", "1", "2"]) == 0
    got = capsys.readouterr()
    assert got.err.startswith("warning:") and len(got.err.splitlines()) == 1
    assert "p_values, noise_lambdas" in got.err and "qubit_sweep" in got.err
    assert "n_values" not in got.err
    records = load_records(str(tmp_path / "b" / "records.jsonl"))
    assert [(r["p"], r["lambda"]) for r in records] == [(1, 0.0)]


def test_cli_error_exit_codes(tmp_path, capsys):
    # missing instance file -> usage error 2
    rc = main(["run", "--instance", str(tmp_path / "nope.json"),
               "--method", "map_bo", "--seed", "1"])
    assert rc == 2
    # malformed config -> 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nbogus = 1\n")
    rc = main(["bench", "--seed", "1", "--out", str(tmp_path / "x"),
               "--config", str(bad)])
    assert rc == 2
    capsys.readouterr()


def test_cli_determinism_byte_identical(tmp_path, capsys):
    args = ["bench", "--seed", "4", "--experiment", "single", "--n-values", "4",
            "--instances", "1", "--methods", "map_bo", "--t-max", "11",
            "--n-final", "200"]
    rc = main(args + ["--out", str(tmp_path / "a")])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "b")])
    assert rc == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "records.jsonl").read_bytes()
    b = (tmp_path / "b" / "records.jsonl").read_bytes()
    assert a == b


_M = ("map_bo", "exp_bo", "exp_gd")
_E = ("qubit_sweep", "depth_sweep", "noise_sweep", "single")
_W = ("unit", "uniform")
_HELP = (("-h", "--help"), "help", None, 0, None, "==SUPPRESS==", False)
# flags run and bench share: (option strings, dest, type, nargs, choices,
# default, required)
_SEARCH = [(("--config",), "config", None, None, None, None, False),
           (("--t-max",), "t_max", int, None, None, None, False),
           (("--n-fix",), "n_fix", int, None, None, None, False),
           (("--n-final",), "n_final", int, None, None, None, False),
           (("--threshold",), "threshold", float, None, None, None, False),
           (("--stage2",), "stage2_enabled", None, 0, None, None, False)]
CLI_SURFACE = {
    "gen": [_HELP,
            (("--n",), "n", int, None, None, None, True),
            (("--count",), "count", int, None, None, 10, False),
            (("--weights",), "weights", None, None, _W, "unit", False),
            (("--seed",), "seed", int, None, None, None, True),
            (("--out",), "out", None, None, None, None, True)],
    "run": [_HELP,
            (("--instance",), "instance", None, None, None, None, True),
            (("--method",), "method", None, None, _M, None, True),
            (("--depth",), "depth", int, None, None, 2, False),
            (("--seed",), "seed", int, None, None, None, True),
            (("--noise",), "noise", float, None, None, 0.0, False),
            (("--trials-out",), "trials_out", None, None, None, None, False),
            *_SEARCH],
    "bench": [_HELP,
              (("--seed",), "seed", int, None, None, None, True),
              (("--out",), "out", None, None, None, None, True),
              *_SEARCH,
              (("--experiment",), "experiment", None, None, _E, None, False),
              (("--n-values",), "n_values", int, "+", None, None, False),
              (("--p-values",), "p_values", int, "+", None, None, False),
              (("--lambdas",), "noise_lambdas", float, "+", None, None, False),
              (("--instances",), "instances_per_point", int, None, None, None, False),
              (("--methods",), "methods", None, "+", _M, None, False),
              (("--weights",), "weight_scheme", None, None, _W, None, False)],
    "report": [_HELP,
               (("--indir",), "indir", None, None, None, None, True),
               (("--out",), "out", None, None, None, None, False)],
}


# every section and key of a resolved INI, in file order
INI_SURFACE = {
    "experiment": ["experiment", "n_values", "p_values", "noise_lambdas",
                   "instances_per_point", "weight_scheme", "methods", "threshold",
                   "t_max", "n_fix", "n_final", "stage2_enabled"],
    "adaptive": ["pilot_shots", "max_shots", "tau_conf", "tau_var",
                 "bootstrap_resamples"],
    "gd": ["iterations", "learning_rate", "exact_gradient"],
    "stage2": ["steps", "shots_per_shift", "learning_rate", "reeval_period", "use_exact"],
}


def test_ini_surface_is_pinned():
    # adding or removing a config knob shows here as a deliberate edit
    parser = configparser.ConfigParser()
    parser.read_string(config_to_ini(ExperimentConfig()))
    assert [(s, list(parser[s])) for s in parser.sections()] == list(INI_SURFACE.items())


def test_cli_surface_is_pinned():
    # every subcommand's flags, in help order, with everything argparse
    # parses them by; guards the flags no other test passes
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(CLI_SURFACE)
    for name, parser in sub.choices.items():
        got = [(tuple(a.option_strings), a.dest, a.type, a.nargs,
                None if a.choices is None else tuple(a.choices), a.default, a.required)
               for a in parser._actions]
        assert got == CLI_SURFACE[name], name
