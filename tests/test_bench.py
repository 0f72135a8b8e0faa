import csv
import json
import os

import numpy as np
import pytest

from modeqaoa.bench import (
    AGGREGATE_METRICS, EXPERIMENTS, METHODS, RECORD_KEYS, ExperimentConfig,
    aggregate_rows, config_from_ini, config_hash, config_to_ini, derive_seed,
    load_records, main, make_instance, records_to_jsonl, run_cell,
    run_experiment, summarize, write_outputs, write_plot_data,
)
from modeqaoa.shots import AdaptiveConfig


SMALL = ExperimentConfig.for_experiment(
    "single", n_values=(4,), instances_per_point=2, t_max=12,
    methods=("map_bo", "exp_bo"), n_fix=200, n_final=500)


def test_config_grids():
    qubit = ExperimentConfig.for_experiment("qubit_sweep")
    assert qubit.n_values == (3, 4, 6, 8, 10, 12)
    assert qubit.p_values == (2,)
    depth = ExperimentConfig.for_experiment("depth_sweep")
    assert depth.n_values == (10,)
    assert depth.p_values == (1, 2, 3, 4, 5, 6)
    noise = ExperimentConfig.for_experiment("noise_sweep")
    assert noise.noise_lambdas == (0.0, 0.002, 0.004, 0.006, 0.008, 0.01)
    assert len(noise.sweep_points()) == 6
    with pytest.raises(ValueError):
        ExperimentConfig.for_experiment("bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("nope",))


def test_sweep_keys():
    cfg = ExperimentConfig.for_experiment("noise_sweep")
    assert cfg.sweep_key(10, 2, 0.004) == "lambda=0.004"
    cfg = ExperimentConfig.for_experiment("qubit_sweep")
    assert cfg.sweep_key(8, 2, 0.0) == "n=8"


def test_config_hash_stable_and_sensitive():
    a = ExperimentConfig.for_experiment("single")
    b = ExperimentConfig.for_experiment("single")
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16
    c = ExperimentConfig.for_experiment("single", t_max=7)
    assert config_hash(a) != config_hash(c)


def test_config_ini_roundtrip():
    cfg = ExperimentConfig.for_experiment(
        "noise_sweep", instances_per_point=3, t_max=44,
        adaptive=AdaptiveConfig(pilot_shots=50, max_shots=800))
    text = config_to_ini(cfg)
    back = config_from_ini(text)
    assert back == cfg
    assert config_to_ini(back) == text  # stable fixed point


def test_config_ini_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_ini("[experiment]\nbogus_key = 1\n")
    with pytest.raises(ValueError):
        config_from_ini("[adaptive]\nbogus = 2\n")


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
