"""Golden sha256 digests of a small, seeded set of CLI outputs.

Records follow numpy's Generator streams, so the digests hold only on the
numpy they were taken with; on any other version the tests skip and name both.
A digest changes only with a deliberate change to what the program writes.
"""
import contextlib
import hashlib
import io

import numpy as np
import pytest

from modeqaoa.bench import main

NUMPY_PINNED = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != NUMPY_PINNED,
    reason=f"golden digests were taken on numpy {NUMPY_PINNED}, this is numpy {np.__version__}")

SEARCH = ["--t-max", "15", "--n-fix", "300", "--n-final", "500", "--stage2"]

SWEEPS = {
    "noise_sweep": ["--experiment", "noise_sweep", "--n-values", "6",
                    "--lambdas", "0", "0.01", "--instances", "1"],
    "depth_sweep": ["--experiment", "depth_sweep", "--n-values", "6",
                    "--p-values", "1", "2", "--weights", "uniform", "--instances", "1"],
    "qubit_sweep": ["--experiment", "qubit_sweep", "--n-values", "4", "6",
                    "--instances", "1"],
    "single": ["--experiment", "single", "--instances", "1"],
}

GOLDEN = {
    "noise_sweep/aggregates.csv":
        "256be359d80731cbaf853e64d2f472d5fbbf1769da554244211f7e5005f2e21a",
    "noise_sweep/config_resolved.ini":
        "a0ea8fa14f7496cb7409694a605913157fef8e19af0f410390e41cb260ab19c2",
    "noise_sweep/plots/noise_panels.csv":
        "45a18d4c9527283cdcd0908c1bd2a10ab2891f256d6d1cfc4b0963095d76ea49",
    "noise_sweep/plots/noise_pareto.csv":
        "67e3c61a9153cc8fabca2f901674385cc354ba3e6bb3dfde07f42d8d57bc118e",
    "noise_sweep/plots/pareto.csv":
        "594a905e7c4deafe8d4bda5f35d5103f888ef2766e2e75c186c9205faac4c86a",
    "noise_sweep/plots/saving_rate.csv":
        "1406930869e042d2246a7a790e8f1326f807464a7a680b61ba58b589c89d0a3e",
    "noise_sweep/plots/threshold_shots.csv":
        "775dd0f0534706a56c10dcf3af6fad5cde6772fc2c667eace36be5e196ffeaea",
    "noise_sweep/records.jsonl":
        "4e736ba888b9f38ac7c67df4236a97849a45390fd7e8cfca1096c7c7b8206a27",
    "noise_sweep/stage2_traces.jsonl":
        "aaf904a99e3a2301ff0cb071b27159e2c37cf135f928568ab4619108c2d00147",
    "noise_sweep/summary.json":
        "3bd23233a5d7f12e82cb2507fd40807d397b2fcb98d620c6fd2bdab2e9a7631c",
    "depth_sweep/aggregates.csv":
        "cd43f39a31ae30ae357f00fff01cc41d35fa606d4217a37347b83f13f1771a5a",
    "depth_sweep/config_resolved.ini":
        "793622a98116acaa8d415089a67493edfe3726296738bba77e3bc1e5f783e04d",
    "depth_sweep/plots/depth_panels.csv":
        "fcd85e684762b0d47e87a254a8bf09dc7883c1c24f0e4f08ebd8a79ec9ace2fc",
    "depth_sweep/plots/pareto.csv":
        "c66cffb683d5b5f83a6ab775ed5b0bc783f84b43d31a96524ffb801b13dce5de",
    "depth_sweep/plots/saving_rate.csv":
        "1406930869e042d2246a7a790e8f1326f807464a7a680b61ba58b589c89d0a3e",
    "depth_sweep/plots/threshold_shots.csv":
        "e62bd4297213053d987a19b0fb3d5ff755d55210b0175a9357d828691d3bd17c",
    "depth_sweep/records.jsonl":
        "dc3aae6a07391e2448d8cae07a566082d90c5989065b6347339daf53e0ac0fe2",
    "depth_sweep/stage2_traces.jsonl":
        "5ed8b33092667d046514154c800e1e1e4f789882bded44d1d8e615e8cd704e8f",
    "depth_sweep/summary.json":
        "e8e60ec0b6b7325943ed052e3a32152f02222146f45c2557af9f67db47d3cd77",
    "qubit_sweep/aggregates.csv":
        "09aa9ac6acac2026a957cc310a512529829e5e691caf51decac6df83e293cb05",
    "qubit_sweep/config_resolved.ini":
        "842a89c383127a71ff1267f3ba599f538809e5fced49f40a89250e8a4052ef01",
    "qubit_sweep/plots/pareto.csv":
        "0dc24be8abb1edf31d3147edeadfbba32afb2fec1adc022e651cd48841ebafa8",
    "qubit_sweep/plots/qubit_curves.csv":
        "dd5d17a07ab1b4903ff92ec4741a0851d59142f1250617bd3fbb187012b79d19",
    "qubit_sweep/plots/saving_rate.csv":
        "a04fc4cd67daeba581dcb61a861358371e2389ce1c33fd7f86f80180cc027ebb",
    "qubit_sweep/plots/threshold_shots.csv":
        "6b51d6e7f92f2564e7af11cb07953b6c4046f70f8ce158ed7a28b6cfd96ef802",
    "qubit_sweep/records.jsonl":
        "98db5bd83f838c1541531935694667db801ad33f58def3dc4036cf86cef99fb9",
    "qubit_sweep/stage2_traces.jsonl":
        "e1bd4e2f0240fe3f94a059a84a3ec5355c62aed6c7b43f83804798072959b27b",
    "qubit_sweep/summary.json":
        "e5d9ad35e99155f2fddd7de528d455146afc2fbe3d1bb1c6c3ef66245d79f44a",
    "single/aggregates.csv":
        "a27ac3c65563586d0cebc73c5a9cdd69f9cd9c0843513e350e90ae4aed767410",
    "single/config_resolved.ini":
        "3a43b822d7f88b441c75f80e00c66f8033599197ff96fa8ee6e46460a7595696",
    "single/plots/pareto.csv":
        "5e769a7990c3bfa7ae53a7010de87cb37b7d99df37808482c0c48b21103b550e",
    "single/plots/saving_rate.csv":
        "1406930869e042d2246a7a790e8f1326f807464a7a680b61ba58b589c89d0a3e",
    "single/plots/threshold_shots.csv":
        "9309fd2284f87c4eef622f7b1c6df4f721f9f62220e6ec677d726641de10ba8d",
    "single/records.jsonl":
        "3808d099decc0ba0b7a399c36932c0a90f2b207256b27e8d67c0bb4924d08d81",
    "single/stage2_traces.jsonl":
        "49b6636b29e1b24d97b4edd27a3a2040698cd07caebc4168586f984604577a45",
    "single/summary.json":
        "1b4291cd5c6db9b2e9e65bba1c80d344c252a127cc7e131a02f916ab576b0f9b",
    "map_bo/run.json":
        "422a1068d0ded52f3a595943c5e0bf0bdd62b3784c75225858b38babc4cfd7bc",
    "map_bo/trials.jsonl":
        "667eac9f6ae49f3968aa147996b7c5bda7c9d2b4a51d1a4751e5f757bc74b959",
    "exp_bo/run.json":
        "fed412980247f962c4da986bfc9d403f6d7c24da7839d8f3fee2eb0168dbf53e",
    "exp_bo/trials.jsonl":
        "933bb307362d240dc97e1a8b2dfa258739e7f9dd6b93bb4db499e345884b964a",
    "exp_gd/run.json":
        "7b5f7c7230c5443ef427d6edbfa3d853d6bcd8d90b6414ff3fb61a849de51b65",
    "exp_gd/trials.jsonl":
        "147d8228af52aa42d35c3b27127db94291c823ab515314bc631163ae04bec54f",
    # n = 10 runs more than one generator row per kernel call in the sweep
    "n10_exp_gd/run.json":
        "d3375a8bc1378304972916c292550c03f4f7525caff420414ec2dc081abc572f",
    "n10_exp_gd/trials.jsonl":
        "855427afe8ff905d2d3cba339e73e951ea9c6ff8c2126690a5bc1aae1b05c488",
    "n10_map_bo/run.json":
        "e22321d4df01a8f0a11efa7a6ff9ea2118ced4ef5adbbe973541e5d2551d2940",
    "n10_map_bo/trials.jsonl":
        "29b935d80cdf1e6da856ace0d4327d46ff44dacd38745d1e285642f6d9dbea37",
}


def _sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def _run(argv: list[str]) -> str:
    """stdout of one in-process CLI call, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _outputs(root) -> dict[str, str]:
    """Every golden output, keyed like GOLDEN: each file a bench run writes
    except meta.json (wall-clock data), and each run's JSON and trials file."""
    got = {}
    for name, grid in SWEEPS.items():
        out = root / name
        _run(["bench", "--seed", "2024", "--out", str(out)] + grid + SEARCH)
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "meta.json":
                got[f"{name}/{path.relative_to(out).as_posix()}"] = path.read_text()
    for n in (6, 10):
        _run(["gen", "--n", str(n), "--count", "1", "--seed", "2024", "--out", str(root)])
    runs = [("", 6, method, "0.01") for method in ("map_bo", "exp_bo", "exp_gd")]
    runs += [("n10_", 10, "exp_gd", "0.01"), ("n10_", 10, "map_bo", "0")]
    for prefix, n, method, noise in runs:
        trials = root / f"{prefix}{method}.jsonl"
        got[f"{prefix}{method}/run.json"] = _run(
            ["run", "--instance", str(root / f"instance_n{n}_0.json"), "--method", method,
             "--seed", "2024", "--noise", noise, "--trials-out", str(trials)] + SEARCH)
        got[f"{prefix}{method}/trials.jsonl"] = trials.read_text()
    return got


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    """Every golden output, made in-process once per module."""
    return _outputs(tmp_path_factory.mktemp("golden"))


def test_golden_covers_every_output(outputs):
    # a file the CLI starts or stops writing shows here, not as a KeyError
    assert sorted(outputs) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(outputs, name):
    assert _sha256(outputs[name]) == GOLDEN[name]
