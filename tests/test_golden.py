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
}

GOLDEN = {
    "noise_sweep/records.jsonl":
        "4e736ba888b9f38ac7c67df4236a97849a45390fd7e8cfca1096c7c7b8206a27",
    "depth_sweep/records.jsonl":
        "dc3aae6a07391e2448d8cae07a566082d90c5989065b6347339daf53e0ac0fe2",
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


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    """Every golden output, keyed like GOLDEN, made in-process once per module."""
    root = tmp_path_factory.mktemp("golden")
    got = {}
    for name, grid in SWEEPS.items():
        _run(["bench", "--seed", "2024", "--out", str(root / name)] + grid + SEARCH)
        got[f"{name}/records.jsonl"] = (root / name / "records.jsonl").read_text()
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(outputs, name):
    assert _sha256(outputs[name]) == GOLDEN[name]
