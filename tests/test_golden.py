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

# each sweep's config_resolved.ini and records.jsonl last moved when the
# search's settings became constants of bo: the [tpe] and [stagnation] blocks
# left each INI, and in the records only config_hash moved
GOLDEN = {
    "noise_sweep/aggregates.csv":
        "f51dce24f6af0942d5554725178eb60369a3b7a5dce23658815130e2399254cd",
    "noise_sweep/config_resolved.ini":
        "aece04f8b54b822ac2e62976b0078e7baea65764c8239eb767be1acd5ec1e8b5",
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
        "06f38a80bf7e6f2fa38a27366526e10a4e220f2cf1f5a5562440356a1f0da6f4",
    "noise_sweep/stage2_traces.jsonl":
        "376fc14e8ddda4d26d7c9f436ccbd125cffe4ddb262bf907caab1ea1833f7d57",
    "noise_sweep/summary.json":
        "3bd23233a5d7f12e82cb2507fd40807d397b2fcb98d620c6fd2bdab2e9a7631c",
    "depth_sweep/aggregates.csv":
        "9a4a5f4f3ea32fee7d93451a8c3b7fcf19d3181c087d435d81e9f5893740d638",
    "depth_sweep/config_resolved.ini":
        "de70d69f8d05e605ff671a6bc2fb606703901afc4e364a321398a44db1717ce3",
    "depth_sweep/plots/depth_panels.csv":
        "fcd85e684762b0d47e87a254a8bf09dc7883c1c24f0e4f08ebd8a79ec9ace2fc",
    "depth_sweep/plots/pareto.csv":
        "c66cffb683d5b5f83a6ab775ed5b0bc783f84b43d31a96524ffb801b13dce5de",
    "depth_sweep/plots/saving_rate.csv":
        "1406930869e042d2246a7a790e8f1326f807464a7a680b61ba58b589c89d0a3e",
    "depth_sweep/plots/threshold_shots.csv":
        "e62bd4297213053d987a19b0fb3d5ff755d55210b0175a9357d828691d3bd17c",
    "depth_sweep/records.jsonl":
        "b26e6eac2f3c997df42b3ab97872f73f7006cad87f6c646ea0d37fbd111e6be0",
    "depth_sweep/stage2_traces.jsonl":
        "e023d4dbb718f4257bd73cf5590b6328f496de3ca9275725b7f635147e1164c1",
    "depth_sweep/summary.json":
        "e8e60ec0b6b7325943ed052e3a32152f02222146f45c2557af9f67db47d3cd77",
    "qubit_sweep/aggregates.csv":
        "5c8ab84ba43fd28264e2ec1a628fc108767d0125f48e363b68f4e00a4fba46f9",
    "qubit_sweep/config_resolved.ini":
        "30bcee4583150eee977afcf4819ff21768a4b1fd404b13bf058f3841f98d7855",
    "qubit_sweep/plots/pareto.csv":
        "0dc24be8abb1edf31d3147edeadfbba32afb2fec1adc022e651cd48841ebafa8",
    "qubit_sweep/plots/qubit_curves.csv":
        "dd5d17a07ab1b4903ff92ec4741a0851d59142f1250617bd3fbb187012b79d19",
    "qubit_sweep/plots/saving_rate.csv":
        "a04fc4cd67daeba581dcb61a861358371e2389ce1c33fd7f86f80180cc027ebb",
    "qubit_sweep/plots/threshold_shots.csv":
        "6b51d6e7f92f2564e7af11cb07953b6c4046f70f8ce158ed7a28b6cfd96ef802",
    "qubit_sweep/records.jsonl":
        "5b16c4193decf6cdfea2210fed22c5e35eee03cb9ba4ac2d119871707f288923",
    "qubit_sweep/stage2_traces.jsonl":
        "a4ab676bc5936286edd495217d9a1654645b05728d7dc15d290b892ea4e9f316",
    "qubit_sweep/summary.json":
        "e5d9ad35e99155f2fddd7de528d455146afc2fbe3d1bb1c6c3ef66245d79f44a",
    "single/aggregates.csv":
        "86a986afa9e133a7131e6297caab8ad38028511691d3192b7b26f179b9083569",
    "single/config_resolved.ini":
        "2f0005b1e198eda7e67be43f250daf002676c664d5152ab296de165539232b33",
    "single/plots/pareto.csv":
        "5e769a7990c3bfa7ae53a7010de87cb37b7d99df37808482c0c48b21103b550e",
    "single/plots/saving_rate.csv":
        "1406930869e042d2246a7a790e8f1326f807464a7a680b61ba58b589c89d0a3e",
    "single/plots/threshold_shots.csv":
        "9309fd2284f87c4eef622f7b1c6df4f721f9f62220e6ec677d726641de10ba8d",
    "single/records.jsonl":
        "465b5795de110bf1b11ce304f5b6957464210f7fe35e645601a064bdcfecce89",
    "single/stage2_traces.jsonl":
        "e2b7e53b80b0215eb70a436a06df27f30cd162bba61222797a5bf0b66617beaa",
    "single/summary.json":
        "1b4291cd5c6db9b2e9e65bba1c80d344c252a127cc7e131a02f916ab576b0f9b",
    "map_bo/run.json":
        "26203e05fc6fb479193fb976de1d72843d5817feb33be020e87f0f62dd24ba3d",
    "map_bo/trials.jsonl":
        "667eac9f6ae49f3968aa147996b7c5bda7c9d2b4a51d1a4751e5f757bc74b959",
    "exp_bo/run.json":
        "c5eb7ad66ace675981950f8e19665b0cd6b740af2f40b9dc4d8c50f11f5ef338",
    "exp_bo/trials.jsonl":
        "933bb307362d240dc97e1a8b2dfa258739e7f9dd6b93bb4db499e345884b964a",
    "exp_gd/run.json":
        "9667c297e9e932f563ed0e4d1dfc802b7b5087df551278df1e34405435cf3253",
    "exp_gd/trials.jsonl":
        "6c9b6a788ebcda03f4c612e40e8d737500f2e887bf114656c461863dcc5629cf",
    # n = 10 runs more than one generator row per kernel call in the sweep
    "n10_exp_gd/run.json":
        "b729e0f33c474b42b930b16e4d700ea7181aba7392bd14f085ef0699dfd121d0",
    "n10_exp_gd/trials.jsonl":
        "3a8f45723de24bd02732c866a1c53dac6da81cdc81c2f3309b76742e32a7d777",
    "n10_map_bo/run.json":
        "9830e1a65317ee25e1d461be53c72ad464a9f35b5090806569199c6a0388a93c",
    "n10_map_bo/trials.jsonl":
        "29b935d80cdf1e6da856ace0d4327d46ff44dacd38745d1e285642f6d9dbea37",
    # [gd] exact_gradient and [stage2] use_exact, from one --config INI; the
    # exact gradient's E+- are half-row matvecs scaled by the channel's slope,
    # which moved 149 float leaves by <= 2.3e-15 and nothing else
    "exact_exp_gd/run.json":
        "bd39ab46a9789727add3c8c2cc45af43813b5e855bb17c71d765eed2ef90ab33",
    "exact_exp_gd/trials.jsonl":
        "570d78a8b1eecffd87d27396da854a8d26c147ffeb92570fe9b0d4d66fc579ed",
    # stage 2's exact reads are one bin each, computed from two projected
    # amplitudes and depolarized unnormalized; the trace moved by <= 1.6e-16,
    # by <= 1.4e-16 more when reads moved to the gate's own layer, and by
    # <= 9.8e-17 more when its entries came from the run's target reader
    "exact_map_bo/run.json":
        "2f4e0dc532e48d2271633455bd2e249be1cd30128a2aba5ad699b3ff1f820881",
    "exact_map_bo/trials.jsonl":
        "667eac9f6ae49f3968aa147996b7c5bda7c9d2b4a51d1a4751e5f757bc74b959",
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
    exact = root / "exact.ini"
    exact.write_text("[gd]\nexact_gradient = true\n\n[stage2]\nuse_exact = true\n")
    runs = [("", 6, method, "0.01", []) for method in ("map_bo", "exp_bo", "exp_gd")]
    runs += [("n10_", 10, "exp_gd", "0.01", []), ("n10_", 10, "map_bo", "0", [])]
    # exp_gd's exact gradient and map_bo's exact stage 2
    runs += [("exact_", 6, method, "0.01", ["--config", str(exact)])
             for method in ("exp_gd", "map_bo")]
    for prefix, n, method, noise, extra in runs:
        trials = root / f"{prefix}{method}.jsonl"
        got[f"{prefix}{method}/run.json"] = _run(
            ["run", "--instance", str(root / f"instance_n{n}_0.json"), "--method", method,
             "--seed", "2024", "--noise", noise, "--trials-out", str(trials)]
            + SEARCH + extra)
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
