"""Golden outputs: the sha256 of every file a command writes and of its
stdout, for the paper figures, one bc warm-start config sweep and one
inline run's per-seed traces.

The noise streams and the CSV writer are exact, and so is the kernel's
loop, which `cosgd run` takes: refactors and speed-ups leave the run
entries' bytes as they are, and those of `gainfactor` and `sublinear`,
which simulate nothing.  The figures fig2-fig5 take the kernel's affine
step, which rounds in another order than the loop: their bytes pin that
step, and a change to its arithmetic may move their last printed digits.
A change that means to alter output bytes must update `DIGESTS` (print
the new ones with `PYTHONPATH=src python tests/test_golden.py`) and say
in CHANGES.md which bytes changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest

from cosgd.cli import main

# One bc warm-start eta sweep: d = 2, a scaled-noise main task with one
# additive and one scaled-noise collaborator.
SWEEP_CONFIG = {
    "main_task": {"curvature": [1.0, 2.0], "optimum": [0.0, 1.0],
                  "noise_std": 1.0, "noise_scale": 0.5},
    "collaborators": [
        {"curvature": [1.5, 2.5], "optimum": [2.0, 0.0], "noise_std": 2.0},
        {"curvature": [0.5, 3.0], "optimum": [-1.0, 0.5], "noise_std": 0.5,
         "noise_scale": 0.1},
    ],
    "aggregator": "bc",
    "weights": {"alpha": 0.3, "tau": [0.4, 0.6], "beta": 0.2},
    "step_size": 0.02,
    "horizon": 300,
    "x0": [-3.0, 2.1],
    "seeds": [0, 1, 2, 3],
    "c0_policy": "warm_start",
    "csv_stride": 5,
    "sweep": {"axis": "eta", "values": [0.01, 0.02, 0.05]},
}

COMMANDS = {
    name: ("figure", name, "--T", "500", "--seeds", "0-3")
    for name in ("fig2", "fig3", "fig4", "fig5")
}
COMMANDS["run_bc_warm_start"] = ("run", "--config", "cfg.json")
# Per-seed traces of an inline run; the stride does not divide T.
COMMANDS["run_seeds_bc_warm_start"] = (
    "run", "--aggregator", "bc", "--alpha", "0.5", "--beta", "0.05", "--eta",
    "0.01", "--c0-policy", "warm_start", "--T", "500", "--seeds", "0-3",
    "--csv-stride", "7")
# The tables that simulate nothing: gainfactor.csv has 31 columns.
COMMANDS["gainfactor"] = ("figure", "gainfactor")
COMMANDS["sublinear"] = ("figure", "sublinear")


def digests(argv) -> dict:
    """Exit code and sha256 of stdout and of each file under `out`, for
    `cosgd *argv --out-dir out` run in a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            pathlib.Path("cfg.json").write_text(json.dumps(SWEEP_CONFIG))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(list(argv) + ["--out-dir", "out"])
            out = {"exit": code,
                   "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
            for path in sorted(pathlib.Path("out").iterdir()):
                out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return out


DIGESTS = {
    "fig2": {
        "exit": 0,
        "stdout": "93bafb894edfc78a5aaac2ce7286ba2474819a54999ffef54ac488c9b0335278",
        "fig2.gp": "b72e5f71c1fda53878dd68c23e145943bac545a05b4777ef4f00e9a5fa5c0939",
        "fig2_alone.csv": "d0204b0bb68346831ebdedbcecad6845baf048aeddc99d95cd08643c81c9fae1",
        "fig2_bc.csv": "5b812f9b919e93631fbda06908929f4887be1c9f85f977e2266775845442e6df",
        "fig2_summary.csv": "fcc33842643d54f20089bafbbdc031e9a4ef559b94818100e763310c2737dc3f",
        "fig2_wga.csv": "d65d9305068a36bfa2ffebead232db84e890af7da9d4f87aefb7618f00530f7c"
    },
    "fig3": {
        "exit": 0,
        "stdout": "58d29c7b6357e0b1ae1ac09be9f9b18a373ea87b774840d45c52bc0cf78c8992",
        "fig3.gp": "f5021a67bc7c28ac47ca993f8ce42d2f442335b71d3c32936ee1fd1c885cd9a1",
        "fig3_summary.csv": "18015cb60bbb71c33798f4183f4ff7f0d079db795ae1f72cb84135c5a9c76b0d",
        "fig3_zeta1.csv": "34d20df971218ececa9f795050ea2ef5a7aa3fae23fd605ba9f9d5a14d1c1b44",
        "fig3_zeta16.csv": "a54b23385afd1007f03e73867257a0eb5cb0c27aa301ea63877ec3a355fc2ab3",
        "fig3_zeta4.csv": "4043aa6dac385ee9e0faa939c477c827c814151f1fc901111bd852bc22be9bab",
        "fig3_zeta64.csv": "0414d27a1d78853976ccef5513001c4e8ad32d63312b189199a047199c221250"
    },
    "fig4": {
        "exit": 0,
        "stdout": "783028d4727c3e4268e1b18cad76c940e3e5849b952fb57787499b9940369ec5",
        "fig4.gp": "44693e41ae4ab5620612ef53309a46a2427ee3bde11d7f867db635f955ca2411",
        "fig4_alone.csv": "e53c2cf78cb06cfc8b58794fe329bf187388e4ff6d2bd4dc887c6be19772fb20",
        "fig4_summary.csv": "909a4f87d24ee187d1d92f5cfd1530cb5a166a919198e6bbe6829bc2753ebff4",
        "fig4_zeta1.csv": "eb3290186fe73ef2f78d7d0c76fb7dbbe74b50dc05b2d94d3a20d6c08a9bb07b",
        "fig4_zeta16.csv": "de2dc5682583b6be3a2daa2c2d6da4a77f13b972c24066aa124aae210ef27a8f",
        "fig4_zeta4.csv": "5b4706eeaf0fbe7aaac1628ef75e18529a1761a90429cfe1b0351f4d7351640a",
        "fig4_zeta64.csv": "a6ab5feb2b95f676e2568ef31a0d279f5a78ae74c7ee9bb864b42579c0087995"
    },
    "fig5": {
        "exit": 0,
        "stdout": "a78c341d6bde7aa182d6d7046871c8bbdc7e82540d6de4ca6d066bf62ad5f6ca",
        "fig5.gp": "e8675580f93e841aaf029cb446f4db13319284a3fbeafbd3dffd8e983138bf9a",
        "fig5_N1.csv": "b332f21f18de429f399ee4f085b33a75bd7c775dcc28c5c5356495c248b09145",
        "fig5_N10.csv": "97afc7b91cac56ade0268e2ef8d3e98865bb1c17103e5c599f575e844212cfe2",
        "fig5_N100.csv": "764ba202d8d285a68301cf41be33b770294983d9e4df7a4a946b393d8deb4b38",
        "fig5_summary.csv": "d77093438811969aa77723bb0206f96e40cca677c5b28e2a007ae6c24294cfe2"
    },
    "run_bc_warm_start": {
        "exit": 0,
        "stdout": "c9d927fb2af48316c396a1016b13f72093de2a42545d590584fdefd70e08508e",
        "aggregate.csv": "0a68ec935e28885c20838fabaf80e0d07af641cfc07f650fc422cc9e0c9b101f",
        "trace_eta0.01.csv": "8b6b133b63fec978556c929f41e9c3d079298c7cbb7549d3135faa9d09533d93",
        "trace_eta0.02.csv": "575e3eea8c1cd5ae0c8edc99368fd9327edef5d32e680acc2dd4be07b798e753",
        "trace_eta0.05.csv": "a75ebbd6750f71e9164fbca8b083ba8827db716d0cca0456992489bd19eb5f9d"
    },
    "run_seeds_bc_warm_start": {
        "exit": 0,
        "stdout": "3e9fd415c8cabff6be967b4ae932f429cfaf988c046ce097a85225efc239e35d",
        "aggregate.csv": "76d0f39eee293f65de54e990412a49363e23099a8e7df6b91146027fef1e33c4",
        "aggregate_trace.csv": "c64a735256fddc2077f279ac1a2c0e72711857b19b22c2c19e2b454def3a70c7",
        "trace_seed0.csv": "abf379db2e406233d78203e27832cb5b1850a8056532f9e352f164ffb3f01506",
        "trace_seed1.csv": "5788199cdddbc7ef8f7522c93ffd0cd723f91d65a6ec4a0c0c386b02c83388a1",
        "trace_seed2.csv": "1db7a8326445ed14b269fff7172d61ba849ec083133eea6c7548c7944367d6d2",
        "trace_seed3.csv": "c5dea7284b8b6fde8d03f401580bdea3c084701f28762b46c7d5bfe25117bcc2"
    },
    "gainfactor": {
        "exit": 0,
        "stdout": "e7b58ee89f1fab5fc78b87c67db06ba8de52a0a3ba77927bdad7bd9591afd937",
        "gainfactor.csv": "6dc8045efdd072afa6e1e5841d538ed0246a4f9737e830119d218c02dd17a538"
    },
    "sublinear": {
        "exit": 0,
        "stdout": "781c7d3b3ed5e0cf45ce4b2a36ec7ec8c4baa475612246cc3dee27e815e629d9",
        "sublinear.csv": "e5007e894cc287553840a2ec473e70c8f5454cb27167277437b15ee0a4d5abb1"
    }
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_bytes(name):
    assert digests(COMMANDS[name]) == DIGESTS[name]


if __name__ == "__main__":
    print(json.dumps({name: digests(argv) for name, argv in sorted(COMMANDS.items())},
                     indent=4))
