"""The command line: exit codes, malformed caps, and output that does not
depend on the hash seed."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import KPZ_BASIS, PHI4_BASIS
from renormforest import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = {"kpz": KPZ_BASIS, "phi4_3": PHI4_BASIS}


def config_path(model: str) -> str:
    return str(ROOT / "configs" / f"{model}.json")


@pytest.mark.parametrize("model", sorted(CONFIGS))
def test_generate(model, capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path(model), "generate"]) == 0
    report = json.loads(capsys.readouterr().out)
    got = [(row["tree"], row["homogeneity"]) for row in report["trees"]]
    assert got == CONFIGS[model]
    assert [row["id"] for row in report["trees"]] == [f"T{i}" for i in range(len(got))]


def test_generate_with_larger_edge_cap(capsys, monkeypatch):
    monkeypatch.setenv("RENORMFOREST_CAPS", '{"max_edges": 30}')
    assert cli.main(["--config", config_path("phi4_3"), "generate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(row["tree"], row["homogeneity"]) for row in report["trees"]] == PHI4_BASIS


@pytest.mark.parametrize(
    "caps",
    [
        '{"max_edges": "ten"}',
        '{"cutoff": "zero"}',
        "[1]",
        '{"max_edges": 2.5}',
        '{"max_edges": true}',
        '{"max_div": 0}',
        '{"poly_sdeg_bound": -1}',
        '{"cutoff": 0.5}',
        '{"max_edge": 10}',
        "not json",
    ],
)
def test_malformed_caps_are_config_errors(caps, capsys, monkeypatch):
    monkeypatch.setenv("RENORMFOREST_CAPS", caps)
    assert cli.main(["--config", config_path("kpz"), "generate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def test_generate_independent_of_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop("RENORMFOREST_CAPS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "renormforest.cli", "--config", config_path("phi4_3"), "generate"],
            env=env,
            capture_output=True,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]
