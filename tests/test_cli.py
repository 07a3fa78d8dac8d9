"""The command line: exit codes, malformed configurations, caps and scale
documents, and output that does not depend on the hash seed."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BPHZ_TERMS, KPZ_BASIS, PHI4_BASIS
from renormforest import cli
from renormforest.workbench import ConfigError, parse_config

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


def with_changes(model: str, **changes) -> dict:
    """A shipped configuration with fields set; a key "a.b" names field b
    of section a."""
    config = json.loads(Path(config_path(model)).read_text())
    for key, value in changes.items():
        *path, last = key.split(".")
        section = config
        for k in path:
            section = section[k]
        section[last] = value
    return config


MALFORMED_CONFIGS = {
    "cumulants-not-an-object": with_changes("kpz", cumulants=[]),
    "kernels-not-an-object": with_changes("kpz", **{"types.kernels": []}),
    "null-noise-homogeneity": with_changes("kpz", **{"types.noises.l": None}),
    "float-noise-homogeneity": with_changes("kpz", **{"types.noises.l": -1.51}),
    "blocks-not-a-list": with_changes("kpz", cumulants={"mode": "explicit", "blocks": 5}),
    "block-not-a-list": with_changes("kpz", cumulants={"mode": "explicit", "blocks": ["ll"]}),
    "blocks-with-gaussian-mode": with_changes(
        "kpz", cumulants={"mode": "gaussian", "blocks": [["l", "l"], ["l", "l", "l"]]}
    ),
    "standalone-noises-not-a-list": with_changes("kpz", **{"rule.standalone_noises": 5}),
    "productions-not-an-object": with_changes("kpz", **{"rule.productions": []}),
    "production-entry-malformed": with_changes("kpz", **{"rule.productions.t": [[5]]}),
    "scaling-not-an-object": with_changes("kpz", scaling=[2]),
    "float-dimension": with_changes("kpz", **{"scaling.d": 2.5}),
    "scaling-vector-a-string": with_changes("kpz", **{"scaling.s": "21"}),
    "unknown-field-kappa": with_changes("kpz", kappa="1/100"),
    "null-kappa": with_changes("kpz", kappa=None),
    "unknown-field-output": with_changes("kpz", output={}),
    "unknown-cumulants-field-max-arity": with_changes(
        "kpz", cumulants={"mode": "gaussian", "max_arity": 2}
    ),
    "null-max-arity": with_changes("kpz", cumulants={"mode": "gaussian", "max_arity": None}),
}


@pytest.mark.parametrize("config", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS.keys())
def test_malformed_configs_are_config_errors(config, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["--config", str(path), "generate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def config_fields(value, path=()):
    """The path of every field and list item below a configuration value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, sub in items:
        yield path + (key,)
        yield from config_fields(sub, path + (key,))


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3)
    | st.sampled_from(["l", "t", "-3/2", "1/0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["l", "t", "x"]), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_any_changed_field_parses_or_is_a_config_error(data):
    """Replacing any one field of a shipped configuration by any JSON value
    gives a configuration or a ConfigError, never another exception."""
    for model in sorted(CONFIGS):
        config = json.loads(Path(config_path(model)).read_text())
        *path, last = data.draw(st.sampled_from(list(config_fields(config))))
        section = config
        for k in path:
            section = section[k]
        section[last] = data.draw(JSON_VALUES)
        try:
            parse_config(json.dumps(config))
        except ConfigError:
            pass


def run_with_hash_seed(seed: str, args: list[str], returncode: int = 0) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env.pop("RENORMFOREST_CAPS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable] + args, env=env, cwd=ROOT, capture_output=True)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout


def test_generate_independent_of_hash_seed():
    """`generate`, `renormalize` of a tree with counterterms, and
    `renormalize` of the deepest tree of each model, whose extractions come
    in the order `div_enumerate` sorts its subtrees."""
    for model, command in (
        ("phi4_3", ["generate"]),
        ("phi4_3", ["renormalize", "T3"]),
        ("phi4_3", ["renormalize", "T6"]),
        ("kpz", ["renormalize", "T6"]),
    ):
        args = ["-m", "renormforest.cli", "--config", config_path(model)] + command
        outputs = [run_with_hash_seed(seed, args) for seed in ("0", "1")]
        assert outputs[0] == outputs[1]
        assert outputs[0]


UNNAMED_CONSTANTS = """
from pathlib import Path
from renormforest.hopf import counterterm_report
from renormforest.workbench import Workbench, parse_config
wb = Workbench(parse_config(Path("configs/phi4_3.json").read_text()))
rep = counterterm_report(wb.tree_by_id("T3"), wb.config.table, wb.config.cum)
print([m.constants for m in rep.monomials])
"""


def test_unnamed_constants_independent_of_hash_seed():
    """Without `names` a constant is labelled by a digest of its canonical
    code, which must not vary with the hash seed."""
    outputs = [run_with_hash_seed(seed, ["-c", UNNAMED_CONSTANTS]) for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(b"[('C[")


# every edge of kpz T2 (t(l)*t(l)) at some scale, with no leaf partition
KPZ_T2_SCALES = {"K:0,1": 1, "K:0,3": 2, "star:0": 0, "star:1": 1, "star:3": 1}


def test_project(tmp_path, capsys):
    path = tmp_path / "scales.json"
    path.write_text(json.dumps({"pi": [], "scales": KPZ_T2_SCALES}))
    assert cli.main(["--config", config_path("kpz"), "project", "T2", "--scales", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "project"


@pytest.mark.parametrize(
    "doc",
    [
        None,
        "{bad",
        "[]",
        json.dumps({"pi": [], "scales": dict(KPZ_T2_SCALES, **{"K:0,1": "one"})}),
        json.dumps({"pi": [["x"]], "scales": KPZ_T2_SCALES}),
        json.dumps({"pi": 5, "scales": KPZ_T2_SCALES}),
        json.dumps({"pi": [], "scales": ["K:0,1"]}),
        json.dumps({"pi": [], "scales": {"K:0,1": 1}}),
        json.dumps({"pi": [[99]], "scales": KPZ_T2_SCALES}),
        json.dumps({"pi": [[1, 2]], "scales": dict(KPZ_T2_SCALES, **{"pi:1,2": 1})}),
        json.dumps({"pi": [[1, 3], [1]], "scales": dict(KPZ_T2_SCALES, **{"pi:1,3": 1})}),
        json.dumps({"pi": [], "scales": dict(KPZ_T2_SCALES, **{"K:0,1": -5})}),
        json.dumps({"pi": [], "scales": dict(KPZ_T2_SCALES, **{"star:0": 10**6})}),
        json.dumps({"pi": [], "scales": dict(KPZ_T2_SCALES, **{"K:0,1": 3.9})}),
        json.dumps({"pi": [[True, 3]], "scales": dict(KPZ_T2_SCALES, **{"pi:1,3": 1})}),
        json.dumps({"pi": [[1.5, 3]], "scales": dict(KPZ_T2_SCALES, **{"pi:1,3": 1})}),
    ],
    ids=[
        "missing-file",
        "not-json",
        "not-an-object",
        "non-integer-scale",
        "non-integer-leaf",
        "pi-not-a-list",
        "scales-not-an-object",
        "missing-edge",
        "unknown-node",
        "not-a-leaf",
        "repeated-leaf",
        "negative-scale",
        "scale-above-range",
        "float-scale",
        "bool-leaf",
        "float-leaf",
    ],
)
def test_bad_scales_are_input_errors(doc, tmp_path, capsys):
    path = tmp_path / "scales.json"
    if doc is not None:
        path.write_text(doc)
    assert cli.main(["--config", config_path("kpz"), "project", "T2", "--scales", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_certify(capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path("kpz"), "certify", "T3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "certify"
    assert report["pass"] is True
    assert report["classes"] and all(row["pass"] for row in report["classes"])


def test_certify_over_the_vertex_cap(capsys, monkeypatch):
    monkeypatch.setenv("RENORMFOREST_CAPS", '{"max_coalescence_vertices": 3}')
    assert cli.main(["--config", config_path("kpz"), "certify", "T5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: quotient vertex count 6 exceeds the cap 3\n"


def test_certify_unknown_tree(capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path("kpz"), "certify", "T9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_certify_independent_of_hash_seed():
    """KPZ T5, KPZ T6 and phi4_3 T6 have failing vertex subsets (4, 17 and
    39 over their chaos classes), so the certifier builds the scale
    constraints of those classes and decides each failing subset against
    them."""
    for model, tree_id in (("kpz", "T5"), ("kpz", "T6"), ("phi4_3", "T6")):
        args = ["-m", "renormforest.cli", "--config", config_path(model), "certify", tree_id]
        outputs = [run_with_hash_seed(seed, args) for seed in ("0", "1")]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["pass"] is True


def test_bphz_independent_of_hash_seed():
    """The expansion is a dict keyed by trees; its rows are sorted before
    they are emitted, so the report is the same bytes under every hash
    seed.  phi4_3 T6 is the largest expansion, whose rows are assembled
    from the keys of 761 distinct pieces."""
    for model, tree_id, seeds in (("kpz", "T5", "012"), ("phi4_3", "T6", "01")):
        args = ["-m", "renormforest.cli", "--config", config_path(model), "bphz", tree_id]
        outputs = [run_with_hash_seed(seed, args) for seed in seeds]
        assert all(out == outputs[0] for out in outputs)
        report = json.loads(outputs[0])
        assert report["command"] == "bphz"
        assert report["term_count"] == len(report["terms"]) == BPHZ_TERMS[model][int(tree_id[1:])]


def test_bphz_unknown_tree(capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path("kpz"), "bphz", "T9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_certify_fails_on_broken_hypotheses(tmp_path):
    """At |Xi| = -3 the higher-cumulant margin fails for the model and
    subtree power counting for I(Xi)^3: exit 1, all three named, and the
    same bytes under both hash seeds."""
    config = json.loads(Path(config_path("phi4_3")).read_text())
    config["types"]["noises"]["Xi"] = "-3"
    path = tmp_path / "phi4_3_xi3.json"
    path.write_text(json.dumps(config))
    args = ["-m", "renormforest.cli", "--config", str(path), "certify", "T3"]
    outputs = [run_with_hash_seed(seed, args, returncode=1) for seed in ("0", "1")]
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["pass"] is False
    assert report["hypotheses"] == ["higher_cum_check", "super_regularity", "theorem_conditions"]


def test_decompose_over_the_divergence_cap(capsys, monkeypatch):
    """phi4_3 T3 has three effective divergent subtrees."""
    monkeypatch.setenv("RENORMFOREST_CAPS", '{"max_div": 1}')
    assert cli.main(["--config", config_path("phi4_3"), "decompose", "T3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err


def test_renormalize_over_the_divergence_cap(capsys, monkeypatch):
    """renormalize extracts from the same list of divergent subtrees as
    decompose, under the same cap."""
    monkeypatch.setenv("RENORMFOREST_CAPS", '{"max_div": 1}')
    assert cli.main(["--config", config_path("phi4_3"), "renormalize", "T3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err


def test_bphz_over_the_divergence_cap(capsys, monkeypatch):
    """bphz extracts from every divergent subtree of the tree, effective or
    not, listed under the same cap as decompose's."""
    monkeypatch.setenv("RENORMFOREST_CAPS", '{"max_div": 1}')
    assert cli.main(["--config", config_path("phi4_3"), "bphz", "T3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err


def test_export_dot_sigma(capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path("phi4_3"), "export-dot", "T4:sigma:0"]) == 0
    assert capsys.readouterr().out.startswith("digraph sigma {")


@pytest.mark.parametrize(
    "selection",
    ["T4:sigma:99", "T4:sigma:x", "T4:sigma:-1", "T6:sigma:0,1,2,3,4,5,6"],
    ids=["out-of-range", "not-an-integer", "negative", "not-a-forest"],
)
def test_bad_sigma_selections_are_input_errors(selection, capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path("phi4_3"), "export-dot", selection]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
