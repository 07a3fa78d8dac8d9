"""The command line: exit codes, malformed configurations, caps and scale
documents, and output that does not depend on the hash seed."""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BPHZ_TERMS, KPZ_BASIS, PHI4_BASIS, project_docs
from renormforest import cli
from renormforest.workbench import ConfigError, Workbench, parse_config

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
    "derivative-beyond-dimension": with_changes(
        "kpz", **{"rule.productions.t": [["t", "t"], ["t"], [], ["l"], [["t", [0, 0, 1]], "t"]]}
    ),
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


@pytest.mark.parametrize("command", [["generate"], ["bphz", "T0"]])
def test_supercritical_config_is_a_config_error(command, tmp_path, capsys, monkeypatch):
    """phi4_3 with |Xi| = -4 fails the subcriticality test: the basis is
    never built, and the command exits 2 with a config error that names no
    Python parameter."""
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(with_changes("phi4_3", **{"types.noises": {"Xi": "-4"}})))
    assert cli.main(["--config", str(path), *command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: the rule failed the subcriticality fixpoint test\n"


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


def run_under_hash_seed(seed: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env.pop("RENORMFOREST_CAPS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run([sys.executable] + args, env=env, cwd=ROOT, capture_output=True)


def run_with_hash_seed(seed: str, args: list[str], returncode: int = 0) -> bytes:
    proc = run_under_hash_seed(seed, args)
    assert proc.returncode == returncode, proc.stderr
    return proc.stdout


# configs with several violations of one kind; the one reported is the
# first in sorted order
SEVERAL_VIOLATIONS = {
    "unknown-production-types": (
        with_changes(
            "kpz", **{"rule.productions.t": [["t", "t"], ["u"], ["v"], ["w"], ["x"], ["y"], ["l"]]}
        ),
        "config error: rule: production references unknown type 'u'\n",
    ),
    "blocks-over-the-arity-bound": (
        with_changes(
            "kpz",
            **{"types.noises.l": "-5/2"},
            cumulants={"mode": "explicit", "blocks": [["l", "l"], ["l"] * 3, ["l"] * 4]},
        ),
        "config error: cumulants: cumulant block ('l', 'l', 'l') violates |t([M])|_s > (1-M)|s|\n",
    ),
}


@pytest.mark.parametrize(
    "config, message", SEVERAL_VIOLATIONS.values(), ids=SEVERAL_VIOLATIONS.keys()
)
def test_config_errors_independent_of_hash_seed(config, message, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = ["-m", "renormforest.cli", "--config", str(path), "generate"]
    for seed in "0123":
        proc = run_under_hash_seed(seed, args)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", message)


def test_generate_independent_of_hash_seed():
    """`generate` of each model, `renormalize` of a tree with counterterms, and
    `renormalize` of the deepest tree of each model, whose extractions come
    in the order `div_enumerate` sorts its subtrees."""
    for model, command in (
        ("phi4_3", ["generate"]),
        ("kpz", ["generate"]),
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
t = wb.tree_by_id("T3")
rep = counterterm_report(t, wb.config.table, wb.config.cum, wb.analysis(t).divergences)
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
        # a lone noise is a divergent subtree compatible with a singleton
        # block, which no cumulant admits
        json.dumps({"pi": [[1], [3]], "scales": KPZ_T2_SCALES}),
        json.dumps({"pi": [[1]], "scales": KPZ_T2_SCALES}),
        json.dumps({"pi": [[]], "scales": KPZ_T2_SCALES}),
        json.dumps({"pi": [], "scales": dict(KPZ_T2_SCALES, **{"K:99,98": 1})}),
        json.dumps({"pi": [], "scales": dict(KPZ_T2_SCALES, bogus=1)}),
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
        "singleton-blocks",
        "one-singleton-block",
        "empty-block",
        "unknown-edge",
        "not-an-edge",
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


def _assert_unknown_tree(tree_id, capsys):
    assert cli.main(["--config", config_path("kpz"), "certify", tree_id]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown tree id '{tree_id}'; run `generate` to list ids\n"


def test_certify_unknown_tree(capsys, monkeypatch):
    """An id out of range gets a plain message, without the quotes a
    KeyError adds."""
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    _assert_unknown_tree("T9", capsys)


@pytest.mark.parametrize("tree_id", ["T", "Tx", "T+3", "T 3", "T3 ", "T\u0663", "T03", "T-0", "T0_1"])
def test_certify_malformed_tree_id(tree_id, capsys, monkeypatch):
    """An id with no index and one with a bad index get the same message
    as an id out of range; an index is read only as `generate` writes it,
    so no sign, space, leading zero, underscore or non-ASCII digit."""
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    _assert_unknown_tree(tree_id, capsys)


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


def test_certify_under_explicit_cumulants_independent_of_hash_seed(tmp_path):
    """KPZ with third cumulants allowed: the classes, partitions and jumps
    read the explicit blocks."""
    path = tmp_path / "kpz_l3.json"
    cumulants = {"mode": "explicit", "blocks": [["l", "l"], ["l", "l", "l"]]}
    path.write_text(json.dumps(with_changes("kpz", cumulants=cumulants)))
    for tree_id in ("T2", "T3", "T4", "T5"):
        args = ["-m", "renormforest.cli", "--config", str(path), "certify", tree_id]
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


def test_decompose_and_project_independent_of_hash_seed(tmp_path):
    """`decompose` of phi4_3 T6 lists the forests of its chaos classes, and
    `project` of KPZ T5 with one scale document lists its divergent
    subtrees, forests and harvested cuts, all built from sets."""
    wb = Workbench(parse_config(Path(config_path("kpz")).read_text()))
    path = tmp_path / "scales.json"
    path.write_text(project_docs(wb, "T5", random.Random(5))[0])
    for model, command in (
        ("phi4_3", ["decompose", "T6"]),
        ("kpz", ["project", "T5", "--scales", str(path)]),
    ):
        args = ["-m", "renormforest.cli", "--config", config_path(model)] + command
        outputs = [run_with_hash_seed(seed, args) for seed in ("0", "1")]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["command"] == command[0]


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
    """phi4_3 T3 has ten divergent subtrees, three of them effective."""
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


@pytest.mark.parametrize("command", [["renormalize", "T3"], ["decompose", "T3"], ["export-dot", "T3:sigma:0"]])
def test_effective_divergences_come_from_the_capped_list(command, capsys, monkeypatch):
    """The effective divergent subtrees are a filter of the full list, and
    the cap `max_div` bounds the full list: phi4_3 T3 has ten divergent
    subtrees, three of them effective, so under a cap of 5 every command
    that reads them exits 3, as bphz, certify and project do."""
    monkeypatch.setenv("RENORMFOREST_CAPS", '{"max_div": 5}')
    assert cli.main(["--config", config_path("phi4_3")] + command) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: |Div| = 10 exceeds the cap 5\n"


def test_export_dot_sigma(capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path("phi4_3"), "export-dot", "T4:sigma:0"]) == 0
    assert capsys.readouterr().out.startswith("digraph sigma {")


@pytest.mark.parametrize(
    "model, selection, message",
    [
        ("phi4_3", "T4:sigma:99", "sigma selection 99 is outside 0..2: T4 has 3 divergent subtrees"),
        ("phi4_3", "T4:sigma:x", "sigma selection is not an integer: 'x'"),
        ("phi4_3", "T4:sigma:-1", "sigma selection -1 is outside 0..2: T4 has 3 divergent subtrees"),
        ("phi4_3", "T6:sigma:0,1,2,3,4,5,6", "sigma selection '0,1,2,3,4,5,6' of T6 is not nested or disjoint"),
        ("phi4_3", "T0:sigma:0", "sigma selection 0 is out of range: T0 has no divergent subtrees"),
        ("kpz", "T0:sigma:0", "sigma selection 0 is out of range: T0 has no divergent subtrees"),
    ],
    ids=["out-of-range", "not-an-integer", "negative", "not-a-forest", "no-divergences", "no-divergences-kpz"],
)
def test_bad_sigma_selections_are_input_errors(model, selection, message, capsys, monkeypatch):
    monkeypatch.delenv("RENORMFOREST_CAPS", raising=False)
    assert cli.main(["--config", config_path(model), "export-dot", selection]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
