"""`certify` passes only when the convergence theorem's hypotheses hold: it
names every failed hypothesis under "hypotheses" and sets "pass" to false,
and it checks each hypothesis at most once per tree (or per cumulant set)
and Workbench."""
import json
from pathlib import Path

import pytest

from renormforest import powercount
from renormforest.workbench import Workbench, parse_config

ROOT = Path(__file__).resolve().parent.parent


def workbench(model: str, noise: str = None, cumulants: dict = None) -> Workbench:
    """A shipped configuration, optionally with another noise homogeneity or
    cumulant set."""
    config = json.loads((ROOT / "configs" / f"{model}.json").read_text())
    if noise is not None:
        (name,) = config["types"]["noises"]
        config["types"]["noises"][name] = noise
    if cumulants is not None:
        config["cumulants"] = cumulants
    return Workbench(parse_config(json.dumps(config)))


@pytest.mark.parametrize("model", ["kpz", "phi4_3"])
def test_shipped_trees_meet_every_hypothesis(model):
    wb = workbench(model)
    assert wb.analysis.failed_cumulant_hypotheses == ()
    for t in wb.basis():
        assert wb.analysis(t).failed_hypotheses == ()


def test_subtree_power_counting_fails_below_the_kpz_threshold():
    """At |l| = -7/4 the two-noise tree t(l)*t(l) fails both the plain
    super-regularity and the Gaussian theorem's subtree bullets."""
    report = workbench("kpz", noise="-7/4").cmd_certify("T2")
    assert report["tree"] == "t(l)*t(l)"
    assert report["pass"] is False
    assert report["hypotheses"] == ["super_regularity", "theorem_conditions"]


def test_super_regularity_with_third_cumulants():
    """With a third cumulant the gain of the cumulant homogeneity replaces
    the Gaussian margins, and the bullets are not checked."""
    triples = {"mode": "explicit", "blocks": [["l", "l"], ["l", "l", "l"]]}
    wb = workbench("kpz", noise="-7/4", cumulants=triples)
    report = wb.cmd_certify("T2")
    assert report["pass"] is False
    assert report["hypotheses"] == ["super_regularity"]
    assert workbench("kpz", cumulants=triples).cmd_certify("T2")["pass"] is True


def test_higher_cumulant_margin_fails_without_kappa():
    """At |Xi| = -5/2 a pair sits exactly at -|s| and gains nothing from its
    renormalization, so the margin is zero; every certificate of I(Xi)
    passes, and the report still fails."""
    report = workbench("phi4_3", noise="-5/2").cmd_certify("T1")
    assert report["tree"] == "I(Xi)"
    assert all(row["pass"] for row in report["classes"])
    assert report["pass"] is False
    assert report["hypotheses"] == ["higher_cum_check"]


def test_hypotheses_are_checked_once_per_workbench(monkeypatch):
    calls = {}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # one walk over a tree's subtrees checks both per-tree hypotheses
    counted(powercount, "subtree_hypotheses")
    counted(powercount, "higher_cum_check")
    wb = workbench("kpz")
    trees = [f"T{i}" for i in range(len(wb.basis()))][:6]
    for _ in range(2):
        for tid in trees:
            assert wb.cmd_certify(tid)["pass"] is True
    assert calls == {"higher_cum_check": 1, "subtree_hypotheses": len(trees)}
