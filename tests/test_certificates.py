"""The power-counting certificate of every basis tree of both shipped
models.  At kappa = 1/100 both models are subcritical, so the convergence
theorem says every chaos class of every tree passes.

The digests were recorded on the code that rebuilt the interval constraints
for every candidate coalescence tree and assembled every tree before
filtering, so the current search is checked against that code's output."""
import hashlib
import json
from pathlib import Path

import pytest

from conftest import BPHZ_TERMS
from renormforest.workbench import Workbench, parse_config, report_emit

ROOT = Path(__file__).resolve().parent.parent

# sha256 of the emitted certify report
PINS = {
    "kpz/T0": "4ffa6c445391ead042f09e13be8bd60ecb8087e1e64d220bb3a443fcdd9cc086",
    "kpz/T1": "fe3312075f3ab69993f15c8e39cb8c3b84a80f6361eb17d6f05644c7ea0f5aad",
    "kpz/T2": "58ccb7256134f6bdf41d0b5328a4225cb1e0109121beabd0e4bf1f7c26b65002",
    "kpz/T3": "849a442f1a0936776cd3f6094f176da66895e525f5b8a5d942d1a6742720d717",
    "kpz/T4": "1057da0faaeefb90e3871d52e2bdbe5e293bd243de4baaa7c61bb29ab5b13913",
    "kpz/T5": "bc99e1eb62d1a7857f386c2287b47e4a49af5d5b60bdfef33a396c5fd7586e06",
    "kpz/T6": "fbda7d7e89630798e6b01ec3cf265ece7c11290fd54bd3217bbfc58e8a33c26b",
    "kpz/T7": "888596fb16eca2257e697a4792e4ab037702f0d596c172b273ed2755ae6f8610",
    "phi4_3/T0": "6d7c5c79390b53bdfe7261ba2f2e6724235ed3362faef65463c89d130918d116",
    "phi4_3/T1": "ac068d32adf0df95d3575731fa5186ffb0d3856b1eba125a0e229bf7f8cbac07",
    "phi4_3/T2": "1880d04470c874bbc8fd45ab431809849447699133541b0619804d347c9319d7",
    "phi4_3/T3": "27e94bda43c80f41b65b359eab69261618a12d1b8cd6a28bb49ee666797d6620",
    "phi4_3/T4": "92887f500892a0de7583b8c30f2619e153cdf39afc25af7198f8f2c3b4315150",
    "phi4_3/T5": "696056fde37d3aeb9d6380c36b2f880d1b9ed04c139eb1c84e66124f90b08131",
    "phi4_3/T6": "7ac0fb56c97c6b7bafdf14ac6fc261081fe6d0ab155fe18d6f1f876072886de2",
}
TREES = [(m, f"T{i}") for m in sorted(BPHZ_TERMS) for i in range(len(BPHZ_TERMS[m]))]


@pytest.fixture(scope="module")
def workbenches():
    return {
        m: Workbench(parse_config((ROOT / "configs" / f"{m}.json").read_text(encoding="utf-8")))
        for m in BPHZ_TERMS
    }


def test_pins_cover_every_basis_tree():
    assert sorted(PINS) == sorted(f"{m}/{t}" for m, t in TREES)


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_every_certificate_passes(workbenches, model, tree_id):
    report = report_emit(workbenches[model].cmd_certify(tree_id))
    body = json.loads(report)
    assert body["pass"] is True
    assert body["classes"]
    assert all(row["pass"] and row["violation"] is None for row in body["classes"])
    assert hashlib.sha256(report.encode()).hexdigest() == PINS[f"{model}/{tree_id}"]
