"""The BPHZ expansion and the renormalize report of every basis tree of both
shipped models, pinned by term count and by digest.

The digests were recorded on the code that summed each expansion by
repeated `FormalSum` additions, before the extraction loops were merged, and
that held every coefficient as a `Fraction`, so the current code is checked
against that code's output.  The expansion is read from the `bphz` command,
whose rows are the ones the digest hashes."""
import hashlib
import json
from pathlib import Path

import pytest

from conftest import BPHZ_TERMS
from renormforest.workbench import Workbench, parse_config, report_emit

ROOT = Path(__file__).resolve().parent.parent

# (sha256 of the expansion's sorted terms, sha256 of the renormalize report)
PINS = {
    "kpz/T0": ("c7160e3197e9906c758f66233cd9ffde968c96ad46278ed2232cebfc899838c2", "ee427aad09ed875ae4a4805e35fbdd9ea378d5f4575c352f66d9490de9f3f414"),
    "kpz/T1": ("5229aab7054f63ca93de461ba8091386e33ca4c6a1e0c0bf902b6cd221e40c56", "898a55699283b6012052faf7fc4faeaddec68c517ead124751ca2152d229080e"),
    "kpz/T2": ("bf0248637031c3bb8bf14a6f561d4bf3939a3588a6b923a0a08f034e02b78db4", "24bddb18a667c4175afd48cdaea90164ca400ff5557d37c17534b382bf41a42c"),
    "kpz/T3": ("47df83daac2c7b921b6bebb1142fae787266310201c25fa704773afa960712c4", "f05aca47640908e9066e113e086615dcd74dc2ed918c735645856f940247bfd4"),
    "kpz/T4": ("777d6606a05f7b5853deabf1e8275b00c6f4bfa3477e54da0ec76340639ea6f5", "dc1a7540ed049974c55bbb20ba4f66d6456c134aff3b850f251de66e03cb798d"),
    "kpz/T5": ("ed8b02984dc90e313dd183c73f21f35b2b3041d48622b4a94884d048345dad60", "9ab718ebf0d19c7b7e2d7dd91475b72442f65da2d31d846bd177231c6972c94c"),
    "kpz/T6": ("0ccdfebfc352cb4293d412799f761f017d3091725f754d466ed87d0d561b32b6", "1c5c6a0bbf46ba3ba29f768fcd02976d1eacbbe3ec2cfef30d24c72b6f3d86c2"),
    "kpz/T7": ("28ff03694a2cde4d9be625cab53270ec665df6ce1dffe2c2ff6e429863c7a32f", "2abb349c832a0c268483df367ac000c75d3e967b8765c0a0dd3cebbc2ee7abd0"),
    "phi4_3/T0": ("3c5d921fd30810b7501784d81491567e5181fdb5566917d9f0c8b7289a30ad47", "109ded5611c30378914e82b4b08ed4f0be229837dbb8e6e960729263fdfac051"),
    "phi4_3/T1": ("5cc1d7010a2e99ab433eaf1fecd02d8cb5c7831d2696ce0e594a04963d3a4af9", "5fd7ff01a38120d1848de07020c41718a1a08482ca059862133a41e6b0f43805"),
    "phi4_3/T2": ("0ce8c83d4ee1e853e1c3a6ece6c0de28d68f0953f7af6e22f9074dcf59b3d74b", "418ea704481bbf5170602886e0c192a4f5f71d896d1f5f37e5c7cd3a165cb333"),
    "phi4_3/T3": ("e78bf92eaecbd6cd372400e03eb34caf6637e1132f6f62da31b2dd7e76495dfb", "621e41c546dce1e4cf3e26008c5bb87a1edf446215fa89ae57a6ee26d674ac68"),
    "phi4_3/T4": ("d17b1fb61c5b17153fd94c3e87a1667e0a0a0c4941f95bc44465bb89f6eefbe8", "1d3aa8c6a286ece8a3094c390f2787d6bb436ab3951dad902763de1bcb093032"),
    "phi4_3/T5": ("636d5bfb665091d605f4e7a592488cca15ff143f88275e7d8bae9980cc408663", "8b4f6105bc177ec2b5ec65453718886fcb500edb1e6069c8bcce5ed3a857d879"),
    "phi4_3/T6": ("e08834b558d979675e93790a9319ccd95890be889575e79ddd7f5c9f783b39c8", "b690d28d8db99dcf84d44786649c7e3488e38d830d7a81956666c41dbe04f899"),
}

# sha256 of the renormalize report of every basis tree under explicit
# cumulants of the model's noise up to arity four (pairs, triples and
# quadruples), recorded on the code that computed each counterterm constant
# by its own recursion with a vanishing filter, before the report computed
# it as E Pi A_-.  They differ from the Gaussian reports on KPZ T5 and T6
# and on phi4_3 T3, T5 and T6.
CUMULANTS_TO_FOUR_PINS = {
    "kpz/T0": "ee427aad09ed875ae4a4805e35fbdd9ea378d5f4575c352f66d9490de9f3f414",
    "kpz/T1": "898a55699283b6012052faf7fc4faeaddec68c517ead124751ca2152d229080e",
    "kpz/T2": "24bddb18a667c4175afd48cdaea90164ca400ff5557d37c17534b382bf41a42c",
    "kpz/T3": "f05aca47640908e9066e113e086615dcd74dc2ed918c735645856f940247bfd4",
    "kpz/T4": "dc1a7540ed049974c55bbb20ba4f66d6456c134aff3b850f251de66e03cb798d",
    "kpz/T5": "5880f03d08c58538ba7fda8f8baa175c65bbd81dd0943cef9d86d5cc88fdcabd",
    "kpz/T6": "127e0befaa53dce43daed5360db35d02f9e7e470372aef27366046e5dfeb7aa2",
    "kpz/T7": "2abb349c832a0c268483df367ac000c75d3e967b8765c0a0dd3cebbc2ee7abd0",
    "phi4_3/T0": "109ded5611c30378914e82b4b08ed4f0be229837dbb8e6e960729263fdfac051",
    "phi4_3/T1": "5fd7ff01a38120d1848de07020c41718a1a08482ca059862133a41e6b0f43805",
    "phi4_3/T2": "418ea704481bbf5170602886e0c192a4f5f71d896d1f5f37e5c7cd3a165cb333",
    "phi4_3/T3": "15f4fb06c489d7d980050bb7923453c85bc3c745a5dfdd0170866363b6f4b095",
    "phi4_3/T4": "1d3aa8c6a286ece8a3094c390f2787d6bb436ab3951dad902763de1bcb093032",
    "phi4_3/T5": "43125cdcd195780e31c24f85148289dfa126ed7c7afcc53383890b7e2164b26a",
    "phi4_3/T6": "2cef0abd5f7a36eb07861b6a22b4f78fda910a3a220e6a1c18c704e08aad4ad9",
}
TREES = [(m, f"T{i}") for m in sorted(BPHZ_TERMS) for i in range(len(BPHZ_TERMS[m]))]


@pytest.fixture(scope="module")
def workbenches():
    return {
        m: Workbench(parse_config((ROOT / "configs" / f"{m}.json").read_text(encoding="utf-8")))
        for m in BPHZ_TERMS
    }


def expansion_digest(report: dict) -> str:
    """sha256 over the `bphz` report's rows: each term as (embedded keys of
    the three slots, coefficient), sorted, so that it does not depend on the
    order of the terms."""
    return hashlib.sha256("\n".join(report["terms"]).encode()).hexdigest()


def test_pins_cover_every_basis_tree(workbenches):
    assert sorted(PINS) == sorted(CUMULANTS_TO_FOUR_PINS) == sorted(f"{m}/{t}" for m, t in TREES)
    for m, wb in workbenches.items():
        assert len(wb.basis()) == len(BPHZ_TERMS[m])


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_bphz_and_renormalize_pinned(workbenches, model, tree_id):
    wb = workbenches[model]
    want_expansion, want_report = PINS[f"{model}/{tree_id}"]
    expansion = wb.cmd_bphz(tree_id)
    assert expansion["term_count"] == len(expansion["terms"]) == BPHZ_TERMS[model][int(tree_id[1:])]
    assert expansion_digest(expansion) == want_expansion
    report = report_emit(wb.cmd_renormalize(tree_id))
    assert hashlib.sha256(report.encode()).hexdigest() == want_report


@pytest.fixture(scope="module")
def workbenches_to_four():
    """The shipped models with explicit cumulants of their noise up to
    arity four."""
    out = {}
    for m in BPHZ_TERMS:
        config = json.loads((ROOT / "configs" / f"{m}.json").read_text(encoding="utf-8"))
        (noise,) = config["types"]["noises"]
        config["cumulants"] = {"mode": "explicit", "blocks": [[noise] * k for k in (2, 3, 4)]}
        out[m] = Workbench(parse_config(json.dumps(config)))
    return out


@pytest.mark.parametrize("model,tree_id", TREES, ids=[f"{m}-{t}" for m, t in TREES])
def test_renormalize_with_cumulants_to_four_pinned(workbenches_to_four, model, tree_id):
    report = report_emit(workbenches_to_four[model].cmd_renormalize(tree_id))
    want = CUMULANTS_TO_FOUR_PINS[f"{model}/{tree_id}"]
    assert hashlib.sha256(report.encode()).hexdigest() == want
