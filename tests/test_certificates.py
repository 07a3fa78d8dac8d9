"""The power-counting certificate of every basis tree of both shipped
models, and of every basis tree of the rougher-noise variants.  At
kappa = 1/100 both models are subcritical, so the convergence theorem says
every chaos class of every shipped tree passes.

The digests were recorded on the code that searched the coalescence trees
containing each failing vertex subset for one the scale constraints realize
(the basis pins on that search's first implementation, which rebuilt the
interval constraints for every candidate tree and assembled every tree
before filtering), so the per-subset decision is checked against the
search's output: alpha, the violation rows and the failed hypotheses.

Neither basis carries node labels, and no basis certificate moves with its
kernel edges' decorations, so one KPZ-typed tree that carries both has its
classes pinned too."""
import hashlib
import json
from pathlib import Path

import pytest

import certify_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BPHZ_TERMS,
    CERTIFY_VARIANTS,
    KPZ,
    analyses,
    certifier,
    decorated_trees,
    multiindices,
    variant_workbench,
)
from renormforest.powercount import Certifier
from renormforest.scaling import MultiIndex
from renormforest.trees import DecoratedTree
from renormforest.workbench import Workbench, frac_str, parse_config, report_emit

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


# sha256 of the emitted certify report of each basis tree (T0, T1, ...) of
# each variant of `conftest.CERTIFY_VARIANTS`, its basis cut at seven edges
VARIANT_PINS = {
    ("phi4_3", "-251/100"): (
        "6d7c5c79390b53bdfe7261ba2f2e6724235ed3362faef65463c89d130918d116",
        "ac068d32adf0df95d3575731fa5186ffb0d3856b1eba125a0e229bf7f8cbac07",
        "1880d04470c874bbc8fd45ab431809849447699133541b0619804d347c9319d7",
        "27e94bda43c80f41b65b359eab69261618a12d1b8cd6a28bb49ee666797d6620",
    ),
    ("phi4_3", "-11/4"): (
        "6d7c5c79390b53bdfe7261ba2f2e6724235ed3362faef65463c89d130918d116",
        "ac068d32adf0df95d3575731fa5186ffb0d3856b1eba125a0e229bf7f8cbac07",
        "ab60332bc5c18dbd4928c621bdaee532f5b318b521e9b2268cc8f5d757180caa",
        "fdd8f65b302509ec91803ad0ac487ca554d65c61ff93d9c7d8c659b1e8b85347",
        "07e8931a62d7ec410b20959fbe4b393f8099e6d8c545f99a9fccc510f3a8fcbc",
        "a8778af323ba3f3de2553ec2d9050ccea34c00669c6a0cc84b538c61595047fa",
        "7f48c48119c1e40d1b9e7227dcd2b5e694cfe45907d1b7b592844397f1b6a09b",
    ),
    ("phi4_3", "-3"): (
        "e3a4ac32c0484652687a720f7cfc3ebf6e2c360ac26994527983d69bb393fdc5",
        "f81cc19d678b17bc6debc62d078c2271cb7c5d61543cab1608d446aed72e3acc",
        "c9230be5d60fdc1a1e3f6db062ab2675b40f473e2105816bf6b2caf93e58d5a1",
        "b1818df0049f9704c60632970167a2687328441bcc446fa5261395a70816c0c7",
        "57f2d1ec8d9e558055d4a03d850a6b230f0a684e5e51c635e8b7fe7001b19c3b",
        "d6eacec06ab26a145a6ab71e0a3b450ca8c37e2f905b56897bcb4ad5c8ae30be",
        "d12e9a3577b21769cdab50b5e4b2ea37f14ff23144cab9bfdbdf75bb51e7d3a8",
    ),
    ("kpz", "-151/100"): (
        "4ffa6c445391ead042f09e13be8bd60ecb8087e1e64d220bb3a443fcdd9cc086",
        "fe3312075f3ab69993f15c8e39cb8c3b84a80f6361eb17d6f05644c7ea0f5aad",
        "58ccb7256134f6bdf41d0b5328a4225cb1e0109121beabd0e4bf1f7c26b65002",
        "849a442f1a0936776cd3f6094f176da66895e525f5b8a5d942d1a6742720d717",
        "1057da0faaeefb90e3871d52e2bdbe5e293bd243de4baaa7c61bb29ab5b13913",
        "bc99e1eb62d1a7857f386c2287b47e4a49af5d5b60bdfef33a396c5fd7586e06",
    ),
    ("kpz", "-7/4"): (
        "4ffa6c445391ead042f09e13be8bd60ecb8087e1e64d220bb3a443fcdd9cc086",
        "fe3312075f3ab69993f15c8e39cb8c3b84a80f6361eb17d6f05644c7ea0f5aad",
        "c4daca9c3f23e33b445b59c9f101c4622b6bd43e526a75be3cd0f22d6b756245",
        "3f5e000ff07885f3f6b37058be0d728cfde4cc88d22e7661537ac8a7f3ffa19b",
        "d0c2acde719524ea8ee6f82e7a67da61bcc90fa76bd19cdbe6a4fdfa8ca05bc5",
        "2d657db479d0e9052a3f3903aeb5760e64756bdbdec7416cd0e657f7e301b106",
    ),
    ("kpz", "-19/10"): (
        "4ffa6c445391ead042f09e13be8bd60ecb8087e1e64d220bb3a443fcdd9cc086",
        "fe3312075f3ab69993f15c8e39cb8c3b84a80f6361eb17d6f05644c7ea0f5aad",
        "20937cd8924e481e9bf312a4d979859d694aa7a78ee9ebe48522ced6f6b8a00e",
        "dbb8ea342957c170d83df29744242aba116fd80174492a8f748b9368afa5ad01",
        "6fc409209e27b228ffd47b297bedd3190ff0554131d0f5dffab036ab0c9d02da",
        "dbc78afa754f18ad5a2207e40a5017f6ef6db1413769079edf484d13f664244b",
    ),
}


@pytest.mark.parametrize("variant", CERTIFY_VARIANTS, ids=["/".join(v) for v in CERTIFY_VARIANTS])
def test_variant_certificates_are_pinned(variant):
    wb = variant_workbench(*variant)
    got = tuple(
        hashlib.sha256(report_emit(wb.cmd_certify(f"T{i}")).encode()).hexdigest()
        for i in range(len(wb.basis()))
    )
    assert got == VARIANT_PINS[variant]


# Noises under every node: the root 0, labelled x_1, with kernel edges to 1,
# decorated d_1, and to 3; node 1 with a kernel edge to 2, labelled x_1.
LABELLED_FORK = DecoratedTree(
    root=0,
    edges={(0, 1): "t", (1, 2): "t", (0, 3): "t", (0, 100): "l", (1, 101): "l", (2, 102): "l", (3, 103): "l"},
    node_dec={0: MultiIndex({1: 1}), 2: MultiIndex({1: 1})},
    edge_dec={(0, 1): MultiIndex({1: 1})},
    table=KPZ.table,
)
# (wick, pi, pass, alpha, violation as (kind, vertex subset, value, bound))
# of each Gaussian class of `LABELLED_FORK`, in the analysis's order.
# Recorded once, and checked class by class against
# `certify_oracle.failures`, which builds the weights on its own: the same
# alpha, and each violation among the subsets it finds failing.
LABELLED_FORK_CLASSES = (
    ([], [[0, 1], [2, 3]], True, "-24/25", None),
    ([], [[0, 2], [1, 3]], False, "-24/25", ("integrability", 6, "3", "3")),
    ([], [[0, 3], [1, 2]], False, "-24/25", ("integrability", 6, "3", "3")),
    ([0, 1], [[2, 3]], False, "-199/50", ("integrability", 6, "3", "37/25")),
    ([0, 2], [[1, 3]], False, "-199/50", ("integrability", 6, "3", "149/50")),
    ([0, 3], [[1, 2]], False, "-199/50", ("integrability", 6, "3", "149/50")),
    ([1, 2], [[0, 3]], False, "-199/50", ("integrability", 6, "3", "149/50")),
    ([1, 3], [[0, 2]], False, "-199/50", ("integrability", 6, "3", "149/50")),
    ([2, 3], [[0, 1]], True, "-199/50", None),
    ([0, 1, 2, 3], [], False, "-7", ("integrability", 6, "3", "37/25")),
)


def test_node_labelled_edge_decorated_certificate_is_pinned():
    """alpha sums every weight, so a node label's weight -|n_u|_s and a
    kernel edge's |k|_s each move it; the violations' values read the
    decorated edge (0, 1)."""
    cert = certifier(KPZ, LABELLED_FORK)
    got = []
    for wick, pi in analyses(KPZ)(LABELLED_FORK).gaussian_classes:
        res = cert.certify(wick, pi)
        v = res.get("violation")
        row = (sorted(wick), sorted(sorted(b) for b in pi), res["pass"], frac_str(res["alpha"]))
        got.append((*row, v and (v[0], v[1], frac_str(v[2]), frac_str(v[3]))))
        alpha, failures = certify_oracle.failures(cert, wick, pi, cert.build(pi))
        assert alpha == res["alpha"]
        assert v is None or v in failures
    assert tuple(got) == LABELLED_FORK_CLASSES


def orbit_shortcut_matches_every_class(cert: Certifier) -> list[dict]:
    """`Certifier.certify_classes`, one certificate per automorphism orbit,
    gives every class the result that certifying it alone gives
    (`certify_oracle.certify_each`); those results."""
    got = cert.certify_classes()
    assert got == certify_oracle.certify_each(cert)
    return got


def basis_certifiers(wb: Workbench) -> list[Certifier]:
    return [Certifier(wb.analysis(t), wb.config.caps["max_coalescence_vertices"]) for t in wb.basis()]


@pytest.mark.parametrize("model", sorted(BPHZ_TERMS))
def test_orbit_shortcut_matches_every_class_on_the_bases(workbenches, model):
    for cert in basis_certifiers(workbenches[model]):
        orbit_shortcut_matches_every_class(cert)


# The failing classes of each variant's basis that are not their orbit's
# representative, and so are certified themselves.
FAILING_NON_REPRESENTATIVES = {
    ("phi4_3", "-251/100"): 0,
    ("phi4_3", "-11/4"): 4,
    ("phi4_3", "-3"): 6,
    ("kpz", "-151/100"): 0,
    ("kpz", "-7/4"): 1,
    ("kpz", "-19/10"): 1,
}


@pytest.mark.parametrize("variant", CERTIFY_VARIANTS, ids=["/".join(v) for v in CERTIFY_VARIANTS])
def test_orbit_shortcut_matches_every_class_on_variants(variant):
    failing = 0
    for cert in basis_certifiers(variant_workbench(*variant)):
        results = orbit_shortcut_matches_every_class(cert)
        reps = cert.analysis.representatives
        failing += sum(r != i and not results[i]["pass"] for i, r in enumerate(reps))
    assert failing == FAILING_NON_REPRESENTATIVES[variant]


@settings(max_examples=60, deadline=None)
@given(decorated_trees(max_edges=8), st.booleans(), st.data())
def test_orbit_shortcut_matches_every_class_on_random_trees(t, bare, data):
    """Random KPZ-typed trees, with derivative decorations on their kernel
    edges or, to have more automorphisms, without, and node labels on a
    random set of their true nodes."""
    if bare:
        t = t.with_(edge_dec={})
    labelled = data.draw(st.sets(st.sampled_from(sorted(t.true_nodes(KPZ.table)))))
    t = t.with_(node_dec={u: data.draw(multiindices()) for u in sorted(labelled)})
    orbit_shortcut_matches_every_class(certifier(KPZ, t))


def test_orbits_share_their_failing_subsets(workbenches):
    """Over the 86 chaos classes of the shipped bases, in 46 automorphism
    orbits: 61 pass only because `Certifier._realizable` finds no failing
    subset realizable, and each class has as many failing subsets as its
    orbit's representative, and the same verdict and alpha."""
    classes = orbits = pruned = 0
    for model in sorted(BPHZ_TERMS):
        for cert in basis_certifiers(workbenches[model]):
            each = certify_oracle.certify_each(cert)
            reps = cert.analysis.representatives
            for res, r in zip(each, reps):
                assert res == each[r]
            classes += len(each)
            orbits += len(set(reps))
            pruned += sum(res["pass"] and res["failing_subsets"] > 0 for res in each)
    assert (classes, orbits, pruned) == (86, 46, 61)
