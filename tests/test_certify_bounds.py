"""The certifier's per-subset bounds (`Certifier._failures`: each subset's
value summed from the class's weights in one subset loop, its bounds read
from per-class Wick tables) and its connectivity test
(`powercount.connected`, one mask closure) against the first per-subset
scan (`certify_oracle.failures`, on the oracle's own weights and subset
tables) and the witness search's split prune
(`certify_oracle.connected_split`): the same order alpha and the same
failures, in kind, subset, value, bound and order, on every chaos class of
both bases, of the rougher-noise variants, of random node-labelled trees
under Gaussian and explicit cumulants, and of a class whose Wick set mixes
two noise types; and the same verdict on every vertex subset of those
classes."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import certify_oracle as oracle
from conftest import KPZ as KPZ_SETTING
from conftest import CERTIFY_VARIANTS, MAX_DIV, ROOT, decorated_trees, multiindices, variant_workbench
from renormforest.forests import leaf_partitions
from renormforest.powercount import Analyses, Certifier, bits, connected
from renormforest.rules import CumulantSet, margin
from renormforest.scaling import MultiIndex, ScalingSpec, TypeTable, ZERO_MI
from renormforest.trees import DecoratedTree, integrate, noise, tree_product
from renormforest.workbench import DEFAULT_CAPS, Workbench, parse_config


def check_class(cert: Certifier, wick: frozenset, pi: frozenset) -> list:
    """Compare both ways on one class of the certifier's tree; the
    failures."""
    eu = cert.build(pi)
    got = cert._failures(wick, pi, eu)
    assert got == oracle.failures(cert, wick, pi, eu), (wick, pi)
    masks = list(eu.masks.values())
    split = oracle.connected_split(masks)
    for a in range(1, 1 << len(eu.verts)):
        assert connected(masks, a) == split(a, [1 << v for v in bits(a)]), (wick, pi, a)
    return got[1]


def check_every_class(wb: Workbench) -> int:
    """Compare both ways on every class of every basis tree; the count of
    classes."""
    count = 0
    for t in wb.basis():
        cert = Certifier(wb.analysis(t), wb.config.caps["max_coalescence_vertices"])
        for wick, pi in cert.analysis.gaussian_classes:
            check_class(cert, wick, pi)
            count += 1
    return count


@pytest.mark.parametrize("model,classes", [("kpz", 32), ("phi4_3", 54)])
def test_tables_match_the_scan_on_the_bases(model, classes):
    wb = Workbench(parse_config((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")))
    assert check_every_class(wb) == classes


@pytest.mark.parametrize("variant", CERTIFY_VARIANTS, ids=["/".join(v) for v in CERTIFY_VARIANTS])
def test_tables_match_the_scan_on_variants(variant):
    assert check_every_class(variant_workbench(*variant))


GAUSSIAN = CumulantSet(KPZ_SETTING.table, "gaussian")
# cumulants of the KPZ noise of arity two to four
EXPLICIT = CumulantSet(KPZ_SETTING.table, "explicit", frozenset(("l",) * m for m in (2, 3, 4)))


@settings(max_examples=150, deadline=None)
@given(decorated_trees(max_edges=9), st.data())
def test_tables_match_the_scan_on_random_trees(t, data):
    """Random KPZ-typed trees with derivative decorations on their kernel
    edges and node labels on a random set of their true nodes, each with a
    random Wick set and admissible partition of the other leaves under
    Gaussian cumulants and under explicit cumulants of arity two to four,
    where it has one.  Neither basis carries node labels, so only this test
    reaches their weights."""
    table = KPZ_SETTING.table
    labelled = data.draw(st.sets(st.sampled_from(sorted(t.true_nodes(table)))))
    t = t.with_(node_dec={u: data.draw(multiindices()) for u in sorted(labelled)})
    leaves = sorted(t.leaf_nodes(table))
    checked = 0
    for cum in (GAUSSIAN, EXPLICIT):
        wick = data.draw(st.sets(st.sampled_from(leaves)) if leaves else st.just(set()))
        pis = leaf_partitions(t, table, cum, ground=[u for u in leaves if u not in wick])
        if pis:
            pi = data.draw(st.sampled_from(pis))
            cert = Certifier(Analyses(table, cum, MAX_DIV)(t), DEFAULT_CAPS["max_coalescence_vertices"])
            check_class(cert, frozenset(wick), pi)
            checked += 1
    assume(checked)


def two_noise_class():
    """KPZ scaling with a second, smoother noise m: the tree
    t(l)*t(m)*t(t(l)*t(m)), its upper l and m leaves kept in the Wick
    product and the lower ones paired."""
    table = TypeTable(
        ScalingSpec(2, (2, 1)),
        kernel_types={"t": Fraction(1)},
        noise_types={"l": Fraction(-151, 100), "m": Fraction(-5, 4)},
    )
    il, im = (integrate("t", ZERO_MI, noise(x), table) for x in ("l", "m"))
    t = tree_product(il, im, integrate("t", ZERO_MI, tree_product(il, im), table))
    cert = Certifier(Analyses(table, CumulantSet(table, "gaussian"), MAX_DIV)(t), DEFAULT_CAPS["max_coalescence_vertices"])
    return cert, t


def test_tables_match_the_scan_on_two_noise_types():
    cert, t = two_noise_class()
    table = cert.table
    lower = {u for u in t.leaf_nodes(table) if t.parent(u) == t.root}
    upper = t.leaf_nodes(table) - lower
    assert sorted(t.leaf_type(u, table) for u in upper) == ["l", "m"]
    check_class(cert, frozenset(upper), frozenset({frozenset(lower)}))


def test_the_margin_applies_to_subsets_without_the_basepoint():
    """KPZ: a root noise, t(l), and a time-differentiated kernel edge to a
    bare node, both noises in the Wick product; vertices *, 0, 1, 2.  The
    subsets without the basepoint add the margin 3/2 of their noises, and
    fail even so.  The full set fails by 1/50, and the margin of its noises
    would have passed it."""
    table = KPZ_SETTING.table
    t = DecoratedTree(
        root=0,
        edges={(0, 1): "t", (0, 2): "t", (0, 100): "l", (1, 101): "l"},
        edge_dec={(0, 2): MultiIndex({0: 1})},
        table=table,
    )
    cert = Certifier(Analyses(table, GAUSSIAN, MAX_DIV)(t), DEFAULT_CAPS["max_coalescence_vertices"])
    assert margin(GAUSSIAN, ["l"], ["l", "l"]) == Fraction(3, 2)
    assert check_class(cert, frozenset({0, 1}), frozenset()) == [
        ("integrability", 0b0110, 2, Fraction(37, 25)),
        ("integrability", 0b1010, 4, Fraction(149, 50)),
        ("integrability", 0b1110, 6, Fraction(112, 25)),
        ("integrability", 0b1111, 6, Fraction(299, 50)),
    ]
    assert 6 < Fraction(299, 50) + Fraction(3, 2)


def test_connected_grows_until_nothing_new_is_reached():
    """The path 0 - 1 - 2 - 3 with its edges listed from the far end: the
    reach of vertex 0 takes three passes over them to hold the path."""
    masks = [0b1100, 0b0110, 0b0011]
    assert connected(masks, 0b1111)
    assert connected(masks, 0b0110)
    assert not connected(masks, 0b1011)
    assert not connected(masks[:2], 0b1111)
