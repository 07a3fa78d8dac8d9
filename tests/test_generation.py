"""The branch-and-bound tree generator against the exhaustive oracle and
against the memoized search its listings replaced, and its invariants as
property tests."""
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import renormforest.rules
from conftest import ROOT, Kpz, Phi4
from generation_oracle import conforms, exhaustive_trees, memoized_search
from renormforest.rules import RuleSpec, generate_trees, production
from renormforest.scaling import ScalingSpec, TypeTable

MODELS = {"phi4": Phi4(), "kpz": Kpz()}


def supercritical_rule() -> RuleSpec:
    """The cubic rule at |Xi| = -4, which fails the subcriticality test."""
    sc = ScalingSpec(4, (2, 1, 1, 1))
    table = TypeTable(sc, kernel_types={"I": Fraction(2)}, noise_types={"Xi": Fraction(-4)})
    return RuleSpec(
        table,
        productions={"I": frozenset({production("I", "I", "I"), production("Xi")})},
        standalone_noises=("Xi",),
    )


@pytest.mark.parametrize("max_edges", range(1, 8))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_matches_oracle(model, max_edges):
    rule = MODELS[model].rule
    for cutoff in (Fraction(0), Fraction(1), Fraction(2)):
        assert generate_trees(rule, cutoff, max_edges) == exhaustive_trees(
            rule, cutoff, max_edges
        )


@pytest.mark.parametrize("max_edges", range(1, 6))
def test_matches_oracle_with_labels(kpz, max_edges):
    for cutoff in (Fraction(0), Fraction(1), Fraction(2)):
        got = generate_trees(kpz.rule, cutoff, max_edges, poly_sdeg_bound=1)
        assert got == exhaustive_trees(kpz.rule, cutoff, max_edges, poly_sdeg_bound=1)
    # labelled trees do occur, so the label bound is exercised
    assert any(t.node_dec_items for t in got)


@pytest.mark.parametrize("max_edges", range(1, 7))
def test_matches_oracle_supercritical(max_edges):
    rule = supercritical_rule()
    for cutoff in (Fraction(0), Fraction(1), Fraction(2)):
        assert generate_trees(rule, cutoff, max_edges) == exhaustive_trees(rule, cutoff, max_edges)


def test_matches_oracle_empty_rule(phi4):
    empty = RuleSpec(phi4.table, productions={}, standalone_noises=("Xi",))
    for cutoff in (Fraction(-3), Fraction(0), Fraction(1)):
        assert generate_trees(empty, cutoff, 6) == exhaustive_trees(empty, cutoff, 6)


CUTOFFS = [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(5, 2)]


def with_noise_hom(rule: RuleSpec, hom: Fraction) -> RuleSpec:
    """The rule with its one noise type at homogeneity `hom`."""
    table = rule.table
    (name,) = table.noise_types
    table = TypeTable(table.scaling, kernel_types=table.kernel_types, noise_types={name: hom})
    return RuleSpec(table, rule.productions, rule.standalone_noises)


@st.composite
def noise_homs(draw, abs_s: int) -> Fraction:
    """p/q inside (-|s|, 0) with q <= 12."""
    q = draw(st.integers(min_value=1, max_value=12))
    return Fraction(draw(st.integers(min_value=1 - abs_s * q, max_value=-1)), q)


@settings(deadline=None, max_examples=40)
@given(
    data=st.data(),
    model=st.sampled_from(sorted(MODELS)),
    cutoff=st.sampled_from(CUTOFFS),
    poly_sdeg_bound=st.sampled_from([0, 1]),
)
def test_matches_oracle_any_denominators(data, model, cutoff, poly_sdeg_bound):
    """The generator counts homogeneities in integer units of the common
    denominator of the cutoff and the type homogeneities; any denominator
    of either must give the oracle's basis.  The oracle's cost grows with
    the labelled trees it enumerates (about a minute for phi4 at 5 edges with
    labels), so labelled cases stop at 3 edges."""
    max_edges = data.draw(st.integers(min_value=1, max_value=3 if poly_sdeg_bound else 5))
    rule = MODELS[model].rule
    hom = data.draw(noise_homs(rule.table.scaling.abs_s))
    rule = with_noise_hom(rule, hom)
    got = generate_trees(rule, cutoff, max_edges, poly_sdeg_bound)
    assert got == exhaustive_trees(rule, cutoff, max_edges, poly_sdeg_bound)


@settings(deadline=None, max_examples=25)
@given(
    model=st.sampled_from(sorted(MODELS)),
    cutoff=st.sampled_from(CUTOFFS),
    max_edges=st.integers(min_value=1, max_value=6),
)
def test_generation_invariants(model, cutoff, max_edges):
    m = MODELS[model]
    basis = generate_trees(m.rule, cutoff, max_edges)
    for t in basis:
        assert conforms(m.rule, t)
        assert t.homogeneity(m.table) < cutoff
        assert len(t.edge_items) <= max_edges
    codes = [t.canonical_code() for t in basis]
    assert len(set(codes)) == len(codes)
    bigger = set(generate_trees(m.rule, cutoff, max_edges + 1))
    assert set(basis) <= bigger


# one set-up of both shipped bases, counting the trees built: the number of
# `DecoratedTree.__init__` calls, then the canonical code of each grafted tree
# in the order the generator grafted it
SETUP_WALK = """
from pathlib import Path
import renormforest.rules
from renormforest.trees import DecoratedTree
from renormforest.workbench import Workbench, parse_config

built, grafted = [], []
init, graft = DecoratedTree.__init__, renormforest.rules.graft

def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

def counted_graft(*args):
    grafted.append(graft(*args))
    return grafted[-1]

DecoratedTree.__init__ = counted
renormforest.rules.graft = counted_graft
for model in ("kpz", "phi4_3"):
    Workbench(parse_config(Path(f"configs/{model}.json").read_text(encoding="utf-8"))).basis()
print(len(built))
for t in grafted:
    print(t.canonical_code())
"""


def test_setup_builds_few_trees():
    """Setting up both shipped bases grafts each of its 15 distinct trees
    once, and builds 17 trees: one per graft, as `graft` lays out the
    canonical labelling, and the two bare noises (142 trees and 70 grafts
    when a tree was grafted again for every budget, bound and order of equal
    branches that asked for it, and 32 trees when each graft was built again
    in its canonical labelling).  The productions are walked in sorted order,
    so the trees are grafted in one order under any hash seed; seeds 0 and 3
    iterate the rule's sets of productions in different orders."""
    env = dict(os.environ)
    env.pop("RENORMFOREST_CAPS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", SETUP_WALK], env={**env, "PYTHONHASHSEED": seed}, cwd=ROOT,
            capture_output=True, check=True, text=True,
        ).stdout
        for seed in ("0", "3")
    ]
    assert outputs[0] == outputs[1]
    built, *grafted = outputs[0].splitlines()
    assert len(set(grafted)) == len(grafted) == 15
    assert int(built) <= 17


@pytest.mark.parametrize("poly_sdeg_bound", [0, 1])
@pytest.mark.parametrize("model", sorted(MODELS))
def test_each_call_grafts_each_distinct_tree_once(monkeypatch, model, poly_sdeg_bound):
    """Each tree is listed once, under its root production and edge count,
    and equal entries take their subtrees in one order, so no call grafts
    one tree twice, though phi4's production (I, I, I) and KPZ's (t, t) take
    distinct subtrees on equal entries."""
    results = []
    graft = renormforest.rules.graft

    def counted_graft(*args):
        results.append(graft(*args))
        return results[-1]

    monkeypatch.setattr(renormforest.rules, "graft", counted_graft)
    rule = MODELS[model].rule
    for cutoff in (Fraction(0), Fraction(1)):
        for max_edges in range(1, 7 if poly_sdeg_bound else 8):
            results.clear()
            generate_trees(rule, cutoff, max_edges, poly_sdeg_bound)
            codes = [t.canonical_code() for t in results]
            assert len(set(codes)) == len(codes)


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    model=st.sampled_from(sorted(MODELS)),
    cutoff=st.fractions(min_value=-2, max_value=3, max_denominator=12),
    max_edges=st.integers(min_value=1, max_value=11),
    poly_sdeg_bound=st.sampled_from([0, 1]),
)
def test_matches_memoized_search(data, model, cutoff, max_edges, poly_sdeg_bound):
    """The listings per root production and edge count give the trees that
    the search memoized on (incoming, budget, bound) gives, in the same
    order and each in the same labelling, with the same codes.  Without
    node labels the noise homogeneity is drawn too, down to supercritical
    values, where the other entries of a production can weigh less than
    nothing, so that its subtrees are asked for trees above the cutoff.
    Labelled trees that far down number in the hundreds of thousands at 11
    edges, so labelled cases keep the model's noise."""
    rule = MODELS[model].rule
    if not poly_sdeg_bound:
        rule = with_noise_hom(rule, data.draw(noise_homs(rule.table.scaling.abs_s)))
    got = generate_trees(rule, cutoff, max_edges, poly_sdeg_bound)
    want = memoized_search(rule, cutoff, max_edges, poly_sdeg_bound)
    assert [(t.embedded_key(), t.canonical_code()) for t in got] == [
        (t.embedded_key(), t.canonical_code()) for t in want
    ]


@pytest.mark.parametrize(
    "model, hom, cutoff, max_edges, size",
    [
        ("phi4", Fraction(-3), Fraction(0), 9, 9),
        ("kpz", Fraction(-2), Fraction(0), 9, 10),
        ("kpz", Fraction(-2), Fraction(0), 11, 21),
        ("phi4", Fraction(-7, 2), Fraction(0), 5, 6),
        ("phi4", Fraction(-9, 2), Fraction(0), 9, 79),
        ("kpz", Fraction(-11, 4), Fraction(-2), 9, 24),
        ("kpz", Fraction(-11, 4), Fraction(0), 7, 29),
    ],
)
def test_matches_memoized_search_at_and_below_criticality(model, hom, cutoff, max_edges, size):
    """At a critical noise (the first three cases) homogeneity stops growing
    along some trees and the bound prunes least; the listings' bounds are
    worked out from the root down, where edge counts fall, so they are
    finite there too.  Below criticality the other entries of a production
    weigh less than nothing, so a listing is asked for trees above the
    cutoff, and each asked bound must leave the other entries exactly the
    edges the tree has left for them: with one edge fewer, each of the last
    four bases loses trees."""
    rule = with_noise_hom(MODELS[model].rule, hom)
    got = generate_trees(rule, cutoff, max_edges)
    assert len(got) == size
    want = memoized_search(rule, cutoff, max_edges)
    assert [(t.embedded_key(), t.canonical_code()) for t in got] == [
        (t.embedded_key(), t.canonical_code()) for t in want
    ]
