from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import KAPPA, KPZ, KPZ_BASIS, PHI4_BASIS, Phi4, decorated_trees
from generation_oracle import conforms
from renormforest.rules import (
    CumulantSet,
    RuleSpec,
    SubcriticalityError,
    check_subcritical,
    generate_trees,
    jump,
    production,
    subtree_hypotheses,
)
from renormforest.scaling import ScalingSpec, TypeTable
from renormforest.workbench import DEFAULT_CAPS, Workbench, WorkbenchConfig, format_tree, frac_str
from tree_oracle import relabel_canonical


def named(basis, table):
    return [(format_tree(t, table), frac_str(t.homogeneity(table))) for t in basis]


def eligible_subtrees(t, table):
    """The subtrees with at least two true nodes, which the hypotheses
    check."""
    fict = t.fictitious_nodes(table)
    return [s for s in t.all_subtrees() if len(s.nodes - fict) >= 2]


def test_phi4_generation(phi4):
    basis = generate_trees(phi4.rule, Fraction(0), 11)
    assert named(basis, phi4.table) == PHI4_BASIS
    assert {phi4.xi, phi4.t1, phi4.t11, phi4.t111, phi4.t131} <= set(basis)
    # the bound keeps the search finite: no tree below 0 needs more edges
    assert generate_trees(phi4.rule, Fraction(0), 30) == basis


def test_empty_rule(phi4):
    empty = RuleSpec(phi4.table, productions={}, standalone_noises=("Xi",))
    basis = generate_trees(empty, Fraction(1), 6, poly_sdeg_bound=0)
    # no productions: just the primitives below the cutoff
    kinds = sorted(len(t.edge_items) for t in basis)
    assert kinds == [0, 1]


def test_kpz_generation(kpz):
    basis = generate_trees(kpz.rule, Fraction(0), 10)
    assert named(basis, kpz.table) == KPZ_BASIS
    assert {kpz.il, kpz.t211} <= set(basis)
    assert generate_trees(kpz.rule, Fraction(0), 30) == basis


def test_generation_closed_under_subtrees(phi4):
    basis = generate_trees(phi4.rule, Fraction(0), 9)
    codes = {t.canonical_code() for t in basis}
    for t in basis:
        for sf in t.all_subtrees():
            piece = relabel_canonical(t.restrict(sf))
            if piece.homogeneity(phi4.table) < 0 and conforms(phi4.rule, piece):
                assert piece.canonical_code() in codes


def test_subcriticality():
    phi4 = Phi4()
    assert check_subcritical(phi4.rule)["pass"]
    # |Xi| = -4 is supercritical for the cubic rule
    sc = ScalingSpec(4, (2, 1, 1, 1))
    table = TypeTable(sc, kernel_types={"I": Fraction(2)}, noise_types={"Xi": Fraction(-4)})
    rule = RuleSpec(
        table,
        productions={"I": frozenset({production("I", "I", "I"), production("Xi")})},
    )
    res = check_subcritical(rule)
    assert not res["pass"]
    assert res["offender"] is not None
    # no productions: vacuous pass
    empty = RuleSpec(table, productions={})
    assert check_subcritical(empty)["pass"]
    config = WorkbenchConfig(sc, table, CumulantSet(table, "gaussian"), rule, DEFAULT_CAPS)
    with pytest.raises(SubcriticalityError):
        Workbench(config).basis()


def test_super_regularity_phi4(phi4):
    assert len(eligible_subtrees(phi4.t111, phi4.table)) >= 3
    assert subtree_hypotheses(phi4.t111, phi4.cum)["super_regularity"] == []
    # a lone noise has no eligible subtree
    assert eligible_subtrees(phi4.xi, phi4.table) == []
    assert subtree_hypotheses(phi4.xi, phi4.cum) == {
        "super_regularity": [],
        "theorem_conditions": [],
    }


def test_super_regularity_failure():
    # at |Xi| = -3 the exhaustive scan flags the full three-noise tree
    # (zero-label homogeneity -3, jump gain 2); the two-noise cherry still
    # clears its margin there and first fails at |Xi| = -7/2
    bad = Phi4(xi_hom=Fraction(-3))
    failing = subtree_hypotheses(bad.t111, bad.cum)["super_regularity"]
    assert {zero_hom for _, zero_hom in failing} == {Fraction(-3)}
    worse = Phi4(xi_hom=Fraction(-7, 2))
    failing2 = subtree_hypotheses(worse.t11, worse.cum)["super_regularity"]
    assert Fraction(-3) in {zero_hom for _, zero_hom in failing2}


def test_theorem_conditions(phi4, kpz):
    assert subtree_hypotheses(phi4.t131, phi4.cum)["theorem_conditions"] == []
    assert subtree_hypotheses(kpz.t211, kpz.cum)["theorem_conditions"] == []
    worse = Phi4(xi_hom=Fraction(-5, 2) - Fraction(1, 4))
    assert subtree_hypotheses(worse.t131, worse.cum)["theorem_conditions"]


@settings(max_examples=50, deadline=None)
@given(decorated_trees(max_edges=7))
def test_gaussian_bullets_are_super_regularity_written_out(t):
    """Under Gaussian noise with its homogeneity in (-|s|, 0), here every
    -k/12 against |s| = 3, a subtree with a noise fails super-regularity
    exactly when it fails the three Gaussian bullets, with the same
    zero-label homogeneity."""
    for twelfths in range(1, 36):
        table = TypeTable(
            KPZ.scaling, kernel_types={"t": Fraction(1)}, noise_types={"l": Fraction(-twelfths, 12)}
        )
        failed = subtree_hypotheses(t, CumulantSet(table, "gaussian"))
        with_noise = [(sf, base) for sf, base in failed["theorem_conditions"] if t.leaves_of(sf, table)]
        assert failed["super_regularity"] == with_noise


def test_cumulant_set_invariants(phi4):
    with pytest.raises(ValueError):  # singleton block
        CumulantSet(phi4.table, "explicit", frozenset({("Xi",)}))
    with pytest.raises(ValueError):  # missing same-type pair
        CumulantSet(phi4.table, "explicit", frozenset())
    # subset closure: a triple without its pairs
    sc = ScalingSpec(2, (2, 1))
    table = TypeTable(sc, kernel_types={"t": Fraction(1)}, noise_types={"l": Fraction(-1)})
    with pytest.raises(ValueError):
        CumulantSet(table, "explicit", frozenset({("l", "l", "l")}))
    ok = CumulantSet(table, "explicit", frozenset({("l", "l", "l"), ("l", "l")}))
    assert ok.max_arity == 3
    assert ok.admits(("l", "l", "l"))
    # arity >= 3 homogeneity bound: |t([3])| = -3 <= (1-3)*3 = -6 holds, but
    # a deeper noise breaks it
    table_bad = TypeTable(sc, kernel_types={"t": Fraction(1)}, noise_types={"l": Fraction(-21, 10)})
    with pytest.raises(ValueError):
        CumulantSet(table_bad, "explicit", frozenset({("l", "l", "l"), ("l", "l")}))


def test_jump_values(phi4, kpz):
    # Gaussian pairs: an even block needs two partners, an odd block one
    assert jump(phi4.cum, ["Xi"], ["Xi", "Xi"]) == 2 * (
        Fraction(-5, 2) - KAPPA
    ) + 2 * 5
    assert jump(kpz.cum, ["l"], ["l"]) == (Fraction(-3, 2) - KAPPA) + 3
    assert jump(phi4.cum, [], ["Xi", "Xi"]) is None
    # empty block: no partition can meet it
    assert jump(phi4.cum, ["Xi"], []) is None


def test_gaussian_partitions(phi4):
    assert phi4.cum.admits_full_partition(["Xi", "Xi"])
    assert not phi4.cum.admits_full_partition(["Xi"])
    assert not phi4.cum.admits_full_partition(["Xi"] * 3)
    assert len(list(phi4.cum.partitions_of(["Xi"] * 4))) == 3
