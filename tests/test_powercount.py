import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from certify_oracle import div_universe, evaluate_hom, realizable, subset_tables, wick_contributions
from conftest import KAPPA, Phi4, certifier
from cumulant_oracle import CumulantHomogeneity, jump_recursion, partitions_list
from coalescence_oracle import full_mask
from renormforest.powercount import enumerate_trees, trees_containing
from renormforest.rules import CumulantSet, fict_gain, gain, higher_cum_check, jump
from renormforest.scaling import ScalingSpec, TypeTable


def test_default_consistency(phi4):
    ch = CumulantHomogeneity(phi4.cum)
    assert ch.consistency_check()["pass"]
    # item 1 verbatim: the total equals minus the block homogeneity
    block = ch.block(("Xi", "Xi"))
    for fam in enumerate_trees(2):
        assert sum(block(fam).values()) == -2 * (Fraction(-5, 2) - KAPPA)


def test_fict_gain_values(phi4, kpz):
    # |t(B)|_s = -3 - 2k with |s| = 3: ceil(2k) = 1
    assert fict_gain(kpz.table, ("l", "l")) == 1
    # phi4 pair: -5 - 2k with |s| = 5: ceil(2k) = 1
    assert fict_gain(phi4.table, ("Xi", "Xi")) == 1
    # a pair above -|s| gains nothing
    sc = ScalingSpec(2, (2, 1))
    table = TypeTable(sc, kernel_types={"t": Fraction(1)}, noise_types={"l": Fraction(-1)})
    assert fict_gain(table, ("l", "l")) == 0
    assert fict_gain(table, ("l",)) == 0


def test_ext_hom_and_gain_gaussian(phi4):
    ch = CumulantHomogeneity(phi4.cum)
    # a pair cannot extend inside a Gaussian cumulant set
    assert ch.ext_hom(("Xi", "Xi"), ["Xi"]) is None
    # a singleton is not an allowed block: attributed homogeneity zero
    assert ch.ext_hom(("Xi",), ["Xi"]) == 0
    # gain of a single noise: 0 - |t| = 5/2 + kappa
    for g in (gain(phi4.table, ("Xi",)), ch.gain(("Xi",), ["Xi"])):
        assert g == Fraction(5, 2) + KAPPA
    assert gain(phi4.table, ()) == ch.gain((), ["Xi"]) == 0
    # of a pair: the singleton branch wins, the pair branch is impossible
    for g in (gain(phi4.table, ("Xi", "Xi")), ch.gain(("Xi", "Xi"), ["Xi"])):
        assert g == Fraction(5, 2) + KAPPA


def test_ext_hom_explicit_triples():
    sc = ScalingSpec(2, (2, 1))
    table = TypeTable(sc, kernel_types={"t": Fraction(1)}, noise_types={"l": Fraction(-5, 4)})
    cum = CumulantSet(table, "explicit", frozenset({("l", "l"), ("l", "l", "l")}))
    ch = CumulantHomogeneity(cum)
    # a pair extends to a triple: the root-mass layout attributes zero to
    # any proper cluster
    assert ch.ext_hom(("l", "l"), ["l"]) == 0
    assert higher_cum_check(cum)
    assert ch.higher_cum_check()["pass"]
    assert ch.consistency_check()["pass"]


def test_higher_cum_check(phi4):
    assert higher_cum_check(phi4.cum)
    assert CumulantHomogeneity(phi4.cum).higher_cum_check()["pass"]
    # at |Xi| = -5/2 a pair sits at -|s| exactly and gains nothing
    assert not higher_cum_check(Phi4(xi_hom=Fraction(-5, 2)).cum)


@st.composite
def cumulant_sets(draw):
    """A random scaling, one to three noise types with homogeneities in
    (-|s|, 0), and a Gaussian or an explicit subset-closed cumulant set of
    arity at most 4 with every same-type pair; None when the explicit set
    breaks the arity bound that `CumulantSet` enforces."""
    s = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    scaling = ScalingSpec(len(s), tuple(s))
    abs_s = scaling.abs_s
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    homs = {x: -Fraction(draw(st.integers(1, 11)), 12) * abs_s for x in names}
    table = TypeTable(scaling, kernel_types={"k": Fraction(1)}, noise_types=homs)
    if draw(st.booleans()):
        return CumulantSet(table, "gaussian")
    multisets = [
        m for r in (2, 3, 4) for m in itertools.combinations_with_replacement(names, r)
    ]
    picked = draw(st.lists(st.sampled_from(multisets), max_size=4))
    blocks = {(x, x) for x in names}
    for m in picked:
        for r in range(2, len(m) + 1):
            blocks |= set(itertools.combinations(m, r))
    try:
        return CumulantSet(table, "explicit", frozenset(blocks))
    except ValueError:
        return None


@settings(max_examples=60, deadline=None)
@given(cumulant_sets(), st.data())
def test_closed_forms_match_the_tree_enumeration(cum, data):
    """The closed-form gain and higher-cumulant margin equal the
    tree-enumerating ones; the enumerated extended homogeneity is 0 except
    on an allowed block that no allowed block extends, where it is +infinity
    (None); and the root-concentrated homogeneity is consistent on every
    cumulant set the constructors accept."""
    if cum is None:
        return
    ch = CumulantHomogeneity(cum)
    noises = sorted(cum.table.noise_types)
    assert ch.consistency_check() == {"pass": True}
    assert higher_cum_check(cum) == ch.higher_cum_check()["pass"]
    for _ in range(4):
        a = tuple(sorted(data.draw(st.lists(st.sampled_from(noises), max_size=4))))
        pool = data.draw(st.lists(st.sampled_from(noises), max_size=3, unique=True))
        assert gain(cum.table, a) == ch.gain(a, pool)
        extends = any(
            cum.admits(a + extra)
            for n in range(1, cum.max_arity - len(a) + 1)
            for extra in itertools.combinations_with_replacement(sorted(pool), n)
        )
        assert ch.ext_hom(a, pool) == (None if cum.admits(a) and not extends else 0)


@settings(max_examples=60, deadline=None)
@given(cumulant_sets(), st.data())
def test_partitions_and_jump_match_the_recursions(cum, data):
    """The lazy partitions come in the order of the list-building recursion,
    and the jump read off them equals the one found by its own recursion
    over blocks meeting B, for blocks of up to four noises."""
    if cum is None:
        return
    noises = sorted(cum.table.noise_types)
    types = data.draw(st.lists(st.sampled_from(noises), max_size=6))
    assert list(cum.partitions_of(types)) == partitions_list(cum, types)
    for _ in range(4):
        pool = data.draw(st.lists(st.sampled_from(noises), max_size=3))
        block = data.draw(st.lists(st.sampled_from(noises), max_size=4))
        assert jump(cum, pool, block) == jump_recursion(cum, pool, block)


def _class(wick, pi):
    """A chaos class as `Certifier.certify` takes it: (Wick set, partition)."""
    return frozenset(wick), frozenset(frozenset(b) for b in pi)


def test_certify_111(phi4):
    lv = sorted(phi4.t111.leaf_nodes(phi4.table))
    cert = certifier(phi4, phi4.t111)
    res = cert.certify(*_class([lv[2]], [(lv[0], lv[1])]))
    assert res["pass"]
    assert res["alpha"] < 0
    assert res["alpha"] == Fraction(-6) + 2 * KAPPA


def test_certify_degenerate_two_vertices(phi4):
    """Just the root and the basepoint: the order is -|s| and there is
    nothing to violate."""
    t = phi4.t1
    cert = certifier(phi4, t)
    lv = sorted(t.leaf_nodes(phi4.table))
    # wick the only noise: no pairs; the quotient keeps the root, the leaf
    # node, and the basepoint
    res = cert.certify(*_class(lv, []))
    assert res["pass"]
    assert res["alpha"] < 0


def test_certify_131_all_classes(phi4):
    cert = certifier(phi4, phi4.t131)
    lv = sorted(phi4.t131.leaf_nodes(phi4.table))

    def pairings(xs):
        if not xs:
            yield []
            return
        a = xs[0]
        for i in range(1, len(xs)):
            for p in pairings(xs[1:i] + xs[i + 1 :]):
                yield [(a, xs[i])] + p

    for wick in lv:
        rest = [u for u in lv if u != wick]
        for p in pairings(rest):
            res = cert.certify(*_class([wick], p))
            assert res["pass"], (wick, p, res)
            assert res["alpha"] == Fraction(-7) + 4 * KAPPA


def test_certify_flips_on_bad_noise():
    bad = Phi4(xi_hom=Fraction(-3))
    lv = sorted(bad.t111.leaf_nodes(bad.table))
    cert = certifier(bad, bad.t111)
    wick, pi = _class([lv[2]], [(lv[0], lv[1])])
    res = cert.certify(wick, pi)
    assert not res["pass"]
    kind, a, _, _ = res["violation"]
    assert kind in ("integrability", "decay")
    # the coarsest coalescence tree through the violated subset realizes it
    n = len(cert.build(pi).verts)
    assert realizable(cert, pi, div_universe(cert.analysis, pi), frozenset({full_mask(n), a}))


def test_subset_reduction_matches_tree_scan(phi4):
    """Cross-check: the oracle's per-subset partial sums, which
    `test_certify_bounds` compares with the certifier's, equal the per-tree
    evaluation of the assembled homogeneity on every coalescence tree."""
    lv = sorted(phi4.t111.leaf_nodes(phi4.table))
    _, pi = _class([lv[2]], [(lv[0], lv[1])])
    cert = certifier(phi4, phi4.t111)
    built = cert.build(pi)
    n = len(built.verts)
    parts = wick_contributions(cert, pi, built)
    base, total = subset_tables(cert, pi, built)
    for fam in enumerate_trees(n):
        vals = evaluate_hom(parts, fam, n)
        assert sum(vals.values(), Fraction(0)) == total
        for a in fam:
            # a renormalized block strictly inside a cluster nets to zero
            # and the forced gate at the block itself is folded into the
            # table, so the evaluations agree on every cluster
            part = sum((v for c, v in vals.items() if (c & a) == c), Fraction(0))
            assert part == base[a]


def test_trees_containing():
    n = 5
    a = (1 << 1) | (1 << 3)
    fams = list(trees_containing(n, a))
    assert fams
    assert all(a in fam for fam in fams)
    direct = [fam for fam in enumerate_trees(n) if a in fam]
    assert {frozenset(f) for f in fams} == {frozenset(f) for f in direct}
