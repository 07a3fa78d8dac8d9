"""Shared settings: the two standard model problems, the worked example
trees used across the suite, and hypothesis strategies for random KPZ-typed
trees, plain and colored."""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from renormforest.multiscale import EdgeUniverse
from renormforest.powercount import Analyses, Certifier
from renormforest.rules import CumulantSet, RuleSpec, production
from renormforest.scaling import ExtLabel, MultiIndex, ScalingSpec, TypeTable, ZERO_MI
from renormforest.workbench import DEFAULT_CAPS, Workbench, parse_config
from renormforest.trees import (
    EMPTY_SUBFOREST,
    DecoratedTree,
    SubForest,
    integrate,
    noise,
    tree_product,
)

KAPPA = Fraction(1, 100)


class Phi4:
    """Parabolic scaling in 3+1 dimensions, one kernel of order 2 and one
    noise of regularity -5/2 - kappa, cubic nonlinearity."""

    def __init__(self, xi_hom: Fraction = Fraction(-5, 2) - KAPPA):
        self.scaling = ScalingSpec(4, (2, 1, 1, 1))
        self.table = TypeTable(
            self.scaling, kernel_types={"I": Fraction(2)}, noise_types={"Xi": xi_hom}
        )
        self.cum = CumulantSet(self.table, "gaussian")
        self.rule = RuleSpec(
            self.table,
            productions={
                "I": frozenset(
                    {
                        production("I", "I", "I"),
                        production("I", "I"),
                        production("I"),
                        production(),
                        production("Xi"),
                    }
                )
            },
            standalone_noises=("Xi",),
        )
        self.xi = noise("Xi")
        self.t1 = integrate("I", ZERO_MI, self.xi, self.table)
        self.t11 = tree_product(self.t1, self.t1)
        self.t111 = tree_product(self.t1, self.t1, self.t1)
        self.t131 = tree_product(
            self.t1, integrate("I", ZERO_MI, self.t111, self.table), self.t1
        )


class Kpz:
    """Scaling (2,1), one kernel of order 1, one noise of regularity
    -3/2 - kappa, quadratic gradient nonlinearity."""

    def __init__(self):
        self.scaling = ScalingSpec(2, (2, 1))
        self.table = TypeTable(
            self.scaling,
            kernel_types={"t": Fraction(1)},
            noise_types={"l": Fraction(-3, 2) - KAPPA},
        )
        self.cum = CumulantSet(self.table, "gaussian")
        self.rule = RuleSpec(
            self.table,
            productions={
                "t": frozenset(
                    {
                        production("t", "t"),
                        production("t"),
                        production(),
                        production("l"),
                    }
                )
            },
            standalone_noises=("l",),
        )
        self.il = integrate("t", ZERO_MI, noise("l"), self.table)
        # the chain tree: root u1 carries a noise branch and u2; u2 carries a
        # noise branch and u3; u3 carries two noise branches
        self.t211 = tree_product(
            self.il,
            integrate(
                "t",
                ZERO_MI,
                tree_product(
                    self.il,
                    integrate("t", ZERO_MI, tree_product(self.il, self.il), self.table),
                ),
                self.table,
            ),
        )


KPZ = Kpz()
KPZ_DIMS = len(KPZ.scaling.s)
MAX_DIV = DEFAULT_CAPS["max_div"]


def analyses(setting) -> Analyses:
    """The per-tree analyses of a setting (`Phi4`, `Kpz`) under the default
    divergence cap."""
    return Analyses(setting.table, setting.cum, MAX_DIV)


def certifier(setting, t: DecoratedTree) -> Certifier:
    """The certifier of a setting's tree under the default caps."""
    return Certifier(analyses(setting)(t), DEFAULT_CAPS["max_coalescence_vertices"])


def project_doc(wb: Workbench, t: DecoratedTree, pi: frozenset, rng: random.Random) -> str:
    """A scale document for one leaf partition of a tree, its scales drawn
    from `rng`."""
    eu = EdgeUniverse(t, wb.config.table, pi)
    scales = {}
    for (kind, data), n in eu.random_assignment(rng).items():
        key = f"star:{data}" if kind == "star" else f"{kind}:{data[0]},{data[1]}"
        scales[key] = n
    return json.dumps({"pi": sorted(sorted(b) for b in pi), "scales": scales})


def project_docs(wb: Workbench, tree_id: str, rng: random.Random) -> list[str]:
    """One scale document per Gaussian class of the tree."""
    t = wb.tree_by_id(tree_id)
    return [project_doc(wb, t, pi, rng) for _, pi in wb.analysis(t).gaussian_classes]


def multiindices(max_entry: int = 1):
    return st.lists(
        st.integers(0, max_entry), min_size=KPZ_DIMS, max_size=KPZ_DIMS
    ).map(lambda k: MultiIndex(dict(enumerate(k))))


@st.composite
def decorated_trees(draw, max_edges: int = 10):
    """A random KPZ-typed tree of at most `max_edges` edges whose kernel
    edges carry random derivative decorations, so that the weights of its
    edges differ."""
    n = draw(st.integers(1, min(5, max_edges)))
    edges, edec = {}, {}
    for c in range(1, n + 1):
        p = draw(st.integers(0, c - 1))
        edges[(p, c)] = "t"
        edec[(p, c)] = draw(multiindices())
    # at most one noise per node; all_subtrees is exponential in the edges
    for u in draw(st.sets(st.integers(0, n), max_size=max_edges - n)):
        edges[(u, 100 + u)] = "l"
    return DecoratedTree(root=0, edges=edges, edge_dec=edec, table=KPZ.table)


@st.composite
def colored_trees(draw, max_edges: int = 8, base: DecoratedTree = None, max_label: int = 2):
    """A `decorated_trees` tree (or `base`) with new random node labels,
    entries at most `max_label`, on fictitious nodes too (where
    homogeneities ignore them), and a random
    coloring: possibly a rooted color-2 subtree,
    grown from the root by random kernel edges with the noise edges of its
    nodes riding along, and node-disjoint color-1 components outside it,
    whose nodes may carry random extended labels o."""
    t = draw(decorated_trees(max_edges)) if base is None else base
    table = KPZ.table
    ndec = {u: draw(multiindices(max_label)) for u in draw(st.sets(st.sampled_from(sorted(t.nodes))))}
    hat2 = EMPTY_SUBFOREST
    if draw(st.booleans()):
        nodes, edges = {t.root}, set()
        for u in t.top_down():
            for e in t.children(u):
                if u in nodes and (table.is_noise(t.edge_type(e)) or draw(st.booleans())):
                    nodes.add(e[1])
                    edges.add(e)
        hat2 = SubForest(frozenset(nodes), frozenset(edges))
    outside = [s for s in t.all_subtrees() if not s.nodes & hat2.nodes]
    comps: list[SubForest] = []
    if outside:
        for s in draw(st.lists(st.sampled_from(outside), max_size=3)):
            if all(not s.nodes & c.nodes for c in comps):
                comps.append(s)
    hat1 = SubForest(
        frozenset().union(*(c.nodes for c in comps)),
        frozenset().union(*(c.edges for c in comps)),
    )
    olabel = {}
    if hat1.nodes:
        for u in draw(st.sets(st.sampled_from(sorted(hat1.nodes)))):
            zd = {draw(st.integers(0, KPZ_DIMS - 1)): draw(st.integers(1, 2))}
            olabel[u] = ExtLabel(zd, {"t": draw(st.integers(0, 1))})
    return t.with_(node_dec=ndec, hat1=hat1, hat2=hat2, o_label=olabel)


# The known tree bases of the two models below cutoff 0, as
# (format_tree, homogeneity) in basis order.
PHI4_BASIS = [
    ("Xi", "-251/100"),
    ("I(Xi)", "-51/100"),
    ("I(Xi)*I(Xi)", "-51/50"),
    ("I(Xi)*I(Xi)*I(Xi)", "-153/100"),
    ("I(I(Xi)*I(Xi))*I(Xi)*I(Xi)", "-1/25"),
    ("I(I(Xi)*I(Xi)*I(Xi))*I(Xi)", "-1/25"),
    ("I(I(Xi)*I(Xi)*I(Xi))*I(Xi)*I(Xi)", "-11/20"),
]
KPZ_BASIS = [
    ("l", "-151/100"),
    ("t(l)", "-51/100"),
    ("t(l)*t(l)", "-51/50"),
    ("t(l)*t(t(l))", "-1/50"),
    ("t(t(l)*t(l))", "-1/50"),
    ("t(l)*t(t(l)*t(l))", "-53/100"),
    ("t(l)*t(t(l)*t(t(l)*t(l)))", "-1/25"),
    ("t(t(l)*t(l))*t(t(l)*t(l))", "-1/25"),
]
# The number of terms of the BPHZ expansion of each basis tree, in basis
# order.
BPHZ_TERMS = {
    "kpz": (2, 4, 24, 48, 48, 416, 5760, 3456),
    "phi4_3": (2, 4, 24, 208, 1728, 2496, 28544),
}


ROOT = Path(__file__).resolve().parent.parent

# Each model's shipped noise homogeneity and two rougher ones, as (model,
# homogeneity); the rougher ones fail the theorem's hypotheses and some
# certificates on some trees.
CERTIFY_VARIANTS = [
    ("phi4_3", "-251/100"),
    ("phi4_3", "-11/4"),
    ("phi4_3", "-3"),
    ("kpz", "-151/100"),
    ("kpz", "-7/4"),
    ("kpz", "-19/10"),
]


def variant_workbench(model: str, noise: str) -> Workbench:
    """A shipped configuration with another noise homogeneity and its basis
    cut at seven edges."""
    config = json.loads((ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8"))
    (name,) = config["types"]["noises"]
    config["types"]["noises"][name] = noise
    config["caps"]["max_edges"] = 7
    return Workbench(parse_config(json.dumps(config)))


@pytest.fixture(scope="session")
def phi4() -> Phi4:
    return Phi4()


@pytest.fixture(scope="session")
def kpz() -> Kpz:
    return Kpz()


def spine_tree(table: TypeTable) -> DecoratedTree:
    """The three-level spine with two noise branches per level, the running
    example for forests of subtrees.  Node ids: root 0, middle 1, top 2;
    noise nodes 10/11 at the root, 12/13 at the middle, 14/15 at the top;
    fictitious ends 2x."""
    edges = {
        (0, 1): "I",
        (1, 2): "I",
        (0, 10): "I",
        (0, 11): "I",
        (1, 12): "I",
        (1, 13): "I",
        (2, 14): "I",
        (2, 15): "I",
    }
    for v in (10, 11, 12, 13, 14, 15):
        edges[(v, v + 10)] = "Xi"
    return DecoratedTree(root=0, edges=edges, table=table)


def spine_subtrees(t: DecoratedTree) -> dict[str, SubForest]:
    """The six shaded subtrees of the spine example."""

    def sf(edge_list):
        edges = frozenset(edge_list)
        nodes = frozenset(u for e in edges for u in e)
        return SubForest(nodes, edges)

    noise_of = lambda v: (v, v + 10)
    s1 = sf(
        [(0, 1), (1, 2), (0, 10), (0, 11), (1, 12), (1, 13)]
        + [noise_of(v) for v in (10, 11, 12, 13)]
    )
    s2 = sf(
        [(0, 1), (0, 10), (0, 11), (1, 12)]
        + [noise_of(v) for v in (10, 11, 12)]
    )
    s3 = sf([(0, 1), (0, 10), (1, 12)] + [noise_of(v) for v in (10, 12)])
    s4 = sf([(0, 1), (0, 11), (1, 13)] + [noise_of(v) for v in (11, 13)])
    s5 = sf([(2, 14), (2, 15)] + [noise_of(v) for v in (14, 15)])
    s6 = sf(
        [(0, 1), (1, 2), (0, 10), (1, 12), (2, 14)]
        + [noise_of(v) for v in (10, 12, 14)]
    )
    return {"S1": s1, "S2": s2, "S3": s3, "S4": s4, "S5": s5, "S6": s6}
