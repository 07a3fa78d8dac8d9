"""Test-only oracles for `powercount.Certifier`: the coalescence-tree search
that the certifier's per-subset decision (`Certifier._realizable`)
replaced, that search's first implementation, and the decision's first
form as mask inequalities.

- `interval_plan` and `witnessed` are the per-subset decision as first
  written: the scale rules of `multiscale` worked out again as a plan of
  vertex-mask inequalities, and a subset decided against the plan at its
  own cluster.  They check `Certifier._realizable`, which calls the rules
  themselves.
- `witness_search` is the search the certifier ran: for a failing vertex
  subset it walks the coalescence trees containing the subset
  (`powercount.trees_containing` under the `connected_split` prune) and
  checks each against the per-certificate plan (`plan_realizable`, the
  plan's masks looked up in the tree and decided by `incremental_feasible`).
- `scale_conditions`, `feasible`, `trees_containing` and `witness` are the
  search's first implementation: the scale-order constraints rebuilt from
  the tree for every candidate tree, a Kosaraju SCC over all cluster pairs at
  every node of the feasibility search, and coalescence trees assembled in
  full before the connectivity filter.  They check the plan, the
  incremental rows and the pruned enumeration.  The first implementation
  costs a few milliseconds per candidate tree (2 752 trees on six vertices);
  keep its cases small.

`compatible_partition` is the scan that the partition table
(`TreeAnalysis.compatible`) replaced: a divergence's leaf set tested
against a partition on every request.  `div_universe` lists a partition's
compatible divergences with it, and checks the table.

`wick_contributions` and `subset_tables` are the certificate's homogeneity
as the certifier first assembled it: a tagged ("up" | "fict", mask, value)
list, and a table of its partial sums over all 2^n vertex subsets.
`Certifier._failures` now sums each subset's value in its own subset loop,
from weights it builds itself, and shares neither with this module.
`evaluate_hom` places the tagged list on one coalescence tree node by node;
it checks `subset_tables`.

`failures` is the certifier's first per-subset scan, on `subset_tables`:
each subset's Wick types listed from its bits, sorted and summed, and each
margin kept in a memo per certificate.  It checks `Certifier._failures`,
its weights and its per-class Wick tables, against weights that `src/` no
longer holds.  `connected_split` is the split prune of the witness search;
with single vertices as blocks it checks `powercount.connected`.

`certify_each` is the per-class loop that `Certifier.certify_classes`
replaced with one certificate per automorphism orbit: every class
certified on its own.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional

from coalescence_oracle import Cluster, ancestor, children_blocks, full_mask, grand_ancestor, popcount
from multiscale_oracle import external_tags
from renormforest.forests import cut_enumerate
from renormforest.multiscale import EdgeUniverse, internal_tags
from renormforest.powercount import (
    Certifier,
    Family,
    TreeAnalysis,
    bits,
    enumerate_trees,
    trees_containing as pruned_trees_containing,
)
from renormforest.rules import fict_gain, margin


def certify_each(cert: Certifier) -> list[dict]:
    """`Certifier.certify` of every class of the certifier's tree, in
    `gaussian_classes` order, one class at a time."""
    return [cert.certify(wick, pi) for wick, pi in cert.analysis.gaussian_classes]


def compatible_partition(leaves: frozenset[int], pi: frozenset) -> bool:
    """A subtree with leaf set `leaves` and a partition are compatible when
    the leaf set is a union of blocks (a forest is compatible when each
    member is)."""
    return leaves <= set().union(*pi) and all(b <= leaves for b in pi if b & leaves)


def div_universe(analysis: TreeAnalysis, pi: frozenset) -> list:
    """Every power-counting divergence of the analysis, effective or not,
    compatible with the partition, in `all_divergences` order: each leaf
    set scanned against the partition, as the certifier and `project` did
    per request before the partition table."""
    t, table = analysis.tree, analysis.table
    return [
        s
        for s, _ in analysis.all_divergences
        if compatible_partition(t.leaves_of(s, table), pi)
    ]


def edge_masks(cert: Certifier, pi: frozenset) -> tuple[dict, dict]:
    """The multigraph K(T) + E_pi + E_star of the class, rebuilt from the
    tree: the vertex index of each true node (0 is the basepoint, then the
    true nodes in order) and the bitmask of the endpoints of each tagged
    edge."""
    t, table = cert.tree, cert.table
    index = {u: i for i, u in enumerate(sorted(t.true_nodes(table)), start=1)}
    out = {("K", e): 1 << index[e[0]] | 1 << index[e[1]] for e in t.kernel_edges(table)}
    for block in pi:
        for a in block:
            for b in block:
                if a < b:
                    out[("pi", (a, b))] = 1 << index[a] | 1 << index[b]
    for u, i in index.items():
        out[("star", u)] = 1 | 1 << i
    return index, out


def scale_conditions(cert: Certifier, pi: frozenset, univ: list, fam: Family):
    """Conjunctive atoms LE(c, d) (rank c <= rank d) and disjunctive atom
    groups (at least one must hold) of the scale constraints on one labeled
    tree.  A subtree's edges come from `DecoratedTree.restrict`."""
    t, table = cert.tree, cert.table
    index, tag_mask = edge_masks(cert, pi)

    def joins(tags) -> list[Cluster]:
        return sorted({ancestor(fam, tag_mask[tg]) for tg in tags})

    atoms_conj: set[tuple[Cluster, Cluster]] = set()
    disjunctions: list[list[tuple[Cluster, Cluster]]] = []
    for e, _ in cut_enumerate(t, table):
        atoms_conj.add((ancestor(fam, tag_mask[("star", e[0])]), ancestor(fam, tag_mask[("K", e)])))
    for s in univ:
        piece = t.restrict(s)
        truen = piece.true_nodes(table)
        own = {("K", e) for e in piece.kernel_edges(table)}
        own |= {tg for tg in tag_mask if tg[0] == "pi" and set(tg[1]) <= truen}
        qmask = sum(1 << index[u] for u in truen)
        incident = {tg for tg, m in tag_mask.items() if m & qmask}
        ints, exts = joins(own), joins(incident - own)
        if ints and exts:
            disjunctions.append(sorted({(ci_, ce) for ci_ in ints for ce in exts}))
    return atoms_conj, disjunctions


def feasible(fam: Family, atoms: set, disjunctions: list) -> bool:
    """Is there a labeling with the given LE-atoms?  A constraint set is
    feasible iff no LE-cycle crosses a strict containment; checked by a
    Kosaraju SCC at every node of the search."""
    clusters = sorted(fam)

    def consistent(chosen: set) -> bool:
        adj: dict[Cluster, set[Cluster]] = {c: set() for c in clusters}
        for c, d in chosen:
            adj[c].add(d)
        for c in clusters:
            for d in clusters:
                if c != d and (d & c) == d:
                    adj[c].add(d)
        order = []
        seen = set()
        for v in clusters:
            if v in seen:
                continue
            stack = [(v, iter(sorted(adj[v])))]
            seen.add(v)
            while stack:
                node, it = stack[-1]
                advanced = False
                for w in it:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, iter(sorted(adj[w]))))
                        advanced = True
                        break
                if not advanced:
                    order.append(node)
                    stack.pop()
        radj: dict[Cluster, set[Cluster]] = {c: set() for c in clusters}
        for c in clusters:
            for d in adj[c]:
                radj[d].add(c)
        comp: dict[Cluster, int] = {}
        cid = 0
        for v in reversed(order):
            if v in comp:
                continue
            stack = [v]
            while stack:
                w = stack.pop()
                if w in comp:
                    continue
                comp[w] = cid
                stack.extend(radj[w] - comp.keys())
            cid += 1
        for c in clusters:
            for d in clusters:
                if c != d and (d & c) == d and comp[c] == comp[d]:
                    return False
        return True

    def dfs(idx: int, chosen: set) -> bool:
        if not consistent(chosen):
            return False
        if idx == len(disjunctions):
            return True
        for atom in disjunctions[idx]:
            if atom in chosen:
                if dfs(idx + 1, chosen):
                    return True
                continue
            chosen.add(atom)
            if dfs(idx + 1, chosen):
                chosen.discard(atom)
                return True
            chosen.discard(atom)
        return False

    return dfs(0, set(atoms))


def trees_containing(
    n: int,
    cluster: int,
    prune: Optional[Callable[[int, list[int]], bool]] = None,
    cap: int = 9,
) -> Iterable[Family]:
    """Every inner x outer family assembled in full, then filtered."""
    if popcount(cluster) < 2:
        raise ValueError("a cluster needs at least two vertices")
    full = full_mask(n)
    inner = enumerate_trees(popcount(cluster), cap=cap, prune=None)
    in_bits = bits(cluster)

    def expand_inner(mask: int) -> int:
        out = 0
        for i, b in enumerate(in_bits):
            if mask >> i & 1:
                out |= 1 << b
        return out

    def tree_ok(fam: Family) -> bool:
        return all(prune(c, children_blocks(fam, c)) for c in fam)

    if cluster == full:
        for fin in inner:
            fam = frozenset(expand_inner(c) for c in fin)
            if prune is None or tree_ok(fam):
                yield fam
        return
    out_bits = [cluster] + [1 << v for v in bits(full & ~cluster)]
    outer = enumerate_trees(len(out_bits), cap=cap, prune=None)

    def expand_outer(mask: int) -> int:
        out = 0
        for i, piece in enumerate(out_bits):
            if mask >> i & 1:
                out |= piece
        return out

    for fout in outer:
        base = {expand_outer(c) for c in fout}
        for fin in inner:
            fam = frozenset(base | {expand_inner(c) for c in fin} | {cluster})
            if prune is None or tree_ok(fam):
                yield fam


def realizable(cert: Certifier, pi: frozenset, univ: list, fam: Family) -> bool:
    return feasible(fam, *scale_conditions(cert, pi, univ, fam))


def witness(cert: Certifier, wick: frozenset, pi: frozenset):
    """The first failing subset with a realizable tree, searched the old way:
    (violation, tree), or None when every failure is pruned."""
    built = cert.build(pi)
    _, failures = cert._failures(wick, pi, built)
    n = len(built.verts)
    univ = div_universe(cert.analysis, pi)
    prune = connected_split(edge_masks(cert, pi)[1].values())
    for violation in failures:
        for fam in trees_containing(n, violation[1], prune, cap=cert.vertex_cap):
            if realizable(cert, pi, univ, fam):
                return violation, fam
    return None


def connected_split(edge_masks: Iterable[int]) -> Callable[[int, list[int]], bool]:
    """A cluster may split into blocks only when the multigraph's edges
    (given by their endpoint masks) inside the cluster connect the blocks,
    as in the coalescence tree of a connected multigraph.  With the
    cluster's single vertices as blocks this says that the cluster is
    connected."""
    edge_masks = list(edge_masks)

    def prune(cluster: int, blocks: list[int]) -> bool:
        parent = list(range(len(blocks)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for m in edge_masks:
            if (m & cluster) != m:
                continue
            touched = [i for i, b in enumerate(blocks) if m & b]
            for j in touched[1:]:
                parent[find(j)] = find(touched[0])
        return len({find(i) for i in range(len(blocks))}) == 1

    return prune


# -- the per-subset decision as first written ------------------------------------


def interval_plan(cert: Certifier, pi: frozenset, eu: EdgeUniverse):
    """The scale-order constraints on every labeled coalescence tree,
    reduced to vertex masks.  A mask joins at the deepest cluster that
    holds it (a single vertex at its parent), and a labeling ranks the
    clusters so that ranks strictly increase into smaller clusters:

    - `cuts`: per positive cut e = (p, c), (star_pair, edge_pair), the
      masks of the basepoint edge of p and of e itself.  Every cut must
      lie outside G^n(F).  A kernel route can never beat the join of its
      endpoints and the basepoint route never drops below its direct
      edge, so this puts the basepoint join at or below the edge join.
    - `subtrees`: per divergence compatible with the partition,
      (internal masks, external masks): some internal join must sit at or
      above some external one.  The internal masks cover the divergence's
      true nodes, so every external mask meets them.

    The plan once kept a divergence only when it had internal and external
    edges; every compatible divergence has both, which is asserted here.
    Comparisons sit at the cluster-rank level with ties resolved
    favorably, reflecting the bounded in-window jitter of individual edge
    scales."""
    masks = eu.masks
    cuts = [(masks[("star", e[0])], masks[("K", e)]) for e, _ in cert.analysis.cuts]
    subtrees = []
    for s in div_universe(cert.analysis, pi):
        ints = sorted({masks[tag] for tag in internal_tags(eu, s)})
        exts = sorted({masks[tag] for tag in external_tags(eu, s)})
        assert ints and exts, s
        subtrees.append((ints, exts))
    return cuts, subtrees


def witnessed(plan, connected: Callable[[int, list[int]], bool], a: int) -> bool:
    """Does some coalescence tree that contains the vertex subset `a`
    satisfy the plan?  In such a tree a mask inside `a` joins at or below
    `a`, and a mask that meets `a` and leaves it joins strictly above `a`.
    So a cut whose basepoint pair lies inside `a` and whose edge pair does
    not, or a divergence whose internal masks all lie inside `a` and whose
    external masks (which then all meet `a`) all leave it, forces a
    cluster's rank to or below that of a cluster strictly inside it.
    Otherwise the flat tree {full, a} satisfies the plan; it is a
    coalescence tree of the multigraph exactly when `a` is connected."""
    cuts, subtrees = plan

    def inside(m: int) -> bool:
        return (m & a) == m

    return (
        connected(a, [1 << v for v in bits(a)])
        and not any(inside(star) and not inside(edge) for star, edge in cuts)
        and not any(
            all(map(inside, ints)) and not any(map(inside, exts))
            for ints, exts in subtrees
        )
    )


# -- the search the certifier ran ------------------------------------------------


def incremental_feasible(fam: Family, atoms: Iterable, disjunctions: list) -> bool:
    """Is there a labeling of the tree's clusters with the given LE-atoms
    (LE(c, d): rank c <= rank d) and at least one atom of each disjunction?

    Ranks strictly increase into smaller clusters, so a constraint set is
    feasible iff no cluster reaches a cluster strictly containing it in the
    graph of LE and containment edges.  `reach[i]` is the bitmask of the
    clusters reachable from cluster i, starting from the strict
    containments (already transitive).  Adding LE(c, d) ORs
    `reach[d] | bit(d)` into every row that reaches c, c's own included, so
    the rows stay transitively closed, and only those rows can turn
    infeasible.  The depth-first search over the disjunctions passes a
    copied row list down each branch; a group one of whose atoms already
    holds adds nothing and is passed over.
    """
    clusters = sorted(fam)
    pos = {c: i for i, c in enumerate(clusters)}
    above = [0] * len(clusters)
    reach = [0] * len(clusters)
    for i, c in enumerate(clusters):
        for j, d in enumerate(clusters):
            if c != d and (d & c) == d:  # d strictly inside c
                reach[i] |= 1 << j
                above[j] |= 1 << i

    def add(rows: list[int], c: Cluster, d: Cluster) -> bool:
        ic, id_ = pos[c], pos[d]
        gain = rows[id_] | (1 << id_)
        for i, row in enumerate(rows):
            if i == ic or row >> ic & 1:
                rows[i] = row | gain
                if rows[i] & above[i]:
                    return False
        return True

    def dfs(idx: int, rows: list[int]) -> bool:
        if idx == len(disjunctions):
            return True
        group = disjunctions[idx]
        if any(c == d or rows[pos[c]] >> pos[d] & 1 for c, d in group):
            return dfs(idx + 1, rows)
        for c, d in group:
            branch = list(rows)
            if add(branch, c, d) and dfs(idx + 1, branch):
                return True
        return False

    return all(add(reach, c, d) for c, d in atoms) and dfs(0, reach)


def plan_realizable(plan, fam: Family) -> bool:
    """Does some labeling of the tree satisfy the plan of
    `interval_plan`?  Each mask is looked up at the cluster
    where it joins (`ancestor`)."""
    cuts, subtrees = plan
    masks = {m for cut in cuts for m in cut} | {m for ints, exts in subtrees for m in ints + exts}
    up = {m: ancestor(fam, m) for m in masks}
    atoms = {(up[star], up[edge]) for star, edge in cuts}
    disjunctions = []
    for ints, exts in subtrees:
        j_int, j_ext = {up[m] for m in ints}, {up[m] for m in exts}
        disjunctions.append(sorted({(c, d) for c in j_int for d in j_ext}))
    return incremental_feasible(fam, atoms, disjunctions)


def witness_search(n: int, masks, plan, a: int, memo: dict) -> Optional[Family]:
    """The first coalescence tree containing the vertex subset `a` that
    the plan realizes, or None; `memo` keeps the verdicts per tree
    across the subsets of one certificate."""
    for fam in pruned_trees_containing(n, a, connected_split(masks)):
        if fam not in memo:
            memo[fam] = plan_realizable(plan, fam)
        if memo[fam]:
            return fam
    return None


# -- the certificate's homogeneity, as first written ---------------------------------


def wick_contributions(cert: Certifier, pi: frozenset, eu: EdgeUniverse) -> list:
    """Flat description of the moment integrand's total homogeneity:
    node polynomial weights, cumulant weights, the second-cumulant
    renormalization gain, and kernel growth.

    Each entry is ("up", mask, value), placed at the deepest cluster that
    holds the mask, or ("fict", mask, value); `subset_tables` sums them
    per vertex subset.  Each cumulant block B of the partition puts
    -|t(B)|_s at the cluster where its vertices join.
    """
    t, table, masks = cert.tree, cert.table, eu.masks
    abs_s = table.scaling.abs_s
    parts: list = []
    for u in eu.verts[1:]:
        d = t.node_dec(u).sdeg(table.scaling)
        if d:
            parts.append(("up", masks[("star", u)], Fraction(-d)))
    for block in pi:
        leaves = sorted(block)
        types = tuple(t.leaf_type(u, table) for u in leaves)
        mask = eu.node_mask(leaves)
        parts.append(("up", mask, -sum((table.hom(x) for x in types), Fraction(0))))
        f = fict_gain(table, types)
        if f > 0:
            parts.append(("fict", mask, Fraction(f)))
    for e in t.kernel_edges(table):
        h = Fraction(abs_s) - table.hom(t.edge_type(e)) + t.edge_dec(e).sdeg(table.scaling)
        parts.append(("up", masks[("K", e)], h))
    return parts


def subset_tables(cert: Certifier, pi: frozenset, eu: EdgeUniverse):
    """Per-subset data for the inequality checks.  Every entry sits at
    the cluster where its mask joins, so the partial sums below a node
    depend only on the node's leaf set, and the whole certificate
    reduces to one check per vertex subset."""
    n = len(eu.verts)
    parts = wick_contributions(cert, pi, eu)
    ups: list[tuple[int, Fraction]] = []
    ficts: dict[int, Fraction] = {}
    for kind, mask, value in parts:
        if kind == "up":
            ups.append((mask, value))
        else:
            ficts[mask] = ficts.get(mask, Fraction(0)) + value
    total = sum((v for _, v in ups), Fraction(0))
    base: dict[int, Fraction] = {}
    for a in range(1, 1 << n):
        acc = Fraction(0)
        for m, v in ups:
            if (m & a) == m:
                acc += v
        if a in ficts:
            acc -= ficts[a]
        base[a] = acc
    return base, total


def evaluate_hom(parts: list, fam: Family, n: int) -> dict[Cluster, Fraction]:
    """The total homogeneity of `wick_contributions` on one coalescence
    tree, placed node by node; `subset_tables` replaces it with one partial
    sum per vertex subset."""
    full = full_mask(n)
    out: dict[Cluster, Fraction] = {}

    def add(c: Cluster, v: Fraction):
        out[c] = out.get(c, Fraction(0)) + v

    for kind, data, value in parts:
        if kind == "up":
            add(ancestor(fam, data), value)
        elif kind == "fict":
            a = ancestor(fam, data)
            if a == data:  # the block coalesces alone
                add(grand_ancestor(fam, full, data), value)
                add(a, -value)
    return {c: v for c, v in out.items() if v}


# -- the per-subset bounds as first written ------------------------------------------


def failures(cert: Certifier, wick: frozenset, pi: frozenset, eu: EdgeUniverse):
    """The order alpha and the vertex subsets that violate the
    integrability or the large-scale decay inequality, as (kind, subset,
    value, bound) in subset order."""
    n = len(eu.verts)
    abs_s = cert.table.scaling.abs_s
    types_of = {eu.index[u]: cert.tree.leaf_type(u, cert.table) for u in sorted(wick)}
    wick_idx = set(types_of)
    star_rho = eu.masks[("star", cert.tree.root)]
    pool = sorted({types_of[i] for i in wick_idx})
    brackets: dict[tuple, Fraction] = {}

    base, total = subset_tables(cert, pi, eu)
    alpha = total - (n - 1) * abs_s
    full = (1 << n) - 1
    failures = []
    for a in range(1, full + 1):
        if a.bit_count() < 2:
            continue
        ext_types = tuple(sorted(types_of[i] for i in bits(a) if i in wick_idx))
        rhs = abs_s * (a.bit_count() - 1) + sum(
            (cert.table.hom(x) for x in ext_types), Fraction(0)
        )
        if not a & 1:
            if ext_types not in brackets:
                brackets[ext_types] = margin(cert.cum, pool, ext_types)
            rhs += brackets[ext_types]
        if not base[a] < rhs:
            failures.append(("integrability", a, base[a], rhs))
            continue
        if (a & star_rho) == star_rho and a != full:
            out = total - base[a]
            rest_types = tuple(
                sorted(types_of[i] for i in wick_idx if not (a >> i) & 1)
            )
            rhs2 = abs_s * (n - a.bit_count()) + sum(
                (cert.table.hom(x) for x in rest_types), Fraction(0)
            )
            if not out > rhs2:
                failures.append(("decay", a, out, rhs2))
    return alpha, failures
