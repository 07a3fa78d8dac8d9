"""Configuration ingestion, command orchestration, and report/diagram
export for the workbench."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import forests as fo
from . import multiscale as ms
from .formal import Coefficient
from .hopf import bphz_expansion, counterterm_report
from .integrands import chaos_classes
from .powercount import Analyses, Certifier, CertificateInput
from .rules import CumulantSet, RuleSpec, SubcriticalityError, check_subcritical
from .rules import generate_trees, production
from .scaling import MultiIndex, ScalingSpec, TypeTable
from .trees import DecoratedTree, SubForest

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass
class WorkbenchConfig:
    scaling: ScalingSpec
    table: TypeTable
    cum: CumulantSet
    rule: RuleSpec
    caps: dict


DEFAULT_CAPS = {
    "max_edges": 11,
    "max_div": 4096,
    "max_coalescence_vertices": 9,
    "scale_range": ms.SCALE_RANGE,
    "cutoff": "0",
    "poly_sdeg_bound": 0,
}
# the fields a configuration may set, at the top level and under "cumulants"
CONFIG_FIELDS = ("scaling", "types", "cumulants", "rule", "caps")
CUMULANT_FIELDS = ("mode", "blocks")


def parse_config(document: str) -> WorkbenchConfig:
    """Parse and validate a configuration document, collecting every schema
    violation rather than stopping at the first."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON at byte {exc.pos}: {exc.msg}"])
    if not isinstance(data, dict):
        raise ConfigError(["top level must be an object"])
    problems: list[str] = [f"unknown field {k}" for k in sorted(set(data) - set(CONFIG_FIELDS))]

    def section(obj: dict, key: str, where: str, required: bool = True) -> dict:
        """obj[key], which must be an object; {} when it is not or is
        missing."""
        if key not in obj:
            if required:
                problems.append(f"missing field {where}.{key}")
            return {}
        if not isinstance(obj[key], dict):
            problems.append(f"{where}.{key} must be an object")
            return {}
        return obj[key]

    sc_raw = section(data, "scaling", "$")
    d = sc_raw.get("d")
    s = sc_raw.get("s")
    if d is None:
        problems.append("missing field scaling.d")
    elif not _is_int(d):
        problems.append(f"scaling.d must be an integer, got {d!r}")
    if s is None:
        problems.append("missing field scaling.s")
    elif not _is_list(s, _is_int):
        problems.append(f"scaling.s must be a list of integers, got {s!r}")
    types_raw = section(data, "types", "$")
    kern = _rationals(section(types_raw, "kernels", "types"), "types.kernels", problems)
    noi = _rationals(section(types_raw, "noises", "types"), "types.noises", problems)
    cum_raw = section(data, "cumulants", "$", required=False)
    problems += [
        f"unknown field cumulants.{k}" for k in sorted(set(cum_raw) - set(CUMULANT_FIELDS))
    ]
    blocks = cum_raw.get("blocks", [])
    if not _is_list(blocks, lambda b: _is_list(b, _is_str)):
        problems.append("cumulants.blocks must be a list of lists of type names")
    rule_raw = section(data, "rule", "$")
    prods_raw = section(rule_raw, "productions", "rule")
    for t, ps in prods_raw.items():
        if not _is_list(ps, lambda p: _is_list(p, _is_entry)):
            problems.append(
                f"rule.productions.{t} must be a list of productions, each a list of "
                "type names or [type name, derivative list] pairs"
            )
    standalone = rule_raw.get("standalone_noises", [])
    if not _is_list(standalone, _is_str):
        problems.append("rule.standalone_noises must be a list of type names")
    if problems:
        raise ConfigError(problems)

    try:
        scaling = ScalingSpec(d, tuple(s))
    except ValueError as exc:
        problems.append(f"scaling: {exc}")
        raise ConfigError(problems)
    try:
        table = TypeTable(scaling, kernel_types=kern, noise_types=noi)
    except ValueError as exc:
        problems.append(f"types: {exc}")
        raise ConfigError(problems)
    try:
        cum = CumulantSet(
            table,
            mode=cum_raw.get("mode", "gaussian"),
            explicit=frozenset(tuple(sorted(b)) for b in blocks),
        )
    except ValueError as exc:
        problems.append(f"cumulants: {exc}")
        cum = None

    def parse_entry(entry):
        if isinstance(entry, str):
            return (entry, MultiIndex())
        name, kk = entry
        return (name, MultiIndex({int(i): int(v) for i, v in enumerate(kk)}))

    try:
        prods = {
            t: frozenset(production(*(parse_entry(e) for e in p)) for p in ps)
            for t, ps in prods_raw.items()
        }
        rule = RuleSpec(table, productions=prods, standalone_noises=tuple(standalone))
    except ValueError as exc:
        problems.append(f"rule: {exc}")
        rule = None
    caps = dict(DEFAULT_CAPS)
    file_caps = data.get("caps", {})
    if isinstance(file_caps, dict):
        caps.update(file_caps)
    else:
        problems.append("caps must be an object")
    env = os.environ.get("RENORMFOREST_CAPS")
    if env:
        try:
            env_caps = json.loads(env)
        except json.JSONDecodeError:
            problems.append("RENORMFOREST_CAPS is not valid JSON")
        else:
            if isinstance(env_caps, dict):
                caps.update(env_caps)
            else:
                problems.append("RENORMFOREST_CAPS must be a JSON object")
    caps = _check_caps(caps, problems)
    if problems:
        raise ConfigError(problems)
    return WorkbenchConfig(scaling=scaling, table=table, cum=cum, rule=rule, caps=caps)


def _is_str(x) -> bool:
    return isinstance(x, str)


def _is_int(x) -> bool:
    return type(x) is int  # a bool or a float is no integer


def _is_list(x, each) -> bool:
    return isinstance(x, list) and all(each(y) for y in x)


def _is_entry(x) -> bool:
    """A production entry: a type name, or [type name, derivative list]."""
    return _is_str(x) or (
        isinstance(x, list) and len(x) == 2 and _is_str(x[0]) and _is_list(x[1], _is_int)
    )


def _rational(v, where: str, problems: list[str]) -> Optional[Fraction]:
    """An exact rational given as a JSON integer or string; None, with a
    problem, for anything else (a bool or a float is no exact rational)."""
    try:
        if type(v) not in (int, str):
            raise ValueError(v)
        return Fraction(v)
    except (ValueError, ZeroDivisionError):
        problems.append(f"{where} must be an exact rational, got {v!r}")
        return None


def _rationals(obj: dict, where: str, problems: list[str]) -> dict[str, Fraction]:
    return {k: _rational(v, f"{where}.{k}", problems) for k, v in obj.items()}


def _check_caps(caps: dict, problems: list[str]) -> dict:
    """The caps with `cutoff` as a Fraction and the rest as ints; every
    malformed value goes to `problems`."""
    out = {}
    for k, v in caps.items():
        if k not in DEFAULT_CAPS:
            problems.append(f"unknown cap caps.{k}")
        elif k == "cutoff":
            cutoff = _rational(v, "caps.cutoff", problems)
            if cutoff is not None:
                out[k] = cutoff
        elif not _is_int(v):
            problems.append(f"caps.{k} must be an integer, got {v!r}")
        elif k == "poly_sdeg_bound" and v < 0:
            problems.append(f"caps.{k} must not be negative")
        elif k != "poly_sdeg_bound" and v <= 0:
            problems.append(f"caps.{k} must be positive")
        else:
            out[k] = v
    return out


# -- canonical tree strings ------------------------------------------------------


def format_tree(t: DecoratedTree, table: TypeTable) -> str:
    """Deterministic functional notation: noises by name, integration as
    type(subtree), products by '*', labels/decorations in brackets."""

    def fmt_mi(mi: MultiIndex) -> str:
        if mi.is_zero():
            return ""
        return "^(" + ",".join(f"{i}:{v}" for i, v in mi.entries) + ")"

    def fmt(u: int) -> str:
        parts = []
        for e in t.children(u):
            ty = t.edge_type(e)
            if table.is_noise(ty):
                parts.append(ty + fmt_mi(t.edge_dec(e)))
            else:
                parts.append(f"{ty}{fmt_mi(t.edge_dec(e))}({fmt(e[1])})")
        parts.sort()
        label = ""
        if not t.node_dec(u).is_zero():
            label = "X" + fmt_mi(t.node_dec(u))
        body = "*".join(parts) if parts else ""
        if label and body:
            return label + "*" + body
        if label:
            return label
        return body if body else "1"

    return fmt(t.root)


def frac_str(x: Coefficient) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


# -- the workbench ----------------------------------------------------------------


class Workbench:
    def __init__(self, config: WorkbenchConfig):
        self.config = config
        self._basis: Optional[list[DecoratedTree]] = None
        self._names: Optional[dict] = None
        # per-tree divergences, cuts and chaos classes, each built on first use
        self.analysis = Analyses(config.table, config.cum, config.caps["max_div"])

    def basis(self) -> list[DecoratedTree]:
        if self._basis is None:
            caps = self.config.caps
            if not check_subcritical(self.config.rule)["pass"]:
                raise SubcriticalityError("the rule failed the subcriticality fixpoint test")
            self._basis = generate_trees(
                self.config.rule,
                caps["cutoff"],
                caps["max_edges"],
                poly_sdeg_bound=caps["poly_sdeg_bound"],
            )
        return self._basis

    def tree_by_id(self, tree_id: str) -> DecoratedTree:
        """The basis tree of an id as `generate` prints it: T and its index
        written plainly, or its formatted tree."""
        basis = self.basis()
        for i, t in enumerate(basis):
            if tree_id == f"T{i}":
                return t
        names = self.name_map()
        for t in basis:
            if names[t.canonical_code()] == tree_id:
                return t
        raise KeyError(f"unknown tree id {tree_id!r}; run `generate` to list ids")

    def name_map(self) -> dict:
        """The formatted name of each basis tree, by canonical code; built
        on first use."""
        if self._names is None:
            table = self.config.table
            self._names = {t.canonical_code(): format_tree(t, table) for t in self.basis()}
        return self._names

    # -- commands

    def cmd_generate(self) -> dict:
        table = self.config.table
        rows = []
        for i, t in enumerate(self.basis()):
            rows.append(
                {
                    "id": f"T{i}",
                    "tree": format_tree(t, table),
                    "edges": len(t.edge_items),
                    "homogeneity": frac_str(t.homogeneity(table)),
                }
            )
        return {"command": "generate", "count": len(rows), "trees": rows}

    def cmd_renormalize(self, tree_id: str) -> dict:
        table = self.config.table
        t = self.tree_by_id(tree_id)
        names = self.name_map()
        rep = counterterm_report(t, table, self.config.cum, self.analysis(t).divergences, names=names)
        monos = []
        for m in rep.monomials:
            monos.append(
                {
                    "coeff": frac_str(m.coefficient),
                    "constants": list(m.constants),
                    "residual": names.get(
                        m.residual.canonical_code(),
                        format_tree(m.residual, table),
                    ),
                }
            )
        return {
            "command": "renormalize",
            "tree": format_tree(t, table),
            "terms": monos,
        }

    def cmd_bphz(self, tree_id: str) -> dict:
        """The three-slot BPHZ expansion of a tree, one row per term: the
        embedded keys of (counterterm forest, observed piece, recentering
        forest), a space, then the coefficient; the rows sorted.  The tree's
        divergent subtrees are listed under the configured `max_div`."""
        t = self.tree_by_id(tree_id)
        bp = bphz_expansion(t, self.config.table, candidates=self.analysis(t).all_divergences)
        # the same pieces recur across the rows: each one's key is written
        # once, and each row is the `repr` of its tuple of keys, assembled
        keys: dict[DecoratedTree, str] = {}

        def key(p: DecoratedTree) -> str:
            if p not in keys:
                keys[p] = repr(p.embedded_key())
            return keys[p]

        def forest(ps: tuple) -> str:
            return "(" + ", ".join(map(key, ps)) + ("," if len(ps) == 1 else "") + ")"

        rows = sorted(
            f"({forest(left)}, {key(mid)}, {forest(right)}) {frac_str(c)}"
            for (left, mid, right), c in bp.items()
        )
        return {
            "command": "bphz",
            "tree": format_tree(t, self.config.table),
            "term_count": len(rows),
            "terms": rows,
        }

    def cmd_certify(self, tree_id: str) -> dict:
        table = self.config.table
        t = self.tree_by_id(tree_id)
        cert = Certifier(self.analysis, self.config.caps["max_coalescence_vertices"])
        rows = []
        ok = True
        for wick, pi in self.analysis(t).gaussian_classes:
            res = cert.certify(CertificateInput(tree=t, wick=wick, pi=pi))
            rows.append(
                {
                    "wick": sorted(wick),
                    "pi": sorted(sorted(b) for b in pi),
                    "pass": res["pass"],
                    "alpha": frac_str(res["alpha"]) if res.get("alpha") is not None else None,
                    "violation": _violation_row(res.get("violation")),
                }
            )
            ok = ok and res["pass"]
        out = {
            "command": "certify",
            "tree": format_tree(t, table),
            "pass": ok,
            "classes": rows,
        }
        # the certificates prove convergence only under the theorem's hypotheses
        failed = self.analysis.failed_cumulant_hypotheses + self.analysis(t).failed_hypotheses
        if failed:
            out["hypotheses"] = list(failed)
            out["pass"] = False
        return out

    def cmd_project(self, tree_id: str, scales_doc: str) -> dict:
        table, caps = self.config.table, self.config.caps
        t = self.tree_by_id(tree_id)
        pi, given = _parse_scales(scales_doc)
        unknown = sorted(set().union(*pi) - t.leaf_nodes(table))
        if unknown:
            raise ConfigError(
                [f"scale assignment pi names nodes that are not leaves of {tree_id}: {unknown}"]
            )
        for block in sorted(sorted(b) for b in pi):
            if not self.config.cum.admits([t.leaf_type(u, table) for u in block]):
                raise ConfigError(
                    [f"scale assignment pi block {block} is not admitted by the cumulant set"]
                )
        eu = ms.EdgeUniverse(t, table, pi)
        tags = {_tag_str(tag): tag for tag in eu.tags}
        stray = sorted(given.keys() - tags.keys())
        if stray:
            raise ConfigError([f"scale assignment names edges outside the edge universe: {stray}"])
        n = {}
        for key, tag in tags.items():
            if key not in given:
                raise ConfigError([f"scale assignment missing edge {key}"])
            n[tag] = _as_int(given[key], f"scale of edge {key}")
            if not 0 <= n[tag] <= caps["scale_range"]:
                raise ConfigError(
                    [f"scale of edge {key} is {n[tag]}, outside 0..{caps['scale_range']}"]
                )
        analysis = self.analysis(t)
        compat = [
            s
            for s, _ in analysis.all_divergences
            if fo.compatible_partition(t, table, s, pi)
        ]
        family = fo.all_forests(compat, cap=caps["max_div"])
        cuts = [e for e, _ in analysis.cuts]
        rows = []
        for f in family:
            safe = ms.safe_projection(eu, f, n)
            harv = ms.harvested_cuts(eu, f, cuts, n)
            rows.append(
                {
                    "forest": sorted(_sf_str(s) for s in f),
                    "safe": sorted(_sf_str(s) for s in safe),
                    "harvested_cuts": sorted(map(str, sorted(harv))),
                }
            )
        return {
            "command": "project",
            "tree": format_tree(t, table),
            "divergent_subtrees": sorted(_sf_str(s) for s in compat),
            "cuts": sorted(map(str, cuts)),
            "rows": rows,
        }

    def cmd_decompose(self, tree_id: str) -> dict:
        t = self.tree_by_id(tree_id)
        classes = chaos_classes(self.analysis(t))
        rows = []
        total = 0
        for c in classes:
            n_terms = sum(len(cs) for cs in c.cut_sets_per_forest)
            total += n_terms
            rows.append(
                {
                    "wick": sorted(c.wick),
                    "pi": sorted(sorted(b) for b in c.pi),
                    "forests": len(c.forests),
                    "summands": n_terms,
                }
            )
        return {
            "command": "decompose",
            "tree": format_tree(t, self.config.table),
            "classes": rows,
            "class_count": len(rows),
            "summand_count": total,
        }

    def cmd_export_dot(self, object_id: str) -> str:
        table = self.config.table
        if ":sigma:" in object_id:
            tree_id, _, sel = object_id.partition(":sigma:")
            t = self.tree_by_id(tree_id)
            divs = [s for s, _ in self.analysis(t).divergences]
            forest = frozenset(divs[i] for i in _sigma_indices(sel, tree_id, len(divs)))
            if not fo.is_forest_of_subtrees(forest):
                raise ConfigError(
                    [f"sigma selection {sel!r} of {tree_id} is not nested or disjoint"]
                )
            return sigma_to_dot(table, fo.sigma_negative(t, forest))
        t = self.tree_by_id(object_id)
        return tree_to_dot(t, table)


def _parse_scales(doc: str) -> tuple[frozenset, dict]:
    """The leaf partition and the per-edge scales of a scale-assignment
    document {"pi": [[leaf, ...], ...], "scales": {edge: n, ...}}."""
    try:
        spec = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"scale assignment is not JSON: {exc}"]) from None
    if not isinstance(spec, dict):
        raise ConfigError(["scale assignment must be a JSON object"])
    blocks, scales = spec.get("pi", []), spec.get("scales", {})
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ConfigError(['scale assignment "pi" must be a list of lists of leaves'])
    if not isinstance(scales, dict):
        raise ConfigError(['scale assignment "scales" must be an object'])
    pi = [[_as_int(u, "leaf in pi") for u in b] for b in blocks]
    leaves = [u for b in pi for u in b]
    repeated = sorted({u for u in leaves if leaves.count(u) > 1})
    if repeated:
        raise ConfigError([f"scale assignment pi repeats leaves {repeated}"])
    return frozenset(map(frozenset, pi)), scales


def _sigma_indices(sel: str, tree_id: str, count: int) -> list[int]:
    """The divergence indices of an export-dot `T:sigma:i,j` selection."""
    out = []
    for x in sel.split(","):
        if x == "":
            continue
        try:
            i = int(x)
        except ValueError:
            raise ConfigError([f"sigma selection is not an integer: {x!r}"]) from None
        if not count:
            raise ConfigError(
                [f"sigma selection {i} is out of range: {tree_id} has no divergent subtrees"]
            )
        if not 0 <= i < count:
            raise ConfigError(
                [f"sigma selection {i} is outside 0..{count - 1}: "
                 f"{tree_id} has {count} divergent subtrees"]
            )
        out.append(i)
    return out


def _as_int(value, what: str) -> int:
    """A JSON integer of a scale-assignment document; a float, a bool or a
    numeric string is none."""
    if not _is_int(value):
        raise ConfigError([f"{what} is not an integer: {value!r}"])
    return value


def _violation_row(v):
    if v is None:
        return None
    kind, a, lhs, rhs = v
    return {
        "condition": kind,
        "cluster_mask": int(a),
        "lhs": frac_str(lhs),
        "rhs": frac_str(rhs),
    }


def _tag_str(tag) -> str:
    kind, data = tag
    if kind == "K":
        return f"K:{data[0]},{data[1]}"
    if kind == "pi":
        return f"pi:{data[0]},{data[1]}"
    return f"star:{data}"


def _sf_str(s: SubForest) -> str:
    return "{" + ",".join(str(u) for u in sorted(s.nodes)) + "}"


# -- DOT export --------------------------------------------------------------------


def _dot_lines(t: DecoratedTree, table: TypeTable, indent: str, prefix: str) -> list[str]:
    """The DOT nodes and edges of a colored tree, each node named by
    `prefix`, "n" and its id: color 1 blue, color 2 red, noise edges dashed,
    the root drawn thick."""
    fill = {1: ', style=filled, fillcolor="lightblue"', 2: ', style=filled, fillcolor="lightcoral"'}
    stroke = {1: ', color="blue"', 2: ', color="red"'}
    lines = []
    for u in sorted(t.nodes):
        style = fill.get(t.color_of_node(u), "") + (", penwidth=3" if u == t.root else "")
        lines.append(f'{indent}{prefix}n{u} [label="{u}"{style}];')
    for e, ty in t.edge_items:
        style = (", style=dashed" if table.is_noise(ty) else "") + stroke.get(t.color_of_edge(e), "")
        lines.append(f'{indent}{prefix}n{e[0]} -> {prefix}n{e[1]} [label="{ty}"{style}];')
    return lines


def tree_to_dot(t: DecoratedTree, table: TypeTable) -> str:
    lines = ["digraph tree {", "  rankdir=BT;", '  node [shape=circle, width=0.3];']
    lines += _dot_lines(t, table, "  ", "")
    lines.append("}")
    return "\n".join(lines) + "\n"


def sigma_to_dot(table: TypeTable, sigma: tuple[DecoratedTree, ...]) -> str:
    """A multi-cluster digraph for an i-forest, one cluster per piece."""
    lines = ["digraph sigma {", "  rankdir=BT;", '  node [shape=circle, width=0.3];']
    for i, piece in enumerate(sigma):
        lines += [f"  subgraph cluster_{i} {{", f'    label="component {i}";']
        lines += _dot_lines(piece, table, "    ", f"c{i}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- reports -----------------------------------------------------------------------


def report_emit(result: dict | str) -> str:
    """Stable, schema-versioned JSON with deterministic key order."""
    if isinstance(result, str):
        return result
    body = {"schema_version": SCHEMA_VERSION}
    body.update(result)
    return json.dumps(body, sort_keys=True, indent=2, default=_json_default) + "\n"


def _json_default(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, frozenset):
        return sorted(x, key=repr)
    raise TypeError(f"cannot serialize {type(x).__name__}")
