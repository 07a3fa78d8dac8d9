"""The benchmark's workloads, driven in-process through renormforest's public API.

Every workload drives the two shipped models (configs/kpz.json and
configs/phi4_3.json) as one client in a closed loop: the next request is sent
when the previous one has returned.  Each request is one public call.

- certify: `Workbench.cmd_certify` on the basis trees of both models.  The
  certifier (powercount) and the coalescence-tree search do nearly all the
  work; phi4_3 T4 alone is most of it.
- bphz: `hopf.bphz_expansion` and then `Workbench.cmd_renormalize` on the
  basis trees.  Twisted antipodes and formal sums (hopf, formal, trees) do the
  work; the certifier is idle.
- project: `Workbench.cmd_decompose`, then `Workbench.cmd_project` for every
  gaussian leaf partition of every tree, with scale assignments drawn from the
  seed.  Many short requests: forests, multiscale, integrands and the
  per-request workbench and report_emit overhead dominate.  The certifier
  calls the same forests functions thousands of times inside one request, so
  a memo that helps certify but taxes one-call-per-request use shows here.

Set-up alone (both tree bases) takes 20-30 s, so a run has room for about
ten seconds of requests; `EXCLUDED` lists the calls that do not fit.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
MODELS = ("kpz", "phi4_3")
WORKLOADS = ("certify", "bphz", "project")

# Known answers, written down independently of any recorded output.
BASIS = {
    "kpz": [
        ("l", "-151/100"),
        ("t(l)", "-51/100"),
        ("t(l)*t(l)", "-51/50"),
        ("t(l)*t(t(l))", "-1/50"),
        ("t(t(l)*t(l))", "-1/50"),
        ("t(l)*t(t(l)*t(l))", "-53/100"),
        ("t(l)*t(t(l)*t(t(l)*t(l)))", "-1/25"),
        ("t(t(l)*t(l))*t(t(l)*t(l))", "-1/25"),
    ],
    "phi4_3": [
        ("Xi", "-251/100"),
        ("I(Xi)", "-51/100"),
        ("I(Xi)*I(Xi)", "-51/50"),
        ("I(Xi)*I(Xi)*I(Xi)", "-153/100"),
        ("I(I(Xi)*I(Xi))*I(Xi)*I(Xi)", "-1/25"),
        ("I(I(Xi)*I(Xi)*I(Xi))*I(Xi)", "-1/25"),
        ("I(I(Xi)*I(Xi)*I(Xi))*I(Xi)*I(Xi)", "-11/20"),
    ],
}
BPHZ_TERMS = {
    "kpz": (2, 4, 24, 48, 48, 416, 5760, 3456),
    "phi4_3": (2, 4, 24, 208, 1728, 2496, 28544),
}
# Calls left out of a workload, with the seconds one call (for bphz: the
# expansion and the report together) takes on a 2-core 2.1 GHz Xeon.  A run
# has about ten seconds for requests after its set-up, and the host's speed
# drifts by tens of percent within seconds, so a pass must be short enough to
# repeat some thirty times.  These are the targets for later speed-ups.
EXCLUDED = {
    "certify": {
        ("kpz", "T6"): 120,
        ("kpz", "T7"): 389,
        ("phi4_3", "T4"): 7,
        ("phi4_3", "T5"): 6,
        ("phi4_3", "T6"): 153,
    },
    "bphz": {
        ("kpz", "T6"): 1.2,
        ("kpz", "T7"): 1.4,
        ("phi4_3", "T4"): 0.42,
        ("phi4_3", "T5"): 0.46,
        ("phi4_3", "T6"): 11,
    },
}
# Scale assignments of the project warm-up pass, whose full outputs are
# compared with recorded digests; measured passes draw from the run's seed.
REFERENCE_SEED = 0
# project repeats its sequence until it has this many requests, so that at
# least ten latency samples lie beyond the 99th percentile.
PROJECT_MIN_REQUESTS = 1000


def load_program():
    """Import renormforest from the checkout's src directory."""
    src = ROOT / "src"
    if not (src / "renormforest" / "__init__.py").is_file():
        raise ImportError(f"no renormforest package under {src}")
    sys.path.insert(0, str(src))
    from renormforest import forests, hopf, integrands, multiscale, powercount, trees, workbench

    return Program(workbench, hopf, forests, multiscale, powercount, integrands, trees)


@dataclass(frozen=True)
class Program:
    """The renormforest modules, looked up by attribute at call time so that
    the tracer's wrappers take effect."""

    workbench: object
    hopf: object
    forests: object
    multiscale: object
    powercount: object
    integrands: object
    trees: object


@dataclass(frozen=True)
class Request:
    kind: str  # certify | bphz | renormalize | decompose | project
    model: str
    tree: str  # basis id, "T<n>"
    pi: str = ""  # project: the leaf partition, as in `pi_key`
    scales: str = ""  # project: the scale-assignment document
    reference: bool = False  # project: scales drawn from REFERENCE_SEED

    @property
    def key(self) -> str:
        parts = [self.kind + ("-ref" if self.reference else ""), self.model, self.tree]
        if self.kind == "project":
            parts.append(self.pi)
        return "/".join(parts)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pi_key(pi) -> str:
    blocks = sorted(sorted(b) for b in pi)
    return "|".join(",".join(map(str, b)) for b in blocks) or "-"


def tag_key(tag) -> str:
    """An edge tag as `renormforest project --scales` documents name it."""
    kind, data = tag
    if kind == "star":
        return f"star:{data}"
    return f"{kind}:{data[0]},{data[1]}"


# -- set-up ----------------------------------------------------------------------


def setup(prog: Program) -> dict:
    """Parse both configurations and build both tree bases: what every
    command-line call pays before its command runs."""
    wbs = {}
    for model in MODELS:
        text = (ROOT / "configs" / f"{model}.json").read_text(encoding="utf-8")
        wb = prog.workbench.Workbench(prog.workbench.parse_config(text))
        wb.basis()
        wbs[model] = wb
    return wbs


def check_basis(wbs: dict) -> list[str]:
    problems = []
    for model, want in BASIS.items():
        got = [(r["tree"], r["homogeneity"]) for r in wbs[model].cmd_generate()["trees"]]
        if got != want:
            problems.append(f"{model} basis {got} differs from {want}")
    return problems


# -- request sequences -----------------------------------------------------------


class Workload:
    """A fixed request sequence ("pass") drawn from the seed, repeated in a
    closed loop by one client."""

    name = ""
    min_requests = 1
    # Every pass sends the same inputs, so a request's latency is the median
    # of its sends over the run rather than one sample per send.
    repeated_inputs = True

    def __init__(self, prog: Program, wbs: dict):
        self.prog = prog
        self.wbs = wbs

    def trees(self) -> list[tuple[str, str]]:
        """(model, tree id) of every basis tree the workload sends."""
        left_out = EXCLUDED.get(self.name, {})
        return [
            (m, f"T{i}")
            for m in MODELS
            for i in range(len(self.wbs[m].basis()))
            if (m, f"T{i}") not in left_out
        ]

    def canonical(self) -> list[Request]:
        """The pass in a fixed order; sent once, untimed, to warm up."""
        raise NotImplementedError

    def pass_requests(self, rng: random.Random) -> list[Request]:
        reqs = self.canonical()
        rng.shuffle(reqs)
        return reqs


class Certify(Workload):
    name = "certify"

    def canonical(self) -> list[Request]:
        return [Request("certify", m, t) for m, t in self.trees()]


class Bphz(Workload):
    name = "bphz"

    @staticmethod
    def expand_then_renormalize(trees) -> list[Request]:
        return [Request(kind, m, t) for m, t in trees for kind in ("bphz", "renormalize")]

    def canonical(self) -> list[Request]:
        return self.expand_then_renormalize(self.trees())

    def pass_requests(self, rng: random.Random) -> list[Request]:
        order = self.trees()
        rng.shuffle(order)
        return self.expand_then_renormalize(order)


class Project(Workload):
    name = "project"
    min_requests = PROJECT_MIN_REQUESTS
    repeated_inputs = False

    def __init__(self, prog: Program, wbs: dict):
        super().__init__(prog, wbs)
        fo = prog.forests
        # (model, tree id, tree, [leaf partitions]) for every basis tree
        self.items = []
        for m, tid in self.trees():
            config = self.wbs[m].config
            t = self.wbs[m].tree_by_id(tid)
            leaves = sorted(t.leaf_nodes(config.table))
            pis = []
            for r in range(len(leaves) + 1):
                for kept in itertools.combinations(leaves, r):
                    rest = [u for u in leaves if u not in kept]
                    pis.extend(fo.leaf_partitions(t, config.table, config.cum, ground=rest))
            self.items.append((m, tid, t, pis))

    def _requests(self, rng: random.Random, reference: bool) -> list[list[Request]]:
        ms = self.prog.multiscale
        groups = []
        for m, tid, t, pis in self.items:
            group = [Request("decompose", m, tid)]
            for pi in pis:
                eu = ms.EdgeUniverse(t, self.wbs[m].config.table, pi)
                doc = {
                    "pi": sorted(sorted(b) for b in pi),
                    "scales": {tag_key(tag): n for tag, n in eu.random_assignment(rng).items()},
                }
                group.append(
                    Request("project", m, tid, pi_key(pi), json.dumps(doc), reference)
                )
            groups.append(group)
        return groups

    def canonical(self) -> list[Request]:
        groups = self._requests(random.Random(REFERENCE_SEED), reference=True)
        return [r for g in groups for r in g]

    def pass_requests(self, rng: random.Random) -> list[Request]:
        groups = self._requests(rng, reference=False)
        rng.shuffle(groups)
        return [r for g in groups for r in g]


def make_workload(name: str, prog: Program, wbs: dict) -> Workload:
    return {cls.name: cls for cls in (Certify, Bphz, Project)}[name](prog, wbs)


# -- one request -----------------------------------------------------------------


def execute(prog: Program, wbs: dict, req: Request):
    """The public call a request stands for; its result is consumed here
    (emitted as a report) so that it is inside the timed region."""
    wb = wbs[req.model]
    emit = prog.workbench.report_emit
    if req.kind == "certify":
        return emit(wb.cmd_certify(req.tree))
    if req.kind == "bphz":
        return prog.hopf.bphz_expansion(wb.tree_by_id(req.tree), wb.config.table)
    if req.kind == "renormalize":
        return emit(wb.cmd_renormalize(req.tree))
    if req.kind == "decompose":
        return emit(wb.cmd_decompose(req.tree))
    if req.kind == "project":
        return emit(wb.cmd_project(req.tree, req.scales))
    raise ValueError(f"unknown request kind {req.kind!r}")


def observe(req: Request, out):
    """The value of a request's output that the expected-output file records."""
    if req.kind == "bphz":
        coeffs = [out.coeff(k) for k in out.keys()]
        return {
            "terms": len(out),
            "coeff_sum": str(sum(coeffs, Fraction(0))),
            "abs_coeff_sum": str(sum(map(abs, coeffs), Fraction(0))),
        }
    if req.kind == "project" and not req.reference:
        # the safe forests and harvested cuts depend on the drawn scales;
        # `known_problems` checks them against the rest of the table
        doc = json.loads(out)
        for row in doc["rows"]:
            del row["safe"], row["harvested_cuts"]
        return digest(json.dumps(doc, sort_keys=True))
    return digest(out)


def known_problems(req: Request, out) -> list[str]:
    """Checks that hold whatever the recorded reference says."""
    if req.kind == "certify":
        if json.loads(out)["pass"] is not True:
            return [f"{req.key}: certificate failed"]
    elif req.kind == "bphz":
        want = BPHZ_TERMS[req.model][int(req.tree[1:])]
        if len(out) != want:
            return [f"{req.key}: {len(out)} terms, expected {want}"]
    elif req.kind == "project":
        doc = json.loads(out)
        cuts = set(doc["cuts"])
        for row in doc["rows"]:
            if not set(row["safe"]) <= set(row["forest"]):
                return [f"{req.key}: safe projection leaves its forest"]
            if not set(row["harvested_cuts"]) <= cuts:
                return [f"{req.key}: harvested cut is not a cut of the tree"]
    return []


def check(req: Request, out, expected: dict) -> list[str]:
    problems = known_problems(req, out)
    want = expected.get(req.key)
    got = observe(req, out)
    if want is None:
        problems.append(f"{req.key}: no recorded reference")
    elif got != want:
        problems.append(f"{req.key}: output {got} differs from recorded {want}")
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


# -- tracing boundaries ------------------------------------------------------------

SPANNED = (
    "workbench.parse_config",
    "rules.generate_trees",
    "powercount.certify",
    "powercount.cut_enumerate",
    "coalescence.trees_containing",
    "hopf.bphz_expansion",
    "hopf.counterterm_report",
    "forests.div_enumerate",
    "forests.all_forests",
    "forests.leaf_partitions",
    "multiscale.safe_projection",
    "multiscale.harvested_cuts",
    "integrands.chaos_classes",
    "workbench.report_emit",
)
COUNTED = (
    ("rules.basis_size", "count"),
    ("trees.canonical_code_calls", "count"),
    ("trees.restrict_calls", "count"),
    ("powercount.failing_subsets", "count"),
    ("powercount.pruned_violations", "count"),
    ("coalescence.trees_yielded", "count"),
    ("hopf.bphz_terms", "count"),
    ("hopf.counterterm_monomials", "count"),
    ("forests.forests_listed", "count"),
    ("integrands.summands", "count"),
    ("workbench.report_bytes", "bytes"),
)
# The benchmark's own span around each request: its self time is the time
# spent outside every wrapped boundary (command bodies, formal sums, scaling).
REQUEST_SPAN = "client.request"
# A span's self time counts for the layer named before its dot, except where
# the name is the caller's and the code timed belongs to another layer.
LAYER_OF = {"powercount.cut_enumerate": "forests"}
LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in (REQUEST_SPAN,) + SPANNED))


def layer_of(span_name: str) -> str:
    return LAYER_OF.get(span_name, span_name.split(".", 1)[0])


def _certify_counts(tracer, res):
    tracer.count("powercount.failing_subsets", res.get("failing_subsets", 0))
    tracer.count("powercount.pruned_violations", res.get("pruned_violations", 0))


def install_tracing(tracer, prog: Program) -> None:
    """Wrap each layer boundary under the name its caller looks up."""
    wbm, pc, fo, ms = prog.workbench, prog.powercount, prog.forests, prog.multiscale
    tree_cls = prog.trees.DecoratedTree
    sp, patch = tracer.spanned, tracer.patch
    patch(wbm, "parse_config", sp("workbench.parse_config", wbm.parse_config))
    patch(
        wbm,
        "generate_trees",
        sp("rules.generate_trees", wbm.generate_trees,
           lambda tr, r: tr.count("rules.basis_size", len(r))),
    )
    patch(tree_cls, "canonical_code",
          tracer.counted("trees.canonical_code_calls", tree_cls.canonical_code))
    patch(tree_cls, "restrict", tracer.counted("trees.restrict_calls", tree_cls.restrict))
    patch(pc.Certifier, "certify", sp("powercount.certify", pc.Certifier.certify, _certify_counts))
    patch(pc, "cut_enumerate", sp("powercount.cut_enumerate", pc.cut_enumerate))
    patch(
        pc,
        "trees_containing",
        tracer.spanned_iteration(
            "coalescence.trees_containing", pc.trees_containing, "coalescence.trees_yielded"
        ),
    )
    patch(
        prog.hopf,
        "bphz_expansion",
        sp("hopf.bphz_expansion", prog.hopf.bphz_expansion,
           lambda tr, r: tr.count("hopf.bphz_terms", len(r))),
    )
    patch(
        wbm,
        "counterterm_report",
        sp("hopf.counterterm_report", wbm.counterterm_report,
           lambda tr, r: tr.count("hopf.counterterm_monomials", len(r.monomials))),
    )
    patch(fo, "div_enumerate", sp("forests.div_enumerate", fo.div_enumerate))
    patch(
        fo,
        "all_forests",
        sp("forests.all_forests", fo.all_forests,
           lambda tr, r: tr.count("forests.forests_listed", len(r))),
    )
    leaf = sp("forests.leaf_partitions", fo.leaf_partitions)
    patch(fo, "leaf_partitions", leaf)
    patch(prog.integrands, "leaf_partitions", leaf)
    patch(ms, "safe_projection", sp("multiscale.safe_projection", ms.safe_projection))
    patch(ms, "harvested_cuts", sp("multiscale.harvested_cuts", ms.harvested_cuts))
    patch(
        wbm,
        "chaos_classes",
        sp("integrands.chaos_classes", wbm.chaos_classes,
           lambda tr, r: tr.count(
               "integrands.summands",
               sum(len(cs) for c in r for cs in c.cut_sets_per_forest),
           )),
    )
    patch(
        wbm,
        "report_emit",
        sp("workbench.report_emit", wbm.report_emit,
           lambda tr, r: tr.count("workbench.report_bytes", len(r.encode()))),
    )


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for name in (REQUEST_SPAN,) + SPANNED:
        out[name + "_s"] = (tracer.busy(name), "s")
        out[name + "_calls"] = (tracer.counts.get(name + "_calls", 0), "count")
    for name, unit in COUNTED:
        out[name] = (tracer.counts.get(name, 0), unit)
    searches = tracer.counts.get("powercount.failing_subsets", 0)
    pruned = tracer.counts.get("powercount.pruned_violations", 0)
    out["powercount.pruned_ratio"] = (pruned / searches if searches else 0.0, "ratio")
    out["multiscale.calls"] = (
        out["multiscale.safe_projection_calls"][0] + out["multiscale.harvested_cuts_calls"][0],
        "count",
    )
    own = tracer.self_time_by_layer(layer_of)
    for layer in LAYERS:
        out[layer + ".self_s"] = (own.get(layer, 0.0), "s")
    return out
