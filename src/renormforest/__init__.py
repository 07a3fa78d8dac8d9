"""renormforest: a symbolic workbench for the renormalization of decorated
trees — tree bases of a rule, extraction coactions, twisted antipodes and
counterterm reports, safe-forest projections at given scales, and the
power-counting certificates of the convergence theorem with its hypotheses,
all in exact rational arithmetic."""

from .scaling import ExtLabel, MultiIndex, ScalingSpec, TypeTable
from .trees import DecoratedTree, SubForest, integrate, noise, poly, tree_product
from .formal import FormalSum
from .rules import CumulantSet, RuleSpec, check_subcritical, generate_trees, production
from .forests import div_enumerate, cut_enumerate, sigma_negative
from .hopf import bphz_expansion, counterterm_report, delta_minus, delta_plus
from .multiscale import EdgeUniverse, harvested_cuts, path_scale, safe_projection
from .powercount import Certifier, enumerate_trees
from .integrands import chaos_classes
from .workbench import Workbench, parse_config, report_emit

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
