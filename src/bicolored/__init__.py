"""Exact counting of unlabelled bicolored graphs, character bounds, and checks."""

from .perm import Permutation, CycleType, cycle_type, total_cycles, partitions, class_size, make_cycle, disjoint, compose
from .exact import QSqrt2, stirling_first, rising_factorial, pow2, decimal_render
from .characters import CyclicCharacter, ClassFunctionTable, char_eval, verify_cyclic, avg_char, twisted_product
from .cycleform import GroupAlgebraElement, cycle_form, cycle_form_bilinear, cycle_form_via_decomposition, bound_1a_gap, bound_5_gap
from .enumeration import CapExceeded, OrbitCensus, count_exact, count_naive, orbit_census, free_fraction, free_fraction_lower_bound
from .bounds import BoundReport, theorem_bound, theorem_bounds, ao_bounds, ratio_table, growth_ratio, verify_H, tail_ratio

__version__ = "0.1.0"
