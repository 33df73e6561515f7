"""Numerical verification toolkit for a rotational-elasticity model of the
electron in 1+2 dimensions: spinor/coframe kinematics, axial torsion,
dimensional reduction, Lagrangian factorization into a pair of linear
Dirac equations, plane-wave states, and the underlying variational lemma.
"""

from .algebra import coframe_map, verify_coframe
from .errors import SpinframeError
from .field_equations import (
    Verdict,
    dirac_apply,
    field_equation_residual_4d,
    field_equation_residual_reduced,
    theorem1_check,
)
from .grids import LatticeSpec, ModelParams, SpinorBundle, periodic_spec
from .lagrangians import (
    dirac_contraction,
    dirac_lagrangian,
    factorization_residual,
    lagrangian_4d,
    lagrangian_reduced,
)
from .plane_waves import PlaneWaveLabel, classify, plane_wave_spinor, table_of_states
from .reports import CheckReport, emit, render
from .suites import SUITES, SuiteConfig, run_suite
from .torsion import (
    axial_torsion_coframe,
    axial_torsion_spinor,
    kk_decomposition_check,
    reduced_axial_torsion,
)
from .variational import (
    FirstOrderOperator,
    LemmaVerdict,
    combined_lagrangian,
    first_order_lagrangian,
    lemma_check,
    op_apply,
)

__version__ = "0.1.0"
