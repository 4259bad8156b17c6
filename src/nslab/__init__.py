"""Numeric laboratory for normal shift of hypersurfaces in geometry defined
by a regular Lagrangian: relative-form Newtonian dynamics, shift simulation
with deviation functions, and the weak/additional normality residuals."""

from .calculus import (CotangentState, HamiltonianModel, LagrangianModel,
                       RegularityReport, SampleDomain, TangentState,
                       check_regularity, legendre, omega_v)
from .dynamics import (ForceField, NewtonianSystem, Trajectory, batch_steps,
                       integrate, integrate_batch)
from .expr import Expression, differentiate, parse
from .hypersurface import (Hypersurface, NuField, SecondFundamentalForm, ShiftFamily,
                           normal_covector, pfaff_compatibility_residual,
                           run_shift, second_fundamental_form, shift_steps,
                           solve_nu_grid, surface_with_prescribed_form,
                           tangent_frame)
from .normality import (DeviationODECoeffs, InvarianceReport, OperatorB,
                        ResidualReport, VariationSeries, VariationState,
                        additional_residuals, b_symmetry_of_B,
                        connection_invariance_check, deviation_coefficients,
                        deviation_ode_residual, evaluate_residuals,
                        integrate_variation, weak_residual_b_printed,
                        weak_residuals)
from .tensorfields import (CurvaturePair, ExtendedConnection,
                           ExtendedTensorField, FieldPoint,
                           commutator_residual)

__version__ = "0.1.0"
