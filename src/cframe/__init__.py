"""Certified controlled operator-frame bounds on finite Hilbert modules."""

from .algebra import (Algebra, AlgebraElement, alg_abs, alg_is_positive,
                      alg_is_strictly_nonzero, alg_norm, alg_sqrt)
from .errors import (BadParameters, CFrameError, IntertwiningViolated,
                     LengthMismatch, NotCommuting, NotDefinite, NotFinite,
                     NotGLPlus, NotHermitian, NotIncluded, NotInvertible,
                     NotPSD, NotPositive, NotSurjective, ParseError,
                     PreconditionUnverified, SingularFrameOperator,
                     SpaceMismatch, ValidationError, ZeroOperator)
from .cli import (SystemDescription, description_from_dict, parse_system,
                  run, serialize_system)
from .frames import (STATUS_BESSEL, STATUS_FRAME, STATUS_NOT_FRAME,
                     CheckReport, CommutationFlags, ControlledFrameSystem,
                     FiberForms, FrameCertificate, LowerBoundResult,
                     ReconstructionResult, VerifyResult, analysis, certify,
                     check_at, commutation_residual, comparison_form_matrix,
                     frame_form_matrix, frame_operator, frame_system,
                     optimal_lower_bound, optimal_upper_bound, reconstruct,
                     synthesis, verify_bounds, with_comparison,
                     with_controls, with_family)
from .module_space import (ModuleSpace, ModuleVector, inner_product,
                           make_space, module_action, module_norm)
from .operators import (ModuleOperator, OperatorFlags, adjoint_lower_bound,
                        identity, op_adjoint, op_classify, op_compose,
                        op_inverse, op_norm, op_sqrt, scalar_operator,
                        zero_operator)
from .sequence_example import (ExampleCertificate, ExampleSystem, SumIdentity,
                               as_system, build_example, closed_form_element,
                               example_certificate, example_sum_identity,
                               family_form_element)
from .spectral import (PencilResult, hermitian_part, pencil_extremes, pinv,
                       restricted_pencil_min)
from .transforms import (DouglasSolution, HomomorphismSpec, TransformReport,
                         WitnessReport, compose_with_q, control_uncontrolled,
                         derive_k_frame, douglas_solve, invertibility_witness,
                         invertible_q_bounds, phi_element, transport,
                         range_inclusion_transfer, upgrade_by_surjectivity)

__version__ = "0.1.0"
