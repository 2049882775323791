"""Limit spectra of block tridiagonal Toeplitz operators with corner
perturbations: transfer-matrix spectra, determinant identities, limit-set
extraction and large-energy asymptotics."""

from .errors import (BadConfig, ConvergenceFailure, DegenerateSplit,
                     NonSquare, NotAProjection, NotSimpleSpectrum, OnCurve,
                     RankMismatch, SingularMatrix, ToeplimitError, ZeroArgument)
from .operators import (BoundaryTriple, CoefficientTriple, assemble_operator,
                        charpoly_direct, circulant_spectrum_fft, eval_symbol,
                        finite_spectrum, numerical_rank, winding_number)
from .transfer import (TransferSpectrum, boundary_transfer_matrix,
                       match_branches, ordered_spectrum, riesz_projection,
                       riesz_projection_contour, transfer_matrix)
from .widom import (QEvaluation, WidomSum, charpoly_circulant,
                    charpoly_semipermeable, index_sets, q_hat, q_perturbed,
                    q_tilde, transfer_recursion_residual, widom_sum_open,
                    widom_sum_perturbed, z_factor)
from .limitsets import (Arc, LimitSpectrumResult, Outlier, Region, ScanGrid,
                        compute_limit_sets, lambda_open, lambda_r,
                        omega_r_membership, outliers_open, outliers_perturbed,
                        refine_zero, scan_grid, sigma_r)
from .asymptotics import (FrameSet, GenericityReport, RTData,
                          frames_from_projection, genericity_check,
                          perturbed_rt_spectral_data, q_hat_leading,
                          q_leading, q_tilde_leading, riesz_leading_full,
                          rt_spectral_data)

__version__ = "0.1.0"
