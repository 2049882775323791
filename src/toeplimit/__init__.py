"""Limit spectra of block tridiagonal Toeplitz operators with corner
perturbations: transfer-matrix spectra, determinant identities, limit-set
extraction and large-energy asymptotics."""

from .errors import (BadConfig, ConvergenceFailure, DegenerateSplit,
                     NonSquare, NotSimpleSpectrum, OnCurve, SingularMatrix,
                     ToeplimitError, ZeroArgument)
from .operators import (BoundaryTriple, CoefficientTriple, assemble_operator,
                        charpoly_direct, charpoly_logdet, circulant_spectrum_fft,
                        eval_symbol, finite_spectrum, winding_number)
from .numkernel import numerical_rank
from .transfer import (TransferSpectrum, match_branches, ordered_spectrum,
                       transfer_matrix)
from .widom import (WidomSum, charpoly_circulant, corner_q, index_sets, q_hat,
                    q_perturbed, q_sets, q_tilde, widom_logdet, widom_sum_open,
                    widom_sum_perturbed)
from .limitsets import (Arc, LimitSpectrumResult, Outlier, Region, ScanGrid,
                        compute_limit_sets, lambda_open, lambda_r,
                        outliers_open, outliers_perturbed, refine_zero,
                        scan_grid, sigma_r)
from .asymptotics import (GenericityReport, RTData, genericity_check,
                          q_hat_leading, q_leading, rt_spectral_data)

__version__ = "0.1.0"
