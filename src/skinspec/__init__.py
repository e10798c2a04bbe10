"""skinspec: structured spectra of perturbed dimer systems.

Exact eigenpairs of perturbed tridiagonal 2-Toeplitz matrices via Chebyshev
recurrences, gauge capacitance matrices of resonator chains, and the
skin-effect / interface-localization / winding / pseudospectrum diagnostics
built on top of them.
"""

from .capacitance import (
    ModeProfile,
    ResonatorChain,
    SubwavelengthSpectrum,
    dimer_coefficients,
    gauge_capacitance,
    generalized_matrix,
    interface_chain,
    mode_profile,
    subwavelength_frequencies,
    subwavelength_omegas,
)
from .oracle import (
    ConvergenceError,
    SymTridiagonal,
    inverse_iteration_vector,
    sturm_count,
    sturm_eigenvalues,
    symmetrize,
)
from .polycore import (
    HatSequences,
    RecurrenceSpec,
    cheb_eval,
    cheb_u_roots,
    hat_sequences,
    y_map,
)
from .spectral import (
    PointOnCurveError,
    PseudoGrid,
    SamplingError,
    SymbolCurve,
    det_curve,
    det_min_on_circle,
    det_shifted_curve,
    det_symbol,
    eig_curve_union,
    eig_curves,
    pseudospectrum,
    sigma_min,
    sigma_min_many,
    symbol,
    winding,
)
from .toeplitz2 import (
    BracketReport,
    DecayReport,
    Eigenpair,
    NotAnEigenvalueError,
    PerturbedDimerParams,
    TridiagonalMatrix,
    bracket_report,
    build_interface,
    build_perturbed,
    certified_eigenvalues,
    char_poly,
    decay_report,
    eigen_all,
    eigenvector_exact,
    interface_localization_check,
    mirrored_eigenvector,
    solve_tridiagonal_eigenpairs,
)

__version__ = "0.1.0"
