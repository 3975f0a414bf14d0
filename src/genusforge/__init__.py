"""genusforge: exact and numeric engine for truncated q-series,
multiplicative genera, theta functions and equivariant fixed-point sums."""

__version__ = "0.1.0"

from genusforge.rings import LaurentZ
from genusforge.series import QSeries
from genusforge.charclass import BundleRoots, CharNumbers, GradedPoly
from genusforge.ktheory import KClass, witten_element
from genusforge.theta import (
    THETA,
    THETA1,
    THETA2,
    THETA3,
    theta_eval,
    theta_prime0,
    theta_qseries,
    verify_transform,
)
from genusforge.genus import (
    IntegralityWarning,
    SplitManifoldSpec,
    ahat_genus,
    l_genus,
    split_genus,
    subdirac_index,
    witten_genus,
)
from genusforge.equivariant import (
    EquivariantModel,
    FixedComponent,
    JacobiFormMeta,
    anomaly_check,
    g_eval,
    g_series,
    h_eval,
    h_series,
    jacobi_residual,
    lefschetz_eval,
    form_meta,
)

__all__ = [
    "LaurentZ", "QSeries",
    "BundleRoots", "CharNumbers", "GradedPoly",
    "KClass", "witten_element",
    "THETA", "THETA1", "THETA2", "THETA3",
    "theta_eval", "theta_prime0", "theta_qseries", "verify_transform",
    "IntegralityWarning", "SplitManifoldSpec", "ahat_genus", "l_genus",
    "split_genus", "subdirac_index", "witten_genus",
    "EquivariantModel", "FixedComponent", "JacobiFormMeta", "anomaly_check",
    "g_eval", "g_series", "h_eval", "h_series", "jacobi_residual",
    "lefschetz_eval", "form_meta",
    "__version__",
]
