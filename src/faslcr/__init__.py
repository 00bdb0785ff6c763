"""Level crossing rate of N-port fluid antenna systems.

Analytic evaluation of the selected-envelope crossing rate under spatially
correlated Rayleigh fading, plus a Monte-Carlo channel simulator that
validates it, and a sweep/CSV harness for grid experiments.
"""

from .channel_model import (
    APERTURE_IN_RANGE_MAX,
    IDENTICAL_CHANNEL_CUTOFF,
    CorrelationProfile,
    FasConfig,
    correlation_profile,
    joint_pdf,
)
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    FasLcrError,
    SingularityError,
)
from .harness import (
    METHODS,
    MethodComparison,
    ResultRow,
    SweepSpec,
    compare_methods,
    db_to_linear,
    emit_csv,
    linear_to_db,
    read_csv,
    run_sweep,
)
from .lcr_analytic import (
    lcr_identical,
    lcr_iid,
    lcr_theorem1,
    lcr_two_port_series,
)
from .mc_simulator import (
    BaseProcesses,
    EnvelopeSeries,
    LcrEstimate,
    SimParams,
    assemble_port_envelopes,
    count_crossings,
    estimate_lcr,
    fas_select,
    generate_base_processes,
)
from .specfun import (
    bessel_i0_scaled,
    bessel_j0,
    marcum_q1,
)

__version__ = "0.7.0"
