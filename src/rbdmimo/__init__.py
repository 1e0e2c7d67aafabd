"""Residual-based iterative MMSE detection for massive MIMO uplinks.

Library layout:

* `linalg`      dense complex primitives and the Cholesky ground truth
* `channel`     i.i.d. and Kronecker-correlated Rayleigh channels
* `modem`       Gray-mapped square QAM and AWGN
* `detectors`   MMSE preprocessing and the residual-based detectors
* `complexity`  closed-form and counted operation totals
* `sim`         seeded Monte-Carlo BER sweeps and persistence
* `selftest`    fast named invariant checks
* `cli`         simulate / complexity / selftest commands
"""

from .channel import (
    ChannelRealization,
    ChannelScenario,
    correlation_matrix,
    generate_channel,
    matrix_sqrt_psd,
)
from .complexity import (
    Cost,
    CostReport,
    OpCounter,
    analytic_cost,
    cholesky_cost,
    cholesky_solve_cost,
    cost_report,
    measured_cost,
)
from .detectors import (
    ArnoldiState,
    ConvergenceBound,
    DetectionResult,
    DetectionTrace,
    GivensChain,
    MmseProblem,
    arnoldi_step,
    cr_detect,
    exact_detect,
    givens_lsq_update,
    gmres_detect,
    kernel_coeff,
    kernel_mac,
    minres_detect,
    preprocess,
    residual_bound_gmres,
    residual_bound_minres,
)
from .linalg import (
    NotPositiveDefiniteError,
    cholesky_factor,
    cholesky_solve,
    hermitian_eigen_extrema,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
)
from .modem import QamSpec, awgn_add, qam_demodulate_hard, qam_modulate, qam_spec
from .rngstream import mix_seed, uniform_stream
from .sim import (
    BerPoint,
    SimConfig,
    SweepResult,
    interpolate_snr_at_ber,
    plot_data,
    read_results,
    run_ber_point,
    run_frames,
    run_sweep,
    run_trial,
    snr_gap,
    snr_to_sigma2,
    write_plot_data,
    write_results,
)

__version__ = "0.1.0"
