"""Desk-scale BER sweep: iterative detectors versus exact inversion.

Runs a 64x8 64-QAM link over a short SNR grid for the exact detector and
the three residual-based detectors at four iterations, prints the BER
table, and leaves plot-ready files in the working directory.
"""

import rbdmimo as rb

SNRS = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0)
DETECTORS = (("cholesky", 1), ("minres", 4), ("gmres", 4), ("cr", 4))

configs = [
    rb.SimConfig(
        n=64, m=8, qam_order=64, detector=detector, k_iterations=k,
        snr_db_list=SNRS, target_bit_errors=200, max_bits=500_000,
        master_seed=42,
    )
    for detector, k in DETECTORS
]
# every frame is drawn once and decided by all four detectors
sweeps = {}
for sweep in rb.run_sweeps(configs, workers=4):
    detector = sweep.config.detector
    sweeps[detector] = sweep
    rb.write_results(sweep, f"ber_{detector}.csv")
    rb.write_plot_data(sweep, f"plot_{detector}.csv")

header = "snr_db " + "".join(f"{d:>12s}" for d, _ in DETECTORS)
print(header)
for i, snr in enumerate(SNRS):
    cells = "".join(f"{sweeps[d].points[i].ber:12.3e}" for d, _ in DETECTORS)
    print(f"{snr:6.1f} {cells}")

print()
level = 1e-2
for detector in ("minres", "gmres", "cr"):
    gap = rb.snr_gap(sweeps[detector].points, sweeps["cholesky"].points, level)
    print(f"{detector:7s} needs {gap:+.2f} dB relative to exact inversion at BER {level:g}")
print()
print("wrote ber_<detector>.csv (full schema) and plot_<detector>.csv (snr_db,ber pairs)")
