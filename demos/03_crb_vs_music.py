"""Cramer-Rao bounds versus empirical MUSIC accuracy.

For a fixed two-target scene, sweeps SNR and compares the Monte-Carlo MUSIC
MSE of the 4x4 and 8x8 virtual arrays against their CRB diagonals.  Two
things to look for in the table:

* the bound scales exactly linearly in the noise power (10x per 10 dB), and
* MUSIC tracks its bound at high SNR but departs from it below threshold,
  much earlier on the small aperture.

Run:  python3 demos/03_crb_vs_music.py
"""

import numpy as np

from arrayemu import (
    ArrayConfig,
    crb,
    doa_mse,
    draw_scene,
    music_doas,
    sample_covariance,
    snr_to_noise_var,
    synthesize_block,
)

low = ArrayConfig(4, 4)
high = ArrayConfig(8, 8)
pulses, trials = 150, 50
grid = (-5.0, 30.0, 0.1)

rng = np.random.default_rng(3)
angles_rad, rcs = draw_scene((0.0, 25.0), k=2, min_sep_deg=10.0, pulses=pulses, rng=rng)
truth_deg = np.sort(np.rad2deg(angles_rad))
print("scene DOAs [deg]:", np.round(truth_deg, 2))


def music_once(arr, snr_db, trial_rng):
    block = synthesize_block(angles_rad, rcs, arr, snr_db, trial_rng)
    return music_doas(sample_covariance(block[None]), arr, grid, 2)[0]


print(f"\n{'snr':>5} {'crb low':>10} {'mse low':>10} {'crb high':>10} {'mse high':>10}")
for snr_db in (-10.0, -5.0, 0.0, 5.0, 10.0):
    sigma2 = snr_to_noise_var(snr_db)
    row = [f"{snr_db:5.0f}"]
    for arr in (low, high):
        bound = float(np.mean(np.diagonal(crb(angles_rad, rcs, sigma2, arr))))
        estimates = np.vstack([music_once(arr, snr_db, rng) for _ in range(trials)])
        mse = doa_mse(estimates, np.tile(truth_deg, (trials, 1)))
        row += [f"{bound:10.2e}", f"{mse:10.2e}"]
    print(" ".join(row))
