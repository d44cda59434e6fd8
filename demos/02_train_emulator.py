"""Training the aperture emulator.

Trains the feed-forward emulator to map 2x2 low-array snapshots (4 virtual
elements) to 2x3 high-array snapshots (6 virtual elements) at a fixed SNR,
then checks how faithful the predicted high-array covariance is on unseen
scenes.  Deliberately tiny so it runs in a few seconds; the experiment
harness (demo 04) drives the same machinery at full scale.

Run:  python3 demos/02_train_emulator.py
"""

import numpy as np

from arrayemu import (
    ArrayConfig,
    TrainConfig,
    cov_error,
    draw_scene,
    predict,
    sample_covariance,
    stack_real_imag,
    synthesize_pair,
    train,
)

low = ArrayConfig(2, 2)
high = ArrayConfig(2, 3)
snr_db = 5.0
angle_range = (0.0, 25.0)

# One training sample = one pulse column, stacked as [Re; Im].  Draw a fresh
# two-target scene every 30 pulses so the network sees many angle pairs.
rng = np.random.default_rng(42)
pulses, scenes = 30, 100
inputs, targets = [], []
for _ in range(scenes):
    angles_rad, rcs = draw_scene(angle_range, k=2, min_sep_deg=5.0, pulses=pulses, rng=rng)
    bl, bh = synthesize_pair(angles_rad, rcs, low, high, snr_db, rng)
    inputs.append(stack_real_imag(bl))
    targets.append(stack_real_imag(bh))
x = np.concatenate(inputs, axis=1)   # (2*4, 3000)
t = np.concatenate(targets, axis=1)  # (2*6, 3000)
print(f"training data: {x.shape[1]} pulse columns, {x.shape[0]} -> {t.shape[0]} features")

config = TrainConfig(epochs=40, batch_size=120, split=(0.75, 0.25, 0.0))
model, history = train(x, t, config, seed=0, output_activation="linear")
print(f"layer dims: {model.layer_dims}")
print(f"mean batch loss: first epoch {history['train'][0]:.4f} -> last {history['train'][-1]:.4f}")
print(f"best validation MSE: {min(history['val']):.4f}")

# Evaluate on an unseen scene: emulate the high array from low-array data
# and compare covariances against the genuinely observed high array.
angles_rad, rcs = draw_scene(angle_range, k=2, min_sep_deg=5.0, pulses=150, rng=rng)
bl, bh = synthesize_pair(angles_rad, rcs, low, high, snr_db, rng)
emulated = predict(model, bl, high)

r_actual = sample_covariance(bh)
r_emulated = sample_covariance(emulated)
print(f"relative covariance error R_e on a held-out scene: "
      f"{cov_error(r_actual, r_emulated):.3f}")
