"""MIMO radar DOA estimation via neural emulation of large virtual arrays."""

from .arrays import (
    ArrayConfig,
    draw_rcs,
    draw_scene,
    snr_to_noise_var,
    steering_matrix,
    synthesize_block,
    synthesize_pair,
)
from .music import (
    SpectrumResult,
    doa_mse,
    hermitian_eig,
    music_spectrum,
    noise_subspace,
    pick_peaks,
    sample_covariance,
)
from .metrics import cov_error, crb, steering_derivative
from .network import (
    MlpModel,
    TrainConfig,
    TrainingError,
    adam_step,
    load_model,
    minmax_apply,
    minmax_fit,
    minmax_invert,
    mlp_backward,
    mlp_forward,
    predict,
    save_model,
    stack_real_imag,
    train,
    unstack_real_imag,
)
from .harness import (
    ExperimentConfig,
    Harness,
    SweepResult,
    SweepRow,
    parse_config_file,
    read_dataset,
    read_results,
    write_dataset,
    write_results,
)

__version__ = "0.1.0"
