"""IP-VAE: variational-autoencoder processing of induced-polarization decays.

Train a small VAE on windowed chargeability decay curves, then use it for
generative sampling, Bayesian denoising with uncertainty bands, survey S/N
analysis, outlier flagging, and latent-dimensionality experiments, next to
three classic baseline filters.
"""

from .analysis import (
    DenoiseResult,
    DensityChart,
    SnrHistogram,
    SweepRow,
    denoise_all,
    density_chart,
    dlc_difference,
    latent_chargeability_correlation,
    latent_sweep,
    peak_snr,
    rmse,
    survey_snr_histogram,
)
from .data import (
    DecayFormatError,
    DecaySet,
    SyntheticSpec,
    WindowScheme,
    average_chargeability,
    contaminate,
    generate_ground_truth,
    read_decays,
    synthesize_corpus,
    write_decays,
)
from .filters import (
    butterworth_lowpass,
    exponential_moving_average,
    moving_average,
    tune_batch,
)
from .vae import (
    LossReport,
    TrainConfig,
    TrainingDivergedError,
    VaeModel,
    decode,
    encode,
    load,
    loss,
    reparametrize,
    sample_matrix,
    save,
    train,
    train_new,
)

__version__ = "0.1.0"

__all__ = [
    "DecayFormatError",
    "DecaySet",
    "DenoiseResult",
    "DensityChart",
    "LossReport",
    "SnrHistogram",
    "SweepRow",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingDivergedError",
    "VaeModel",
    "WindowScheme",
    "average_chargeability",
    "butterworth_lowpass",
    "contaminate",
    "decode",
    "denoise_all",
    "density_chart",
    "dlc_difference",
    "encode",
    "exponential_moving_average",
    "generate_ground_truth",
    "latent_chargeability_correlation",
    "latent_sweep",
    "load",
    "loss",
    "moving_average",
    "peak_snr",
    "read_decays",
    "reparametrize",
    "rmse",
    "sample_matrix",
    "save",
    "survey_snr_histogram",
    "synthesize_corpus",
    "train",
    "train_new",
    "tune_batch",
    "write_decays",
]
