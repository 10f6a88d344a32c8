from .adam import AdamState, adam_update
from .gae import gae_advantages, normalize_advantages
from .io import ParamsFileError, load_params, save_params
from .loss import Minibatch, ppo_loss, ppo_loss_and_grads
from .net import (MlpParams, N_VELOCITY_BINS, VELOCITY_FRACTIONS, forward,
                  init_params, log_softmax, sample_action, velocity_from_bin)
from .train import PpoConfig, PpoPolicy, TrainResult, evaluate, train

__all__ = [
    "AdamState", "adam_update", "gae_advantages", "normalize_advantages",
    "ParamsFileError", "load_params", "save_params", "Minibatch", "ppo_loss",
    "ppo_loss_and_grads", "MlpParams", "N_VELOCITY_BINS",
    "VELOCITY_FRACTIONS", "forward", "init_params", "log_softmax",
    "sample_action", "velocity_from_bin", "PpoConfig", "PpoPolicy",
    "TrainResult", "evaluate", "train",
]
