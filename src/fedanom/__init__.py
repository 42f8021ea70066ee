"""Federated unsupervised anomaly detection for IIoT network flows.

A dense autoencoder trained centrally or across simulated clients with
FedAvg, q-FFL or FairFedAvg aggregation; reconstruction-error threshold
detection; Dirichlet non-IID partitioning; and a deterministic experiment
harness.
"""

from .autoencoder import AutoencoderConfig
from .config import build_config
from .dataplane import SynthSpec, synth_generate
from .harness import run_experiment

__all__ = ["AutoencoderConfig", "SynthSpec", "build_config",
           "run_experiment", "synth_generate"]

__version__ = "0.1.0"
