"""Federated unsupervised anomaly detection for IIoT network flows.

A dense autoencoder trained centrally or across simulated clients with
FedAvg, q-FFL or FairFedAvg aggregation; reconstruction-error threshold
detection; Dirichlet non-IID partitioning; and a deterministic experiment
harness.
"""

from .autoencoder import (
    AutoencoderConfig,
    TrainConfig,
    build,
    decode,
    encode,
    reconstruct,
    reconstruction_errors,
    train_epochs,
)
from .config import ExperimentConfig, build_config, parse_config
from .dataplane import (
    LabeledDataset,
    PartitionPlan,
    ScalerParams,
    SchemaConfig,
    SynthSpec,
    apply_scaler,
    dirichlet_partition,
    fit_scaler,
    load_csv,
    load_dataset,
    save_dataset,
    split_by_label,
    synth_generate,
    train_val_split,
)
from .detector import (
    ConfusionMatrix,
    MetricsReport,
    ThresholdDetector,
    classify,
    compute_threshold,
    confusion,
    metrics,
    min_round_threshold,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateAggregationError,
    DegenerateLossError,
    DivergenceError,
    FedAnomError,
    NumericError,
    SchemaError,
    ShapeError,
)
from .federation import (
    ClientState,
    ClientUpdate,
    FederationResult,
    LatencyModel,
    ServerState,
    StrategyConfig,
    StrategyKind,
    aggregate,
    apply_relevance,
    assign_latencies,
    fedavg_aggregate,
    local_round,
    qffl_aggregate,
    qffl_deltas,
    relevance_score,
    run_federated,
    sample_clients,
)
from .harness import (
    EvaluationReport,
    emit_report,
    run_centralized,
    run_experiment,
    run_federated_experiment,
)
from .numerics import (
    Activation,
    AdamState,
    DenseLayer,
    LayerSpec,
    LrSchedule,
    ParameterSet,
    adam_step,
    activate,
    compute_gradients,
    dense_forward,
    derive_rng,
    derive_seed,
    lr_at,
    mse,
    pack,
    unpack,
)

__version__ = "0.1.0"
