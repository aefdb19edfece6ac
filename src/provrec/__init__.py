"""Recognition of attack tactics and techniques in system provenance graphs.

The pipeline: build a typed provenance graph from audit events, learn node
behavior embeddings self-supervised, flag anomalous process nodes with an
isolation forest, carve technique subgraphs around correlated flags, embed
each subgraph with hierarchical meta-path attention, and match it against
few-shot exemplars with a twin-branch contrastive model. A stateful
rule-engine baseline and a synthetic scenario harness round out the package.
"""

from .config import ConfigError, PipelineConfig
from .embedding import (
    META_PATHS,
    METAPATH_COMBOS,
    HanConfig,
    embed_subgraph,
    metapath_neighbors,
)
from .evaluation import (
    MODES,
    PipelineModels,
    Triage,
    evaluate_end_to_end,
    evaluate_noi,
    noi_lmo_protocol,
    run_experiment,
    split_few_shot,
    split_leave_malicious_out,
    train_pipeline,
    triage,
)
from .features import (
    FEATURE_DIM,
    EncoderConfig,
    GnnEncoder,
    extract_embeddings,
    gnn_layer_forward,
    init_features,
    train_encoder,
)
from .graph import (
    NUM_EDGE_TYPES,
    EntityType,
    Event,
    GraphError,
    ProvenanceGraph,
    build_graph,
    edge_type_of,
    read_events_jsonl,
)
from .matching import (
    ExemplarSet,
    MatcherConfig,
    RecognitionResult,
    SiameseModel,
    Triplet,
    build_triplets,
    contrastive_loss,
    pick_representative,
    recognition_metrics,
    recognize,
    recognize_many,
    train_matcher,
)
from .noi import (
    IsolationForest,
    NoiReport,
    anomaly_score,
    anomaly_scores,
    detect_nois,
    fit_forest,
)
from .numerics import (
    GradientTape,
    Matrix,
    NumericsError,
    Rng,
    descend,
    grad_check,
)
from .persistence import ModelFormatError, load_model, save_model
from .rules import (
    BlacklistConfig,
    StateStore,
    TransferRule,
    map_to_killchain,
    replay,
    seed_states,
    step_event,
)
from .sampling import (
    SamplingMetrics,
    TechniqueSubgraph,
    lambda_dfs,
    sample_subgraphs,
    sampling_metrics,
    select_seed,
)
from .synthetic import (
    DEFAULT_TEMPLATES,
    LabeledDataset,
    LabeledSample,
    ScenarioSpec,
    TechniqueTemplate,
    generate_scenario,
)

__version__ = "0.1.0"
