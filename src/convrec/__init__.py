"""Conversational item recommendation with graph encoders and retrieval.

The package splits into data handling (corpus, graphs), numerics (autodiff,
optim), model components (encoders, retrieval, preference), the recommender
itself (training, evaluation, ablation), synthetic corpora for validation,
and a command-line front end (cli).
"""

from . import allocator

allocator.fix_thresholds()

from . import autodiff  # noqa: E402
from .autodiff import Tensor, finite_diff_check
from .corpus import (
    Corpus,
    EntityVocab,
    Examples,
    Sentiment,
    Speaker,
    Split,
    Vocab,
    WordVocab,
    derive_examples,
    load_corpus,
    load_entity_vocab,
    split_view,
)
from .encoders import (
    GcnParams,
    RgcnParams,
    encode_items,
    gcn_forward,
    init_gcn_params,
    init_rgcn_params,
    rgcn_forward,
)
from .errors import (
    ConfigurationError,
    ConvRecError,
    LeakageError,
    MissingArtifactError,
    NumericError,
    ParseError,
    ShapeError,
    StateError,
    ValidationError,
)
from .graphs import (
    InteractionGraph,
    TypedGraph,
    WordGraph,
    build_interaction_graph,
    load_item_kg,
    load_word_graph,
    normalize_adjacency,
)
from .optim import (
    AdamConfig,
    AdamState,
    ParamStore,
    adam_step,
    load_checkpoint,
    save_checkpoint,
)
from .preference import (
    AttentionParams,
    UserRep,
    build_user_representation,
    init_attention_params,
)
from .recommender import (
    Artifacts,
    MetricsReport,
    Model,
    TrainConfig,
    TrainResult,
    ablate,
    aggregate_metrics,
    build_artifacts,
    evaluate,
    rec_loss,
    score_all,
    train,
)
from .retrieval import (
    Bm25Index,
    RetrievalResult,
    bm25_score,
    build_index,
    retrieve,
    retrieve_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AdamConfig",
    "AdamState",
    "Artifacts",
    "AttentionParams",
    "Bm25Index",
    "ConfigurationError",
    "ConvRecError",
    "Corpus",
    "EntityVocab",
    "Examples",
    "GcnParams",
    "InteractionGraph",
    "LeakageError",
    "MetricsReport",
    "MissingArtifactError",
    "Model",
    "NumericError",
    "ParamStore",
    "ParseError",
    "RetrievalResult",
    "RgcnParams",
    "Sentiment",
    "ShapeError",
    "Speaker",
    "Split",
    "StateError",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "TypedGraph",
    "UserRep",
    "ValidationError",
    "Vocab",
    "WordGraph",
    "WordVocab",
    "ablate",
    "aggregate_metrics",
    "adam_step",
    "autodiff",
    "bm25_score",
    "build_artifacts",
    "build_interaction_graph",
    "build_index",
    "build_user_representation",
    "derive_examples",
    "encode_items",
    "evaluate",
    "finite_diff_check",
    "gcn_forward",
    "init_attention_params",
    "init_gcn_params",
    "init_rgcn_params",
    "load_checkpoint",
    "load_corpus",
    "load_entity_vocab",
    "load_item_kg",
    "load_word_graph",
    "normalize_adjacency",
    "rec_loss",
    "retrieve",
    "retrieve_batch",
    "rgcn_forward",
    "save_checkpoint",
    "score_all",
    "split_view",
    "train",
]
