"""itemcl: matching-stage recommender toolkit built on numpy.

A two-tower retrieval model trained with a sampled-softmax click
objective plus three plug-and-play item-based contrastive tasks (feature
dropout views, mined semantic neighbors, session co-occurrence), with
the mining pipelines that manufacture the contrastive positives and a
brute-force HIT@N / item-coverage evaluator.
"""

from .augment import AugmentationPlan, augmentation_masks
from .config import TrainConfig, apply_settings, parse_config_file
from .data import (
    ClickLog,
    Interaction,
    Item,
    ItemCatalog,
    SplitDataset,
    UserProfileTable,
    chronological_split,
    load_catalog,
    load_interactions,
    load_profiles,
    save_catalog,
    save_interactions,
    save_profiles,
)
from .evaluation import EvalReport, evaluate, export_embeddings, item_matrix, retrieve_topn
from .gradcheck import gradcheck_suite
from .losses import (
    ContrastiveBatch,
    MatchBatch,
    infonce_terms,
    loss_feature_cl,
    loss_joint,
    loss_matching,
    loss_semantic_cl,
    loss_session_cl,
)
from .model import (
    EncodedCatalog,
    EncodedProfiles,
    ModelDims,
    ModelMeta,
    ModelParams,
    build_meta,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rng import substream
from .semantics import SemanticPositivePool, mine_taxonomy, mine_title_knn
from .sessions import (
    CooccurrenceTable,
    SessionPositiveSampler,
    Sessions,
    build_cooccurrence,
    segment_sessions,
)
from .synthetic import SyntheticSpec, default_split_time, generate
from .training import TrainReport, TrainingError, mine_artifacts, train
from .util import keep_freed_heap

keep_freed_heap()

__version__ = "0.1.0"
