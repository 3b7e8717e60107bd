"""reclens: interpret matrix-factorization recommenders by training a
metadata-driven shadow model over the item latent factors and explaining
its ratings with quantitative feature influence."""

from .datamodel import (
    FactorModel,
    MetadataMatrix,
    RatingsMatrix,
    predict_rating,
)
from .errors import (
    EstimatorMismatchError,
    FormatError,
    InsufficientDataError,
    ParseError,
    ReclensError,
    SolverError,
    StatsError,
    ValidationError,
)
from .factorize import AlsConfig, load_model, save_model, train_als, training_rmse
from .influence import (
    InfluenceQuery,
    InfluenceReport,
    ItemSet,
    SingleItem,
    explain,
    qii_exact_binary,
    qii_monte_carlo,
)
from .ingest import (
    FeatureFilterSpec,
    RawItemRecord,
    encode_one_hot,
    feature_entropy,
    filter_features,
    load_metadata,
    load_ratings,
    prune_items,
)
from .regressors import (
    LinearRegressor,
    RegressionTree,
    TreeParams,
    fit_linear,
    fit_tree,
)
from .shadow import (
    AgreementReport,
    LinearKind,
    ShadowModel,
    TreeKind,
    faithfulness,
    latent_agreement,
    load_shadow,
    measure_agreement,
    observational_agreement,
    save_shadow,
    train_shadow,
)
from .synth import (
    ExperimentConfig,
    PreferenceProfile,
    ScoreSample,
    SimConfig,
    cohens_d,
    control_profiles,
    correctness_score,
    direct_encode_model,
    generate_profiles,
    random_metadata,
    run_hypothesis_experiment,
    simulate_ratings,
    welch_t,
)

__version__ = "0.1.0"
