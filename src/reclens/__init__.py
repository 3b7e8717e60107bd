"""reclens: interpret matrix-factorization recommenders by training a
metadata-driven shadow model over the item latent factors and explaining
its ratings with quantitative feature influence.

The public names below, and the submodules themselves, are loaded on
first use (PEP 562), so ``import reclens`` itself imports nothing heavy
and a CLI command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "datamodel": ("FactorModel", "MetadataMatrix", "RatingsMatrix",
                  "predict_rating"),
    "errors": ("EstimatorMismatchError", "FormatError", "InsufficientDataError",
               "ParseError", "ReclensError", "SolverError", "StatsError",
               "ValidationError"),
    "factorize": ("AlsConfig", "load_model", "save_model", "train_als",
                  "training_rmse"),
    "influence": ("InfluenceQuery", "InfluenceReport", "ItemSet", "SingleItem",
                  "explain", "qii_exact_binary", "qii_monte_carlo"),
    "ingest": ("FeatureFilterSpec", "RawItemRecord", "encode_one_hot",
               "feature_entropy", "filter_features", "load_metadata",
               "load_ratings", "prune_items"),
    "regressors": ("RegressionTree", "TreeParams", "fit_linear", "fit_tree"),
    "shadow": ("AgreementReport", "LinearKind", "ShadowModel", "TreeKind",
               "faithfulness", "latent_agreement", "load_shadow",
               "measure_agreement", "observational_agreement", "save_shadow",
               "train_shadow"),
    "synth": ("ExperimentConfig", "PreferenceProfile", "ScoreSample",
              "SimConfig", "cohens_d", "control_profiles", "correctness_score",
              "direct_encode_model", "generate_profiles", "random_metadata",
              "run_hypothesis_experiment", "simulate_ratings", "welch_t"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, e.g. ``reclens.synth``
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
