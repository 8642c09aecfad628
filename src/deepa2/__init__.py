"""Deep argument analysis toolkit.

A multi-angular record model for comprehensive argument analyses, a
synthetic corpus generator, a validity and scheme-instantiation checker
for the monadic formalization language, the systematic/exegetic metric
suite, and a generative-chain engine over pluggable text-to-text backends.

The public names below are imported from their modules on first access, so
``import deepa2`` (and each CLI stage) loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module with the public names it defines.
_PUBLIC = {
    "deepa2.argdown": (
        "ArgdownArgument", "InferenceStep", "final_conclusion_of", "parse_argdown",
        "premises_of", "render_argdown",
    ),
    "deepa2.backends": (
        "GenerationRequest", "HttpBackend", "ModelBackend", "NoisyOracleBackend",
        "OracleBackend", "make_backend",
    ),
    "deepa2.chains": (
        "ChainResult", "ChainSpec", "chain_by_id", "chain_catalog", "export_training",
        "formalization_subchain", "run_chain", "sophistication",
    ),
    "deepa2.dimensions": ("DimensionId",),
    "deepa2.evaluation": ("aggregate_table", "evaluate_traces", "oracle_reports"),
    "deepa2.formula": (
        "check_entailment", "check_satisfiable", "parse_formula", "render_formula",
    ),
    "deepa2.generator": (
        "GeneratorConfig", "generate_corpus", "subset_census", "verbalize_argument",
    ),
    "deepa2.importers": ("EntailmentTreeRecord", "import_entailmentbank"),
    "deepa2.metrics": ("MetricReport", "default_scorer", "evaluate_analysis"),
    "deepa2.modes": (
        "ModeSpec", "format_prompt", "mode", "mode_registry",
    ),
    "deepa2.records": (
        "DeepA2Record", "QuotedStatement", "RecordMeta", "classify_subsets",
        "load_corpus", "parse_dimension", "serialize_dimension",
    ),
    "deepa2.schemes": (
        "SchemeCatalog", "builtin_catalog", "check_scheme_instantiation",
        "sys_sch_ratio",
    ),
}

#: Public name -> the module that defines it.
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'deepa2' has no attribute {name!r}") from None
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
