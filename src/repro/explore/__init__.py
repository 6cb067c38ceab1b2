"""Design-space exploration: model-guided autotuning.

Enumerates mapping configurations (vectorization width, device count
and placement strategy, network provisioning, channel depths), prunes
them with the analytic performance/resource/network models, validates
the surviving frontier on the batched cycle-level simulator, and emits
a ranked Pareto report::

    from repro.explore import explore
    report = explore(program)
    print("\\n".join(report.summary_lines()))
"""

from .cache import Measurement, ResultCache, program_fingerprint
from .explorer import baseline_point, default_inputs, explore
from .prune import Prediction, Pruner
from .report import (
    ExplorationEntry,
    ExplorationReport,
    PointFailure,
    REPORT_SCHEMA_VERSION,
    iter_stored_reports,
    report_store_dir,
    report_store_key,
    upgrade_report_json,
)
from .search import (
    ExhaustiveSearch,
    GreedySearch,
    SearchStrategy,
    available_strategies,
    get_strategy,
)
from .space import ConfigPoint, ConfigSpace

__all__ = [
    "ConfigPoint",
    "ConfigSpace",
    "ExhaustiveSearch",
    "ExplorationEntry",
    "ExplorationReport",
    "GreedySearch",
    "Measurement",
    "PointFailure",
    "Prediction",
    "Pruner",
    "REPORT_SCHEMA_VERSION",
    "ResultCache",
    "SearchStrategy",
    "available_strategies",
    "baseline_point",
    "default_inputs",
    "explore",
    "get_strategy",
    "iter_stored_reports",
    "program_fingerprint",
    "report_store_dir",
    "report_store_key",
    "upgrade_report_json",
]
