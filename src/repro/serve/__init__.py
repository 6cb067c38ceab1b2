"""``repro serve``: an always-warm config-query service.

Loads every persisted exploration report and the persistent result
cache into an in-memory **frontier index** keyed by (lowered-program
family hash, shape, hardware descriptor), and answers

    "best configuration for program P at shape S on hardware H?"

in sub-millisecond time over HTTP.  A miss synthesizes a bounded
design-space job on the supervised exploration service and returns
``202`` with a poll handle; once the sweep lands, the answer is warm
forever after.

Entry points::

    repro serve --port 8173                    # CLI
    python -m repro.cli serve

    from repro import api
    api.serve(port=0)                          # background ReproServer
"""

from .http import DEFAULT_HOST, DEFAULT_PORT, ReproServer, ServeConfig, serve_forever
from .index import (
    FrontEntry,
    FrontierIndex,
    QueryLog,
    WarmLoadStats,
    query_log_path,
    snapshot_path,
)
from .jobs import JOB_STATES, JobManager, JobRecord
from .schema import (
    API_PREFIX,
    ENDPOINTS,
    SCHEMA_VERSION,
    QuerySpec,
    ServeRequestError,
    parse_query,
    parse_shape,
)

__all__ = [
    "API_PREFIX",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ENDPOINTS",
    "FrontEntry",
    "FrontierIndex",
    "JOB_STATES",
    "JobManager",
    "JobRecord",
    "QueryLog",
    "QuerySpec",
    "ReproServer",
    "SCHEMA_VERSION",
    "ServeConfig",
    "ServeRequestError",
    "WarmLoadStats",
    "parse_query",
    "parse_shape",
    "query_log_path",
    "serve_forever",
    "snapshot_path",
]
