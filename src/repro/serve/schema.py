"""The versioned JSON wire schema of ``repro serve``.

One module owns every request and response shape the HTTP surface
speaks, and it is built from the *same* models the report writer uses
(:mod:`repro.explore.report`): a ``/v1/best`` response embeds an
:class:`~repro.explore.report.ExplorationEntry` JSON record verbatim,
so the network protocol and the report store can never skew.  Every
response carries two version stamps:

* ``schema_version`` — the serve protocol version (this module);
* ``report_schema_version`` — the report-store schema the embedded
  entries follow (:data:`repro.explore.report.REPORT_SCHEMA_VERSION`).

Requests arrive as URL query parameters (GET) or a JSON body (POST);
:func:`parse_query` normalizes both into a :class:`QuerySpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from ..errors import ValidationError
from ..explore.report import REPORT_SCHEMA_VERSION

#: Version of the serve wire protocol.  Bump on any incompatible
#: change to the request or response shapes below; the URL prefix
#: (``/v1``) tracks the major version.
SCHEMA_VERSION = 1

#: URL prefix every endpoint lives under.
API_PREFIX = "/v1"

#: The endpoints the server exposes (used for routing and for the
#: bounded ``endpoint`` metrics label).
ENDPOINTS = ("best", "pareto", "jobs", "healthz", "metricsz")

#: Largest iteration domain (product of the extents) a query may name:
#: a miss simulates it, so an unbounded shape is unbounded work.  Well
#: above the paper's 128 x 128 x 80 hdiff domain (1.3 M cells).
MAX_QUERY_CELLS = 1 << 24


class ServeRequestError(ValidationError):
    """A malformed or unanswerable request (maps to HTTP 4xx)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class QuerySpec:
    """One normalized config query: (program, shape, hardware).

    ``program`` is a catalog name/alias, a path to a JSON program
    description (GET), or an inline JSON program object (POST).
    ``shape`` overrides the program's iteration domain; ``platform``
    names the hardware descriptor (default: the paper's Stratix 10
    board).
    """

    program: Union[str, Mapping]
    shape: Optional[Tuple[int, ...]] = None
    platform: Optional[str] = None

    def label(self) -> str:
        name = self.program if isinstance(self.program, str) \
            else self.program.get("name", "<inline>")
        shape = "x".join(map(str, self.shape)) if self.shape else "-"
        return f"{name}@{shape}"


def _url_extent(part: str):
    try:
        return int(part)
    except ValueError:
        return part  # refused by parse_shape, by name


def parse_shape(shape) -> Tuple[int, ...]:
    """A shape from URL text (``64,64,32``) or a JSON body list: a
    non-empty list of integers >= 1 — no floats, no bools, no strings
    in a JSON list — of at most :data:`MAX_QUERY_CELLS` cells.
    Anything else is a 400 naming the bad extent or the product."""
    extents = shape
    if isinstance(shape, str):
        extents = [_url_extent(part) for part in shape.split(",")]
    if not isinstance(extents, (list, tuple)) or not extents:
        raise ServeRequestError(
            f"invalid shape {shape!r} (expected e.g. 64,64,32)")
    for extent in extents:
        if type(extent) is not int or extent < 1:
            raise ServeRequestError(
                f"invalid shape {shape!r}: extent {extent!r} is not "
                f"an integer >= 1")
    cells = math.prod(extents)
    if cells > MAX_QUERY_CELLS:
        raise ServeRequestError(
            f"invalid shape {shape!r}: {cells} cells exceed the limit "
            f"of {MAX_QUERY_CELLS}")
    return tuple(extents)


def parse_query(params: Mapping[str, str],
                body: Optional[Mapping] = None) -> QuerySpec:
    """Build a :class:`QuerySpec` from query params and/or JSON body.

    The body wins field-by-field over the URL parameters, so a POST
    can carry an inline program object while still putting the shape
    in the URL.
    """
    merged: dict = dict(params)
    if body is not None:
        if not isinstance(body, Mapping):
            raise ServeRequestError(
                "request body must be a JSON object")
        merged.update(body)
    program = merged.get("program")
    if not program:
        raise ServeRequestError(
            "missing 'program' (a catalog name or a JSON program "
            "description)")
    shape = merged.get("shape")
    if shape is not None:
        shape = parse_shape(shape)
    platform = merged.get("platform")
    return QuerySpec(program=program, shape=shape,
                     platform=str(platform) if platform else None)


# -- response builders -------------------------------------------------------

def _envelope(kind: str, **payload) -> dict:
    out = {"schema_version": SCHEMA_VERSION,
           "report_schema_version": REPORT_SCHEMA_VERSION,
           "kind": kind}
    out.update(payload)
    return out


def best_response(entry, *, front_meta: Mapping,
                  lookup_seconds: float) -> dict:
    """A warm ``/v1/best`` hit: the winning entry, report provenance,
    and the index-probe latency (seconds; the smoke gate asserts its
    p50 stays sub-millisecond)."""
    return _envelope(
        "best",
        best=entry,
        source=dict(front_meta),
        lookup_seconds=lookup_seconds,
    )


def pareto_response(entries, *, front_meta: Mapping,
                    lookup_seconds: float) -> dict:
    """A warm ``/v1/pareto`` hit: the full non-dominated front."""
    return _envelope(
        "pareto",
        pareto=list(entries),
        source=dict(front_meta),
        lookup_seconds=lookup_seconds,
    )


def job_json(job) -> dict:
    """Serialize one background job record (shared by the 202 miss
    response and the ``/v1/jobs/<id>`` poll endpoint)."""
    out = {
        "job_id": job.job_id,
        "state": job.state,
        "query": job.query,
        "poll": f"{API_PREFIX}/jobs/{job.job_id}",
        "created": job.created,
        "finished": job.finished,
    }
    if job.error is not None:
        out["error"] = job.error
    if job.best is not None:
        out["best"] = job.best
    if job.report_key is not None:
        out["report_key"] = job.report_key
    return out


def miss_response(job) -> dict:
    """The 202 body: no cached front yet, a sweep is on its way."""
    return _envelope("miss", job=job_json(job))


def job_response(job) -> dict:
    return _envelope("job", job=job_json(job))


def health_response(**fields) -> dict:
    return _envelope("healthz", ok=True, **fields)


def metrics_response(snapshot: Mapping) -> dict:
    return _envelope("metricsz", metrics=dict(snapshot))


def error_response(message: str, status: int) -> dict:
    return _envelope("error", error=message, status=status)
