"""One front door for every carbon study: the Session/Study facade.

After the engine (PR 1), the service (PR 2), the backend protocol
(PR 3) and the uncertainty layer (PR 4), the reproduction had five ways
to spell the same (design, backend, workload, factor-set, draws, seed)
tuple. :mod:`repro.api` consolidates them — the same "one tool, many
models behind one interface" move ACT v3 makes over carbon models,
applied to our own surface area:

* :class:`~repro.api.spec.StudySpec` — the declarative study vocabulary
  (evaluate / batch / sweep / monte_carlo / compare / tornado), in wire
  shape; ``to_payload()`` is exactly the service request JSON.
* :class:`~repro.api.session.Session` — the front door.
  ``Session(executor="local")`` runs studies on an in-process engine;
  ``Session(executor="service", url=..., token=...)`` runs the *same
  payloads* against a running ``carbon3d serve``. Both paths share the
  schema validator and the dispatcher, so results are bit-identical.
* :class:`~repro.api.results.Result` / :class:`~repro.api.results.
  ResultSet` — uniform result objects whose ``to_payload()`` round-trips
  exactly to the service schema.
* :class:`~repro.api.handle.StudyHandle` — future-based submission:
  ``session.submit(study)`` returns immediately; ``handle.partial()``
  yields batch/sweep points **as they finish** (the service streams them
  as NDJSON from its store; local sessions stream straight off the
  dispatcher), ``handle.result()`` blocks for the assembled whole.

Quickstart::

    from repro.api import Session, StudySpec

    with Session() as s:
        print(s.evaluate(design).total_kg)
        for point in s.submit(StudySpec.sweep(reference)).partial():
            print(point.label, point.total_kg)

The CLI (``carbon3d submit``/``compare``/``studies``), the in-process
study modules (:mod:`repro.studies`) and the examples all route through
this facade.
"""

from .handle import StudyError, StudyHandle
from .results import Result, ResultSet
from .session import DEFAULT_URL, Session
from ..service.schema import DEFAULT_SEED, STUDY_KINDS
from .spec import StudySpec

__all__ = [
    "DEFAULT_SEED",
    "DEFAULT_URL",
    "Result",
    "ResultSet",
    "STUDY_KINDS",
    "Session",
    "StudyError",
    "StudyHandle",
    "StudySpec",
]
