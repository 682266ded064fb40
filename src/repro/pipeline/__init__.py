"""The unified carbon-backend protocol.

Every carbon model the paper compares prices one shared design
resolution:

* :mod:`repro.pipeline.stage` — :class:`EvalContext`, one evaluation
  point's inputs (design, parameters, fab location and its carbon
  intensity, workload);
* :mod:`repro.pipeline.fingerprint` — the exact value fingerprints every
  memo layer (engine caches, service store) keys on;
* :mod:`repro.pipeline.backends` — :class:`CarbonBackend`
  implementations: 3D-Carbon itself (``repro3d``) and the Sec. 4
  baselines (``act``, ``act_plus``, ``lca``, ``first_order``). A backend
  is one ``price(ctx, resolved)`` over the resolution the caller made,
  returning a uniform :class:`BackendReport`;
* :mod:`repro.pipeline.registry` — the process-wide name → backend table
  the engine, CLI and service all consult.

Every layer above (engine batching, service store keys, `carbon3d
compare`, the validation studies) routes through this protocol, so a new
carbon model plugs in by registering one backend class.
"""

from .backends import (
    ActBackend,
    ActPlusBackend,
    BackendReport,
    CarbonBackend,
    FirstOrderBackend,
    LcaBackend,
    Repro3DBackend,
)
from .registry import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend,
)
from .stage import EvalContext

__all__ = [
    "ActBackend",
    "ActPlusBackend",
    "BackendReport",
    "CarbonBackend",
    "DEFAULT_BACKEND",
    "EvalContext",
    "FirstOrderBackend",
    "LcaBackend",
    "Repro3DBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
]
