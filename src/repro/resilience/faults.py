"""Deterministic, seedable fault injection for the whole stack.

A :class:`FaultPlan` names **injection points** (sites) at the stage,
engine, store, service and transport layers and describes what should
go wrong there — an injected error or a delay — and *when*: after the
Nth hit, for M firings, with a (seeded, deterministic) probability. The recovery
machinery this exercises lives next to each site: the store quarantines
and rebuilds corrupt files, the dispatcher enforces deadlines, the
client breaks the circuit.

Plans activate three ways, all reaching the same injector:

* ``Session(faults=plan)`` — a per-session injector threaded into the
  session's engine, dispatcher and store;
* ``carbon3d serve --fault-plan PLAN`` — installs the plan on the
  process-global injector before the server starts;
* the ``CARBON3D_FAULT_PLAN`` environment variable (inline JSON or a
  file path) — picked up at import, so subprocess tests can arm a
  server they spawn without touching its command line.

Every component's injection hook is a single attribute check while no
plan is installed, so production paths pay (almost) nothing.

Sites (see :data:`FAULT_SITES`)::

    stage.resolve  stage.embodied  stage.bandwidth  stage.operational
    engine.point
    store.open     store.get       store.put        store.close
    store.usage    store.stats     store.clear
    dispatcher.compute             server.request   transport.request

Determinism: rule counters advance per hit, and probabilistic rules draw
from a per-rule :class:`random.Random` seeded from ``(plan.seed, rule
index)`` — the same plan against the same call sequence fires the same
faults, which is what lets CI drive every recovery path repeatably.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from random import Random

from ..errors import CarbonModelError, ParameterError

#: Environment variable holding a plan (inline JSON or a file path).
FAULT_PLAN_ENV = "CARBON3D_FAULT_PLAN"

#: The catalog of named injection points, by layer.
FAULT_SITES = (
    # stage layer (engine memo misses — the stage actually runs)
    "stage.resolve", "stage.embodied", "stage.bandwidth",
    "stage.operational",
    # engine layer
    "engine.point",      # before each EvalPoint evaluation
    # store layer
    "store.open", "store.get", "store.put", "store.close",
    "store.usage", "store.stats", "store.clear",
    # service layer
    "dispatcher.compute",  # before an engine computation runs
    "server.request",      # server-side, before routing a POST
    # client transport layer
    "transport.request",   # client-side, before sending a request
)

#: What ``action="error"`` raises, by rule ``error`` kind. Components
#: catch exactly these families (the store catches ``sqlite3.Error``,
#: the transport catches ``ConnectionError``), so an injected failure
#: walks the very same recovery branch a real one would.
ERROR_KINDS = {
    "fault": lambda msg: FaultError(msg),
    "sqlite": lambda msg: sqlite3.DatabaseError(msg),
    "busy": lambda msg: sqlite3.OperationalError(msg or "database is locked"),
    "oserror": lambda msg: OSError(msg),
    "connection": lambda msg: ConnectionError(msg),
}


class FaultError(CarbonModelError):
    """The generic injected failure (``action="error"``, kind ``fault``)."""


@dataclass(frozen=True)
class FaultRule:
    """One fault: where (``site``), what (``action``), and when.

    ``after`` skips the first N hits at the site; ``times`` bounds how
    often the rule fires (``None`` = forever); ``probability`` gates each
    eligible hit through the plan's seeded RNG.
    """

    site: str
    action: str = "error"          # "error" | "delay"
    after: int = 0
    times: "int | None" = 1
    probability: float = 1.0
    delay_s: float = 0.0
    error: str = "fault"
    message: str = ""

    def __post_init__(self) -> None:
        if not self.site or not isinstance(self.site, str):
            raise ParameterError("a fault rule needs a non-empty site name")
        if self.site not in FAULT_SITES:
            raise ParameterError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(FAULT_SITES)}"
            )
        if self.action not in ("error", "delay"):
            raise ParameterError(
                f"fault action must be error/delay, got {self.action!r}"
            )
        if self.error not in ERROR_KINDS:
            raise ParameterError(
                f"unknown fault error kind {self.error!r}; known: "
                f"{', '.join(sorted(ERROR_KINDS))}"
            )
        if self.after < 0:
            raise ParameterError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ParameterError(
                f"times must be >= 1 or null, got {self.times}"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ParameterError(
                f"probability must be in (0, 1], got {self.probability}"
            )
        if self.delay_s < 0:
            raise ParameterError(f"delay_s must be >= 0, got {self.delay_s}")

    def to_dict(self) -> dict:
        data = {"site": self.site, "action": self.action}
        if self.after:
            data["after"] = self.after
        if self.times != 1:
            data["times"] = self.times
        if self.probability != 1.0:
            data["probability"] = self.probability
        if self.delay_s:
            data["delay_s"] = self.delay_s
        if self.error != "fault":
            data["error"] = self.error
        if self.message:
            data["message"] = self.message
        return data


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of :class:`FaultRule`\\ s (JSON round-trips)."""

    rules: "tuple[FaultRule, ...]" = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> dict:
        data: dict = {"rules": [rule.to_dict() for rule in self.rules]}
        if self.seed:
            data["seed"] = self.seed
        if self.name:
            data["name"] = self.name
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ParameterError(
                f"a fault plan must be a JSON object, got "
                f"{type(data).__name__}"
            )
        unknown = set(data) - {"rules", "seed", "name"}
        if unknown:
            raise ParameterError(
                f"fault plan: unknown key(s) {sorted(unknown)} "
                f"(allowed: rules, seed, name)"
            )
        rules_data = data.get("rules", [])
        if not isinstance(rules_data, list):
            raise ParameterError("fault plan \"rules\" must be a list")
        rules = []
        for index, rule in enumerate(rules_data):
            if not isinstance(rule, dict):
                raise ParameterError(
                    f"fault rule #{index} must be a JSON object"
                )
            known = {f.name for f in FaultRule.__dataclass_fields__.values()}
            bad = set(rule) - known
            if bad:
                raise ParameterError(
                    f"fault rule #{index}: unknown key(s) {sorted(bad)}"
                )
            rules.append(FaultRule(**rule))
        return cls(
            rules=tuple(rules),
            seed=int(data.get("seed", 0)),
            name=str(data.get("name", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ParameterError(
                f"fault plan is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)

    @classmethod
    def coerce(cls, value) -> "FaultPlan | None":
        """A plan from whatever the caller has in hand.

        Accepts ``None``, a ready plan, a dict, inline JSON text, or a
        path to a JSON file (the ``--fault-plan`` / env-var spellings).
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, str):
            text = value.strip()
            if not text.startswith("{") and os.path.exists(text):
                with open(text, encoding="utf-8") as handle:
                    text = handle.read()
            return cls.from_json(text)
        raise ParameterError(
            f"cannot build a FaultPlan from {type(value).__name__}"
        )


# -- the injector -------------------------------------------------------------

@dataclass
class FiredFault:
    """One fired fault, logged for assertions and operator visibility."""

    site: str
    action: str
    rule_index: int
    at_s: float = field(default_factory=time.monotonic)


class FaultInjector:
    """Evaluates a plan at each hit; the per-rule state lives here.

    ``active`` is a plain attribute (not a property) so hot paths can
    guard their hooks with one attribute read.
    """

    def __init__(self, plan: "FaultPlan | None" = None) -> None:
        self._lock = threading.Lock()
        self.fired: "list[FiredFault]" = []
        self.set_plan(plan)

    @property
    def plan(self) -> "FaultPlan | None":
        return self._plan

    def set_plan(self, plan: "FaultPlan | None") -> None:
        """Swap the plan, resetting counters, RNGs and the fired log."""
        with self._lock:
            self._plan = plan
            self.active = plan is not None and bool(plan.rules)
            self._hits = [0] * (len(plan.rules) if plan else 0)
            self._count = [0] * (len(plan.rules) if plan else 0)
            self._rngs = [
                Random((plan.seed << 8) ^ index)
                for index in range(len(plan.rules) if plan else 0)
            ]
            self.fired = []

    def hit(self, site: str) -> None:
        """Evaluate one hit at ``site``; may sleep or raise."""
        if not self.active:
            return
        to_fire: "list[FaultRule]" = []
        with self._lock:
            for index, rule in enumerate(self._plan.rules):
                if rule.site != site:
                    continue
                self._hits[index] += 1
                if self._hits[index] <= rule.after:
                    continue
                if rule.times is not None and self._count[index] >= rule.times:
                    continue
                if (
                    rule.probability < 1.0
                    and self._rngs[index].random() >= rule.probability
                ):
                    continue
                self._count[index] += 1
                self.fired.append(
                    FiredFault(site, rule.action, index)
                )
                to_fire.append(rule)
        # Act outside the lock: sleeps and raises must not serialize
        # unrelated hits.
        for rule in to_fire:
            if rule.action == "delay":
                time.sleep(rule.delay_s)
        for rule in to_fire:
            if rule.action == "error":
                message = rule.message or (
                    f"injected {rule.error} fault at {site}"
                )
                raise ERROR_KINDS[rule.error](message)

    def fired_sites(self) -> "list[str]":
        with self._lock:
            return [event.site for event in self.fired]

    def describe(self) -> str:
        """One status line for logs (``carbon3d serve`` startup banner)."""
        plan = self._plan
        if plan is None or not plan.rules:
            return "inactive"
        name = plan.name or "unnamed plan"
        sites = ", ".join(sorted({rule.site for rule in plan.rules}))
        return (
            f"{name}: {len(plan.rules)} rule"
            f"{'s' if len(plan.rules) != 1 else ''} "
            f"(seed {plan.seed}) at {sites}"
        )


def _plan_from_env() -> "FaultPlan | None":
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    return FaultPlan.coerce(text)


#: The process-global injector. Components built without an explicit
#: ``faults=`` bind this one, so ``install_plan`` (or the env var, read
#: here at import) arms every default-wired component at once.
GLOBAL_INJECTOR = FaultInjector(_plan_from_env())


def install_plan(plan) -> FaultInjector:
    """Arm the process-global injector (``carbon3d serve --fault-plan``)."""
    GLOBAL_INJECTOR.set_plan(FaultPlan.coerce(plan))
    return GLOBAL_INJECTOR


@contextmanager
def injected(plan):
    """Temporarily arm the global injector (the test-suite idiom)."""
    previous = GLOBAL_INJECTOR.plan
    GLOBAL_INJECTOR.set_plan(FaultPlan.coerce(plan))
    try:
        yield GLOBAL_INJECTOR
    finally:
        GLOBAL_INJECTOR.set_plan(previous)


def resolve_injector(faults) -> FaultInjector:
    """The injector for a component's ``faults=`` argument.

    ``None`` binds the process-global injector; a plan (or anything
    :meth:`FaultPlan.coerce` accepts) gets a private injector; a ready
    injector passes through — one shared injector keeps rule counters
    coherent across a session's engine, dispatcher and store.
    """
    if faults is None:
        return GLOBAL_INJECTOR
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(FaultPlan.coerce(faults))
