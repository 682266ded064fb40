"""The compiled perturbation plan: vectorized draws + fast row application.

One :class:`PerturbationPlan` turns a declarative
:class:`~repro.uncertainty.factors.FactorSet` into the two operations
every Monte-Carlo consumer needs:

* :meth:`~PerturbationPlan.draw` — **all** multipliers of a study as one
  ``(samples, n_factors)`` array. All-triangular, uncorrelated sets (the
  default Table 2 set) take the exact legacy numpy call — NumPy's
  ``Generator.triangular`` consumes one uniform per variate and fills
  broadcast output in C order, so the array is bit-identical to the
  historical per-factor scalar draw sequence. Sets with uniform or
  lognormal factors, or with correlation groups, take the general
  inverse-CDF path: one uniform per *group* per sample, mapped through
  each factor's quantile function — factors sharing a group move
  together, independent factors do not.
* :meth:`~PerturbationPlan.perturbed` — one row of multipliers applied
  to the base :class:`~repro.config.parameters.ParameterSet`. When no two
  params-scoped factors touch the same field, the plan compiles one
  grouped override per perturbed record (validated once on the
  multiplier extremes) instead of one copy-on-write chain per factor;
  rows outside the validated range, or factor sets the compiler cannot
  prove safe, fall back to the exact sequential ``apply`` chain. Model-scoped factors never touch the
  parameter set — :meth:`~PerturbationPlan.model_multipliers` exposes
  their row values for
  :meth:`repro.pipeline.CarbonBackend.with_model_multipliers`.

Scalar and batched draws come from this one code path.
"""

from __future__ import annotations

import math

import numpy as np

from ..config.parameters import ParameterSet
from ..errors import ParameterError
from .factors import FactorSet

#: Φ⁻¹(0.95): the z-score the lognormal P05/P95 bounds are pinned to.
_Z95 = 1.6448536269514722

#: ParameterSet attribute the records of each target kind live under.
_KIND_ATTR = {
    "node": "technology",
    "bonding": "bonding",
    "packaging": "packaging",
    "integration": "integration",
    "bandwidth": "bandwidth",
}


def _norm_ppf(u: np.ndarray) -> np.ndarray:
    """Φ⁻¹ via Acklam's rational approximation (|ε| < 1.15e-9).

    scipy is not a dependency of this package; the approximation error
    is orders of magnitude below the factor-range precision it feeds.
    """
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    p_low, p_high = 0.02425, 1.0 - 0.02425

    low = u < p_low
    high = u > p_high
    mid = ~(low | high)

    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        out[mid] = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
             + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r
               + 1.0)
        )
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(u[low]))
        out[low] = (
            (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
             + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
        )
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - u[high]))
        out[high] = -(
            (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
             + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
        )
    return out


def _quantile_column(factor, u: np.ndarray) -> np.ndarray:
    """One factor's multipliers from its group's uniform quantiles."""
    distribution = factor.distribution
    low, high = factor.low, factor.high
    if distribution == "uniform":
        return low + u * (high - low)
    if distribution == "lognormal":
        # low/high are the P05/P95 multiplier quantiles; median sqrt(lh).
        log_low, log_high = math.log(low), math.log(high)
        mu = 0.5 * (log_low + log_high)
        sigma = (log_high - log_low) / (2.0 * _Z95)
        return np.exp(mu + sigma * _norm_ppf(u))
    # Triangular with mode 1: the standard inverse CDF. A pinned factor
    # (low == high == 1.0 passes the straddle validation) degenerates to
    # a constant column rather than a 0/0 in the cut point.
    span = high - low
    if span == 0.0:
        return np.full_like(u, low)
    cut = (1.0 - low) / span
    left = low + np.sqrt(u * span * (1.0 - low))
    right = high - np.sqrt((1.0 - u) * span * (high - 1.0))
    return np.where(u < cut, left, right)


def draw_multipliers(factors, samples: int, seed: int) -> np.ndarray:
    """All factor multipliers of a study as a ``(samples, n)`` array.

    The all-triangular, uncorrelated fast path is bit-identical to the
    legacy scalar draw sequence (one ``Generator.triangular`` broadcast
    call); any other set routes every factor through the shared
    inverse-CDF path with one uniform per correlation group per sample.
    """
    factors = list(factors)
    plain = all(
        f.distribution == "triangular" and f.group is None for f in factors
    )
    rng = np.random.default_rng(seed)
    if plain:
        lows = np.array([factor.low for factor in factors], dtype=float)
        highs = np.array([factor.high for factor in factors], dtype=float)
        shape = (samples, len(lows))
        return rng.triangular(
            np.broadcast_to(lows, shape), 1.0, np.broadcast_to(highs, shape)
        )
    # One underlying uniform per correlation group (fresh column when
    # None), assigned in factor order so the draw stream is deterministic.
    group_index: "dict[str, int]" = {}
    columns: "list[int]" = []
    next_column = 0
    for factor in factors:
        group = factor.group
        if group is None:
            columns.append(next_column)
            next_column += 1
        else:
            if group not in group_index:
                group_index[group] = next_column
                next_column += 1
            columns.append(group_index[group])
    uniforms = rng.random((samples, next_column))
    out = np.empty((samples, len(factors)), dtype=float)
    for index, factor in enumerate(factors):
        out[:, index] = _quantile_column(factor, uniforms[:, columns[index]])
    return out


class PerturbationPlan:
    """Compiles a factor set into fast draw → ParameterSet application."""

    def __init__(self, factors, base: ParameterSet) -> None:
        self.factor_set = FactorSet.coerce(factors)
        self.factors = list(self.factor_set)
        self.base = base
        #: (row column, constant name) per model-scoped factor.
        self._model_columns = tuple(
            (index, factor.target.field)
            for index, factor in enumerate(self.factors)
            if factor.target.is_model
        )
        # Model overrides are a {field: multiplier} dict — a duplicate
        # field would silently drop all but the last draw (the params
        # path detects duplicates in _compile and falls back to ordered
        # sequential application; there is no such fallback here).
        fields = [field for _, field in self._model_columns]
        if len(set(fields)) != len(fields):
            duplicates = sorted(
                {field for field in fields if fields.count(field) > 1}
            )
            raise ParameterError(
                f"factor set {self.factor_set.name!r} declares multiple "
                f"model-scoped factors for the same constant(s): "
                f"{', '.join(duplicates)}"
            )
        self._plan = self._compile()

    # -- identity -------------------------------------------------------------

    @property
    def has_model_factors(self) -> bool:
        return bool(self._model_columns)

    # -- draws ----------------------------------------------------------------

    def draw(self, samples: int, seed: int) -> np.ndarray:
        """All multipliers of a study — see :func:`draw_multipliers`."""
        return draw_multipliers(self.factors, samples, seed)

    def model_multipliers(self, row) -> "dict[str, float] | None":
        """Model-constant multipliers of one row (None when there are none)."""
        if not self._model_columns:
            return None
        return {
            field: float(row[index]) for index, field in self._model_columns
        }

    def backend_for(self, row, backend=None):
        """The carbon backend pricing one row of draws.

        ``backend`` itself (name, instance, or None for the default)
        when the set has no model-scoped factors; otherwise a derived
        instance carrying this row's model-constant multipliers — the
        one pattern every Monte-Carlo consumer shares.
        """
        overrides = self.model_multipliers(row)
        if not overrides:
            return backend
        from ..pipeline.registry import resolve_backend

        return resolve_backend(backend).with_model_multipliers(overrides)

    # -- row application ------------------------------------------------------

    def _params_factors(self):
        """(row column, factor) for every params-scoped factor, in order."""
        model = {index for index, _ in self._model_columns}
        return [
            (index, factor) for index, factor in enumerate(self.factors)
            if index not in model
        ]

    def _compile(self):
        """One precompiled group per perturbed record; None → fall back.

        Per group: the record's class, its base ``__dict__``, and the
        (field, base value, clamp, row column, multiplier bounds) entries.
        Record validation runs here, once, on both multiplier extremes:
        every check is a per-field interval test and each scaled value is
        monotone in its multiplier, so if both extremes construct, every
        in-range draw does too — which lets :meth:`perturbed` assemble
        records without re-running ``__post_init__`` 10⁴ times. Rows with
        out-of-range multipliers (lognormal tails land here by design —
        their bounds are quantiles, not support) or factor sets the
        extremes reject take the exact sequential ``apply`` chain instead.
        """
        seen = set()
        groups: dict[tuple, list] = {}
        for index, factor in self._params_factors():
            target = factor.target
            field_id = (target.kind, target.key, target.field)
            if field_id in seen:  # same field twice → order matters, bail out
                return None
            seen.add(field_id)
            groups.setdefault((target.kind, target.key), []).append(
                (target, index)
            )
        plan = []
        bounds = []
        for (kind, key), members in groups.items():
            record = members[0][0].record(self.base)
            base_fields = {
                name: getattr(record, name)
                for name in record.__dataclass_fields__
            }
            low_fields = dict(base_fields)
            high_fields = dict(base_fields)
            scaled = []
            for target, index in members:
                factor = self.factors[index]
                base_value = base_fields[target.field]
                low_fields[target.field] = target.scale(base_value, factor.low)
                high_fields[target.field] = target.scale(base_value, factor.high)
                scaled.append(
                    (target.field, base_value, target.clamp_to_one, index)
                )
                bounds.append((index, factor.low, factor.high))
            record_cls = type(record)
            try:
                record_cls(**low_fields)
                record_cls(**high_fields)
            except Exception:
                # An extreme fails the record's own validation: the grouped
                # path cannot prove every draw constructs, so fall back.
                return None
            plan.append(
                (_KIND_ATTR[kind], record_cls, base_fields, tuple(scaled))
            )
        ps_fields = {
            name: getattr(self.base, name)
            for name in self.base.__dataclass_fields__
        }
        return (plan, tuple(bounds), ps_fields)

    def _sequential(self, multipliers) -> ParameterSet:
        perturbed = self.base
        for index, factor in self._params_factors():
            perturbed = factor.apply(perturbed, float(multipliers[index]))
        return perturbed

    def sequential(self, multipliers) -> ParameterSet:
        """One row applied through the exact per-factor ``apply`` chain.

        The reference semantics the grouped fast path is validated
        against — scalar consumers (equivalence tests, the legacy
        Monte-Carlo reference) use this instead of :meth:`perturbed` to
        pin the historical behaviour.
        """
        return self._sequential(multipliers)

    def perturbed(self, multipliers) -> ParameterSet:
        """The base set with one row of multipliers applied."""
        if self._plan is None:
            return self._sequential(multipliers)
        plan, bounds, ps_fields = self._plan
        if not plan:
            # Model-only factor sets touch no ParameterSet field — keep
            # the identity-interned base so downstream fingerprint caches
            # hit on identity, not just value equality.
            return self.base
        for index, low, high in bounds:
            if not low <= multipliers[index] <= high:
                # Outside the range validated at compile time — use the
                # sequential chain, which re-validates every construction.
                return self._sequential(multipliers)

        overrides = dict(ps_fields)
        for attr, record_cls, base_fields, scaled_fields in plan:
            fields = dict(base_fields)
            for name, base_value, clamp, index in scaled_fields:
                value = base_value * float(multipliers[index])
                fields[name] = min(value, 1.0) if clamp else value
            record = object.__new__(record_cls)
            record.__dict__.update(fields)
            if attr == "bandwidth":
                overrides[attr] = record
            else:
                overrides[attr] = overrides[attr].with_record(record)
        perturbed = object.__new__(ParameterSet)
        perturbed.__dict__.update(overrides)
        return perturbed
