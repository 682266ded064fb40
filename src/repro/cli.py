"""Command-line interface: ``carbon3d`` (or ``python -m repro.cli``).

Sub-commands mirror the paper's artifacts:

* ``evaluate DESIGN.json`` — run 3D-Carbon on a JSON design description;
* ``validate-epyc`` / ``validate-lakefield`` — the Fig. 4 comparisons;
* ``compare DESIGN`` — the Sec. 4-style cross-model table: every carbon
  backend on one design, with optional Monte-Carlo bands (``--draws``);
* ``drive --approach homogeneous|heterogeneous`` — the Fig. 5 grid;
* ``table5`` — the Sec. 5.2 decision table;
* ``search REFERENCE.json`` — the exhaustive lowest-carbon configuration
  search around a 2D reference (one batch study of its two-die and
  heterogeneous splits);
* ``optimize`` — vectorized Pareto search over the integration ×
  die-count × wafer × grid design space (the ``/optimize`` study;
  ``--stream`` prints a running front snapshot per evaluated chunk);
* ``sensitivity DESIGN.json`` — the one-at-a-time tornado study;
* ``export drive|table5 OUT`` — a study's rows as CSV or JSON;
* ``serve`` — run the carbon-as-a-service HTTP server (persistent
  content-addressed result store; ``--tokens`` for the multi-tenant
  token registry; see :mod:`repro.service`);
* ``loadgen --url URL`` — drive concurrent keep-alive load against a
  running server and report p50/p99 and rps;
* ``tokens issue|revoke|list|rotate`` — administer the multi-tenant
  token registry (named, hashed API tokens with per-tenant quotas;
  see :mod:`repro.tenancy`);
* ``usage`` — a tenant's usage counters from a running server
  (``GET /usage``; admin tokens see every tenant);
* ``submit`` — send a design JSON to a running server over HTTP (a
  remote ``evaluate``);
* ``trace`` — run a study locally under a trace and print its span tree
  with per-stage self-times (see :mod:`repro.obs`);
* ``backends`` — list registered carbon backends with their factor-set
  digests (``--json`` for machines);
* ``studies`` — list the StudySpec study kinds every entry point speaks;
* ``nodes`` / ``technologies`` — inspect the parameter databases.

The study subcommands (``evaluate``, ``submit``, ``compare``,
``sensitivity``, ``search``, ``optimize``, ``trace``) build a
:class:`~repro.api.StudySpec` and run it through a
:class:`~repro.api.Session`: locally, or on the server a ``--service``
or ``--url`` names. ``--json`` prints the result's wire payload;
otherwise it prints through its result shape's text renderer
(:data:`repro.core.report.RENDERERS`), the same local or remote. The
global ``--fab-location`` takes a grid name or a g CO2/kWh number.

The JSON design schema matches :class:`repro.core.design.ChipDesign`::

    {
      "name": "my_chip",
      "integration": "hybrid_3d",
      "stacking": "f2f",
      "assembly": "d2w",
      "package": {"class": "fcbga"},
      "throughput_tops": 254,
      "dies": [
        {"name": "top", "node": "7nm", "gate_count": 8.5e9,
         "workload_share": 0.5},
        {"name": "bottom", "node": "7nm", "gate_count": 8.5e9,
         "workload_share": 0.5}
      ]
    }
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis.optimizer import search_designs
from .api import Session, StudySpec
from .config.parameters import DEFAULT_PARAMETERS
from .core.report import RENDERERS
from .errors import CarbonModelError
from .io.designs import design_from_dict
from .io.results import drive_study_rows, table5_rows, write_csv, write_json
from .seeds import DEFAULT_SEED
from .studies.decision import table5_study
from .studies.drive import drive_study
from .studies.validation import (
    epyc_7452_design,
    epyc_validation,
    lakefield_design,
    lakefield_validation,
)


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    """One design's lifecycle report: ``evaluate`` locally, ``submit``
    on the server at ``--url``."""
    spec = StudySpec.evaluate(
        _load_json(args.design), workload=args.workload,
        fab_location=args.fab_location, backend=getattr(args, "backend", None),
    )
    return _run_study(args, spec)


def _cmd_validate_epyc(args: argparse.Namespace) -> int:
    print(epyc_validation(fab_location=args.fab_location).format_table())
    return 0


def _cmd_validate_lakefield(args: argparse.Namespace) -> int:
    print(lakefield_validation(fab_location=args.fab_location).format_table())
    return 0


def _session_for_args(args: argparse.Namespace) -> Session:
    """The Session a study command runs through: local, or the server
    at the command's ``--service``/``--url``."""
    url = getattr(args, "service", None) or getattr(args, "url", None)
    if url is None:
        return Session(fab_location=args.fab_location)
    return Session(
        executor="service", url=url, token=args.token,
        timeout=getattr(args, "timeout", 60.0),
    )


def _run_study(args: argparse.Namespace, spec: StudySpec) -> int:
    """Run ``spec`` through the command's session and print its result:
    the wire payload with ``--json``, else its shape's text renderer
    (plus where a server answered from)."""
    with _session_for_args(args) as session:
        if getattr(args, "stream", False):
            handle = session.submit(spec)
            for snapshot in handle.partial():
                entry = snapshot.payload
                print(
                    f"  chunk {entry['chunk']:>4d}  evaluated "
                    f"{entry['evaluated']:>9,d}  errors "
                    f"{entry['errors']:>6,d}  front {entry['front_size']:>4d}",
                    file=sys.stderr, flush=True,
                )
            result = handle.result()
        else:
            result = session.run(spec)
        payload = result.to_payload()
        if getattr(args, "json", False):
            print(json.dumps(payload, indent=2))
            return 0
        print(RENDERERS[spec.info.result](payload))
        if not session.is_local:
            rows = payload if isinstance(payload, list) else payload.get(
                "backends", ()
            )
            cache = getattr(result, "cache", None) or ", ".join(
                dict.fromkeys(row["cache"] for row in rows)
            )
            print(f"served by     : {session.client.base_url}")
            print(f"served from   : {cache or 'computed'}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Sec. 4-style cross-model table: one batched engine call, local or
    on the ``--service`` server."""
    if args.design == "epyc":
        design = epyc_7452_design()
    elif args.design == "lakefield":
        design = lakefield_design()
    else:
        design = _load_json(args.design)
    spec = StudySpec.compare(
        design,
        backends=_axis_list(args.backends),
        workload=args.workload,
        fab_location=args.fab_location,
        draws=args.draws,
        seed=args.seed,
    )
    return _run_study(args, spec)


def _cmd_drive(args: argparse.Namespace) -> int:
    result = drive_study(approach=args.approach, fab_location=args.fab_location)
    print(result.format_table())
    return 0


def _cmd_table5(args: argparse.Namespace) -> int:
    result = table5_study(fab_location=args.fab_location)
    print("Table 5 — choosing/replacing DRIVE ORIN 2D with 3D/2.5D ICs")
    print(result.format_table())
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    """The lowest-carbon configuration around a 2D reference: its splits
    as one batch of points at ``--fab-location``, local or on the
    ``--service`` server."""
    spec = StudySpec.batch([
        StudySpec.evaluate(
            design, fab_location=args.fab_location, label=label
        )
        for label, design in search_designs(
            design_from_dict(_load_json(args.design))
        )
    ])
    return _run_study(args, spec)


def _optimize_reference(name: str):
    """The optimize reference design: a DRIVE device name or a JSON path.

    The grid needs a single-die 2D reference with a gate count (splits
    re-partition the gates), so the built-ins are the Table 4 DRIVE
    rows rather than the multi-die validation designs.
    """
    from .studies.drive import NVIDIA_DRIVE_SERIES, drive_2d_design

    if name.lower() in (d.name.lower() for d in NVIDIA_DRIVE_SERIES):
        return drive_2d_design(name)
    return _load_json(name)


def _axis_list(text: "str | None", coerce=None) -> "list | None":
    """Comma-separated axis override → list (None passes the default)."""
    if text is None:
        return None
    items = [item.strip() for item in text.split(",") if item.strip()]
    if coerce is not None:
        items = [coerce(item) for item in items]
    return items


def _location_value(text: str) -> "str | float":
    """A fab location axis entry: grid name, or raw g CO2/kWh number."""
    try:
        return float(text)
    except ValueError:
        return text


def _cmd_optimize(args: argparse.Namespace) -> int:
    """Vectorized Pareto search, local or on the ``--service`` server
    (``POST /optimize``); the front is bit-identical either way."""
    spec = StudySpec.optimize(
        _optimize_reference(args.design),
        workload=args.workload,
        integrations=_axis_list(args.integrations),
        die_counts=_axis_list(args.die_counts, int),
        wafer_diameters_mm=_axis_list(args.wafers, float),
        fab_locations=(
            _axis_list(args.locations, _location_value)
            or [args.fab_location]
        ),
        max_configs=args.max_configs,
        chunk=args.chunk,
        seed=args.seed,
    )
    return _run_study(args, spec)


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    spec = StudySpec.tornado(
        _load_json(args.design), fab_location=args.fab_location
    )
    return _run_study(args, spec)


def _cmd_export(args: argparse.Namespace) -> int:
    if args.study == "drive":
        rows = drive_study_rows(
            drive_study(args.approach, fab_location=args.fab_location)
        )
    else:
        rows = table5_rows(table5_study(fab_location=args.fab_location))
    if args.output.endswith(".json"):
        write_json(rows, args.output)
    else:
        write_csv(rows, args.output)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .resilience import FaultPlan, install_plan
    from .service.fleet import ServiceFleet, resolve_worker_count
    from .service.server import make_server, serve_forever

    faults = None
    if args.fault_plan is not None:
        # The CLI plan goes into the process-global injector so every
        # layer (engine, store, dispatcher, server) sees the same rules
        # — exactly what CARBON3D_FAULT_PLAN does for subprocess tests.
        faults = install_plan(FaultPlan.coerce(args.fault_plan))
    store_path = None if args.no_store else args.store
    workers = resolve_worker_count(getattr(args, "workers", 1))
    store_text = store_path if store_path else "(in-memory only)"
    tokens_path = getattr(args, "tokens", None)

    def _banner(url: str) -> None:
        print(f"carbon3d service listening on {url}", flush=True)
        print(f"  store   : {store_text}", flush=True)
        if workers > 1:
            print(f"  workers : {workers} pre-forked processes", flush=True)
        auth_text = f"token registry {tokens_path}" if tokens_path else "open"
        print(f"  auth    : {auth_text}", flush=True)
        print("  routes  : /evaluate /batch /sweep /montecarlo /compare "
              "/tornado /optimize /healthz /healthz/live /healthz/ready "
              "/stats /metrics /usage",
              flush=True)

    if workers > 1:
        # Pre-forked fleet: the parent binds, forks, supervises;
        # SIGTERM/SIGINT fan out to the workers' own graceful drains.
        if args.fault_plan is not None:
            # Workers re-arm from the environment after fork (the
            # parent-installed injector object does not cross exec-less
            # forks coherently for per-rule counters).
            import os as _os

            _os.environ["CARBON3D_FAULT_PLAN"] = args.fault_plan
        fleet = ServiceFleet(
            host=args.host,
            port=args.port,
            workers=workers,
            fab_location=args.fab_location,
            store_path=store_path,
            max_entries=args.max_entries,
            verbose=args.verbose,
            tokens_path=tokens_path,
            max_inflight=args.max_inflight,
            drain_timeout_s=args.drain_timeout,
            log_json=args.log_json,
        )
        fleet.drain_timeout_s = args.drain_timeout + 5.0
        fleet.start()

        def _stop(signum, frame):  # pragma: no cover - via subprocess
            fleet.request_stop()

        signal.signal(signal.SIGTERM, _stop)
        signal.signal(signal.SIGINT, _stop)
        _banner(fleet.url)
        fleet.wait()
        fleet.close()
        print("carbon3d fleet drained; exiting", flush=True)
        return 0

    server = make_server(
        host=args.host,
        port=args.port,
        fab_location=args.fab_location,
        store_path=store_path,
        max_entries=args.max_entries,
        verbose=args.verbose,
        tokens_path=tokens_path,
        max_inflight=args.max_inflight,
        drain_timeout_s=args.drain_timeout,
        faults=faults,
        log_json=args.log_json,
    )

    def _drain(signum, frame):  # pragma: no cover - exercised via subprocess
        # shutdown() blocks until the serve loop exits and must not run
        # on the serving (main) thread — hand it to a helper; the
        # serve_forever() finally then drains in-flight work via close().
        threading.Thread(
            target=server.shutdown, name="carbon3d-drain", daemon=True
        ).start()

    signal.signal(signal.SIGTERM, _drain)
    _banner(server.url)
    if server.faults.active:
        print(f"  faults  : {server.faults.describe()}", flush=True)
    serve_forever(server)
    print("carbon3d service drained; exiting", flush=True)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service.loadgen import run_load

    result = run_load(
        args.url,
        requests_n=args.requests,
        concurrency=args.concurrency,
        distinct=args.distinct,
        keep_alive=not args.no_keep_alive,
        token=args.token,
    )
    result.pop("digests", None)  # per-design hashes, noise on stdout
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(
            f"loadgen      {result['completed']}/{result['requests']} "
            f"requests × {result['concurrency']} clients: "
            f"{result['rps']:.0f} rps "
            f"(p50 {result['p50_ms']:.1f}ms p99 {result['p99_ms']:.1f}ms, "
            f"keep_alive={result['keep_alive']})"
        )
    return 1 if result["errors"] else 0


def _format_stamp(stamp: "float | None") -> str:
    import time as _time

    if stamp is None:
        return "-"
    return _time.strftime("%Y-%m-%d %H:%M", _time.localtime(stamp))


def _cmd_tokens(args: argparse.Namespace) -> int:
    """Administer the token registry file (no server required).

    The registry is the same SQLite file every fleet worker reads, so a
    token issued here is honored by a running fleet on its next request
    — and a revocation takes effect just as immediately.
    """
    from .tenancy import TenantQuota, TokenRegistry

    registry = TokenRegistry(args.tokens)
    try:
        if args.tokens_command == "issue":
            quota = None
            limits = (args.rate, args.burst, args.max_requests,
                      args.max_points)
            if any(value is not None for value in limits):
                quota = TenantQuota(
                    rate_per_s=args.rate,
                    burst=args.burst,
                    max_requests=args.max_requests,
                    max_points=args.max_points,
                )
            scopes = tuple(_axis_list(args.scopes) or ())
            tenant = args.tenant if args.tenant else args.name
            secret, record = registry.issue(
                args.name, tenant, scopes=scopes, quota=quota
            )
            if args.json:
                print(json.dumps(
                    {"secret": secret, **record.to_dict()}, indent=2
                ))
                return 0
            print(f"token   : {secret}")
            print(f"id      : {record.id}")
            print(f"name    : {record.name}")
            print(f"tenant  : {record.tenant}")
            if record.scopes:
                print(f"scopes  : {','.join(record.scopes)}")
            if record.quota is not None:
                print(f"quota   : {json.dumps(record.quota.to_dict())}")
            print("store the token now — the secret is never shown again")
            return 0
        if args.tokens_command == "revoke":
            record = registry.revoke(args.ident)
            print(f"revoked {record.name} (id {record.id}, "
                  f"tenant {record.tenant})")
            return 0
        if args.tokens_command == "rotate":
            secret, record = registry.rotate(args.ident)
            if args.json:
                print(json.dumps(
                    {"secret": secret, **record.to_dict()}, indent=2
                ))
                return 0
            print(f"token   : {secret}")
            print(f"rotated : {record.name} (id {record.id}, "
                  f"tenant {record.tenant}) — the old secret is dead")
            return 0
        records = registry.list(include_revoked=args.all)
        if args.json:
            print(json.dumps(
                [record.to_dict() for record in records], indent=2
            ))
            return 0
        header = (f"{'id':<10} {'name':<24} {'tenant':<16} {'state':<8} "
                  f"{'created':<17} scopes")
        print(header)
        print("-" * len(header))
        for record in records:
            state = "active" if record.active else "revoked"
            print(
                f"{record.id:<10} {record.name:<24.24} "
                f"{record.tenant:<16.16} {state:<8} "
                f"{_format_stamp(record.created):<17} "
                f"{','.join(record.scopes)}"
            )
        print(f"{len(records)} tokens in {args.tokens}")
        return 0
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 1
    finally:
        registry.close()


def _cmd_usage(args: argparse.Namespace) -> int:
    """A tenant's usage counters from a running server (GET /usage)."""
    from .service.client import ServiceClient

    with ServiceClient(
        args.url, timeout=args.timeout, token=args.token
    ) as client:
        result = client.usage()
    if args.json:
        print(json.dumps(result, indent=2))
        return 0

    def _counters(usage: dict) -> str:
        return "  ".join(f"{name}={value}" for name, value in usage.items())

    print(f"tenant {result['tenant']}")
    print(f"  {_counters(result['usage'])}")
    tenants = result.get("tenants")
    if tenants:
        print("all tenants:")
        for tenant, usage in tenants.items():
            print(f"  {tenant:<16} {_counters(usage)}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a study locally under a trace; print its span tree.

    The study file is either a full wire payload (with ``"type"``) or a
    bare design JSON, which is wrapped as an evaluate study. Every
    pipeline stage, memo lookup, store access, and dispatcher call the
    study touched shows up as a span with total and self time.
    """
    from .obs import trace as obs_trace

    payload = _load_json(args.study)
    if "type" in payload:
        study = StudySpec.from_payload(payload)
    else:
        study = StudySpec.evaluate(payload, workload=args.workload)
    with _session_for_args(args) as session:
        with obs_trace.trace(f"carbon3d trace {study.kind}") as root:
            session.run(study)
        spans = obs_trace.collector.spans(root.trace_id)
    print(f"trace {root.trace_id} — {study.kind} study, "
          f"{len(spans)} spans")
    print(obs_trace.render_tree(spans))
    breakdown = obs_trace.stage_breakdown(spans)
    if breakdown:
        print(f"{'span':<28} {'count':>5} {'total ms':>9} {'self ms':>9}")
        for name, entry in sorted(
            breakdown.items(), key=lambda item: -item[1]["self_s"]
        ):
            print(
                f"{name:<28.28} {entry['count']:>5d} "
                f"{entry['total_s'] * 1e3:>9.3f} "
                f"{entry['self_s'] * 1e3:>9.3f}"
            )
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    """List registered carbon backends (with factor-set digests).

    Factor sets are design-dependent (per-node intensity tables, package
    class); the digests here are pinned to the documented reference
    design — a 7 nm planar 2D SoC — so two invocations (or two machines)
    can compare them.
    """
    from .core.design import ChipDesign
    from .pipeline.registry import backend_names, get_backend

    reference = ChipDesign.planar_2d(
        "reference", node="7nm", gate_count=17e9, throughput_tops=254.0
    )
    rows = []
    for name in backend_names():
        backend = get_backend(name)
        factor_set = backend.factor_set(reference, DEFAULT_PARAMETERS)
        rows.append({
            "name": name,
            "label": backend.label,
            "operational": backend.models_operational,
            "stages": list(backend.stages),
            "factors": len(factor_set),
            "factor_set": factor_set.name,
            "factor_set_digest": factor_set.digest(),
        })
    if args.json:
        print(json.dumps({
            "reference_design": reference.name,
            "backends": rows,
        }, indent=2))
        return 0
    header = (f"{'name':<12} {'label':<14} {'oper':>5} {'factors':>8} "
              f"{'stages':<28} digest")
    print(header)
    print("-" * len(header))
    for row in rows:
        stages = ",".join(row["stages"])
        print(
            f"{row['name']:<12} {row['label']:<14.14} "
            f"{'yes' if row['operational'] else 'no':>5} "
            f"{row['factors']:>8d} {stages:<28.28} "
            f"{row['factor_set_digest'][:12]}"
        )
    return 0


def _cmd_studies(args: argparse.Namespace) -> int:
    """List the StudySpec vocabulary every entry point speaks."""
    from .service.schema import SCHEMA_VERSION, STUDY_KINDS

    if args.json:
        print(json.dumps({
            "schema": SCHEMA_VERSION,
            "studies": [
                {
                    "kind": kind.name,
                    "type": kind.wire,
                    "route": kind.route,
                    "result": kind.result,
                    "summary": kind.summary,
                }
                for kind in STUDY_KINDS.values()
            ],
        }, indent=2))
        return 0
    header = f"{'kind':<12} {'wire type':<12} {'route':<13} {'result':<8} summary"
    print(header)
    print("-" * len(header))
    for kind in STUDY_KINDS.values():
        print(
            f"{kind.name:<12} {kind.wire:<12} {kind.route:<13} "
            f"{kind.result:<8} {kind.summary}"
        )
    return 0


def _cmd_nodes(_: argparse.Namespace) -> int:
    print(f"{'node':<12} {'λ (nm)':>7} {'EPA':>6} {'GPA':>6} {'MPA':>6} "
          f"{'D0':>6} {'maxBEOL':>8}")
    for node in DEFAULT_PARAMETERS.technology:
        print(
            f"{node.name:<12} {node.feature_nm:7.1f} "
            f"{node.epa_kwh_per_cm2:6.2f} {node.gpa_kg_per_cm2:6.2f} "
            f"{node.mpa_kg_per_cm2:6.2f} {node.defect_density_per_cm2:6.3f} "
            f"{node.max_beol_layers:8d}"
        )
    return 0


def _cmd_technologies(_: argparse.Namespace) -> int:
    print(f"{'technology':<15} {'family':>6} {'bond':>7} {'Gbps':>6} "
          f"{'fJ/bit':>7} {'IO/mm/ly':>9}")
    for spec in DEFAULT_PARAMETERS.integration:
        print(
            f"{spec.name:<15} {spec.family.value:>6} {spec.bonding.value:>7} "
            f"{spec.data_rate_gbps:6.1f} {spec.energy_per_bit_fj:7.0f} "
            f"{spec.io_density_per_mm_per_layer:9.1f}"
        )
    return 0


#: The flags study subcommands share, declared once: flag → its options.
_STUDY_FLAGS = {
    "--json": dict(action="store_true", help="emit machine-readable JSON"),
    "--service": dict(
        default=None, metavar="URL",
        help="run the study on a running carbon3d service instead of "
             "computing locally",
    ),
    "--token": dict(default=None, help="API token (`carbon3d tokens issue`)"),
}


def _add_study_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Give a study subcommand the shared ``flags`` (default: all)."""
    for flag in flags or _STUDY_FLAGS:
        parser.add_argument(flag, **_STUDY_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carbon3d",
        description="3D-Carbon: carbon modeling for 3D/2.5D ICs (DAC'24)",
    )
    parser.add_argument(
        "--fab-location",
        default="taiwan",
        type=_location_value,
        help="manufacturing grid (name or g CO2/kWh; default: taiwan)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate a JSON design")
    p_eval.add_argument("design", help="path to the design JSON file")
    p_eval.add_argument(
        "--workload",
        choices=("av", "none"),
        default="av",
        help="operational workload (default: the AV case-study workload)",
    )
    _add_study_flags(p_eval, "--json")
    p_eval.set_defaults(func=_cmd_evaluate)

    sub.add_parser(
        "validate-epyc", help="Fig. 4(a) EPYC 7452 validation"
    ).set_defaults(func=_cmd_validate_epyc)
    sub.add_parser(
        "validate-lakefield", help="Fig. 4(b) Lakefield validation"
    ).set_defaults(func=_cmd_validate_lakefield)

    p_compare = sub.add_parser(
        "compare",
        help="Sec. 4-style cross-model table: every carbon backend on "
             "one design, in one batched engine call",
    )
    p_compare.add_argument(
        "design",
        help="design JSON path, or the built-in 'epyc' / 'lakefield'",
    )
    p_compare.add_argument(
        "--backends", default=None,
        help="comma-separated backend names (default: all registered)",
    )
    p_compare.add_argument(
        "--workload", choices=("av", "none"), default="none",
        help="operational workload for backends that model the use phase",
    )
    p_compare.add_argument(
        "--draws", type=int, default=0,
        help="Monte-Carlo draws per backend (0 = no uncertainty bands); "
             "each backend draws from its own factor set",
    )
    p_compare.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_study_flags(p_compare)
    p_compare.set_defaults(func=_cmd_compare)

    p_drive = sub.add_parser("drive", help="Fig. 5 NVIDIA DRIVE study")
    p_drive.add_argument(
        "--approach",
        choices=("homogeneous", "heterogeneous"),
        default="homogeneous",
    )
    p_drive.set_defaults(func=_cmd_drive)

    sub.add_parser("table5", help="Sec. 5.2 decision table").set_defaults(
        func=_cmd_table5
    )

    p_search = sub.add_parser(
        "search", help="find the lowest-carbon valid configuration"
    )
    p_search.add_argument("design", help="path to a 2D reference JSON design")
    _add_study_flags(p_search)
    p_search.set_defaults(func=_cmd_search)

    p_opt = sub.add_parser(
        "optimize",
        help="vectorized Pareto search over integration × die-count × "
             "wafer × grid axes (local, or --service /optimize)",
    )
    p_opt.add_argument(
        "design",
        help="2D reference: a design JSON path, or a built-in DRIVE "
             "device name (px2, xavier, orin, thor)",
    )
    p_opt.add_argument(
        "--workload", choices=("av", "none"), default="av",
        help="operational workload priced into total_kg (default: av)",
    )
    p_opt.add_argument(
        "--integrations", default=None, metavar="LIST",
        help="comma-separated integration axis (default: the case-study "
             "seven; see `carbon3d technologies`)",
    )
    p_opt.add_argument(
        "--die-counts", default=None, metavar="LIST",
        help="comma-separated die-count axis for split variants "
             "(default: 2,3,4)",
    )
    p_opt.add_argument(
        "--wafers", default=None, metavar="LIST",
        help="comma-separated wafer diameters in mm (default: 200,300,450)",
    )
    p_opt.add_argument(
        "--locations", default=None, metavar="LIST",
        help="comma-separated fab grids (names or g CO2/kWh numbers; "
             "default: --fab-location)",
    )
    p_opt.add_argument(
        "--max-configs", type=int, default=None,
        help="evaluate only the first N sampled configurations",
    )
    p_opt.add_argument(
        "--chunk", type=int, default=None,
        help="evaluation chunk size (default: 25000)",
    )
    p_opt.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_opt.add_argument(
        "--stream", action="store_true",
        help="print a running front snapshot per chunk (stderr) while "
             "the search runs",
    )
    _add_study_flags(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sens = sub.add_parser(
        "sensitivity", help="one-at-a-time tornado study for a design"
    )
    p_sens.add_argument("design", help="path to the design JSON file")
    p_sens.set_defaults(func=_cmd_sensitivity)

    p_export = sub.add_parser(
        "export", help="export a study's rows to CSV/JSON"
    )
    p_export.add_argument("study", choices=("drive", "table5"))
    p_export.add_argument("output", help="output path (.csv or .json)")
    p_export.add_argument(
        "--approach",
        choices=("homogeneous", "heterogeneous"),
        default="homogeneous",
    )
    p_export.set_defaults(func=_cmd_export)
    # No abbreviations: a prefix match would read the removed
    # ``--token SECRET`` as ``--tokens SECRET``, a registry path.
    p_serve = sub.add_parser(
        "serve", help="run the carbon evaluation HTTP service",
        allow_abbrev=False,
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8787)
    p_serve.add_argument(
        "--store", default="carbon3d_store.sqlite3",
        help="persistent result-store path (default: carbon3d_store.sqlite3)",
    )
    p_serve.add_argument(
        "--no-store", action="store_true",
        help="serve without cross-restart persistence",
    )
    p_serve.add_argument(
        "--max-entries", type=int, default=100_000,
        help="store LRU eviction bound (entries)",
    )
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every request to stderr")
    p_serve.add_argument(
        "--tokens", default=None, metavar="PATH",
        help="multi-tenant token registry (SQLite; administer with "
             "carbon3d tokens); once it holds any token, every request "
             "must present a valid X-Carbon3D-Token and runs in its "
             "tenant's namespace under its tenant's quota",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=32,
        help="admission bound: concurrent requests beyond this are shed "
             "with 503 + Retry-After (default: 32)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight requests on SIGTERM/close "
             "before giving up (default: 30)",
    )
    p_serve.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON log line per request to stderr (trace id, "
             "route, status, duration, cache/shed flags)",
    )
    p_serve.add_argument(
        "--fault-plan", default=None, metavar="PLAN",
        help="deterministic fault-injection plan: inline JSON or a path "
             "to a JSON file (see repro.resilience.FaultPlan); armed "
             "process-wide, like the CARBON3D_FAULT_PLAN env var",
    )
    p_serve.add_argument(
        "--workers", default="1", metavar="N|auto",
        help="pre-forked worker processes sharing one listening socket "
             "(auto = usable CPUs); 1 serves single-process (default)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="drive concurrent keep-alive load against a running "
             "server; report p50/p99 and rps",
    )
    p_loadgen.add_argument(
        "--url", required=True, help="the running service to load",
    )
    p_loadgen.add_argument("--requests", type=int, default=64,
                           help="request budget (default: 64)")
    p_loadgen.add_argument("--concurrency", type=int, default=8,
                           help="concurrent clients (default: 8)")
    p_loadgen.add_argument("--distinct", type=int, default=8,
                           help="distinct designs round-robined (default: 8)")
    p_loadgen.add_argument(
        "--no-keep-alive", action="store_true",
        help="reconnect per request (measures what keep-alive is worth)",
    )
    p_loadgen.add_argument(
        "--token", default=None,
        help="API token (`carbon3d tokens issue`)",
    )
    p_loadgen.add_argument("--json", action="store_true",
                           help="emit the full JSON result")
    p_loadgen.set_defaults(func=_cmd_loadgen)

    p_tokens = sub.add_parser(
        "tokens",
        help="administer the multi-tenant token registry "
             "(issue/revoke/list/rotate named API tokens)",
    )
    p_tokens.add_argument(
        "--tokens", default="carbon3d_tokens.sqlite3", metavar="PATH",
        help="registry path (default: carbon3d_tokens.sqlite3; point "
             "this at the file carbon3d serve --tokens uses)",
    )
    tokens_sub = p_tokens.add_subparsers(
        dest="tokens_command", required=True
    )
    t_issue = tokens_sub.add_parser(
        "issue", help="mint a named token (the secret prints once)"
    )
    t_issue.add_argument("name", help="unique-for-active-tokens name")
    t_issue.add_argument(
        "--tenant", default=None,
        help="owning tenant id (default: the token name)",
    )
    t_issue.add_argument(
        "--scopes", default=None, metavar="LIST",
        help="comma-separated scopes ('admin' sees every tenant's usage)",
    )
    t_issue.add_argument(
        "--rate", type=float, default=None, metavar="PTS_PER_S",
        help="token-bucket refill rate in points/second (unset: no rate "
             "limit)",
    )
    t_issue.add_argument(
        "--burst", type=float, default=None, metavar="PTS",
        help="token-bucket capacity in points (default: the --rate)",
    )
    t_issue.add_argument(
        "--max-requests", type=int, default=None,
        help="absolute lifetime request ceiling (429 past it)",
    )
    t_issue.add_argument(
        "--max-points", type=int, default=None,
        help="absolute lifetime evaluated-point ceiling (429 past it)",
    )
    t_issue.add_argument("--json", action="store_true",
                         help="emit the secret and record as JSON")
    t_revoke = tokens_sub.add_parser(
        "revoke", help="revoke an active token by id or name"
    )
    t_revoke.add_argument("ident", help="token id or name")
    t_rotate = tokens_sub.add_parser(
        "rotate", help="re-key a token in place (new secret prints once)"
    )
    t_rotate.add_argument("ident", help="token id or name")
    t_rotate.add_argument("--json", action="store_true",
                          help="emit the new secret and record as JSON")
    t_list = tokens_sub.add_parser("list", help="list registry tokens")
    t_list.add_argument(
        "--all", action="store_true",
        help="include revoked tokens (default: active only)",
    )
    t_list.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    p_tokens.set_defaults(func=_cmd_tokens)

    p_usage = sub.add_parser(
        "usage",
        help="a tenant's usage counters from a running service "
             "(GET /usage; admin tokens see every tenant)",
    )
    p_usage.add_argument("--url", default="http://127.0.0.1:8787")
    p_usage.add_argument(
        "--token", default=None,
        help="API token selecting the tenant to report on",
    )
    p_usage.add_argument("--timeout", type=float, default=10.0)
    p_usage.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
    p_usage.set_defaults(func=_cmd_usage)

    p_submit = sub.add_parser(
        "submit", help="submit a design JSON to a running service"
    )
    p_submit.add_argument("design", help="path to the design JSON file")
    p_submit.add_argument("--url", default="http://127.0.0.1:8787")
    p_submit.add_argument(
        "--workload", choices=("av", "none"), default="av"
    )
    p_submit.add_argument("--timeout", type=float, default=60.0)
    p_submit.add_argument(
        "--backend", default=None,
        help="carbon backend to evaluate under (default: repro3d)",
    )
    _add_study_flags(p_submit, "--token", "--json")
    p_submit.set_defaults(func=_cmd_evaluate)

    p_trace = sub.add_parser(
        "trace",
        help="run a study locally under a trace and print the span "
             "tree with per-stage self-times",
    )
    p_trace.add_argument(
        "study",
        help="study JSON: a wire payload (with \"type\") or a bare design",
    )
    p_trace.add_argument(
        "--workload", choices=("av", "none"), default="av",
        help="workload when the file is a bare design (default: av)",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_backends = sub.add_parser(
        "backends",
        help="list registered carbon backends with factor-set digests",
    )
    p_backends.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_backends.set_defaults(func=_cmd_backends)

    p_studies = sub.add_parser(
        "studies",
        help="list the StudySpec study kinds (the facade/service/CLI "
             "vocabulary)",
    )
    p_studies.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    p_studies.set_defaults(func=_cmd_studies)
    sub.add_parser("nodes", help="list process nodes").set_defaults(
        func=_cmd_nodes
    )
    sub.add_parser(
        "technologies", help="list integration technologies"
    ).set_defaults(func=_cmd_technologies)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CarbonModelError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
