"""Reach probe: which functions under ``src/repro`` does an entry point run?

Run from anywhere, with no arguments::

    python tools/reach.py

The probe runs a fixed list of entry points (below) and records every
Python function they execute, then walks ``src/repro`` with ``ast`` and
prints each module-level function and class method that none of them
ran, with its line count. Nested closures and lambdas are not counted.
It exits 1 when a module under ``src/repro`` that defines functions has
none reached (a package nothing runs), or when an entry point fails;
else 0. A package ``__init__`` whose one function is its lazy-export
``__getattr__`` (PEP 562) is exempt: that hook runs only when a caller
spells a lazy name off the package, which no entry point has to do.

Entry points:

* every CLI subcommand, locally and, where it takes ``--service`` or
  ``--url``, against a running ``carbon3d serve`` (an open server with
  a store, one with a token registry and ``--fault-plan``, and a
  two-worker fleet);
* every ``examples/*.py`` script;
* ``pytest benchmarks`` (the paper figures and tables);
* both perfbench workloads, untraced and traced, two seconds each.

How calls are recorded: the probe writes a ``sitecustomize.py`` into a
temporary directory and puts that directory first on ``PYTHONPATH``,
so every Python process an entry point starts (perfbench's server
child, a background ``carbon3d serve``, a subprocess a benchmark
spawns) installs ``sys.setprofile`` and ``threading.setprofile`` at
start-up and writes the code objects it ran when it exits. Only the
standard library is used.

Not recorded: a process that leaves without running ``atexit``
handlers. Forked fleet workers leave through ``os._exit``, so code only
a ``serve --workers N`` worker runs reads as unreached; the fleet
parent (bind, fork, supervise, drain) is recorded.
"""

from __future__ import annotations

import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Installed into every traced process. ``REACH_OUT`` names the
#: directory each process writes its ``<pid>.txt`` into at exit.
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_out = os.environ.get("REACH_OUT")
if _out:
    _seen = set()
    _add = _seen.add

    def _profile(frame, event, arg):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        names = set()
        for code in list(_seen):
            if "repro" in code.co_filename:
                names.add(
                    f"{os.path.realpath(code.co_filename)}:"
                    f"{code.co_firstlineno}\\n"
                )
        path = os.path.join(_out, f"{os.getpid()}.txt")
        with open(path, "a") as handle:
            handle.writelines(sorted(names))

    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''

#: A benign plan for ``serve --fault-plan``: a 1 ms delay before the
#: first two POSTs, so the injector is armed and fires.
FAULT_PLAN = {
    "name": "reach",
    "rules": [{"site": "server.request", "action": "delay",
               "delay_s": 0.001, "times": 2}],
}

DESIGN = "examples/my_design.json"
REFERENCE = "examples/my_reference.json"
#: A small optimize grid (seconds, not minutes).
AXES = ["--integrations", "hybrid_3d,mcm", "--die-counts", "2",
        "--wafers", "300,450", "--locations", "taiwan,iceland",
        "--max-configs", "24", "--chunk", "10"]

#: Study commands that run locally and against ``--service URL``.
STUDIES = [
    ["compare", DESIGN, "--draws", "8", "--json"],
    ["compare", "epyc"],
    ["optimize", "orin", *AXES, "--json"],
    ["optimize", "orin", *AXES],
    ["optimize", "orin", *AXES, "--stream", "--json"],
    ["search", REFERENCE, "--json"],
    ["search", REFERENCE],
]

#: Commands that need no server.
LOCAL = [
    ["evaluate", DESIGN],
    ["evaluate", DESIGN, "--json", "--workload", "none"],
    ["validate-epyc"],
    ["validate-lakefield"],
    ["drive"],
    ["drive", "--approach", "heterogeneous"],
    ["table5"],
    ["sensitivity", DESIGN],
    ["export", "drive", "{work}/drive.csv"],
    ["export", "table5", "{work}/table5.json"],
    ["trace", DESIGN],
    ["trace", "{work}/batch.json"],
    ["backends"],
    ["backends", "--json"],
    ["studies"],
    ["studies", "--json"],
    ["nodes"],
    ["technologies"],
    ["--fab-location", "iceland", "evaluate", DESIGN],
]

PERFBENCH = [
    ["--workload", workload, "--seed", "1", "--seconds", "2",
     "--trace", trace]
    for workload in ("serve_warm", "serve_cold")
    for trace in ("0", "1")
]


class Probe:
    """Runs entry points in traced child processes."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.out = work / "reach"
        self.out.mkdir()
        site = work / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        path = [str(site), str(SRC)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        REACH_OUT=str(self.out))
        self.failures: list[str] = []

    def _argv(self, args: list[str]) -> list[str]:
        return [arg.replace("{work}", str(self.work)) for arg in args]

    def run(self, args: list[str], timeout: float = 600) -> None:
        """Run ``python ARGS`` from the repo root; note a failure."""
        argv = [sys.executable, *self._argv(args)]
        print("  $", " ".join(args), flush=True)
        try:
            done = subprocess.run(
                argv, cwd=ROOT, env=self.env, timeout=timeout,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"{' '.join(args)}: timed out")
            return
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            self.failures.append(
                f"{' '.join(args)}: exit {done.returncode}: {tail[0]}"
            )

    def cli(self, *args: str, timeout: float = 600) -> None:
        self.run(["-m", "repro.cli", *args], timeout=timeout)

    def serve(self, *args: str) -> "Server":
        return Server(self, list(args))


class Server:
    """A background ``carbon3d serve``; SIGTERM drains it on exit."""

    def __init__(self, probe: Probe, args: list[str]) -> None:
        argv = ["-m", "repro.cli", "serve", "--port", "0", *args]
        print("  $", " ".join(argv[1:]), "&", flush=True)
        self.process = subprocess.Popen(
            [sys.executable, *probe._argv(argv)], cwd=ROOT, env=probe.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.url = None
        for line in self.process.stdout:
            if "listening on" in line:
                self.url = line.split()[-1]
                break
        if self.url is None:
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"carbon3d serve {' '.join(args)} never listened")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def issue_token(probe: Probe, registry: str, name: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "tokens", "--tokens", registry,
         "issue", name, *args, "--json"],
        cwd=ROOT, env=probe.env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)["secret"]


def run_entry_points(probe: Probe) -> None:
    work = probe.work
    # A wire payload for ``carbon3d trace`` (a file with ``"type"``).
    design = json.loads((ROOT / DESIGN).read_text())
    (work / "batch.json").write_text(json.dumps({
        "schema": 1, "type": "batch",
        "points": [{"design": design, "fab_location": location}
                   for location in ("taiwan", "iceland")],
    }))
    (work / "plan.json").write_text(json.dumps(FAULT_PLAN))

    print("CLI, local:", flush=True)
    for args in LOCAL + STUDIES:
        probe.cli(*args)

    print("CLI, against an open server with a store:", flush=True)
    with probe.serve("--store", f"{work}/store.sqlite3", "--log-json",
                     "--verbose") as server:
        for args in STUDIES:
            probe.cli(*args, "--service", server.url)
        for args in (["--json"], [], ["--backend", "act", "--json"]):
            probe.cli("submit", DESIGN, "--url", server.url, *args)
        probe.cli("submit", DESIGN, "--url", server.url)  # a store hit
        probe.cli("loadgen", "--url", server.url, "--requests", "24",
                  "--concurrency", "4", "--distinct", "4")
        probe.cli("loadgen", "--url", server.url, "--requests", "8",
                  "--concurrency", "2", "--distinct", "2", "--no-keep-alive",
                  "--json")
        probe.cli("usage", "--url", server.url)

    print("CLI, tokens and a server with --tokens and --fault-plan:",
          flush=True)
    registry = f"{work}/tokens.sqlite3"
    admin = issue_token(probe, registry, "reach-admin", "--tenant", "acme",
                        "--scopes", "admin")
    probe.cli("tokens", "--tokens", registry, "issue", "reach-user",
              "--tenant", "globex", "--rate", "50", "--burst", "100",
              "--max-requests", "100", "--max-points", "1000")
    probe.cli("tokens", "--tokens", registry, "rotate", "reach-user")
    probe.cli("tokens", "--tokens", registry, "rotate", "reach-user",
              "--json")
    probe.cli("tokens", "--tokens", registry, "list")
    probe.cli("tokens", "--tokens", registry, "list", "--all", "--json")
    with probe.serve("--no-store", "--tokens", registry,
                     "--fault-plan", f"{work}/plan.json") as server:
        probe.cli("submit", DESIGN, "--url", server.url, "--token", admin)
        probe.cli("compare", DESIGN, "--service", server.url,
                  "--token", admin)
        probe.cli("loadgen", "--url", server.url, "--token", admin,
                  "--requests", "8", "--concurrency", "2", "--distinct", "2")
        probe.cli("usage", "--url", server.url, "--token", admin)
        probe.cli("usage", "--url", server.url, "--token", admin, "--json")
    probe.cli("tokens", "--tokens", registry, "revoke", "reach-user")

    print("CLI, against a two-worker fleet:", flush=True)
    with probe.serve("--workers", "2", "--store",
                     f"{work}/fleet.sqlite3") as server:
        probe.cli("loadgen", "--url", server.url, "--requests", "16",
                  "--concurrency", "4", "--distinct", "4")
        probe.cli("submit", DESIGN, "--url", server.url)

    print("examples:", flush=True)
    for script in sorted((ROOT / "examples").glob("*.py")):
        probe.run([str(script.relative_to(ROOT))])

    print("benchmarks:", flush=True)
    probe.run(["-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"],
              timeout=1800)

    print("perfbench:", flush=True)
    for args in PERFBENCH:
        probe.run(["perfbench/run.py", *args])


def reached(out: Path) -> "set[tuple[str, int]]":
    """The ``(path, first line)`` of every code object a process ran."""
    seen = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            seen.add((path, int(lineno)))
    return seen


def definitions() -> "dict[str, list[tuple[str, int, int]]]":
    """Module path → ``(qualified name, first line, line count)`` of
    every module-level function and class method under ``src/repro``.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs = []

        def walk(body, prefix=""):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [
                        decorator.lineno for decorator in node.decorator_list
                    ])
                    defs.append((f"{prefix}{node.name}", first,
                                 node.end_lineno - first + 1))

        walk(tree.body)
        found[str(path)] = defs
    return found


def report(seen: "set[tuple[str, int]]") -> int:
    """Print the unreached definitions; 1 if a module has none reached."""
    dead_modules = []
    total = hit = unreached_lines = 0
    by_module = defaultdict(list)
    for path, defs in definitions().items():
        if not defs:
            continue
        missed = [d for d in defs if (path, d[1]) not in seen]
        total += len(defs)
        hit += len(defs) - len(missed)
        unreached_lines += sum(lines for _, _, lines in missed)
        by_module[path] = missed
        lazy_hook = [name for name, _, _ in defs] == ["__getattr__"]
        if len(missed) == len(defs) and not lazy_hook:
            dead_modules.append(path)
    print()
    print("Unreached definitions (name, first line, lines):")
    for path, missed in by_module.items():
        if not missed:
            continue
        print(f"  {Path(path).relative_to(SRC)}")
        for name, first, lines in missed:
            print(f"    {name:<48} {first:>5} {lines:>4}")
    print()
    print(f"definitions {total}, reached {hit}, unreached {total - hit} "
          f"({unreached_lines} lines)")
    if dead_modules:
        print("modules with no reached function:")
        for path in dead_modules:
            print(f"  {Path(path).relative_to(SRC)}")
        return 1
    return 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="carbon3d_reach_") as tmp:
        probe = Probe(Path(tmp))
        run_entry_points(probe)
        status = report(reached(probe.out))
    if probe.failures:
        print("entry points that failed:")
        for failure in probe.failures:
            print(f"  {failure}")
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
