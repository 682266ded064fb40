"""CLI tests (argument parsing, JSON schema, study subcommands)."""

import json

import pytest

from repro.cli import build_parser, design_from_dict, main


@pytest.fixture()
def design_json(tmp_path):
    data = {
        "name": "cli_chip",
        "integration": "hybrid_3d",
        "stacking": "f2f",
        "assembly": "d2w",
        "package": {"class": "fcbga"},
        "throughput_tops": 254.0,
        "dies": [
            {"name": "top", "node": "7nm", "gate_count": 8.5e9,
             "workload_share": 0.5, "efficiency_tops_per_w": 2.74},
            {"name": "bottom", "node": "7nm", "gate_count": 8.5e9,
             "workload_share": 0.5, "efficiency_tops_per_w": 2.74},
        ],
    }
    path = tmp_path / "design.json"
    path.write_text(json.dumps(data))
    return path


class TestDesignFromDict:
    def test_full_schema(self, design_json):
        data = json.loads(design_json.read_text())
        design = design_from_dict(data)
        assert design.name == "cli_chip"
        assert design.die_count == 2
        assert design.integration == "hybrid_3d"

    def test_minimal_2d(self):
        design = design_from_dict(
            {"name": "mini", "dies": [{"name": "d", "node": "7nm",
                                       "area_mm2": 100.0}]}
        )
        assert design.integration == "2d"
        assert design.dies[0].area_mm2 == 100.0


class TestCommands:
    def test_evaluate_text(self, design_json, capsys):
        assert main(["evaluate", str(design_json)]) == 0
        out = capsys.readouterr().out
        assert "cli_chip" in out
        assert "total" in out

    def test_evaluate_json(self, design_json, capsys):
        assert main(["evaluate", str(design_json), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["design"] == "cli_chip"
        assert data["valid"] is True

    def test_evaluate_without_workload(self, design_json, capsys):
        assert main(
            ["evaluate", str(design_json), "--workload", "none", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert "operational" not in data

    def test_validate_epyc(self, capsys):
        assert main(["validate-epyc"]) == 0
        out = capsys.readouterr().out
        assert "EPYC" in out and "LCA" in out and "ACT+" in out

    def test_validate_lakefield(self, capsys):
        assert main(["validate-lakefield"]) == 0
        out = capsys.readouterr().out
        assert "89.3%" in out and "W2W" in out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "M3D" in out

    def test_nodes(self, capsys):
        assert main(["nodes"]) == 0
        assert "7nm" in capsys.readouterr().out

    def test_technologies(self, capsys):
        assert main(["technologies"]) == 0
        out = capsys.readouterr().out
        assert "si_interposer" in out

    def test_fab_location_flag(self, design_json, capsys):
        assert main(
            ["--fab-location", "iceland", "evaluate", str(design_json),
             "--json"]
        ) == 0
        clean = json.loads(capsys.readouterr().out)["embodied_kg"]
        assert main(["evaluate", str(design_json), "--json"]) == 0
        default = json.loads(capsys.readouterr().out)["embodied_kg"]
        assert clean < default

    def test_numeric_fab_location(self, design_json, capsys):
        """The global flag takes a g CO2/kWh number, as its help says."""
        args = build_parser().parse_args(["--fab-location", "500", "nodes"])
        assert args.fab_location == 500.0
        design = str(design_json)
        for argv in (["evaluate", design, "--json"],
                     ["compare", design, "--backends", "repro3d", "--json"],
                     ["sensitivity", design]):
            assert main(["--fab-location", "500", *argv]) == 0
            assert capsys.readouterr().err == ""
        embodied = []
        for intensity in ("5", "900"):
            assert main(["--fab-location", intensity, "evaluate", design,
                         "--json"]) == 0
            embodied.append(json.loads(capsys.readouterr().out)["embodied_kg"])
        assert embodied[0] < embodied[1]

    def test_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "dies": [
            {"name": "d", "node": "9nm", "area_mm2": 10.0}]}))
        assert main(["evaluate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAnalysisCommands:
    @pytest.fixture()
    def reference_json(self, tmp_path):
        data = {
            "name": "ref_2d",
            "throughput_tops": 254.0,
            "dies": [{"name": "die", "node": "7nm", "gate_count": 17e9,
                      "efficiency_tops_per_w": 2.74}],
        }
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(data))
        return path

    def test_search(self, reference_json, capsys):
        assert main(["search", str(reference_json)]) == 0
        out = capsys.readouterr().out
        assert "best valid configuration: m3d" in out

    def test_sensitivity(self, design_json, capsys):
        assert main(["sensitivity", str(design_json)]) == 0
        out = capsys.readouterr().out
        assert "defect_density" in out

    def test_export_table5_csv(self, tmp_path, capsys):
        out_path = tmp_path / "t5.csv"
        assert main(["export", "table5", str(out_path)]) == 0
        content = out_path.read_text()
        assert "embodied_save_pct" in content
        assert "M3D" in content

    def test_export_drive_json(self, tmp_path, capsys):
        out_path = tmp_path / "drive.json"
        assert main(["export", "drive", str(out_path)]) == 0
        rows = json.loads(out_path.read_text())
        assert len(rows) == 36


class TestOptimizeCommand:
    ARGS = [
        "--integrations", "hybrid_3d,mcm", "--die-counts", "2",
        "--wafers", "300,450", "--locations", "taiwan,iceland",
        "--max-configs", "24", "--chunk", "10", "--seed", "11",
    ]

    def test_builtin_drive_reference_text(self, capsys):
        assert main(["optimize", "orin", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "Pareto front — ORIN_2D" in out
        assert "total_kg min, performance_tops max, cost_mm2 min" in out
        assert "non-dominated configurations" in out

    def test_json_payload_and_stream_agree(self, capsys):
        assert main(["optimize", "orin", "--json", *self.ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["evaluated"] == 24
        assert payload["front_size"] == len(payload["front"])
        assert payload["front_size"] >= 1
        # --stream prints chunk progress to stderr; the final JSON
        # payload must be identical to the synchronous run's.
        assert main(["optimize", "orin", "--json", "--stream",
                     *self.ARGS]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == payload
        assert "chunk" in captured.err

    def test_design_json_path(self, tmp_path, capsys):
        data = {
            "name": "opt_ref",
            "throughput_tops": 254.0,
            "dies": [{"name": "die", "node": "7nm", "gate_count": 17e9,
                      "efficiency_tops_per_w": 2.74}],
        }
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(data))
        assert main(["optimize", str(path), *self.ARGS]) == 0
        assert "Pareto front — opt_ref" in capsys.readouterr().out

    def test_unknown_reference_is_typed_error(self, capsys):
        assert main(["optimize", "no_such_device_or_file.json"]) == 1
        assert "error:" in capsys.readouterr().err


class TestServiceCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8787
        assert args.store == "carbon3d_store.sqlite3"
        assert args.no_store is False

    def test_bench_parser_service_flag(self):
        args = build_parser().parse_args(["bench", "--service"])
        assert args.service is True
        assert args.output is None

    def test_submit_roundtrip(self, design_json, tmp_path, capsys):
        import threading

        from repro.service.server import make_server

        server = make_server(store_path=str(tmp_path / "store.sqlite3"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert main(
                ["submit", str(design_json), "--url", server.url]
            ) == 0
            out = capsys.readouterr().out
            assert "cli_chip" in out
            assert "served from   : computed" in out
            # Second submission hits the persistent store.
            assert main(
                ["submit", str(design_json), "--url", server.url, "--json"]
            ) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["design"] == "cli_chip"
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_submit_unreachable_is_typed_error(self, design_json, capsys):
        assert main(
            ["submit", str(design_json), "--url", "http://127.0.0.1:9",
             "--timeout", "2"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestCompareCommand:
    def test_compare_local_with_draws(self, design_json, capsys):
        assert main(["compare", str(design_json), "--draws", "12"]) == 0
        out = capsys.readouterr().out
        assert "cross-model comparison" in out
        assert "uncertainty (each backend draws its own factor set)" in out
        assert "p95" in out

    def test_compare_json_includes_bands(self, design_json, capsys):
        assert main(
            ["compare", str(design_json), "--draws", "10",
             "--backends", "repro3d,act", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        rows = data["backends"]
        assert [row["backend"] for row in rows] == ["repro3d", "act"]
        assert rows[0]["report"]["total_kg"] > 0
        assert rows[0]["uncertainty"]["samples"] == 10
        assert rows[0]["uncertainty"]["p05_kg"] < rows[0]["uncertainty"]["p95_kg"]

    def test_compare_json_shape_is_service_compatible(
        self, design_json, capsys
    ):
        """Scripts parsing `compare --json` survive adding --service."""
        import threading

        from repro.service.server import make_server

        argv = ["compare", str(design_json), "--backends", "repro3d,act",
                "--draws", "8", "--json"]
        assert main(argv) == 0
        local = json.loads(capsys.readouterr().out)
        server = make_server()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert main(argv + ["--service", server.url]) == 0
            served = json.loads(capsys.readouterr().out)
        finally:
            server.close()
            thread.join(timeout=5.0)
        for local_row, served_row in zip(local["backends"],
                                         served["backends"]):
            # The documented access paths agree value-for-value. (The
            # repro3d report keeps the richer classic lifecycle payload
            # server-side, so only the shared keys are compared.)
            assert local_row["backend"] == served_row["backend"]
            for key in ("embodied_kg", "total_kg"):
                assert local_row["report"][key] == served_row["report"][key]
            for key in ("samples", "base_kg", "mean_kg", "std_kg",
                        "p05_kg", "p50_kg", "p95_kg"):
                assert (
                    local_row["uncertainty"][key]
                    == served_row["uncertainty"][key]
                )

    def test_compare_service_round_trip(self, design_json, capsys):
        import threading

        from repro.service.server import make_server

        server = make_server()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            assert main(
                ["compare", str(design_json), "--service", server.url,
                 "--backends", "repro3d,lca", "--draws", "8"]
            ) == 0
            out = capsys.readouterr().out
            assert "served by" in out
            assert "3D-Carbon" in out and "LCA" in out
            assert "p50" in out
            # --json surfaces the raw /compare payload.
            assert main(
                ["compare", str(design_json), "--service", server.url,
                 "--backends", "repro3d", "--json"]
            ) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["backends"][0]["backend"] == "repro3d"
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_compare_service_unreachable_is_typed_error(
        self, design_json, capsys
    ):
        assert main(
            ["compare", str(design_json), "--service", "http://127.0.0.1:9"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestListingCommands:
    def test_backends_table(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("repro3d", "act", "act_plus", "lca", "first_order"):
            assert name in out
        assert "digest" in out

    def test_backends_json_carries_factor_digests(self, capsys):
        assert main(["backends", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        rows = {row["name"]: row for row in data["backends"]}
        assert rows["repro3d"]["operational"] is True
        assert rows["act"]["operational"] is False
        # Digests are full SHA-256 hex and shared exactly where the
        # factor sets are shared (ACT+ reuses ACT's set).
        assert len(rows["lca"]["factor_set_digest"]) == 64
        assert rows["act"]["factor_set_digest"] == \
            rows["act_plus"]["factor_set_digest"]
        assert rows["act"]["factor_set_digest"] != \
            rows["repro3d"]["factor_set_digest"]
        assert rows["repro3d"]["stages"][0] == "resolve"

    def test_studies_table_and_json(self, capsys):
        assert main(["studies"]) == 0
        out = capsys.readouterr().out
        for kind in ("evaluate", "batch", "sweep", "monte_carlo",
                     "compare", "tornado"):
            assert kind in out
        assert main(["studies", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        kinds = {entry["kind"]: entry for entry in data["studies"]}
        assert kinds["monte_carlo"]["type"] == "montecarlo"
        assert kinds["sweep"]["route"] == "/sweep"
        assert data["schema"] == 1


class TestTokenFlow:
    def test_submit_with_token_round_trip(self, design_json, capsys,
                                          tmp_path):
        import threading

        from repro.service.server import make_server

        server = make_server(tokens_path=str(tmp_path / "tokens.sqlite3"))
        secret, _ = server.tokens.issue("cli", "anonymous")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            # Wrong token: typed error, exit 1.
            assert main(
                ["submit", str(design_json), "--url", server.url,
                 "--token", "wrong"]
            ) == 1
            assert "AuthError" in capsys.readouterr().err
            # Right token: the full report comes back.
            assert main(
                ["submit", str(design_json), "--url", server.url,
                 "--token", secret]
            ) == 0
            assert "total" in capsys.readouterr().out
            # compare --service threads the token through the facade.
            assert main(
                ["compare", str(design_json), "--service", server.url,
                 "--token", secret, "--backends", "repro3d", "--json"]
            ) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["backends"][0]["backend"] == "repro3d"
        finally:
            server.close()
            thread.join(timeout=5.0)

    def test_serve_parser_rejects_token(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--token", "x", "--no-store"])
        assert info.value.code == 2
        assert "unrecognized arguments: --token" in capsys.readouterr().err
