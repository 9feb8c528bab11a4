"""Smoke tests of the ``repro`` command-line front-end."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.scenario import get_scenario


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


class TestListScenarios:
    def test_plain(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "residential-south" in out
        assert "built-in scenarios" in out

    def test_json(self, capsys):
        assert main(["list-scenarios", "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) >= 10
        assert {"name", "solver", "n_modules", "description"} <= set(records[0])


class TestRun:
    def test_builtin_scenario(self, capsys, cache_dir, tmp_path):
        output = tmp_path / "result.json"
        code = main(
            ["run", "residential-south", "--cache-dir", cache_dir, "--output", str(output)]
        )
        assert code == 0
        assert "residential-south" in capsys.readouterr().out
        record = json.loads(output.read_text())
        assert record["scenario"] == "residential-south"
        assert record["annual_energy_mwh"] > 0

    def test_scenario_file_with_solver_override(self, capsys, cache_dir, tmp_path):
        path = tmp_path / "custom.json"
        get_scenario("residential-south").save(path)
        code = main(["run", str(path), "--solver", "traditional", "--cache-dir", cache_dir])
        assert code == 0
        assert "solver=traditional" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "error:" in capsys.readouterr().err


class TestBatch:
    def test_subset_parallel_with_store(self, capsys, cache_dir, tmp_path):
        results = tmp_path / "results.jsonl"
        code = main(
            [
                "batch",
                "fleet-a-n6",
                "fleet-b-n8",
                "--jobs",
                "2",
                "--cache-dir",
                cache_dir,
                "--results",
                str(results),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batch: 2 scenarios" in out
        lines = [json.loads(line) for line in results.read_text().splitlines() if line]
        assert [record["scenario"] for record in lines] == ["fleet-a-n6", "fleet-b-n8"]

    def test_serial_flag(self, capsys, cache_dir, tmp_path):
        results = tmp_path / "results.jsonl"
        code = main(
            [
                "batch",
                "residential-south",
                "--serial",
                "--cache-dir",
                cache_dir,
                "--results",
                str(results),
            ]
        )
        assert code == 0
        assert "1 worker(s)" in capsys.readouterr().out


class TestCampaign:
    def test_run_status_export_rerun_noop(self, capsys, cache_dir, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        exported = tmp_path / "exported.jsonl"
        run_args = [
            "campaign",
            "run",
            "smoke",
            "fleet-a-n6",
            "fleet-b-n8",
            "--store",
            store,
            "--cache-dir",
            cache_dir,
            "--serial",
        ]
        assert main(run_args) == 0
        out = capsys.readouterr().out
        assert "campaign 'smoke': 2/2 done (computed 2, skipped 0" in out

        assert main(["campaign", "status", "smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out and "fleet-a-n6" in out

        assert main(["campaign", "status", "--store", store]) == 0
        assert "smoke" in capsys.readouterr().out

        code = main(
            ["campaign", "export", "smoke", "--store", store, "--results", str(exported)]
        )
        assert code == 0
        records = [json.loads(line) for line in exported.read_text().splitlines()]
        assert [record["scenario"] for record in records] == ["fleet-a-n6", "fleet-b-n8"]

        # Re-running the identical campaign is a pure no-op resume.
        assert main(run_args) == 0
        assert "computed 0, skipped 2" in capsys.readouterr().out

    def test_resume_from_store_alone(self, capsys, cache_dir, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        assert (
            main(
                [
                    "campaign",
                    "run",
                    "resumable",
                    "residential-south",
                    "--store",
                    store,
                    "--cache-dir",
                    cache_dir,
                    "--serial",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # Resume needs no scenario arguments: the specs live in the store.
        assert (
            main(
                [
                    "campaign",
                    "resume",
                    "resumable",
                    "--store",
                    store,
                    "--cache-dir",
                    cache_dir,
                    "--serial",
                ]
            )
            == 0
        )
        assert "computed 0, skipped 1" in capsys.readouterr().out

    def test_status_json_and_unknown_campaign(self, capsys, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        assert main(["campaign", "status", "nope", "--store", store]) == 2
        assert "no campaign" in capsys.readouterr().err
        assert main(["campaign", "export", "nope", "--store", store, "--results", "x"]) == 2
        capsys.readouterr()

    def test_store_none_rejected_for_campaigns(self, capsys, tmp_path):
        code = main(["campaign", "run", "c", "residential-south", "--store", "none"])
        assert code == 2
        assert "--store cannot be 'none'" in capsys.readouterr().err

    def test_sweep_uses_store_and_resumes(self, capsys, cache_dir, tmp_path):
        store = str(tmp_path / "campaigns.sqlite")
        args = [
            "sweep",
            "--base",
            "residential-south",
            "--axis",
            "n_modules=3,6",
            "--serial",
            "--cache-dir",
            cache_dir,
            "--store",
            store,
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "computed 2, skipped 0" in captured.err
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "computed 0, skipped 2" in captured.err
        # The in-memory escape hatch still works.
        assert main(args[:-1] + ["none"]) == 0
        assert "campaign" not in capsys.readouterr().err
        # ... but retries need a store to retry against.
        assert main(args[:-1] + ["none", "--retries", "1"]) == 2
        assert "retries only apply to store-backed batches" in capsys.readouterr().err


class TestCompare:
    def test_two_solvers(self, capsys, cache_dir):
        code = main(
            [
                "compare",
                "residential-south",
                "--solvers",
                "greedy,traditional",
                "--cache-dir",
                cache_dir,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "greedy" in out and "traditional" in out and "vs best" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        """``python -m repro`` resolves to the CLI."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list-scenarios"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 0
        assert "residential-south" in completed.stdout
