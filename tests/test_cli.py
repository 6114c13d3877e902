"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, load_points, main
from repro.datasets import gaussian_blobs


@pytest.fixture()
def csv_points(tmp_path):
    points = gaussian_blobs(120, 2, num_clusters=2, cluster_std=0.02, seed=1)
    path = tmp_path / "points.csv"
    np.savetxt(path, points, delimiter=",", header="x,y")
    return path, points


class TestLoadPoints:
    def test_csv_with_header(self, csv_points):
        path, points = csv_points
        loaded = load_points(str(path))
        assert loaded.shape == points.shape
        assert np.allclose(loaded, points)

    def test_whitespace_text(self, tmp_path):
        points = np.arange(12.0).reshape(6, 2)
        path = tmp_path / "points.txt"
        np.savetxt(path, points)
        assert np.allclose(load_points(str(path)), points)

    def test_npy(self, tmp_path):
        points = np.random.default_rng(0).random((10, 3))
        path = tmp_path / "points.npy"
        np.save(path, points)
        assert np.allclose(load_points(str(path)), points)

    def test_missing_file(self, tmp_path):
        from repro.core.errors import ReproError

        with pytest.raises(ReproError):
            load_points(str(tmp_path / "nope.csv"))


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_emst_defaults(self):
        args = build_parser().parse_args(["emst", "points.csv"])
        assert args.method == "memogfk"

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["emst", "points.csv", "--method", "bogus"])

    @pytest.mark.parametrize("command", ["emst", "hdbscan", "single-linkage"])
    def test_metric_flag_on_every_subcommand(self, command):
        from repro.core.metric import MinkowskiMetric

        args = build_parser().parse_args(
            [command, "points.csv", "--metric", "minkowski:3"]
        )
        assert isinstance(args.metric, MinkowskiMetric) and args.metric.p == 3.0
        default = build_parser().parse_args([command, "points.csv"])
        from repro.core.metric import EUCLIDEAN

        assert default.metric == EUCLIDEAN

    def test_unknown_metric_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["emst", "points.csv", "--metric", "bogus"])


class TestMain:
    def test_emst_writes_edge_file(self, csv_points, tmp_path):
        path, points = csv_points
        output = tmp_path / "edges.csv"
        assert main(["emst", str(path), "--output", str(output)]) == 0
        lines = output.read_text().strip().splitlines()
        assert lines[0] == "u,v,weight"
        assert len(lines) == len(points)  # header + n-1 edges

    def test_hdbscan_eom_labels(self, csv_points, tmp_path):
        path, points = csv_points
        output = tmp_path / "labels.csv"
        code = main(
            ["hdbscan", str(path), "--min-pts", "5", "--output", str(output)]
        )
        assert code == 0
        labels = [int(v) for v in output.read_text().strip().splitlines()[1:]]
        assert len(labels) == len(points)
        assert len({label for label in labels if label >= 0}) == 2

    def test_hdbscan_epsilon_cut_and_mst_output(self, csv_points, tmp_path):
        path, points = csv_points
        labels_file = tmp_path / "labels.csv"
        mst_file = tmp_path / "mst.csv"
        code = main(
            [
                "hdbscan",
                str(path),
                "--min-pts",
                "5",
                "--epsilon",
                "0.2",
                "--output",
                str(labels_file),
                "--mst-output",
                str(mst_file),
            ]
        )
        assert code == 0
        assert len(mst_file.read_text().strip().splitlines()) == len(points)

    def test_single_linkage_stdout(self, csv_points, capsys):
        path, points = csv_points
        assert main(["single-linkage", str(path), "--num-clusters", "2"]) == 0
        captured = capsys.readouterr()
        labels = [int(v) for v in captured.out.strip().splitlines()[1:]]
        assert len(labels) == len(points)
        assert len(set(labels)) == 2

    def test_missing_input_returns_error_code(self, tmp_path):
        assert main(["emst", str(tmp_path / "missing.csv")]) == 2

    def test_empty_input_returns_error_code(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["emst", str(empty)]) == 2

    def test_emst_metric_flag_changes_weights(self, csv_points, tmp_path):
        path, points = csv_points
        euclid_file = tmp_path / "euclid.csv"
        manhattan_file = tmp_path / "manhattan.csv"
        assert main(["emst", str(path), "--output", str(euclid_file)]) == 0
        code = main(
            [
                "emst",
                str(path),
                "--metric",
                "manhattan",
                "--output",
                str(manhattan_file),
            ]
        )
        assert code == 0

        def total(report):
            rows = report.read_text().strip().splitlines()[1:]
            return sum(float(row.split(",")[2]) for row in rows)

        from repro import emst

        assert total(manhattan_file) == pytest.approx(
            emst(points, metric="manhattan").total_weight
        )
        assert total(manhattan_file) > total(euclid_file)

    def test_hdbscan_metric_flag(self, csv_points, tmp_path):
        path, points = csv_points
        output = tmp_path / "labels.csv"
        code = main(
            [
                "hdbscan",
                str(path),
                "--min-pts",
                "5",
                "--metric",
                "chebyshev",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        labels = [int(v) for v in output.read_text().strip().splitlines()[1:]]
        assert len(labels) == len(points)


class TestResilienceCli:
    """Checkpoint/resume flags and the typed-failure exit codes."""

    @pytest.mark.parametrize("command", ["emst", "hdbscan", "single-linkage"])
    def test_resume_requires_checkpoint_dir(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "points.csv", "--resume"])
        assert excinfo.value.code == 2
        assert "--resume requires --checkpoint-dir" in capsys.readouterr().err

    def test_interrupted_run_resumes_identically(self, csv_points, tmp_path):
        from repro.resilience import InjectedCrashError, inject_faults

        path, _ = csv_points
        reference = tmp_path / "reference.csv"
        resumed = tmp_path / "resumed.csv"
        checkpoint = tmp_path / "ckpt"
        assert main(["emst", str(path), "--output", str(reference)]) == 0
        with inject_faults("crash-after-phase:phase=mst"):
            # The injected crash stands in for kill -9: it is not a
            # ReproError, so it escapes main() like a real process death.
            with pytest.raises(InjectedCrashError):
                main(
                    [
                        "emst",
                        str(path),
                        "--checkpoint-dir",
                        str(checkpoint),
                        "--output",
                        str(resumed),
                    ]
                )
        code = main(
            [
                "emst",
                str(path),
                "--checkpoint-dir",
                str(checkpoint),
                "--resume",
                "--output",
                str(resumed),
            ]
        )
        assert code == 0
        assert resumed.read_bytes() == reference.read_bytes()

    def test_checkpoint_mismatch_exits_3(self, csv_points, tmp_path, capsys):
        path, _ = csv_points
        checkpoint = tmp_path / "ckpt"
        base = ["hdbscan", str(path), "--checkpoint-dir", str(checkpoint)]
        assert main(base + ["--min-pts", "5"]) == 0
        assert main(base + ["--resume", "--min-pts", "6"]) == 3
        assert "checkpoint error:" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_3(self, csv_points, tmp_path, capsys):
        path, _ = csv_points
        checkpoint = tmp_path / "ckpt"
        base = ["emst", str(path), "--checkpoint-dir", str(checkpoint)]
        assert main(base) == 0
        phase = checkpoint / "phase-mst.npz"
        phase.write_bytes(phase.read_bytes()[: phase.stat().st_size // 2])
        assert main(base + ["--resume"]) == 3
        assert "checkpoint error:" in capsys.readouterr().err

    def test_worker_failure_exits_4(self, csv_points, monkeypatch, capsys):
        import repro.parallel.pool as pool_module
        from repro.resilience import inject_faults

        path, _ = csv_points
        # Tiny shards so a 120-point run actually engages the pool.
        monkeypatch.setattr(pool_module, "DEFAULT_CHUNK", 16)
        with inject_faults("kill-worker:times=inf,scope=any"):
            with pytest.warns(pool_module.WorkerRecoveryWarning):
                code = main(["emst", str(path), "--num-threads", "4"])
        assert code == 4
        assert "worker failure:" in capsys.readouterr().err
        pool_module.shutdown_pools()  # drop the deliberately poisoned pool

    def test_spill_exhaustion_exits_5(self, csv_points, monkeypatch, capsys):
        import repro.core.budget as budget_module
        from repro.resilience import inject_faults

        path, _ = csv_points
        # A floor-less tiny budget makes every growable buffer spill, and the
        # injected disk + RAM failures exhaust both homes for it.
        monkeypatch.setattr(budget_module, "MIN_TILE_BYTES", 1)
        with inject_faults("spill-os-error:times=inf;spill-ram-fail:times=inf"):
            with pytest.warns(RuntimeWarning):
                code = main(["emst", str(path), "--memory-budget", "8K"])
        assert code == 5
        assert "spill I/O error:" in capsys.readouterr().err


class TestServeCli:
    """The long-lived serve mode: fit/save, load, request loops, exit codes."""

    def _save_state(self, csv_points, tmp_path):
        path, _ = csv_points
        state_file = tmp_path / "fit.npz"
        assert main(["serve", str(path), "--save", str(state_file)]) == 0
        return state_file

    def test_cache_size_below_one_is_a_usage_error(self, csv_points, capsys):
        path, _ = csv_points
        for size in ("0", "-3"):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", str(path), "--cache-size", size])
            assert exit_info.value.code == 2
            assert "--cache-size" in capsys.readouterr().err

    def test_fit_and_save_then_load_and_answer(self, csv_points, tmp_path):
        import json

        state_file = self._save_state(csv_points, tmp_path)
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                json.dumps(request)
                for request in (
                    {"op": "recut", "epsilon": 0.3},
                    {"op": "recut", "epsilon": 0.3},
                    {"op": "labels"},
                    {"op": "stats"},
                )
            )
            + "\n"
        )
        responses_file = tmp_path / "responses.jsonl"
        code = main(
            [
                "serve",
                "--load",
                str(state_file),
                "--requests",
                str(requests),
                "--output",
                str(responses_file),
            ]
        )
        assert code == 0
        responses = [
            json.loads(line)
            for line in responses_file.read_text().splitlines()
        ]
        assert len(responses) == 4
        assert all(response["ok"] for response in responses)
        assert not responses[0]["cached"] and responses[1]["cached"]

    def test_fit_serve_without_save(self, csv_points, tmp_path):
        import json

        path, points = csv_points
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"op": "labels"}) + "\n")
        responses_file = tmp_path / "responses.jsonl"
        code = main(
            [
                "serve",
                str(path),
                "--min-pts",
                "5",
                "--requests",
                str(requests),
                "--output",
                str(responses_file),
            ]
        )
        assert code == 0
        response = json.loads(responses_file.read_text())
        assert response["ok"] and len(response["labels"]) == len(points)

    def test_served_labels_match_cold_fit(self, csv_points, tmp_path):
        import json

        from repro.estimators import HDBSCAN

        path, points = csv_points
        state_file = tmp_path / "fit.npz"
        assert main(
            ["serve", str(path), "--min-pts", "5", "--save", str(state_file)]
        ) == 0
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"op": "recut", "epsilon": 0.2}) + "\n")
        responses_file = tmp_path / "responses.jsonl"
        assert main(
            [
                "serve",
                "--load",
                str(state_file),
                "--requests",
                str(requests),
                "--output",
                str(responses_file),
            ]
        ) == 0
        response = json.loads(responses_file.read_text())
        cold = HDBSCAN(min_pts=5, epsilon=0.2).fit_predict(points)
        assert response["labels"] == cold.tolist()

    def test_corrupt_state_exits_2(self, csv_points, tmp_path, capsys):
        state_file = self._save_state(csv_points, tmp_path)
        state_file.write_bytes(
            state_file.read_bytes()[: state_file.stat().st_size // 2]
        )
        assert main(["serve", "--load", str(state_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_mismatched_metric_exits_2(self, csv_points, tmp_path, capsys):
        state_file = self._save_state(csv_points, tmp_path)
        code = main(
            ["serve", "--load", str(state_file), "--metric", "manhattan"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_input_or_load(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_input_and_load_conflict(self, csv_points, tmp_path, capsys):
        path, _ = csv_points
        state_file = self._save_state(csv_points, tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(path), "--load", str(state_file)])
        assert excinfo.value.code == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--min-pts", "10"],  # the fitting default, passed explicitly
            ["--min-pts", "5"],
            ["--min-cluster-size", "5"],
            ["--method", "memogfk"],
            ["--allow-single-cluster"],
        ],
    )
    def test_load_rejects_fit_shaping_flags(
        self, csv_points, tmp_path, capsys, flags
    ):
        # The saved state fixes the fit parameters; an explicitly passed
        # flag must conflict even when its value equals the fitting default
        # (the None-sentinel defaults make "passed" detectable at all).
        state_file = self._save_state(csv_points, tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--load", str(state_file)] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "fixed" in err

    def test_mismatched_backend_exits_2(self, csv_points, tmp_path, capsys):
        state_file = self._save_state(csv_points, tmp_path)
        code = main(
            ["serve", "--load", str(state_file), "--backend", "numpy-f32"]
        )
        assert code == 2
        assert "backend" in capsys.readouterr().err

    def test_update_op_round_trip(self, csv_points, tmp_path):
        import json

        path, points = csv_points
        state_file = self._save_state(csv_points, tmp_path)
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                json.dumps(request)
                for request in (
                    {
                        "op": "update",
                        "insert": points[:3].tolist(),
                        "delete": [0, 1],
                    },
                    {"op": "info"},
                )
            )
            + "\n"
        )
        responses_file = tmp_path / "responses.jsonl"
        code = main(
            [
                "serve",
                "--load",
                str(state_file),
                "--requests",
                str(requests),
                "--output",
                str(responses_file),
            ]
        )
        assert code == 0
        update, info = [
            json.loads(line)
            for line in responses_file.read_text().splitlines()
        ]
        assert update["ok"] and update["deleted"] == 2 and update["inserted"] == 3
        assert update["num_points"] == len(points) + 1
        assert info["ok"] and info["num_points"] == len(points) + 1

    def test_help_epilog_documents_environment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for name in ("REPRO_BACKEND", "REPRO_MEMORY_BUDGET", "REPRO_FAULTS"):
            assert name in text
        assert "exit codes" in text.lower()
