"""CLI smoke tests: every subcommand end-to-end on tiny workloads."""

import time

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "resnet18"
        assert args.method == "pufferfish"

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "alexnet"])

    def test_rejects_unknown_compressor(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--compressor", "zip"])


class TestFactorizeCommand:
    def test_runs_for_each_model(self, capsys):
        for model in ("mlp", "vgg11", "resnet18"):
            rc = main(["factorize", "--model", model, "--width", "0.125",
                       "--classes", "4"])
            assert rc == 0
        out = capsys.readouterr().out
        assert "x smaller" in out
        assert "factorized layers" in out


class TestTrainCommand:
    def test_pufferfish_training(self, capsys):
        rc = main([
            "train", "--model", "mlp", "--method", "pufferfish",
            "--epochs", "3", "--warmup-epochs", "1", "--samples", "96",
            "--batch-size", "32",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best val accuracy" in out
        assert "factorized:" in out

    def test_vanilla_training(self, capsys):
        rc = main([
            "train", "--model", "mlp", "--method", "vanilla",
            "--epochs", "2", "--samples", "96", "--batch-size", "32",
        ])
        assert rc == 0
        assert "best val accuracy" in capsys.readouterr().out

    def test_checkpoint_written(self, tmp_path, capsys):
        ckpt = tmp_path / "final.npz"
        rc = main([
            "train", "--model", "mlp", "--method", "vanilla",
            "--epochs", "1", "--samples", "64", "--batch-size", "32",
            "--checkpoint", str(ckpt),
        ])
        assert rc == 0
        assert ckpt.exists()
        with np.load(ckpt) as data:
            assert any(k.startswith("model/") for k in data.files)

    @pytest.mark.parametrize("task", ["cifar", "transformer"])
    def test_warmup_exceeding_epochs_exits_2(self, task, capsys):
        rc = main([
            "train", "--task", task, "--model", "mlp", "--method", "pufferfish",
            "--epochs", "1", "--warmup-epochs", "2", "--samples", "64",
            "--batch-size", "32",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert "bad train configuration" in captured.err
        # Rejected before any training ran.
        assert "val" not in captured.out


class TestSimulateCommand:
    def test_vanilla_simulation(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compute" in out and "comm" in out

    def test_pufferfish_with_compressor(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--method", "pufferfish",
            "--nodes", "2", "--compressor", "topk",
            "--batch-size", "8", "--iterations", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pufferfish model" in out

    @pytest.mark.parametrize(
        "compressor",
        ["powersgd", "signum", "qsgd", "binary", "atomo", "abtrain", "vargate"],
    )
    def test_every_compressor_runs(self, compressor, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--compressor", compressor, "--batch-size", "8",
            "--iterations", "1",
        ])
        assert rc == 0


class TestSimulateOverlap:
    def test_overlap_prints_bucket_summary(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "2",
            "--overlap", "--bucket-mb", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap:" in out and "buckets" in out and "hidden" in out

    def test_overlap_composes_with_faults(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "4",
            "--batch-size", "8", "--iterations", "2",
            "--overlap", "--bucket-mb", "0.05",
            "--faults", "seed=42,straggler=lognormal:0.5:0.4:1.0,drop=0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap:" in out
        assert "faults (seed 42)" in out

    def test_overlap_rejects_non_allreduce_compressor(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1",
            "--overlap", "--compressor", "topk",
        ])
        assert rc == 2
        assert "allreduce-compatible" in capsys.readouterr().err

    @pytest.mark.parametrize("compressor", ["powersgd", "abtrain", "vargate"])
    def test_overlap_accepts_allreduce_compressor(self, compressor, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "2",
            "--overlap", "--bucket-mb", "0.05",
            "--compressor", compressor,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap:" in out and "buckets" in out

    def test_hierarchical_topology_flags(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--gpus-per-node", "2", "--intra-bandwidth", "50",
            "--batch-size", "8", "--iterations", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 nodes x 2 gpus" in out and "intra" in out

    def test_rejects_nonpositive_gpus_per_node(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--gpus-per-node", "0",
        ])
        assert rc == 2
        assert "--gpus-per-node" in capsys.readouterr().err

    def test_no_fused_flag_runs_per_tensor_path(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1", "--no-fused",
        ])
        assert rc == 0


class TestTrainFused:
    def test_fused_training(self, capsys):
        rc = main([
            "train", "--model", "mlp", "--method", "vanilla",
            "--epochs", "1", "--samples", "64", "--batch-size", "32",
            "--fused",
        ])
        assert rc == 0
        assert "best val accuracy" in capsys.readouterr().out

    def test_fused_rejects_amp(self, capsys):
        rc = main([
            "train", "--model", "mlp", "--method", "vanilla",
            "--epochs", "1", "--samples", "64", "--batch-size", "32",
            "--fused", "--amp",
        ])
        assert rc == 2
        assert "amp" in capsys.readouterr().err

    def test_optimizer_defaults_per_task(self):
        args = build_parser().parse_args(["train"])
        assert args.task == "cifar" and args.optimizer is None and args.lr is None

    @pytest.mark.parametrize("extra", [[], ["--fused"], ["--optimizer", "lamb"]])
    def test_transformer_task(self, extra, capsys):
        rc = main([
            "train", "--task", "transformer", "--method", "vanilla",
            "--epochs", "1", "--samples", "96", "--batch-size", "32",
        ] + extra)
        assert rc == 0
        out = capsys.readouterr().out
        assert "val BLEU" in out and "val perplexity" in out

    def test_transformer_pufferfish_fused_adam(self, capsys):
        rc = main([
            "train", "--task", "transformer", "--method", "pufferfish",
            "--epochs", "2", "--warmup-epochs", "1", "--samples", "96",
            "--batch-size", "32", "--fused",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "factorized:" in out and "val BLEU" in out

    def test_transformer_pufferfish_golden(self, capsys):
        # Pinned literals for a seeded warm-up -> factorize -> fine-tune
        # run: the printed validation lines must not move.
        rc = main([
            "train", "--task", "transformer", "--method", "pufferfish",
            "--epochs", "4", "--warmup-epochs", "2", "--samples", "128",
            "--batch-size", "16", "--seed", "5",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert "val perplexity: 15.22" in lines
        assert "val BLEU: 0.02" in lines

    def test_cifar_with_adam(self, capsys):
        rc = main([
            "train", "--model", "mlp", "--method", "vanilla",
            "--epochs", "1", "--samples", "64", "--batch-size", "32",
            "--optimizer", "adam", "--fused",
        ])
        assert rc == 0
        assert "best val accuracy" in capsys.readouterr().out


class TestSimulateOptimizers:
    @pytest.mark.parametrize("optimizer", ["adam", "lamb"])
    def test_fused_optimizer_simulation(self, optimizer, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1",
            "--optimizer", optimizer,
        ])
        assert rc == 0
        assert "compute" in capsys.readouterr().out

    def test_fused_adam_with_compressor_overlap(self, capsys):
        """--fused composes with --compressor on the allreduce-compatible
        overlap path."""
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "2",
            "--optimizer", "adam", "--overlap", "--bucket-mb", "0.05",
            "--compressor", "powersgd",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap:" in out and "buckets" in out

    def test_loop_adam_simulation(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1",
            "--optimizer", "adam", "--no-fused",
        ])
        assert rc == 0


class TestSimulateFaults:
    def test_faulty_simulation_prints_summary(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "4",
            "--batch-size", "8", "--iterations", "2",
            "--faults", "seed=42,straggler=lognormal:0.5:0.4:1.0,drop=0.05:8:0.02:0.01",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "faults (seed 42)" in out
        assert "retries" in out

    def test_inert_spec_prints_no_fault_summary(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1",
            "--faults", "seed=7",
        ])
        assert rc == 0
        assert "faults (seed" not in capsys.readouterr().out

    def test_json_file_spec(self, tmp_path, capsys):
        spec = tmp_path / "chaos.json"
        spec.write_text(
            '{"seed": 5, "straggler": {"kind": "constant", "prob": 1.0, "scale": 0.5}}'
        )
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1",
            "--faults", str(spec),
        ])
        assert rc == 0
        assert "faults (seed 5)" in capsys.readouterr().out

    def test_bad_spec_exits_2(self, capsys):
        rc = main([
            "simulate", "--model", "mlp", "--nodes", "2",
            "--batch-size", "8", "--iterations", "1",
            "--faults", "straggler=warp9",
        ])
        assert rc == 2
        assert "bad --faults spec" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_mlp_smoke(self, capsys):
        rc = main([
            "serve", "--model", "mlp", "--variant", "full", "--rate", "50",
            "--duration", "2", "--slo-ms", "100", "--seed", "0",
            "--profile-repeats", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "single-replica capacity" in out
        assert "timeline digest:" in out
        assert "latency p50" in out

    def test_serve_factorized_reports_compression(self, capsys):
        rc = main([
            "serve", "--model", "mlp", "--variant", "factorized", "--rate", "50",
            "--duration", "2", "--slo-ms", "100", "--seed", "0",
            "--profile-repeats", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "low-rank layers" in out
        assert "x)" in out  # compression factor printed

    def test_serve_deterministic_with_saved_profile(self, tmp_path, capsys):
        """Acceptance criterion: a fixed seed + fixed profile reproduces the
        request timeline and shed decisions exactly (identical digests)."""
        prof = tmp_path / "prof.json"
        args = [
            "serve", "--model", "mlp", "--rate", "200", "--duration", "3",
            "--slo-ms", "50", "--seed", "0",
        ]
        rc = main(args + ["--profile-repeats", "1", "--save-profile", str(prof)])
        assert rc == 0
        first = capsys.readouterr().out
        digest = [l for l in first.splitlines() if "timeline digest" in l]
        rc = main(args + ["--latency-profile", str(prof)])
        assert rc == 0
        second = capsys.readouterr().out
        assert digest == [l for l in second.splitlines() if "timeline digest" in l]

    def test_serve_timeline_json_written(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "timeline.json"
        rc = main([
            "serve", "--model", "mlp", "--rate", "50", "--duration", "2",
            "--slo-ms", "100", "--seed", "0", "--profile-repeats", "1",
            "--timeline", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) >= {"summary", "timeline", "batches"}
        assert payload["summary"]["n_requests"] == len(payload["timeline"])

    def test_serve_bad_config_exits_2(self, capsys):
        rc = main([
            "serve", "--model", "mlp", "--rate", "-5", "--duration", "2",
            "--slo-ms", "100",
        ])
        assert rc == 2
        assert "bad serve configuration" in capsys.readouterr().err

    def test_serve_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--variant", "half"])


class TestClusterCommand:
    """`repro cluster` — placement, autoscaling, and canary subcommands,
    all replaying saved latency profiles so no live measurement runs."""

    BATCHES = (1, 2, 4, 8, 16, 32)
    FULL_S = (0.0047, 0.0074, 0.0124, 0.0212, 0.0392, 0.0769)
    FACT_S = (0.0043, 0.0064, 0.0119, 0.0205, 0.0371, 0.0721)

    @pytest.fixture
    def profiles(self, tmp_path):
        from repro.serve import LatencyProfile

        full = tmp_path / "full.json"
        fact = tmp_path / "fact.json"
        LatencyProfile(self.BATCHES, self.FULL_S).save(full)
        LatencyProfile(self.BATCHES, self.FACT_S).save(fact)
        return str(full), str(fact)

    def test_place_compares_variants(self, profiles, capsys):
        full, fact = profiles
        rc = main([
            "cluster", "place", "--model", "vgg19", "--width", "0.25",
            "--replicas", "6", "--profile-full", full,
            "--profile-factorized", fact,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "factorized fleet uses 2/3 hosts" in out
        assert "lower bound" in out

    def test_place_writes_json(self, profiles, tmp_path, capsys):
        import json

        full, fact = profiles
        out_path = tmp_path / "placement.json"
        rc = main([
            "cluster", "place", "--model", "vgg19", "--width", "0.25",
            "--replicas", "4", "--profile-full", full,
            "--profile-factorized", fact, "--out", str(out_path),
        ])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"full", "factorized"}
        for placement in payload.values():
            assert placement["n_hosts"] >= 1
            assert placement["rejected"] == []

    def test_place_rejects_bad_replicas(self, capsys):
        rc = main(["cluster", "place", "--model", "vgg19", "--replicas", "0"])
        assert rc == 2
        assert "bad cluster configuration" in capsys.readouterr().err

    def test_autoscale_deterministic_digest(self, profiles, capsys):
        _, fact = profiles
        args = [
            "cluster", "autoscale", "--model", "vgg19", "--width", "0.25",
            "--phases", "200x20,500x20", "--latency-profile", fact,
            "--seed", "11",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "scale events" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        digest = [l for l in first.splitlines() if "timeline digest" in l]
        assert digest == [l for l in second.splitlines() if "timeline digest" in l]
        assert digest

    def test_autoscale_timeline_and_hosts(self, profiles, tmp_path, capsys):
        import json

        _, fact = profiles
        out_path = tmp_path / "timeline.json"
        rc = main([
            "cluster", "autoscale", "--model", "vgg19", "--width", "0.25",
            "--phases", "200x20,500x20", "--latency-profile", fact,
            "--host-mem-mb", "12", "--timeline", str(out_path),
        ])
        assert rc == 0
        assert "final fleet:" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"summary", "windows", "events"}
        assert payload["summary"]["n_windows"] == 4

    def test_autoscale_rejects_bad_phases(self, capsys):
        rc = main(["cluster", "autoscale", "--phases", "bogus"])
        assert rc == 2
        assert "bad cluster configuration" in capsys.readouterr().err

    def test_autoscale_rejects_bad_pool_bounds(self, profiles, capsys):
        _, fact = profiles
        rc = main([
            "cluster", "autoscale", "--model", "vgg19", "--width", "0.25",
            "--phases", "200x20", "--latency-profile", fact,
            "--initial-replicas", "0",
        ])
        assert rc == 2
        assert "bad cluster configuration" in capsys.readouterr().err

    def test_canary_promotes(self, profiles, capsys):
        full, fact = profiles
        rc = main([
            "cluster", "canary", "--model", "vgg19", "--width", "0.25",
            "--phases", "120x60", "--steps", "0.5,1.0",
            "--windows-per-step", "1", "--profile-full", full,
            "--profile-factorized", fact,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "status: promoted" in out
        assert "advance" in out

    def test_canary_rollback_exit_code(self, tmp_path, capsys):
        from repro.serve import LatencyProfile

        full = tmp_path / "full.json"
        slow = tmp_path / "slow.json"
        LatencyProfile(self.BATCHES, self.FULL_S).save(full)
        LatencyProfile(
            self.BATCHES, tuple(40 * t for t in self.FACT_S)
        ).save(slow)
        args = [
            "cluster", "canary", "--model", "vgg19", "--width", "0.25",
            "--phases", "120x60", "--steps", "0.5,1.0",
            "--windows-per-step", "1", "--profile-full", str(full),
            "--profile-factorized", str(slow),
        ]
        assert main(args) == 1
        assert "status: rolled_back" in capsys.readouterr().out
        assert main(args + ["--allow-rollback"]) == 0
        capsys.readouterr()

    def test_canary_rejects_bad_steps(self, capsys):
        rc = main(["cluster", "canary", "--steps", "a,b"])
        assert rc == 2
        assert "bad cluster configuration" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["cluster", "autoscale"])
        assert args.policy == "shed_rate"
        assert args.max_replicas == 8
        assert args.window == 10.0
        place = build_parser().parse_args(["cluster", "place"])
        assert place.host_mem_mb == 12.0
        assert place.placement == "ffd"

    def test_requires_cluster_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])


class TestGatewayCommand:
    """`repro gateway` — the live server + seeded load client, driven the
    way CI drives them: serve in the background, loadtest against it."""

    PINNED = "benchmarks/profiles/gateway_pinned.json"

    def _serve_in_thread(self, tmp_path, extra=()):
        import threading

        ready = tmp_path / "gateway.ready"
        rc_box = {}

        def target():
            rc_box["rc"] = main([
                "gateway", "serve", "--executor", "profile",
                "--latency-profile", self.PINNED, "--port", "0",
                "--ready-file", str(ready), "--duration", "3.0",
                "--slo-ms", "400", "--max-batch", "16", "--max-wait-ms", "30",
                *extra,
            ])

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert ready.exists(), "gateway never wrote its ready file"
        return thread, int(ready.read_text()), rc_box

    def test_serve_and_loadtest_roundtrip(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        out_path = tmp_path / "loadtest.json"
        thread, port, rc_box = self._serve_in_thread(
            tmp_path, extra=("--report", str(report_path))
        )
        rc = main([
            "gateway", "loadtest", "--port", str(port), "--rate", "60",
            "--duration", "1", "--seed", "0", "--out", str(out_path),
        ])
        thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert rc == 0 and rc_box["rc"] == 0
        out = capsys.readouterr().out
        assert "gateway listening on http://127.0.0.1:" in out
        assert "offered trace:" in out and "digest" in out
        assert "timeline digest:" in out
        client = json.loads(out_path.read_text())
        server = json.loads(report_path.read_text())
        assert client["summary"]["n_requests"] >= 1
        assert server["summary"]["n_requests"] == client["summary"]["n_requests"]

    def test_serve_profile_executor_requires_profile(self, capsys):
        rc = main(["gateway", "serve", "--executor", "profile"])
        assert rc == 2
        assert "requires --latency-profile" in capsys.readouterr().err

    def test_serve_bad_config_exits_2(self, capsys):
        rc = main([
            "gateway", "serve", "--executor", "profile",
            "--latency-profile", self.PINNED, "--slo-ms", "-1",
        ])
        assert rc == 2
        assert "bad gateway configuration" in capsys.readouterr().err

    def test_loadtest_bad_config_exits_2(self, capsys):
        rc = main(["gateway", "loadtest", "--port", "1", "--rate", "-3"])
        assert rc == 2
        assert "bad loadtest configuration" in capsys.readouterr().err

    def test_parser_defaults(self):
        serve = build_parser().parse_args(["gateway", "serve"])
        assert serve.executor == "model"
        assert serve.port == 8123
        assert serve.duration is None
        load = build_parser().parse_args(["gateway", "loadtest", "--port", "9"])
        assert load.mode == "open" and load.steps == 1
        assert load.arrival == "poisson"

    def test_requires_gateway_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gateway"])
