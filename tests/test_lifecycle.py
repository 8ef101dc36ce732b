"""Unit tests for ``repro.lifecycle`` — monitor, scheduler, pipeline,
promotion registry, deployment driver, and the CLI surface.

The benchmark (``benchmarks/test_lifecycle.py``) exact-gates the full
seeded pipeline; these tests pin the component contracts: snapshot
digests are pure functions of the weights, the scheduler's hysteresis
band holds/drifts exactly at the boundary, promotion versions densely
and round-trips per-layer architectures, and the CLI wires it all
together with the documented exit codes.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.core import build_hybrid, eligible_paths
from repro.core.layers import LowRankConv2d, LowRankLinear
from repro.lifecycle import (
    DeploymentConfig,
    LifecycleConfig,
    LifecycleConfigError,
    PromotionError,
    PromotionRegistry,
    RankPolicy,
    RankScheduler,
    SpectrumMonitor,
    SpectrumSnapshot,
    run_deployment,
    run_lifecycle,
)
from repro.serve import default_registry, hybrid_config_for
from repro.serve.registry import build_model

TINY = LifecycleConfig(
    model="mlp",
    width=0.25,
    seed=3,
    train_samples=64,
    val_samples=16,
    batch_size=16,
    warmup_epochs=1,
    total_epochs=3,
    policy=RankPolicy(energy_threshold=0.7, max_ratio=0.5, hysteresis=1),
)


@pytest.fixture(scope="module")
def tiny_run():
    return run_lifecycle(TINY)


# -- config validation --------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(LifecycleConfigError):
        LifecycleConfig(model="lstm")  # sequence zoo not trainable here
    with pytest.raises(LifecycleConfigError):
        LifecycleConfig(warmup_epochs=0)
    with pytest.raises(LifecycleConfigError):
        LifecycleConfig(warmup_epochs=3, total_epochs=2)
    with pytest.raises(LifecycleConfigError):
        LifecycleConfig(recheck_every=0)
    with pytest.raises(LifecycleConfigError):
        LifecycleConfig(train_samples=64, batch_size=32, workers=4)


def test_policy_rejects_bad_values():
    with pytest.raises(LifecycleConfigError):
        RankPolicy(energy_threshold=0.0)
    with pytest.raises(LifecycleConfigError):
        RankPolicy(min_rank=0)
    with pytest.raises(LifecycleConfigError):
        RankPolicy(max_ratio=1.5)
    with pytest.raises(LifecycleConfigError):
        RankPolicy(hysteresis=-1)


def test_config_digest_and_run_id_are_stable():
    a, b = LifecycleConfig(seed=1), LifecycleConfig(seed=1)
    assert a.digest() == b.digest()
    assert a.run_id == b.run_id and a.run_id.startswith("lc-")
    assert a.digest() != LifecycleConfig(seed=2).digest()


# -- monitor ------------------------------------------------------------


def test_snapshot_digest_is_pure_function_of_weights():
    np.random.seed(0)
    model = build_model("mlp", 4, 0.25)
    m1, m2 = SpectrumMonitor(), SpectrumMonitor()
    s1 = m1.observe(model, epoch=0, phase="warmup")
    s2 = m2.observe(model, epoch=0, phase="warmup")
    assert s1.digest() == s2.digest()
    assert s1.as_dict()["n_layers"] == len(s1.spectra) > 0
    # Any weight change must change the digest.
    model.state_dict()[next(iter(model.state_dict()))][...] += 1.0
    assert m1.observe(model, 0, "warmup").digest() != s1.digest()


def test_monitor_measures_effective_weights_of_hybrids():
    """A freshly factorized model's spectra come from the materialized
    U V^T product, so the truncated spectrum has exactly `rank` nonzeros."""
    np.random.seed(0)
    model = build_model("mlp", 4, 0.25)
    hybrid, report = build_hybrid(model, hybrid_config_for("mlp", model, 0.25))
    snap = SpectrumMonitor().observe(hybrid, epoch=0, phase="lowrank")
    ranks = dict(report.replaced)
    for path, rank in ranks.items():
        sv = np.asarray(snap.spectra[path])
        assert int((sv > 1e-6).sum()) <= rank


# -- scheduler ----------------------------------------------------------


def _snap(index, ranks_to_sv):
    """A synthetic snapshot: each path gets `r` unit singular values."""
    return SpectrumSnapshot(
        index=index,
        epoch=index,
        phase="lowrank",
        spectra={path: (1.0,) * r for path, r in ranks_to_sv.items()},
    )


def test_scheduler_initial_adopt_then_hysteresis():
    policy = RankPolicy(energy_threshold=0.999, hysteresis=2)
    sched = RankScheduler(policy=policy, eligible=("a", "b"))

    first = sched.decide(_snap(0, {"a": 10, "b": 10, "ignored": 10}))
    assert first.reason == "initial" and first.refactorize
    assert sched.current == {"a": 10, "b": 10}  # eligible paths only

    # Within the band: hold, keep the current map.
    hold = sched.decide(_snap(1, {"a": 9, "b": 11}))
    assert hold.reason == "hold" and not hold.refactorize
    assert sched.current == {"a": 10, "b": 10}

    # One layer beyond the band: drift, adopt the FULL proposal.
    drift = sched.decide(_snap(2, {"a": 7, "b": 11}))
    assert drift.reason == "drift" and drift.refactorize
    assert drift.drifted == ("a",)
    assert sched.current == {"a": 7, "b": 11}


def test_scheduler_clips_to_policy_caps():
    policy = RankPolicy(energy_threshold=0.999, min_rank=3, max_ratio=0.5)
    sched = RankScheduler(policy=policy, eligible=("a", "b"))
    proposal = sched.propose(_snap(0, {"a": 1, "b": 20}))
    assert proposal == {"a": 3, "b": 10}  # floor and 0.5·full cap


# -- pipeline -----------------------------------------------------------


def test_pipeline_is_deterministic(tiny_run):
    again = run_lifecycle(TINY)
    assert tiny_run.spectra_digest == again.spectra_digest
    assert tiny_run.rank_map == again.rank_map
    assert tiny_run.timeline_digest() == again.timeline_digest()
    assert tiny_run.run_id == TINY.run_id


def test_pipeline_events_and_accounting(tiny_run):
    kinds = [e["event"] for e in tiny_run.events]
    assert kinds.count("factorize") == 1
    assert kinds[-1] == "final_eval"
    assert tiny_run.params_factorized < tiny_run.params_full
    assert set(tiny_run.rank_map) == set(
        eligible_paths(
            build_model(TINY.model, TINY.num_classes, TINY.width),
            hybrid_config_for(
                TINY.model,
                build_model(TINY.model, TINY.num_classes, TINY.width),
                TINY.rank_ratio,
            ),
        )
    )
    # The final model really is the rank map's architecture.
    deployed = {
        path: int(layer.rank)
        for path, layer in tiny_run.model.named_modules()
        if isinstance(layer, (LowRankConv2d, LowRankLinear))
    }
    assert deployed == tiny_run.rank_map


@pytest.mark.parametrize(
    "workers, digest", [(1, "73ee1218116092a1"), (2, "d95082780d46e029")]
)
def test_pipeline_timeline_digest_golden(workers, digest):
    # Pinned literals: any change to the phase engine's numerics or event
    # stream (single-node or simulated DDP) fails here, not only in the
    # benchmark gate.  The TINY run covers warm-up, conversion and one
    # online re-factorization.
    run = run_lifecycle(replace(TINY, workers=workers))
    assert [e["event"] for e in run.events] == [
        "snapshot", "factorize", "snapshot", "refactorize", "final_eval"
    ]
    assert run.timeline_digest() == digest


def test_pipeline_ddp_records_comm_accounting():
    config = LifecycleConfig(
        model="mlp",
        seed=3,
        train_samples=64,
        val_samples=16,
        batch_size=16,
        warmup_epochs=1,
        total_epochs=2,
        policy=RankPolicy(energy_threshold=0.7, max_ratio=0.5, hysteresis=1),
        workers=2,
    )
    run = run_lifecycle(config)
    epochs = [e for e in run.history if e["event"] == "epoch"]
    assert all("comm_seconds" in e and "bytes_per_iteration" in e for e in epochs)
    assert run.timeline_digest() == run_lifecycle(config).timeline_digest()


# -- promotion registry -------------------------------------------------


def test_registry_versions_densely_with_lineage(tmp_path, tiny_run):
    reg = PromotionRegistry(tmp_path / "reg")
    v1 = reg.promote(tiny_run)
    v2 = reg.promote(tiny_run, name="special")
    v3 = reg.promote(tiny_run)
    assert (v1.name, v1.version) == (TINY.model, 1)
    assert (v2.name, v2.version) == ("special", 1)
    assert (v3.name, v3.version) == (TINY.model, 2)
    assert reg.names() == ("mlp", "special")
    assert reg.latest(TINY.model).version == 2
    assert reg.get(TINY.model, 1).lineage["parent_run"] == tiny_run.run_id
    assert v1.rank_map == tiny_run.rank_map
    with pytest.raises(PromotionError):
        reg.get(TINY.model, 99)
    with pytest.raises(PromotionError):
        reg.latest("nope")
    # A fresh handle on the same directory sees the same index.
    assert len(PromotionRegistry(tmp_path / "reg").records()) == 3


def test_promote_artifact_requires_rank_map(tmp_path, tiny_run):
    reg = PromotionRegistry(tmp_path / "reg")
    with pytest.raises(PromotionError):
        reg.promote_artifact(tmp_path / "missing.npz", {"rank_map": {}})
    from repro.utils import save_checkpoint

    ckpt = tmp_path / "run.npz"
    save_checkpoint(ckpt, tiny_run.model)
    with pytest.raises(PromotionError):
        reg.promote_artifact(ckpt, {"model": "mlp"})  # no rank_map
    rec = reg.promote_artifact(ckpt, tiny_run.lineage())
    assert rec.version == 1 and rec.rank_map == tiny_run.rank_map


def test_materialize_roundtrips_ranks_and_weights(tmp_path, tiny_run):
    reg = PromotionRegistry(tmp_path / "reg")
    record = reg.promote(tiny_run)
    served = reg.materialize(record)
    got = {
        path: int(layer.rank)
        for path, layer in served.model.named_modules()
        if isinstance(layer, (LowRankConv2d, LowRankLinear))
    }
    assert got == tiny_run.rank_map
    want = tiny_run.model.state_dict()
    have = served.model.state_dict()
    assert all(np.array_equal(want[k], have[k]) for k in want)
    # Digests (not the bulky rank map) ride on the served lineage.
    assert served.lineage["parent_run"] == tiny_run.run_id
    assert "rank_map" not in served.lineage


def test_materialize_threads_rank_overrides():
    registry = default_registry()
    overrides = {"fc1": 5, "fc2": 3}
    served = registry.materialize(
        "mlp", "factorized", rank_overrides=overrides
    )
    got = {
        path: int(layer.rank)
        for path, layer in served.model.named_modules()
        if isinstance(layer, (LowRankConv2d, LowRankLinear))
    }
    for path, rank in overrides.items():
        if path in got:
            assert got[path] == rank
    # Distinct overrides must not collide in the cache.
    other = registry.materialize("mlp", "factorized", rank_overrides={"fc1": 7})
    assert other is not served


# -- deployment ---------------------------------------------------------


def test_deployment_promotes_and_rolls_back(tmp_path, tiny_run):
    record = PromotionRegistry(tmp_path / "reg").promote(tiny_run)
    healthy = run_deployment(record, DeploymentConfig(seed=3))
    assert healthy.promoted and healthy.final_fraction == 1.0
    degraded = run_deployment(
        record, DeploymentConfig(seed=3, degrade_factor=40.0)
    )
    assert degraded.status == "rolled_back" and degraded.final_fraction == 0.0
    assert healthy.digest() != degraded.digest()
    with pytest.raises(ValueError):
        DeploymentConfig(degrade_factor=0.0)


# -- CLI ----------------------------------------------------------------


def test_cli_run_promote_deploy(tmp_path, capsys):
    out = tmp_path / "run.json"
    ckpt = tmp_path / "run.npz"
    reg = tmp_path / "registry"
    rc = main(
        [
            "lifecycle", "run", "--model", "mlp", "--seed", "3",
            "--samples", "64", "--val-samples", "16", "--batch-size", "16",
            "--warmup-epochs", "1", "--epochs", "3",
            "--energy-threshold", "0.7", "--max-ratio", "0.5",
            "--hysteresis", "1",
            "--checkpoint", str(ckpt), "--out", str(out),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "timeline digest" in text
    record_file = json.loads(out.read_text())
    assert record_file["lineage"]["rank_map"]
    assert record_file["summary"]["timeline_digest"]

    rc = main(
        [
            "lifecycle", "promote", "--run", str(out),
            "--registry-dir", str(reg),
        ]
    )
    assert rc == 0
    assert "v1" in capsys.readouterr().out

    rc = main(
        [
            "lifecycle", "deploy", "--registry-dir", str(reg),
            "--name", "mlp", "--out", str(tmp_path / "deploy.json"),
        ]
    )
    assert rc == 0
    assert "status: promoted" in capsys.readouterr().out
    report = json.loads((tmp_path / "deploy.json").read_text())
    assert report["status"] == "promoted"

    # Injected regression: rollback, nonzero exit unless waived.
    rc = main(
        [
            "lifecycle", "deploy", "--registry-dir", str(reg),
            "--name", "mlp", "--degrade-factor", "40",
        ]
    )
    assert rc == 1
    rc = main(
        [
            "lifecycle", "deploy", "--registry-dir", str(reg),
            "--name", "mlp", "--degrade-factor", "40", "--allow-rollback",
        ]
    )
    assert rc == 0


def test_cli_bad_config_exits_2(tmp_path, capsys):
    rc = main(["lifecycle", "run", "--model", "mlp", "--warmup-epochs", "0"])
    assert rc == 2
    rc = main(
        [
            "lifecycle", "promote", "--run", str(tmp_path / "nope.json"),
            "--registry-dir", str(tmp_path / "reg"),
        ]
    )
    assert rc == 2
    rc = main(
        [
            "lifecycle", "deploy", "--registry-dir", str(tmp_path / "reg"),
            "--name", "ghost",
        ]
    )
    assert rc == 2
