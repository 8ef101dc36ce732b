"""Trainer and PufferfishTrainer (Algorithm 1) behavior."""

import numpy as np
import pytest

from repro import nn
from repro.core import FactorizationConfig, PufferfishTrainer, Trainer
from repro.data import DataLoader
from repro.optim import SGD


def make_task(rng, n=96, num_classes=3, dim=12):
    """Linearly separable synthetic task so a few epochs suffice."""
    x = rng.standard_normal((n, dim)).astype(np.float32)
    w = rng.standard_normal((dim, num_classes))
    y = (x @ w).argmax(axis=1)
    return x, y


def make_model(dim=12, num_classes=3):
    return nn.Sequential(nn.Linear(dim, 32), nn.ReLU(), nn.Linear(32, 32), nn.ReLU(),
                         nn.Linear(32, num_classes))


class TestTrainer:
    def test_loss_decreases(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 16, shuffle=True)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.1, momentum=0.9))
        t.fit(loader, loader, epochs=5)
        assert t.history[-1].train_loss < t.history[0].train_loss

    def test_history_fields(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.05))
        t.fit(loader, loader, epochs=2)
        assert len(t.history) == 2
        s = t.history[0]
        assert s.epoch == 0 and s.num_parameters == model.num_parameters()
        assert 0.0 <= s.val_metric <= 1.0

    def test_evaluate_does_not_update_params(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        before = model.state_dict()
        Trainer(model, SGD(model.parameters(), lr=0.1)).evaluate(loader)
        after = model.state_dict()
        for k in before:
            assert np.allclose(before[k], after[k])

    def test_grad_clip_applied(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.05), grad_clip=1e-8)
        before = model.state_dict()
        t.fit(loader, loader, epochs=1)
        # With a near-zero clip the weights barely move.
        for k, v in model.state_dict().items():
            assert np.allclose(before[k], v, atol=1e-4)

    def test_post_step_callback_invoked(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        calls = []
        t = Trainer(model, SGD(model.parameters(), lr=0.05), post_step=lambda m: calls.append(1))
        t.fit(loader, loader, epochs=1)
        assert len(calls) == len(loader)

    def test_amp_mode_trains(self, rng):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 16, shuffle=True)
        model = make_model()
        t = Trainer(model, SGD(model.parameters(), lr=0.1, momentum=0.9), amp=True)
        t.fit(loader, loader, epochs=4)
        assert t.history[-1].train_loss < t.history[0].train_loss

    def test_scheduler_steps_per_epoch(self, rng):
        from repro.optim import MultiStepLR

        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        opt = SGD(model.parameters(), lr=0.1)
        t = Trainer(model, opt, scheduler=MultiStepLR(opt, [1], gamma=0.1))
        t.fit(loader, loader, epochs=2)
        assert opt.lr == pytest.approx(0.01)


class TestPufferfishTrainer:
    def _run(self, rng, warmup, total):
        x, y = make_task(rng)
        loader = DataLoader(x, y, 16, shuffle=True)
        model = make_model()
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.1, momentum=0.9),
            warmup_epochs=warmup,
            total_epochs=total,
        )
        hybrid = pt.fit(loader, loader)
        return pt, hybrid, model

    def test_phase_sequence(self, rng):
        pt, hybrid, model = self._run(rng, warmup=2, total=5)
        phases = [s.phase for s in pt.history]
        assert phases == ["warmup", "warmup", "lowrank", "lowrank", "lowrank"]

    def test_param_count_drops_at_switch(self, rng):
        pt, hybrid, model = self._run(rng, warmup=2, total=4)
        assert pt.history[1].num_parameters > pt.history[2].num_parameters
        assert hybrid.num_parameters() < model.num_parameters()

    def test_report_available(self, rng):
        pt, _, _ = self._run(rng, warmup=1, total=2)
        assert pt.report is not None
        assert pt.report.compression > 1.0

    def test_zero_warmup_trains_lowrank_from_scratch(self, rng):
        pt, hybrid, _ = self._run(rng, warmup=0, total=3)
        assert all(s.phase == "lowrank" for s in pt.history)

    def test_warmup_equals_total_is_vanilla_training(self, rng):
        pt, hybrid, _ = self._run(rng, warmup=3, total=3)
        assert all(s.phase == "warmup" for s in pt.history)
        # The hybrid exists but was never trained further.
        assert pt.report is not None

    def test_warmup_exceeding_total_raises(self, rng):
        model = make_model()
        with pytest.raises(ValueError):
            PufferfishTrainer(
                model,
                FactorizationConfig(),
                optimizer_factory=lambda ps: SGD(ps, lr=0.1),
                warmup_epochs=5,
                total_epochs=3,
            )

    def test_learns_the_task(self, rng):
        pt, hybrid, _ = self._run(rng, warmup=3, total=10)
        assert pt.history[-1].val_metric > 0.7

    def test_epoch_numbering_continuous(self, rng):
        pt, _, _ = self._run(rng, warmup=2, total=5)
        assert [s.epoch for s in pt.history] == [0, 1, 2, 3, 4]


class TestConfigBuilder:
    def test_builder_sees_warmup_weights(self, rng):
        """config_builder must receive the model *after* warm-up training."""
        from repro.core import FactorizationConfig

        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        initial = model.state_dict()
        seen = {}

        def builder(m):
            seen["weights_changed"] = not all(
                np.allclose(initial[k], v) for k, v in m.state_dict().items()
            )
            return FactorizationConfig(rank_ratio=0.5)

        pt = PufferfishTrainer(
            model,
            FactorizationConfig(rank_ratio=0.25),
            optimizer_factory=lambda ps: SGD(ps, lr=0.1),
            warmup_epochs=2,
            total_epochs=3,
            config_builder=builder,
        )
        pt.fit(loader, loader)
        assert seen["weights_changed"]
        # The builder's config (ratio 0.5) won, not the constructor's 0.25.
        assert pt.config.rank_ratio == 0.5

    def test_spectrum_allocation_via_builder(self, rng):
        from repro.core import FactorizationConfig, energy_rank_allocation

        x, y = make_task(rng)
        loader = DataLoader(x, y, 32)
        model = make_model()
        pt = PufferfishTrainer(
            model,
            FactorizationConfig(),
            optimizer_factory=lambda ps: SGD(ps, lr=0.1),
            warmup_epochs=1,
            total_epochs=2,
            config_builder=lambda m: FactorizationConfig(
                rank_overrides=energy_rank_allocation(m, 0.8)
            ),
        )
        pt.fit(loader, loader)
        assert pt.report.replaced  # the allocation produced real overrides
