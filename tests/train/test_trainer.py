"""Tests for the training loop, early stopping and history."""

import numpy as np
import pytest

from repro.core import MISSL, MISSLConfig
from repro.train import EpochRecord, History, TrainConfig, Trainer


@pytest.fixture
def small_model(tiny_dataset, tiny_graph):
    config = MISSLConfig(dim=16, num_interests=2, max_len=20, num_train_negatives=8,
                         lambda_aug=0.0)
    return MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph, config, seed=0)


class TestTrainer:
    def test_fit_produces_history(self, small_model, tiny_split):
        trainer = Trainer(small_model, tiny_split, TrainConfig(epochs=2, patience=2, batch_size=32,
                                                               num_eval_negatives=30))
        history = trainer.fit()
        assert history.num_epochs == 2
        assert all(np.isfinite(r.train_loss) for r in history.records)
        assert history.best_epoch >= 0
        assert all("NDCG@10" in r.valid_metrics for r in history.records)

    def test_early_stopping_triggers(self, small_model, tiny_split):
        trainer = Trainer(small_model, tiny_split,
                          TrainConfig(epochs=50, patience=1, batch_size=32,
                                      num_eval_negatives=30))
        history = trainer.fit()
        assert history.num_epochs < 50
        assert history.stopped_early

    def test_best_state_restored(self, tiny_dataset, tiny_graph, tiny_split):
        config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                             num_train_negatives=8, lambda_aug=0.0)
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=0)
        trainer = Trainer(model, tiny_split, TrainConfig(epochs=3, patience=3, batch_size=32,
                                                         num_eval_negatives=30))
        history = trainer.fit()
        from repro.eval import evaluate_ranking
        report = evaluate_ranking(model, tiny_split.valid, trainer.valid_candidates,
                                  tiny_dataset.schema)
        assert report["NDCG@10"] == pytest.approx(history.best_metric, abs=1e-6)

    def test_model_in_eval_mode_after_fit(self, small_model, tiny_split):
        Trainer(small_model, tiny_split, TrainConfig(epochs=1, patience=1, num_eval_negatives=30)).fit()
        assert not small_model.training

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    def test_epoch_timing_split(self, small_model, tiny_split):
        history = Trainer(small_model, tiny_split,
                          TrainConfig(epochs=2, patience=2, batch_size=32,
                                      num_eval_negatives=30)).fit()
        for record in history.records:
            assert record.train_seconds > 0
            assert record.eval_seconds > 0
            # the split accounts for (almost all of) the epoch wall clock
            assert record.train_seconds + record.eval_seconds <= record.seconds
            assert (record.train_seconds + record.eval_seconds
                    >= 0.9 * record.seconds)
        assert history.total_train_seconds() + history.total_eval_seconds() \
            <= history.total_seconds()

    def test_reproducible_histories(self, tiny_dataset, tiny_graph, tiny_split):
        losses = []
        for _ in range(2):
            config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                                 num_train_negatives=8, lambda_aug=0.0)
            model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                          config, seed=3)
            history = Trainer(model, tiny_split,
                              TrainConfig(epochs=2, patience=2, seed=9,
                                          num_eval_negatives=30)).fit()
            losses.append(history.train_losses())
        assert np.allclose(losses[0], losses[1], rtol=1e-5)

    def test_same_seed_fits_are_bitwise_identical(self, tiny_dataset, tiny_graph,
                                                  tiny_split):
        # Full MISSL (dropout, SSL and augmentation contrasts on): the CSR
        # kernels add in a fixed order, so a rerun repeats every bit.
        runs = []
        for _ in range(2):
            config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                                 num_train_negatives=8)
            model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                          config, seed=3)
            history = Trainer(model, tiny_split,
                              TrainConfig(epochs=2, patience=2, seed=9,
                                          num_eval_negatives=30)).fit()
            runs.append((history.train_losses(),
                         [r.valid_metrics for r in history.records],
                         model.parameter_vector()))
        (losses_a, metrics_a, params_a), (losses_b, metrics_b, params_b) = runs
        assert losses_a == losses_b
        assert metrics_a == metrics_b
        np.testing.assert_array_equal(params_a, params_b)


class TestHistory:
    def test_accessors(self):
        history = History()
        history.append(EpochRecord(epoch=0, train_loss=1.0,
                                   valid_metrics={"NDCG@10": 0.2}, seconds=1.5))
        history.append(EpochRecord(epoch=1, train_loss=0.5,
                                   valid_metrics={"NDCG@10": 0.3}, seconds=1.0))
        assert history.train_losses() == [1.0, 0.5]
        assert history.metric_curve("NDCG@10") == [0.2, 0.3]
        assert history.total_seconds() == pytest.approx(2.5)
        assert np.isnan(history.metric_curve("missing")[0])


class TestCheckpointing:
    def test_best_checkpoint_written(self, tiny_dataset, tiny_graph, tiny_split,
                                     tmp_path):
        from repro.core import MISSL, MISSLConfig
        from repro.nn import load_checkpoint
        config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                             num_train_negatives=8, lambda_aug=0.0)
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=0)
        path = tmp_path / "best.npz"
        trainer = Trainer(model, tiny_split,
                          TrainConfig(epochs=2, patience=2, num_eval_negatives=30,
                                      checkpoint_path=str(path)))
        history = trainer.fit()
        assert path.exists()
        clone = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=99)
        extra = load_checkpoint(clone, path)
        assert extra["epoch"] == history.best_epoch
        for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                      clone.named_parameters()):
            assert np.allclose(pa.numpy(), pb.numpy()), na

    def test_run_manifest_written_next_to_checkpoint(self, tiny_dataset,
                                                     tiny_graph, tiny_split,
                                                     tmp_path):
        import json

        from repro.core import MISSL, MISSLConfig
        config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                             num_train_negatives=8, lambda_aug=0.0)
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=0)
        path = tmp_path / "best.npz"
        history = Trainer(model, tiny_split,
                          TrainConfig(epochs=2, patience=2, seed=4,
                                      num_eval_negatives=30,
                                      checkpoint_path=str(path))).fit()
        manifest_path = tmp_path / "best.npz.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["seed"] == 4
        assert manifest["config"]["epochs"] == 2
        assert manifest["metrics"]["best_epoch"] == history.best_epoch
        assert manifest["metrics"]["best_metric"] == pytest.approx(
            history.best_metric)
        assert manifest["extra"]["model"] == "MISSL"

    def test_no_manifest_without_checkpoint_path(self, small_model, tiny_split,
                                                 tmp_path):
        Trainer(small_model, tiny_split,
                TrainConfig(epochs=1, patience=1, num_eval_negatives=30)).fit()
        assert not list(tmp_path.glob("*.manifest.json"))


class TestLRSchedules:
    @pytest.mark.parametrize("schedule", ["warmup_cosine", "step"])
    def test_schedule_drives_lr(self, tiny_dataset, tiny_graph, tiny_split, schedule):
        from repro.core import MISSL, MISSLConfig
        config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                             num_train_negatives=8, lambda_aug=0.0)
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=0)
        history = Trainer(model, tiny_split,
                          TrainConfig(epochs=3, patience=3, num_eval_negatives=30,
                                      lr_schedule=schedule, warmup_epochs=1,
                                      step_size=2)).fit()
        lrs = [r.learning_rate for r in history.records]
        assert len(set(lrs)) > 1  # the learning rate actually moved

    def test_constant_is_default(self, tiny_dataset, tiny_graph, tiny_split):
        from repro.core import MISSL, MISSLConfig
        config = MISSLConfig(dim=16, num_interests=2, max_len=20,
                             num_train_negatives=8, lambda_aug=0.0)
        model = MISSL(tiny_dataset.num_items, tiny_dataset.schema, tiny_graph,
                      config, seed=0)
        history = Trainer(model, tiny_split,
                          TrainConfig(epochs=2, patience=2,
                                      num_eval_negatives=30)).fit()
        lrs = {r.learning_rate for r in history.records}
        assert len(lrs) == 1

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_schedule="cyclic")
