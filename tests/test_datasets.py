"""Tests for the synthetic NMNIST / DVS-Gesture dataset generators."""

import numpy as np
import pytest

from repro.events import (
    GESTURE_NAMES,
    EventDataset,
    EventSample,
    EventStream,
    ShardedDataset,
    SyntheticDVSGesture,
    SyntheticNMNIST,
)


class TestSyntheticNMNIST:
    @pytest.fixture(scope="class")
    def dataset(self):
        return SyntheticNMNIST(size=34, n_steps=24).generate(n_per_class=2, seed=0)

    def test_balanced_classes(self, dataset):
        labels = dataset.labels()
        assert len(dataset) == 20
        assert all((labels == d).sum() == 2 for d in range(10))

    def test_sample_envelope(self, dataset):
        assert all(s.stream.shape == (24, 2, 34, 34) for s in dataset.samples)

    def test_samples_are_nonempty(self, dataset):
        assert all(len(s.stream) > 0 for s in dataset.samples)

    def test_activity_is_sparse(self, dataset):
        # The accelerator's premise: event data is highly sparse (<15%).
        assert dataset.mean_activity() < 0.15

    def test_deterministic(self):
        gen = SyntheticNMNIST(size=20, n_steps=12, scale=2)
        a = gen.make_sample(3, seed=42)
        b = gen.make_sample(3, seed=42)
        assert a.stream == b.stream

    def test_different_seeds_differ(self):
        gen = SyntheticNMNIST(size=20, n_steps=12, scale=2)
        assert gen.make_sample(3, seed=1).stream != gen.make_sample(3, seed=2).stream

    def test_rejects_bad_digit(self):
        with pytest.raises(ValueError, match="digit"):
            SyntheticNMNIST(size=20, scale=2).make_sample(10, seed=0)

    def test_rejects_glyph_overflow(self):
        with pytest.raises(ValueError, match="fit"):
            SyntheticNMNIST(size=14, scale=4).make_sample(0, seed=0)

    def test_rejects_tiny_sensor(self):
        with pytest.raises(ValueError, match="size"):
            SyntheticNMNIST(size=8)

    def test_classes_are_visually_distinct(self):
        # Time-collapsed spatial histograms of different digits must differ;
        # otherwise the accuracy benchmark would be meaningless.
        gen = SyntheticNMNIST(size=24, n_steps=16, scale=2)
        maps = []
        for digit in (0, 1):
            acc = np.zeros((24, 24))
            for i in range(3):
                acc += gen.make_sample(digit, seed=i).stream.to_dense().sum((0, 1))
            maps.append(acc / acc.sum())
        overlap = np.minimum(maps[0], maps[1]).sum()
        assert overlap < 0.9


class TestSyntheticDVSGesture:
    @pytest.fixture(scope="class")
    def generator(self):
        return SyntheticDVSGesture(size=32, n_steps=24)

    def test_eleven_classes(self, generator):
        assert generator.n_classes == 11 == len(GESTURE_NAMES)

    def test_all_classes_generate(self, generator):
        for label in range(11):
            sample = generator.make_sample(label, seed=0)
            assert len(sample.stream) > 0
            assert sample.label == label

    def test_envelope(self, generator):
        s = generator.make_sample(0, seed=0)
        assert s.stream.shape == (24, 2, 32, 32)

    def test_activity_in_paper_regime(self):
        # DVS-Gesture activity observed by the paper: roughly 1-5%.
        gen = SyntheticDVSGesture(size=32, n_steps=32)
        data = gen.generate(n_per_class=1, seed=1)
        lo, hi = data.activity_range()
        assert 0.001 < lo and hi < 0.25

    def test_deterministic(self, generator):
        assert generator.make_sample(4, 9).stream == generator.make_sample(4, 9).stream

    def test_rejects_bad_label(self, generator):
        with pytest.raises(ValueError, match="label"):
            generator.make_sample(11, seed=0)

    def test_clockwise_vs_counterclockwise_differ(self, generator):
        cw = generator.make_sample(3, seed=5).stream.to_dense()
        ccw = generator.make_sample(4, seed=5).stream.to_dense()
        assert not np.array_equal(cw, ccw)


@pytest.mark.parametrize("generator_cls", [SyntheticNMNIST, SyntheticDVSGesture])
@pytest.mark.parametrize("n_steps", [0, -3])
def test_nonpositive_n_steps_rejected(generator_cls, n_steps):
    with pytest.raises(ValueError, match="n_steps must be positive"):
        generator_cls(size=34, n_steps=n_steps)


class TestEventDataset:
    def make_dataset(self, n=30):
        stream = EventStream([0], [0], [0], [0], (2, 1, 2, 2))
        samples = [EventSample(stream, label=i % 3) for i in range(n)]
        return EventDataset(samples, n_classes=3)

    def test_split_fractions(self):
        train, val, test = self.make_dataset(20).split((0.75, 0.10, 0.15), seed=0)
        assert (len(train), len(val), len(test)) == (15, 2, 3)

    def test_split_partitions_all_samples(self):
        ds = self.make_dataset(23)
        parts = ds.split((0.65, 0.10, 0.25), seed=1)
        assert sum(len(p) for p in parts) == 23

    def test_split_rejects_bad_fractions(self):
        with pytest.raises(ValueError, match="sum to 1"):
            self.make_dataset().split((0.5, 0.2, 0.2))

    def test_split_is_deterministic(self):
        ds = self.make_dataset()
        a = ds.split((0.6, 0.2, 0.2), seed=7)[0].labels()
        b = ds.split((0.6, 0.2, 0.2), seed=7)[0].labels()
        assert np.array_equal(a, b)

    def test_to_dense_batch(self):
        dense, labels = self.make_dataset(4).to_dense_batch()
        assert dense.shape == (4, 2, 1, 2, 2)
        assert labels.shape == (4,)

    def test_to_dense_batch_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            EventDataset([], 3).to_dense_batch()

    def test_activity_helpers(self):
        ds = self.make_dataset(5)
        lo, hi = ds.activity_range()
        assert lo == hi == pytest.approx(1 / 8)
        assert ds.mean_activity() == pytest.approx(1 / 8)


class TestShardedDataset:
    def make_dataset(self, n_per_class=2, seed=3):
        return SyntheticDVSGesture(size=16, n_steps=6).generate(
            n_per_class=n_per_class, seed=seed
        )

    def test_shards_partition_the_dataset(self):
        data = self.make_dataset()
        sharded = ShardedDataset(data, 4)
        assert len(sharded) == 4
        assert sum(sharded.counts()) == len(data)
        seen = [id(s) for shard in sharded for s in shard.samples]
        assert len(seen) == len(data)
        for shard in sharded.shards():
            assert shard.n_classes == data.n_classes

    def test_assignment_is_content_hashed_not_positional(self):
        data = self.make_dataset()
        sharded = ShardedDataset(data, 3)
        # Reversing the sample order must not move any sample between
        # shards: membership is a pure function of event content.
        reversed_ds = EventDataset(list(reversed(data.samples)),
                                   data.n_classes, data.name)
        resharded = ShardedDataset(reversed_ds, 3)
        for sample in data.samples:
            assert sharded.shard_of(sample) == resharded.shard_of(sample)

    def test_shard_naming_and_bounds(self):
        data = self.make_dataset(n_per_class=1)
        sharded = ShardedDataset(data, 2)
        assert sharded.shard(0).name == f"{data.name}-shard0of2"
        with pytest.raises(IndexError):
            sharded.shard(2)
        with pytest.raises(ValueError):
            ShardedDataset(data, 0)

    def test_shard_job_subtrees_compose_in_one_store(self, tmp_path):
        """The roadmap acceptance: per-shard sample_eval runs fill the
        same store entries a whole-dataset run replays (>=90% hits)."""
        from repro.hw import PAPER_CONFIG, HardwareEvaluator, compile_network
        from repro.runtime import ResultStore, run_jobs
        from repro.snn import build_small_network

        data = self.make_dataset(n_per_class=1, seed=5)
        net = build_small_network(input_size=16, n_classes=data.n_classes,
                                  channels=4, hidden=16, seed=4)
        evaluator = HardwareEvaluator(
            compile_network(net, (2, 16, 16)), PAPER_CONFIG.with_slices(2)
        )
        store = ResultStore(tmp_path)
        for shard in ShardedDataset(data, 3):
            if len(shard):
                run_jobs(evaluator.sample_jobs(shard), cache=store)
        whole = run_jobs(evaluator.sample_jobs(data),
                         cache=ResultStore(tmp_path))
        assert whole.hit_rate >= 0.9
        assert whole.misses == 0
