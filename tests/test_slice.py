"""Tests for the slice model: dispatch, gating, fire scan, accounting."""

import numpy as np
import pytest

from repro.hw import LayerGeometry, LayerKind, LayerProgram, SNEConfig, Slice


def small_program(out_channels=1, plane=8, threshold=4, leak=0, weight=2):
    g = LayerGeometry(
        LayerKind.CONV, 1, plane, plane, out_channels, plane, plane,
        kernel=3, stride=1, padding=1,
    )
    w = np.full((out_channels, 1, 3, 3), weight, dtype=np.int64)
    return LayerProgram(g, w, threshold=threshold, leak=leak)


def make_slice(config=None):
    return Slice(config or SNEConfig(n_slices=1), slice_idx=0)


class TestConfigure:
    def test_requires_program_before_events(self):
        sl = make_slice()
        with pytest.raises(RuntimeError, match="not configured"):
            sl.process_update(0, 0, 0, 0)

    def test_rejects_oversized_interval(self):
        sl = make_slice()
        with pytest.raises(ValueError, match="holds"):
            sl.configure(small_program(), 0, 2000)

    def test_configure_resets_state_and_stats(self):
        sl = make_slice()
        prog = small_program()
        sl.configure(prog, 0, 64)
        sl.process_update(0, 0, 4, 4)
        sl.configure(prog, 0, 64)
        assert sl.stats.update_events == 0
        assert sl.membrane_snapshot().max() == 0


class TestUpdateDispatch:
    def test_update_costs_the_sequencer_window(self):
        cfg = SNEConfig(n_slices=1)
        sl = make_slice(cfg)
        sl.configure(small_program(), 0, 64)
        cycles = sl.process_update(0, 0, 4, 4)
        assert cycles == cfg.cycles_per_event

    def test_sops_count_receptive_field(self):
        sl = make_slice()
        sl.configure(small_program(plane=8), 0, 64)
        sl.process_update(0, 0, 4, 4)  # interior event: 3x3 window...
        # ...but only neurons inside [0, 64) = rows 0..7 of an 8x8 plane
        assert sl.stats.sops == 9

    def test_events_outside_interval_are_filtered(self):
        sl = make_slice()
        prog = small_program(plane=16)  # 256 outputs, keep first 64
        sl.configure(prog, 0, 64)
        # Event at bottom-right: its receptive field lies in rows 14-15,
        # linear indices >= 14*16 = 224, all outside [0, 64).
        sl.process_update(0, 0, 15, 15)
        assert sl.stats.sops == 0

    def test_gating_counted_for_untouched_clusters(self):
        cfg = SNEConfig(n_slices=1)
        sl = make_slice(cfg)
        sl.configure(small_program(plane=8), 0, 64)  # only cluster 0 used
        sl.process_update(0, 0, 4, 4)
        gated = [c.stats.events_gated for c in sl.clusters]
        assert gated[0] == 0 and all(g == 1 for g in gated[1:])

    def test_sequencer_overrun_accounted(self):
        # 64 output channels of a 1x1 plane: one event updates 64 neurons
        # in ... different clusters; force same cluster with a dense layer.
        g = LayerGeometry(LayerKind.DENSE, 1, 1, 1, 64, 1, 1)
        w = np.ones((64, 1), dtype=np.int64)
        prog = LayerProgram(g, w, threshold=10, leak=0)
        cfg = SNEConfig(n_slices=1, cycles_per_event=48)
        sl = make_slice(cfg)
        sl.configure(prog, 0, 64)
        cycles = sl.process_update(0, 0, 0, 0)  # 64 updates in one cluster
        assert cycles == 48 + 16
        assert sl.stats.sequencer_overrun_cycles == 16


class TestFire:
    def test_fire_emits_absolute_coordinates(self):
        sl = make_slice()
        sl.configure(small_program(plane=8, threshold=2, weight=3), 0, 64)
        sl.process_update(0, 0, 3, 2)  # rows 1..3, cols 2..4 get +3
        events, cycles = sl.process_fire(0)
        assert cycles == sl.config.cycles_per_fire
        assert len(events) == 9
        ts, chs, xs, ys = zip(*events)
        assert set(ts) == {0} and set(chs) == {0}
        assert set(ys) == {1, 2, 3} and set(xs) == {2, 3, 4}

    def test_fire_respects_threshold(self):
        sl = make_slice()
        sl.configure(small_program(threshold=4, weight=3), 0, 64)
        sl.process_update(0, 0, 4, 4)
        events, _ = sl.process_fire(0)
        assert events == []  # 3 < 4

    def test_fire_applies_leak(self):
        sl = make_slice()
        sl.configure(small_program(threshold=3, leak=1, weight=3), 0, 64)
        sl.process_update(0, 0, 4, 4)
        events, _ = sl.process_fire(1)  # one elapsed step: 3 - 1 = 2 < 3
        assert events == []

    def test_multi_channel_coordinates(self):
        cfg = SNEConfig(n_slices=1)
        sl = make_slice(cfg)
        prog = small_program(out_channels=2, plane=4, threshold=1, weight=3)
        sl.configure(prog, 0, 32)
        sl.process_update(0, 0, 2, 2)
        events, _ = sl.process_fire(0)
        chs = {e[1] for e in events}
        assert chs == {0, 1}

    def test_fifo_stalls_on_dense_fire_burst(self):
        # 1024 neurons all firing in one step overwhelm the 64-cycle
        # drain window plus the shallow FIFOs: the scan must stall.
        cfg = SNEConfig(n_slices=1, cluster_fifo_depth=1)
        sl = make_slice(cfg)
        sl.configure(small_program(plane=16, out_channels=4, threshold=1, weight=7), 0, 1024)
        for x in range(16):
            for y in range(16):
                sl.process_update(0, 0, x, y)
        events, cycles = sl.process_fire(0)
        assert len(events) == 1024
        assert sl.stats.fifo_stall_cycles > 0
        assert cycles > cfg.cycles_per_fire

    def test_reset_then_fire_is_silent(self):
        sl = make_slice()
        sl.configure(small_program(threshold=1, weight=7), 0, 64)
        sl.process_update(0, 0, 4, 4)
        sl.process_reset(0)
        events, _ = sl.process_fire(0)
        assert events == []


class TestAccounting:
    def test_busy_cycles_accumulate(self):
        cfg = SNEConfig(n_slices=1)
        sl = make_slice(cfg)
        sl.configure(small_program(), 0, 64)
        sl.process_reset(0)
        sl.process_update(0, 0, 4, 4)
        sl.process_fire(0)
        expected = cfg.cycles_per_reset + cfg.cycles_per_event + cfg.cycles_per_fire
        assert sl.stats.busy_cycles == expected

    def test_utilization_between_zero_and_one(self):
        sl = make_slice()
        sl.configure(small_program(), 0, 64)
        sl.process_update(0, 0, 4, 4)
        assert 0.0 < sl.utilization() <= 1.0

    def test_gated_plus_active_equals_total(self):
        cfg = SNEConfig(n_slices=1)
        sl = make_slice(cfg)
        sl.configure(small_program(), 0, 64)
        sl.process_update(0, 0, 4, 4)
        s = sl.stats
        total = cfg.clusters_per_slice * cfg.cycles_per_event
        assert s.active_cluster_cycles + s.gated_cluster_cycles == total


class TestLazyClusters:
    def test_clusters_built_after_a_run_keep_its_state(self):
        """The kernel path never builds the Cluster views; building them
        afterwards must adopt the membranes, TLUs and counters as left."""
        from repro.events import EventStream
        from repro.hw import SNE

        prog = small_program(plane=8, threshold=100, leak=1, weight=2)
        dense = np.zeros((5, 1, 8, 8), dtype=np.uint8)
        dense[3, 0, 2:6, 2:6] = 1
        sne = SNE(SNEConfig(n_slices=1))
        sne.run_layer(prog, EventStream.from_dense(dense), kernel="numpy")
        sl = sne.slices[0]
        assert sl._clusters is None
        state, tlus, counters = sl.state.copy(), sl.tlus.copy(), sl.counters.copy()
        assert state.any() and tlus.any()
        clusters = sl.clusters
        assert len(clusters) == sl.config.clusters_per_slice
        for i, cluster in enumerate(clusters):
            assert np.array_equal(cluster.state, state[i])
            assert cluster.tlu == tlus[i]
            assert cluster.stats.updates == counters[i, 0]
        assert np.array_equal(sl.state, state)
        assert np.array_equal(sl.tlus, tlus)
        assert np.array_equal(sl.counters, counters)
