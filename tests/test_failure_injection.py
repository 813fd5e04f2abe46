"""Failure injection: the stack must fail loudly on corrupted inputs.

A deployment flow moves data through several representations (float
weights -> integer programs -> memory words -> events); each boundary
here is attacked with a malformed artefact and must raise a diagnostic
error instead of silently mis-computing.
"""

import numpy as np
import pytest

from repro.events import (
    DEFAULT_FORMAT,
    EventStream,
    decode_updates,
    encode_inference,
)
from repro.hw import (
    SNE,
    LayerGeometry,
    LayerKind,
    LayerProgram,
    MainMemory,
    RegisterFile,
    SNEConfig,
    Slice,
)
from repro.snn import EConv2d, LIFDynamics, LIFParams


def conv_program(**kwargs):
    defaults = dict(threshold=4, leak=1)
    defaults.update(kwargs)
    g = LayerGeometry(LayerKind.CONV, 2, 8, 8, 4, 8, 8, kernel=3, padding=1)
    w = np.random.default_rng(0).integers(-2, 3, (4, 2, 3, 3))
    return LayerProgram(g, w, **defaults)


class TestCorruptedMemoryImages:
    def test_flipped_op_bits_detected(self):
        stream = EventStream([0], [0], [1], [1], (2, 1, 4, 4))
        words = encode_inference(stream)
        corrupted = words.copy()
        corrupted[0] |= np.uint32(0b11 << 30)  # op -> 3 (undefined)
        with pytest.raises(ValueError, match="invalid op"):
            decode_updates(corrupted, stream.shape)

    def test_decoded_event_outside_plane_detected(self):
        # Craft a word whose x coordinate exceeds the target envelope.
        word = DEFAULT_FORMAT.pack(1, t=0, ch=0, x=200, y=0)
        with pytest.raises(ValueError, match="out of bounds"):
            decode_updates(np.array([word], dtype=np.uint32), (1, 1, 4, 4))

    def test_memory_image_window_out_of_range(self):
        memory = MainMemory(8)
        with pytest.raises(ValueError, match="outside"):
            memory.load_image(6, np.zeros(4, dtype=np.uint32))


class TestMalformedPrograms:
    def test_weight_overflow_rejected_at_configure(self):
        program = conv_program()
        object.__setattr__(program, "weights", np.full((4, 2, 3, 3), 9))
        sl = Slice(SNEConfig(n_slices=1))
        with pytest.raises(ValueError, match="range"):
            sl.configure(program, 0, 64)

    def test_stream_envelope_mismatch_rejected(self):
        program = conv_program()
        wrong = EventStream.empty((4, 3, 8, 8))  # 3 channels, layer has 2
        with pytest.raises(ValueError, match="envelope"):
            SNE(SNEConfig(n_slices=1)).run_layer(program, wrong)

    def test_unreachable_threshold_rejected_at_export(self):
        from repro.hw import compile_layer

        layer = EConv2d(
            2, 4, dynamics=LIFDynamics(LIFParams(threshold=500.0, leak=0.0))
        )
        layer.weight.value *= 1e-3  # tiny weights -> tiny scale -> huge th_int
        with pytest.raises(ValueError, match="ceiling"):
            compile_layer(layer, (2, 8, 8))

    def test_negative_interval_rejected(self):
        sl = Slice(SNEConfig(n_slices=1))
        with pytest.raises(ValueError, match="interval"):
            sl.configure(conv_program(), 64, 0)


class TestProtocolViolations:
    def test_time_unsorted_event_feed_rejected(self):
        """Feeding an event older than the cluster TLU is a protocol
        violation the hardware model must refuse (the DMA's linear
        layout guarantees sorted time in the real system)."""
        sl = Slice(SNEConfig(n_slices=1))
        sl.configure(conv_program(), 0, 64)
        sl.process_update(5, 0, 4, 4)
        with pytest.raises(ValueError, match="time-sorted"):
            sl.process_update(3, 0, 4, 4)

    def test_time_unsorted_batched_feed_rejected(self):
        """The kernel path refuses the same violation: once per plan
        against the stacked TLU registers, and in the packed fire scan."""
        from repro.hw import SliceStack, fanout_table, resolve_kernel

        ks = resolve_kernel("numpy")
        prog = conv_program()
        cfg = SNEConfig(n_slices=1)
        sl = Slice(cfg)
        sl.configure(prog, 0, 64)
        sl.process_update(5, 0, 4, 4)
        stack = SliceStack(cfg, prog, 0, 64, state=sl.state, tlus=sl.tlus,
                           counters=sl.counters)
        entries = fanout_table(prog).gather(np.array([0]), np.array([4]), np.array([4]))
        with pytest.raises(ValueError, match="time-sorted"):
            stack.plan(entries, np.array([3], dtype=np.int64),
                       np.zeros(1, dtype=np.int64), 3, 1, ks)
        with pytest.raises(ValueError, match="time-sorted"):
            stack.fire(3, ks)

    def test_register_write_to_unmapped_slice(self):
        rf = RegisterFile(n_slices=2)
        with pytest.raises(ValueError, match="register space"):
            rf.write(rf.map.SLICE_STRIDE * 2, 1)

    def test_weight_port_without_set_selection_uses_set_zero(self):
        # Not an error — but the auto-increment must start at the
        # programmed address, so a missing WEIGHT_ADDR write means
        # continuing from the previous stream (documented behaviour).
        rf = RegisterFile(1, n_filter_sets=2, weights_per_set=4)
        rf.program_weights(0, 0, np.array([1, 2]))
        rf.write(rf.slice_addr(0, rf.map.WEIGHT_DATA), 3)  # continues at addr 2
        assert list(rf.weights(0, 0)[:3]) == [1, 2, 3]

    def test_weight_port_overrun_rejected(self):
        rf = RegisterFile(1, n_filter_sets=1, weights_per_set=2)
        rf.program_weights(0, 0, np.array([1, 2]))
        with pytest.raises(ValueError, match="weight address"):
            rf.write(rf.slice_addr(0, rf.map.WEIGHT_DATA), 3)


class TestResourceExhaustion:
    def test_pipelined_mode_overflow_is_diagnosed(self):
        programs = [conv_program() for _ in range(3)]  # 3 x 256 outputs
        stream = EventStream.empty((2, 2, 8, 8))
        with pytest.raises(ValueError, match="slices"):
            # Each conv layer here consumes one slice; only 2 available —
            # and chaining identical geometries is itself invalid, but
            # the capacity check fires first.
            SNE(SNEConfig(n_slices=2)).run_network_pipelined(programs, stream)

    def test_filter_buffer_capacity_enforced_under_paper_config(self):
        g = LayerGeometry(LayerKind.CONV, 257, 2, 2, 1, 2, 2, kernel=1)
        program = LayerProgram(
            g, np.ones((1, 257, 1, 1), dtype=np.int64), threshold=1, leak=0
        )
        with pytest.raises(ValueError, match="filter buffer"):
            program.validate_for(SNEConfig())
