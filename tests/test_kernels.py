"""Kernel registry, three-way parity matrix, fanout memo and job-hash
isolation for the compiled SNE kernels (``repro.hw.kernels``).

The contract under test: every kernel choice — the per-event
``reference``, the ``numpy`` shim, and ``numba`` (which falls back to
numpy with a warning when numba is absent) — produces bit-identical
outputs, statistics, activity traces and membrane state on
``run_layer``, ``run_network`` and ``run_network_pipelined``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.events import EventStream
from repro.hw import (
    SNE,
    ActivityTrace,
    BatchStats,
    EventBatch,
    LayerGeometry,
    LayerKind,
    LayerProgram,
    SNEConfig,
    fanout_table,
    fuzz_kernel_batches,
    fuzz_kernels,
    program_content_hash,
    random_kernel_batch,
    random_kernel_case,
    run_kernel_batch,
    run_kernel_case,
    sat_add,
)
from repro.hw import mapper as mapper_mod
from repro.hw import kernels as kernels_mod
from repro.hw.kernels import (
    KERNEL_CHOICES,
    KernelSet,
    available_kernels,
    default_kernel,
    kernel_summary,
    resolve_kernel,
)

#: The matrix column under test.  "numba" is always included: without
#: numba installed it exercises the warn-once numpy fallback, which must
#: itself stay bit-identical.
MATRIX = ("reference", "numpy", "numba")

pytestmark = pytest.mark.filterwarnings(
    "ignore:kernel 'numba' unavailable:RuntimeWarning"
)


def conv_program(c_in=2, c_out=4, plane=8, threshold=4, leak=1, seed=0):
    rng = np.random.default_rng(seed)
    g = LayerGeometry(
        LayerKind.CONV, c_in, plane, plane, c_out, plane, plane,
        kernel=3, stride=1, padding=1,
    )
    w = rng.integers(-3, 4, (c_out, c_in, 3, 3))
    return LayerProgram(g, w, threshold=threshold, leak=leak)


def sparse_stream(shape=(6, 2, 8, 8), density=0.1, seed=0):
    rng = np.random.default_rng(seed)
    return EventStream.from_dense((rng.random(shape) < density).astype(np.uint8))


def two_layer_network(seed=1):
    """conv -> dense classifier, fitting two slices for pipelined mode."""
    p1 = conv_program(c_in=1, c_out=1, plane=8, threshold=2, leak=0, seed=seed)
    g2 = LayerGeometry(LayerKind.DENSE, 1, 8, 8, 10, 1, 1)
    w2 = np.random.default_rng(seed + 1).integers(-3, 4, (10, 64))
    return [p1, LayerProgram(g2, w2, threshold=3, leak=0)]


def run_snapshot(sne, out, stats, trace=None):
    """Everything the parity contract compares, in one structure."""
    return {
        "out": out,
        "stats": dataclasses.asdict(stats),
        "membranes": [sl.membrane_snapshot() for sl in sne.slices],
        "trace": None if trace is None else trace.steps,
    }


def assert_identical(got, ref, label):
    assert got["out"] == ref["out"], f"{label}: outputs diverged"
    assert got["stats"] == ref["stats"], f"{label}: stats diverged"
    for m_got, m_ref in zip(got["membranes"], ref["membranes"]):
        assert np.array_equal(m_got, m_ref), f"{label}: membranes diverged"
    assert got["trace"] == ref["trace"], f"{label}: traces diverged"


class TestKernelRegistry:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("bogus")

    def test_reference_resolves_to_none(self):
        assert resolve_kernel("reference") is None

    def test_auto_resolves_to_default(self):
        ks = resolve_kernel("auto")
        assert isinstance(ks, KernelSet)
        caps = available_kernels()
        # auto prefers numba; without numba it must be the numpy shim.
        if caps["kernels"]["numba"]["available"]:
            assert ks.name == "numba"
        else:
            assert ks.name == "numpy"
        assert caps["auto"] == default_kernel()

    def test_available_kernels_shape(self):
        caps = available_kernels()
        assert set(caps) == {"auto", "kernels"}
        assert set(caps["kernels"]) == {"numba", "numpy", "reference"}
        for cap in caps["kernels"].values():
            assert set(cap) == {"available", "detail"}
        assert caps["kernels"]["numpy"]["available"] is True
        assert caps["kernels"]["reference"]["available"] is True

    def test_kernel_summary_names_auto(self):
        line = kernel_summary()
        assert "numpy" in line
        assert f"auto->{default_kernel()}" in line

    def test_choices_cover_registry(self):
        assert set(KERNEL_CHOICES) == {"auto", "numba", "numpy", "reference"}

    def test_numba_fallback_warns_once(self, monkeypatch):
        caps = available_kernels()["kernels"]
        if caps["numba"]["available"]:
            pytest.skip("numba installed: the fallback path is unreachable")
        # Fresh per-process caches so the warn-once contract is observable.
        monkeypatch.setattr(kernels_mod, "_RESOLVED", {})
        monkeypatch.setattr(kernels_mod, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="kernel 'numba' unavailable"):
            ks = resolve_kernel("numba")
        assert ks.name == "numpy"  # degraded, not crashed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("numba").name == "numpy"  # silent now


class TestRunLayerParity:
    def test_fuzz_matrix_run_layer(self):
        """Adversarial fuzz draws, every kernel vs the reference."""
        for seed in range(16):
            case = random_kernel_case(seed)
            cfg = SNEConfig(n_slices=case.n_slices)
            ref = None
            for kernel in MATRIX:
                sne = SNE(cfg)
                trace = ActivityTrace()
                out, stats = sne.run_layer(case.program, case.stream,
                                           trace=trace, kernel=kernel)
                snap = run_snapshot(sne, out, stats, trace)
                if ref is None:
                    ref = snap
                else:
                    assert_identical(snap, ref, f"seed {seed}, {kernel}")

    def test_forced_saturation_parity(self):
        """Full-rail weights clip mid-step; the serial-replay path of
        every kernel must reproduce the per-event clipping exactly."""
        g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 32, 1, 1)
        w = np.full((32, 4), 7, dtype=np.int64)
        w[16:] = -7
        prog = LayerProgram(g, w, threshold=1000, leak=0)  # never fires
        stream = EventStream.from_dense(np.ones((6, 1, 2, 2), dtype=np.uint8))
        cfg = SNEConfig(n_slices=1)
        ref = None
        for kernel in MATRIX:
            sne = SNE(cfg)
            out, stats = sne.run_layer(prog, stream, kernel=kernel)
            snap = run_snapshot(sne, out, stats)
            if ref is None:
                ref = snap
            else:
                assert_identical(snap, ref, kernel)
        assert any((m == 127).any() or (m == -128).any()
                   for m in ref["membranes"])  # the rails were really hit

    def test_multi_pass_parity(self):
        """More outputs than one slice holds: the TDM pass loop replays
        the stream per pass on every kernel identically."""
        g = LayerGeometry(LayerKind.DENSE, 1, 3, 3, 1100, 1, 1)
        w = np.random.default_rng(7).integers(-4, 5, (1100, 9))
        prog = LayerProgram(g, w, threshold=3, leak=1)
        stream = sparse_stream(shape=(5, 1, 3, 3), density=0.5, seed=7)
        cfg = SNEConfig(n_slices=1)
        outs, stats = {}, {}
        for kernel in MATRIX:
            outs[kernel], s = SNE(cfg).run_layer(prog, stream, kernel=kernel)
            stats[kernel] = dataclasses.asdict(s)
        assert stats["reference"]["passes"] > 1
        for kernel in MATRIX[1:]:
            assert outs[kernel] == outs["reference"]
            assert stats[kernel] == stats["reference"]

    def test_stat_counters_stay_plain_ints(self):
        """JSON/cache contract: kernels must not leak numpy scalar types."""
        case = random_kernel_case(1)
        for kernel in MATRIX:
            _, stats = SNE(SNEConfig(n_slices=case.n_slices)).run_layer(
                case.program, case.stream, kernel=kernel
            )
            for k, v in dataclasses.asdict(stats).items():
                if k == "per_layer":
                    continue
                assert type(v) in (int, float), f"{kernel}: {k} is {type(v)}"


class TestNetworkParity:
    def test_run_network_matrix(self):
        programs = two_layer_network()
        stream = sparse_stream(shape=(5, 1, 8, 8), seed=5)
        cfg = SNEConfig(n_slices=2)
        ref = None
        for kernel in MATRIX:
            sne = SNE(cfg)
            out, stats = sne.run_network(programs, stream, kernel=kernel)
            snap = run_snapshot(sne, out, stats)
            if ref is None:
                ref = snap
            else:
                assert_identical(snap, ref, kernel)

    def test_run_network_pipelined_matrix(self):
        """Layer-parallel mode: the packed fire->next-layer hop must be
        bit-identical to the reference tuple hop."""
        programs = two_layer_network()
        for seed in (5, 6, 7):
            stream = sparse_stream(shape=(5, 1, 8, 8), density=0.15, seed=seed)
            cfg = SNEConfig(n_slices=2)
            ref = None
            for kernel in MATRIX:
                sne = SNE(cfg)
                out, stats = sne.run_network_pipelined(programs, stream,
                                                       kernel=kernel)
                snap = run_snapshot(sne, out, stats)
                if ref is None:
                    ref = snap
                else:
                    assert_identical(snap, ref, f"seed {seed}, {kernel}")

    def test_pipelined_matches_time_multiplexed_on_kernels(self):
        programs = two_layer_network()
        stream = sparse_stream(shape=(5, 1, 8, 8), seed=9)
        for kernel in ("numpy", "reference"):
            out_tm, _ = SNE(SNEConfig(n_slices=2)).run_network(
                programs, stream, kernel=kernel
            )
            out_pl, _ = SNE(SNEConfig(n_slices=2)).run_network_pipelined(
                programs, stream, kernel=kernel
            )
            assert out_tm == out_pl


@pytest.fixture
def numba_bodies(monkeypatch):
    """Route ``kernel="numba"`` to :mod:`numba_impl`'s kernels.

    Without numba, ``numba_impl._jit`` is the identity, so the kernel
    bodies run as plain Python through the same parity checks the numba
    CI leg runs compiled; with numba this is simply the jitted set.
    """
    from repro.hw.kernels import numba_impl

    ks = KernelSet(
        name="numba",
        assemble=numba_impl.assemble,
        plan=numba_impl.plan,
        accumulate=numba_impl.accumulate,
        dense_accumulate=numba_impl.dense_accumulate,
        fire_step=numba_impl.fire_step,
        detail="numba_impl bodies",
    )
    monkeypatch.setitem(kernels_mod._FACTORIES, "numba", lambda: ks)
    monkeypatch.setattr(kernels_mod, "_RESOLVED", {})
    return ks


class TestNumbaKernelBodies:
    """The numba kernels' own bodies against the per-event reference."""

    def test_numba_name_resolves_to_the_bodies(self, numba_bodies):
        assert resolve_kernel("numba") is numba_bodies

    def test_run_layer_fuzz_seeds(self, numba_bodies):
        for seed in range(8):
            case = random_kernel_case(seed)
            res = run_kernel_case(case, kernels=("numba",))
            assert res.matched, (seed, res.mismatches)

    def test_run_layer_trace_and_saturation(self, numba_bodies):
        g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 32, 1, 1)
        w = np.full((32, 4), 7, dtype=np.int64)
        w[16:] = -7
        prog = LayerProgram(g, w, threshold=1000, leak=0)
        stream = EventStream.from_dense(np.ones((6, 1, 2, 2), dtype=np.uint8))
        snaps = []
        for kernel in ("reference", "numba"):
            sne = SNE(SNEConfig(n_slices=1))
            trace = ActivityTrace()
            out, stats = sne.run_layer(prog, stream, trace=trace, kernel=kernel)
            snaps.append(run_snapshot(sne, out, stats, trace))
        assert_identical(snaps[1], snaps[0], "numba bodies")

    def test_multi_pass(self, numba_bodies):
        g = LayerGeometry(LayerKind.DENSE, 1, 3, 3, 1100, 1, 1)
        w = np.random.default_rng(7).integers(-4, 5, (1100, 9))
        prog = LayerProgram(g, w, threshold=3, leak=1)
        stream = sparse_stream(shape=(5, 1, 3, 3), density=0.5, seed=7)
        ref = SNE(SNEConfig(n_slices=1)).run_layer(prog, stream, kernel="reference")
        got = SNE(SNEConfig(n_slices=1)).run_layer(prog, stream, kernel="numba")
        assert ref[1].passes > 1
        assert got[0] == ref[0]
        assert dataclasses.asdict(got[1]) == dataclasses.asdict(ref[1])

    @pytest.mark.parametrize("mode", ["run_network", "run_network_pipelined"])
    def test_network_modes(self, numba_bodies, mode):
        programs = two_layer_network()
        for seed in (5, 6):
            stream = sparse_stream(shape=(5, 1, 8, 8), density=0.15, seed=seed)
            snaps = []
            for kernel in ("reference", "numba"):
                sne = SNE(SNEConfig(n_slices=2))
                out, stats = getattr(sne, mode)(programs, stream, kernel=kernel)
                snaps.append(run_snapshot(sne, out, stats))
            assert_identical(snaps[1], snaps[0], f"{mode}, seed {seed}")

    def test_batch_fuzz_seeds(self, numba_bodies):
        for seed in range(9):
            res = run_kernel_batch(random_kernel_batch(seed), kernels=("numba",))
            assert res.matched, (seed, res.mismatches)

    def test_plan_matches_numpy_plan(self):
        """Both plan kernels return the same arrays, field by field, on a
        two-sample stack (the stream twice, interleaved step by step)."""
        from repro.hw.kernels import numba_impl, numpy_impl

        for seed in range(8):
            case = random_kernel_case(seed)
            table = fanout_table(case.program)
            packed = table.packed()
            s = case.stream
            order = np.argsort(np.concatenate([s.t, s.t]), kind="stable")
            event_t = np.concatenate([s.t, s.t]).astype(np.int64)[order]
            event_sample = np.repeat([0, 1], len(s))[order]
            flat = np.concatenate([table.flat_ids(s.ch, s.x, s.y)] * 2)[order]
            entries = numpy_impl.assemble(packed.offsets, packed.idx, packed.w, flat)
            assert all(
                np.array_equal(a, b)
                for a, b in zip(entries, numba_impl.assemble(
                    packed.offsets, packed.idx, packed.w, flat))
            )
            n_out = case.program.geometry.n_outputs
            lo = n_out // 3
            sample_rows = -(-(n_out - lo) // 1024) * 16
            tlus = np.zeros(2 * sample_rows, dtype=np.int64)
            args = (*entries, event_t, event_sample * sample_rows, 0, s.n_steps,
                    tlus, lo, n_out - lo, 64, 16, 48)
            got, want = numba_impl.plan(*args), numpy_impl.plan(*args)
            assert len(got) == len(want) == 8
            for k, (a, b) in enumerate(zip(got, want)):
                assert np.array_equal(a, b), f"seed {seed}, field {k}"
                assert type(a) is type(b), f"seed {seed}, field {k}"
                assert np.asarray(a).dtype == np.asarray(b).dtype, f"seed {seed}, field {k}"


class TestAccumulateRails:
    """The numpy accumulate's one-add fast path never hides a clip."""

    # Entries in event order: (neuron, weight).
    ENTRIES = [(0, 10), (1, -1), (2, 5), (3, 3), (0, -10), (1, 1), (2, -5),
               (3, -2), (2, 5)]

    def start(self):
        return np.array([120, -128, 120, 10], dtype=np.int64)

    def serial(self, state):
        for i, dw in self.ENTRIES:
            state[i] = sat_add(state[i], dw, 8)
        return state

    @pytest.mark.parametrize("impl", ["numpy_impl", "numba_impl"])
    def test_both_rails_match_the_serial_chain(self, impl):
        from repro.hw.kernels import numba_impl, numpy_impl

        accumulate = {"numpy_impl": numpy_impl, "numba_impl": numba_impl}[impl].accumulate
        idx = np.array([e[0] for e in self.ENTRIES], dtype=np.int64)
        w = np.array([e[1] for e in self.ENTRIES], dtype=np.int64)
        state = self.start()
        accumulate(state, idx, w, -128, 127)
        # 120 +10 clips to 127, -10 recovers to 117; -128 -1 clips,
        # +1 gives -127; 120 +5 -5 +5 is at risk but never clips.
        assert state.tolist() == [117, -127, 125, 11]
        assert state.tolist() == self.serial(self.start()).tolist()

    def test_only_neurons_a_clip_could_reach_replay(self):
        from repro.hw.kernels import numpy_impl

        idx = np.array([e[0] for e in self.ENTRIES], dtype=np.int64)
        w = np.array([e[1] for e in self.ENTRIES], dtype=np.int64)
        total, risk = numpy_impl.at_risk(self.start(), idx, w, -128, 127)
        # Per entry: neurons 0-2 could clip, neuron 3 takes one add.
        assert risk.tolist() == [i != 3 for i in idx.tolist()]
        assert total.tolist() == [[0, 0, 5, 1][i] for i in idx.tolist()]


def dense_program(n_in=(1, 2, 2), n_out=32, low=-7, high=7, threshold=1000,
                  leak=0, seed=0):
    g = LayerGeometry(LayerKind.DENSE, *n_in, n_out, 1, 1)
    w = np.random.default_rng(seed).integers(low, high + 1, (n_out, g.n_inputs))
    return LayerProgram(g, w, threshold=threshold, leak=leak)


class TestDenseParity:
    """Dense layers update from their weight matrix, never from expanded
    entries: reference, numpy and the numba bodies (plain Python here)
    must agree on outputs, every stats field and the membranes."""

    KINDS = ("reference", "numpy", "numba")

    def assert_all_kernels_agree(self, run, n_slices=1):
        snaps = {}
        for kernel in self.KINDS:
            sne = SNE(SNEConfig(n_slices=n_slices))
            snaps[kernel] = run_snapshot(sne, *run(sne, kernel))
        for kernel in self.KINDS[1:]:
            assert_identical(snaps[kernel], snaps["reference"], kernel)
        return snaps["reference"]

    @pytest.mark.parametrize("leak", [0, 2])
    def test_saturation_at_both_rails(self, numba_bodies, leak):
        prog = dense_program(n_in=(2, 2, 2), n_out=40, leak=leak, seed=3)
        stream = EventStream.from_dense(np.ones((6, 2, 2, 2), dtype=np.uint8))
        ref = self.assert_all_kernels_agree(
            lambda sne, k: sne.run_layer(prog, stream, kernel=k))
        m = np.concatenate(ref["membranes"])
        assert (m == 127).any() and (m == -128).any()

    def test_multi_pass_wider_than_the_sne(self, numba_bodies):
        prog = dense_program(n_in=(1, 3, 3), n_out=1100, low=-4, high=4,
                             threshold=3, leak=1, seed=7)
        stream = sparse_stream(shape=(5, 1, 3, 3), density=0.5, seed=7)
        assert prog.n_passes(SNEConfig(n_slices=1)) == 2
        self.assert_all_kernels_agree(
            lambda sne, k: sne.run_layer(prog, stream, trace=ActivityTrace(), kernel=k))

    def test_leak_across_idle_steps(self, numba_bodies):
        prog = dense_program(n_in=(1, 3, 3), n_out=20, low=-3, high=6,
                             threshold=9, leak=2, seed=4)
        dense = np.zeros((9, 1, 3, 3), dtype=np.uint8)
        dense[0] = dense[1] = 1
        dense[7, 0, 1] = 1
        stream = EventStream.from_dense(dense)
        ref = self.assert_all_kernels_agree(
            lambda sne, k: sne.run_layer(prog, stream, kernel=k))
        assert ref["stats"]["tlu_skipped_steps"] > 0

    def test_zero_weights(self, numba_bodies):
        g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 70, 1, 1)
        w = np.zeros((70, 4), dtype=np.int64)
        w[:5, 1] = 3  # a few live synapses among the zero ones
        prog = LayerProgram(g, w, threshold=2, leak=0)
        stream = sparse_stream(shape=(4, 1, 2, 2), density=0.6, seed=2)
        ref = self.assert_all_kernels_agree(
            lambda sne, k: sne.run_layer(prog, stream, kernel=k))
        assert ref["stats"]["sops"] == 70 * len(stream)

    def test_batch_of_unequal_samples(self, numba_bodies):
        prog = dense_program(n_in=(1, 2, 3), n_out=50, low=-7, high=7,
                             threshold=12, leak=1, seed=5)
        shape = (5, 1, 2, 3)
        streams = [sparse_stream(shape=shape, density=d, seed=i)
                   for i, d in enumerate((0.9, 0.2, 0.0, 0.6))]
        streams.append(EventStream.from_dense(np.ones(shape, dtype=np.uint8)))
        assert len(streams[2]) == 0 and len({len(s) for s in streams}) == 5
        cfg = SNEConfig(n_slices=1)
        want = [SNE(cfg).run_layer(prog, s, kernel="reference") for s in streams]
        for kernel in self.KINDS[1:]:
            out, stats = SNE(cfg).run_layer(prog, EventBatch(streams), kernel=kernel)
            for b, (w_out, w_stats) in enumerate(want):
                assert out.streams[b] == w_out, (kernel, b)
                assert dataclasses.asdict(stats.samples[b]) == dataclasses.asdict(w_stats)

    def test_dense_head_pipelined(self, numba_bodies):
        first = dense_program(n_in=(1, 4, 4), n_out=24, low=-5, high=7,
                              threshold=4, leak=1, seed=8)
        head = dense_program(n_in=(24, 1, 1), n_out=10, low=-7, high=7,
                             threshold=3, leak=0, seed=9)
        for seed in (1, 2):
            stream = sparse_stream(shape=(6, 1, 4, 4), density=0.4, seed=seed)
            self.assert_all_kernels_agree(
                lambda sne, k: sne.run_network_pipelined([first, head], stream, kernel=k),
                n_slices=2)

    @pytest.mark.parametrize("impl", ["numpy_impl", "numba_impl"])
    def test_stacked_membranes_match_the_serial_chain(self, impl):
        """One step of a stacked batch: samples interleaved, unequal
        event counts, one sample without events, membranes near both
        rails.  Slots beyond the pass stay untouched."""
        from repro.hw.kernels import numba_impl, numpy_impl

        kernel = {"numpy_impl": numpy_impl, "numba_impl": numba_impl}[impl]
        rng = np.random.default_rng(11)
        cols = fanout_table(dense_program(n_in=(1, 3, 3), n_out=40, seed=11)
                            ).dense_columns(0, 40)
        stride, n_samples = 64, 4
        state = rng.integers(-128, 128, n_samples * stride)
        samples = rng.choice([0, 1, 1, 3, 3, 3, 3], 30)
        coords = rng.integers(0, 9, 30)
        want = state.copy()
        for b, f in zip(samples, coords):
            for p in range(40):
                want[b * stride + p] = sat_add(want[b * stride + p], cols.w[f, p], 8)
        unclipped = state.copy()
        np.add.at(unclipped.reshape(n_samples, stride)[:, :40], samples, cols.w[coords])
        assert (want != unclipped).any()  # some adds really clipped
        kernel.dense_accumulate(state, stride, cols, coords, samples, -128, 127)
        assert np.array_equal(state, want)

    @pytest.mark.parametrize("n_out", [40, 1100])
    def test_plan_counters_match_the_entry_plan(self, n_out):
        """The event-count plan books what the per-entry plan books."""
        from repro.hw import SliceStack

        ks = resolve_kernel("numpy")
        prog = dense_program(n_in=(1, 3, 3), n_out=n_out, seed=2)
        table = fanout_table(prog)
        cfg = SNEConfig(n_slices=1)
        lo, hi = prog.pass_neuron_range(cfg, prog.n_passes(cfg) - 1)
        streams = [sparse_stream(shape=(6, 1, 3, 3), density=d, seed=i)
                   for i, d in enumerate((0.5, 0.0, 0.3))]
        event_t, event_sample, ch, x, y = EventBatch(streams).merged()
        plans = []
        for columns in (None, table.dense_columns(lo, hi)):
            stack = SliceStack(cfg, prog, lo, hi, 3, columns=columns)
            entries = table.flat_ids(ch, x, y)
            if columns is None:
                entries = table.gather(ch, x, y)
            plan = stack.plan(entries, event_t, event_sample, 0, 6, ks)
            plans.append((stack.counters.copy(), plan))
        (c_entry, p_entry), (c_dense, p_dense) = plans
        assert np.array_equal(c_dense, c_entry)
        assert np.array_equal(p_dense.touched, p_entry.touched)
        assert np.array_equal(p_dense.over, p_entry.over)
        assert p_dense.step_sops == p_entry.step_sops


class TestKernelFuzzHarness:
    def test_fuzz_kernels_clean(self):
        results = fuzz_kernels(24)
        assert all(r.matched for r in results), [
            (r.case.seed, r.mismatches) for r in results if not r.matched
        ]

    def test_flavors_cover_the_suspects(self):
        # flavour 0: saturation-capable full-rail weights, dense steps
        sat = random_kernel_case(0)
        assert int(np.abs(sat.program.weights).max()) == 7
        # flavour 1: guaranteed zero-event steps between the bursts
        gap = random_kernel_case(1)
        counts = gap.stream.counts_per_step()
        assert (counts[1:-1] == 0).all() and len(counts) >= 5
        # flavour 2: a single output neuron (degenerate TDM range)
        solo = random_kernel_case(2)
        assert solo.program.geometry.n_outputs == 1

    def test_fuzz_kernel_batches_clean(self):
        results = fuzz_kernel_batches(18)
        assert all(r.matched for r in results), [
            (r.case.seed, r.mismatches) for r in results if not r.matched
        ]

    def test_batch_draws_cover_the_suspects(self):
        cases = [random_kernel_batch(seed) for seed in range(9)]
        assert {len(c.streams) for c in cases} == {1, 2, 7}
        several = [c for c in cases if len(c.streams) > 1]
        assert all(any(len(s) == 0 for s in c.streams) for c in several)
        assert any(len({len(s) for s in c.streams}) > 2 for c in several)
        assert any((s.counts_per_step()[1:-1] == 0).all() and len(s)
                   for c in several for s in c.streams)
        sat = cases[3]  # forced saturation with a leak
        assert int(np.abs(sat.programs[0].weights).max()) == 7
        assert sat.programs[0].leak > 0
        assert any(len(s) == s.n_sites for s in sat.streams)
        wide = cases[6]  # multi-pass
        assert wide.programs[0].n_passes(SNEConfig(n_slices=wide.n_slices)) > 1
        assert all(len(c.programs) == 2 for c in cases)

    def test_run_layer_batch_equals_per_sample_runs(self):
        case = random_kernel_batch(5)
        cfg = SNEConfig(n_slices=case.n_slices)
        out, stats = SNE(cfg).run_layer(case.programs[0], EventBatch(case.streams),
                                        kernel="numpy")
        assert isinstance(stats, BatchStats) and len(stats.samples) == len(case.streams)
        assert len(out) == sum(len(s) for s in out.streams)
        for b, stream in enumerate(case.streams):
            want = SNE(cfg).run_layer(case.programs[0], stream, kernel="reference")
            assert out.streams[b] == want[0]
            assert dataclasses.asdict(stats.samples[b]) == dataclasses.asdict(want[1])
        with pytest.raises(ValueError, match="one sample"):
            SNE(cfg).run_layer(case.programs[0], EventBatch(case.streams),
                               trace=ActivityTrace())

    def test_run_kernel_case_reports_mismatch_fields(self):
        case = random_kernel_case(3)
        res = run_kernel_case(case, kernels=("numpy",))
        assert res.matched and res.mismatches == ()
        assert res.kernels == ("numpy",)


class TestFanoutMemo:
    def make_conv(self, fill=1):
        g = LayerGeometry(LayerKind.CONV, 1, 4, 4, 2, 4, 4,
                          kernel=3, stride=1, padding=1)
        w = np.full((2, 1, 3, 3), fill, dtype=np.int64)
        return LayerProgram(g, w, threshold=50, leak=0)

    def test_content_equal_programs_share_one_table(self):
        p1, p2 = self.make_conv(), self.make_conv()
        assert p1 is not p2
        assert program_content_hash(p1) == program_content_hash(p2)
        assert fanout_table(p1) is fanout_table(p2)

    def test_content_hash_tracks_weights_and_params(self):
        base = self.make_conv(1)
        assert program_content_hash(base) != program_content_hash(self.make_conv(2))
        g = base.geometry
        other = LayerProgram(g, np.array(base.weights), threshold=51, leak=0)
        assert program_content_hash(base) != program_content_hash(other)

    def test_inplace_weight_mutation_invalidates(self):
        """Regression: the id()-keyed memo (plus the lazily built
        per-coordinate fanout cache) kept serving entries built from the
        OLD weights after ``program.weights[:] = new`` — membranes came
        out as if the mutation never happened.  Content-hash keying plus
        the defensive weight snapshot make mutation a cache miss."""
        prog = self.make_conv(1)
        stream = EventStream.from_dense(np.ones((1, 1, 4, 4), dtype=np.uint8))
        cfg = SNEConfig(n_slices=1)
        sne = SNE(cfg)
        sne.run_layer(prog, stream)  # memoise + build coordinate entries
        before = fanout_table(prog)

        prog.weights[:] = 3  # in-place: same object, new content
        assert fanout_table(prog) is not before

        sne_mut, sne_fresh = SNE(cfg), SNE(cfg)
        out_mut, _ = sne_mut.run_layer(prog, stream)
        out_fresh, _ = sne_fresh.run_layer(self.make_conv(3), stream)
        assert out_mut == out_fresh
        for a, b in zip(sne_mut.slices, sne_fresh.slices):
            assert np.array_equal(a.membrane_snapshot(), b.membrane_snapshot())

    def test_table_snapshots_weights(self):
        """A memoised table must keep serving the weights it was built
        from, even while the program object mutates underneath it."""
        prog = self.make_conv(2)
        table = fanout_table(prog)
        packed_before = table.packed()
        prog.weights[:] = -5
        assert np.array_equal(table.packed().w, packed_before.w)
        assert (packed_before.w == 2).all()

    def test_memo_is_lru_capped(self, monkeypatch):
        monkeypatch.setattr(mapper_mod, "_FANOUT_CACHE_CAP", 2)
        mapper_mod._FANOUTS.clear()
        progs = [self.make_conv(fill) for fill in (1, 2, 3)]
        for p in progs:
            fanout_table(p)
        assert len(mapper_mod._FANOUTS) == 2
        # Most recently used survive; the first insert was evicted.
        assert program_content_hash(progs[0]) not in mapper_mod._FANOUTS
        assert program_content_hash(progs[2]) in mapper_mod._FANOUTS


class TestPackedFanout:
    @pytest.mark.parametrize("make", [
        lambda: TestFanoutMemo().make_conv(2),
        lambda: LayerProgram(
            LayerGeometry(LayerKind.DENSE, 2, 3, 3, 7, 1, 1),
            np.random.default_rng(3).integers(-4, 5, (7, 18)),
            threshold=4, leak=1,
        ),
    ])
    def test_packed_matches_gather(self, make):
        """The CSR arrays must reproduce gather() for every coordinate."""
        prog = make()
        table = fanout_table(prog)
        packed = table.packed()
        g = prog.geometry
        for f in range(g.n_inputs):
            ch, rem = divmod(f, g.in_height * g.in_width)
            y, x = divmod(rem, g.in_width)
            idx, w, ev = table.gather(np.array([ch]), np.array([x]), np.array([y]))
            lo, hi = int(packed.offsets[f]), int(packed.offsets[f + 1])
            assert np.array_equal(packed.idx[lo:hi], idx)
            assert np.array_equal(packed.w[lo:hi], w)
            assert (ev == 0).all()


class TestJobHashIsolation:
    def make_job(self, **kw):
        from repro.runtime.jobs import sample_eval_job

        g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 4, 1, 1)
        w = np.random.default_rng(0).integers(-3, 4, (4, 4))
        programs = [LayerProgram(g, w, threshold=2, leak=0)]
        stream = EventStream.from_dense(np.ones((3, 1, 2, 2), dtype=np.uint8))
        return sample_eval_job(programs, SNEConfig(n_slices=1), stream, 1, **kw)

    def test_auto_kernel_keeps_historical_hash(self):
        assert self.make_job().job_hash == self.make_job(kernel="auto").job_hash

    def test_pinned_kernel_isolates_hash(self):
        default = self.make_job().job_hash
        numpy_h = self.make_job(kernel="numpy").job_hash
        numba_h = self.make_job(kernel="numba").job_hash
        assert len({default, numpy_h, numba_h}) == 3

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            self.make_job(kernel="bogus")

    @pytest.mark.parametrize("kernel, job_hash", [
        ("auto", "0b31d7a74131bc1bdf23f0dcf74efbf1064723d0be0f337f83da4856fab50fa3"),
        ("numpy", "43e125982a3727f34e259c225ad896c6fde3a48c20b9086bb5fc8e814b85587d"),
    ])
    def test_sample_eval_hash_is_pinned(self, kernel, job_hash):
        """A fixed deployment's job hash never drifts, so store entries
        written by earlier versions stay valid."""
        from repro.runtime.jobs import sample_eval_job

        g = LayerGeometry(LayerKind.DENSE, 1, 2, 2, 4, 1, 1)
        w = np.array([[1, -2, 3, 0], [0, 1, -1, 2], [-3, 0, 2, 1], [2, 2, -2, -1]])
        programs = [LayerProgram(g, w, threshold=2, leak=0)]
        stream = EventStream.from_dense(np.ones((3, 1, 2, 2), dtype=np.uint8))
        spec = sample_eval_job(programs, SNEConfig(n_slices=1), stream, 1, kernel=kernel)
        assert spec.job_hash == job_hash

    def test_runner_honors_pinned_kernel(self):
        from repro.runtime.jobs import execute_job

        plain = execute_job(self.make_job())
        pinned = execute_job(self.make_job(kernel="numpy"))
        assert pinned == plain  # bit-identical results, different hash

    def test_sample_jobs_threads_kernel(self):
        from repro.events.datasets import SyntheticDVSGesture
        from repro.hw.mapper import compile_network
        from repro.hw.runner import HardwareEvaluator
        from repro.snn.topology import build_small_network

        maker = SyntheticDVSGesture(size=16, n_steps=3)
        data = maker.generate(n_per_class=1, seed=0)
        net = build_small_network(input_size=16, n_classes=data.n_classes,
                                  channels=6, hidden=32, seed=0)
        programs = compile_network(net, (2, 16, 16))
        ev = HardwareEvaluator(programs, SNEConfig(n_slices=8))
        plain = ev.sample_jobs(data, max_samples=1)
        pinned = ev.sample_jobs(data, max_samples=1, kernel="numpy")
        assert plain[0].job_hash != pinned[0].job_hash
        assert '"kernel":"numpy"' in pinned[0].key
