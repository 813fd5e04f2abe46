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
    LayerGeometry,
    LayerKind,
    LayerProgram,
    SNEConfig,
    fanout_table,
    fuzz_kernels,
    program_content_hash,
    random_kernel_case,
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

    def test_plan_matches_numpy_plan(self):
        """Both plan kernels return the same arrays, field by field."""
        from repro.hw.kernels import numba_impl, numpy_impl

        for seed in range(8):
            case = random_kernel_case(seed)
            table = fanout_table(case.program)
            packed = table.packed()
            s = case.stream
            flat = table.flat_ids(s.ch, s.x, s.y)
            entries = numpy_impl.assemble(packed.offsets, packed.idx, packed.w, flat)
            assert all(
                np.array_equal(a, b)
                for a, b in zip(entries, numba_impl.assemble(
                    packed.offsets, packed.idx, packed.w, flat))
            )
            tlus = np.zeros(16, dtype=np.int64)
            n_out = case.program.geometry.n_outputs
            args = (*entries, s.t.astype(np.int64), 0, s.n_steps, tlus,
                    n_out // 3, n_out, 64, 48)
            got, want = numba_impl.plan(*args), numpy_impl.plan(*args)
            assert len(got) == len(want) == 12
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
        assert risk.tolist() == [True, True, True, False]  # neuron 3: one add
        assert total.tolist() == [0, 0, 5, 1]


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

    def test_kernel_composes_with_profile(self):
        hashes = {
            self.make_job().job_hash,
            self.make_job(profile=True).job_hash,
            self.make_job(kernel="numpy").job_hash,
            self.make_job(profile=True, kernel="numpy").job_hash,
        }
        assert len(hashes) == 4

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            self.make_job(kernel="bogus")

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
