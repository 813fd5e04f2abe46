"""CLI surface: ``python -m repro sweep|eval|cache`` and ``--version``."""

import contextlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro import __version__
from repro.runtime.cli import build_parser, main


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_command_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_sweep_prints_table_and_stats(tmp_path, capsys):
    argv = ["sweep", "--slices", "1,8", "--cache-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "eff [TSOP/s/W]" in out
    assert "2 computed" in out
    # Second invocation is served from the cache.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 cache hit(s), 0 computed" in out
    assert "hit rate 100%" in out


def test_sweep_csv_output(capsys):
    assert main(["sweep", "--slices", "1,8", "--no-cache", "--csv", "--quiet"]) == 0
    lines = [
        l for l in capsys.readouterr().out.splitlines()
        if "," in l and not l.startswith("run:")
    ]
    assert lines[0].startswith("slices,")
    assert len(lines) == 3


def test_sweep_rejects_bad_axis_values():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--slices", "1,banana", "--no-cache", "--quiet"])
    assert exc.value.code == 2


def test_nonpositive_workers_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--slices", "8", "--workers", "0", "--no-cache", "--quiet"])
    assert exc.value.code == 2


def test_domain_errors_exit_cleanly(capsys):
    assert main(["sweep", "--slices", "0,8", "--no-cache", "--quiet"]) == 2
    assert "n_slices must be positive" in capsys.readouterr().err
    assert main(["sweep", "--slices", "8", "--cache-dir", "/dev/null/x", "--quiet"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("dataset", ["gesture", "nmnist"])
@pytest.mark.parametrize("command", ["eval", "profile"])
def test_zero_steps_exit_cleanly(command, dataset, capsys):
    assert main([command, "--dataset", dataset, "--steps", "0", "--quiet"]) == 2
    assert "n_steps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["sweep", "--slices", "8", "--no-cache", "--quiet"],
    ["profile", "--per-class", "1", "--max-samples", "2", "--steps", "4",
     "--json", "-", "--quiet"],
])
def test_closed_stdout_exits_quietly(args, tmp_path):
    """`repro ... | head`: a reader that went away is not a usage
    error — exit 1 with nothing on stderr (no error line, no
    traceback from the interpreter's exit-time flush)."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the first write: every write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "repro", *args],
                              cwd=tmp_path, env=env, stdin=subprocess.DEVNULL,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_eval_runs_tiny_dataset(capsys):
    argv = [
        "eval", "--size", "16", "--steps", "6", "--per-class", "1",
        "--max-samples", "3", "--no-cache", "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "hardware accuracy" in out
    assert "3 job(s)" in out


def test_eval_uses_cache_on_second_run(tmp_path, capsys):
    argv = [
        "eval", "--size", "16", "--steps", "6", "--per-class", "1",
        "--max-samples", "2", "--cache-dir", str(tmp_path), "--quiet",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert "2 cache hit(s), 0 computed" in capsys.readouterr().out


def test_cache_stats_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path)
    main(["sweep", "--slices", "1,8", "--cache-dir", cache_dir, "--quiet"])
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "2 entries" in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "0 entries" in capsys.readouterr().out


def test_cache_evict_needs_a_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    assert main(["cache", "evict", "--cache-dir", str(tmp_path)]) == 2
    assert "evict needs --max-bytes" in capsys.readouterr().err


def test_cache_evict_keeps_the_entry_that_was_hit(tmp_path, capsys):
    from repro.runtime import ResultStore, dse_point_job

    cache_dir = str(tmp_path)
    main(["sweep", "--slices", "1,8", "--cache-dir", cache_dir, "--quiet"])
    main(["sweep", "--slices", "8", "--cache-dir", cache_dir, "--quiet"])
    capsys.readouterr()
    store = ResultStore(tmp_path)
    hot = dse_point_job(8).job_hash
    assert main(["cache", "evict", "--max-bytes",
                 str(store.path(hot).stat().st_size),
                 "--cache-dir", cache_dir]) == 0
    assert "evicted 1 entry; 1 left" in capsys.readouterr().out
    assert [path.stem for path in store._iter_entries()] == [hot]


def test_cache_clear_leaves_an_empty_store(tmp_path, capsys):
    cache_dir = str(tmp_path)
    main(["sweep", "--slices", "1,8", "--cache-dir", cache_dir, "--quiet"])
    main(["sweep", "--slices", "1,8", "--cache-dir", cache_dir, "--quiet"])
    capsys.readouterr()
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert f"removed 2 entries from {cache_dir}" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_backend_flag_validates_against_registry_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--backend", "warp-drive", "--no-cache", "--quiet"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown backend 'warp-drive'" in err
    assert "cluster" in err  # the live registry renders the name list


def test_backend_flag_accepts_late_registered_backends(capsys):
    from repro.runtime import SerialBackend, register_backend
    from repro.runtime.backends import _BACKENDS

    @register_backend("late-bird")
    class LateBird(SerialBackend):
        """Registered after module import: must still parse."""
        name = "late-bird"

    try:
        argv = ["sweep", "--slices", "1", "--backend", "late-bird",
                "--no-cache", "--quiet", "--csv"]
        assert main(argv) == 0
    finally:
        _BACKENDS.pop("late-bird", None)


def test_sweep_cluster_backend_matches_serial_csv(tmp_path, capsys):
    base = ["sweep", "--slices", "1,8", "--quiet", "--csv", "--no-cache"]
    assert main(base) == 0
    serial_csv = capsys.readouterr().out
    assert main(base + ["--backend", "cluster", "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial_csv


def test_worker_drains_a_spool(tmp_path, capsys):
    from repro.runtime import Broker, dse_point_job, run_jobs

    spool = tmp_path / "spool"
    broker = Broker(spool)
    jobs = [dse_point_job(n) for n in (1, 2, 4, 8)]
    broker.submit(jobs, chunk_size=2)
    assert main(["worker", "--spool", str(spool), "--drain",
                 "--cache-dir", str(tmp_path / "store")]) == 0
    err = capsys.readouterr().err
    assert "2 chunk(s) published" in err
    results = broker.collect(timeout=30)
    reference = run_jobs(jobs, executor="serial")
    assert [r.value for r in results] == [r.value for r in reference.results]
    # Write-through happened: a replay against the store is all hits.
    from repro.runtime import ResultStore

    replay = run_jobs(jobs, executor="serial",
                      cache=ResultStore(tmp_path / "store"))
    assert replay.hits == len(jobs)


def test_worker_requires_spool():
    with pytest.raises(SystemExit) as exc:
        main(["worker", "--drain"])
    assert exc.value.code == 2


def test_sweep_spool_flag_feeds_external_workers(tmp_path, capsys):
    spool = tmp_path / "spool"
    argv = ["sweep", "--slices", "1,8", "--backend", "cluster", "--workers",
            "2", "--spool", str(spool), "--no-cache", "--quiet", "--csv"]
    assert main(argv) == 0
    assert (spool / "chunks").is_dir()  # the shared queue was used
    assert main(["sweep", "--slices", "1,8", "--no-cache", "--quiet",
                 "--csv"]) == 0
    # Byte-identical CSV between the spooled and in-process runs.
    lines = capsys.readouterr().out.splitlines()
    half = len(lines) // 2
    assert lines[:half] == lines[half:]


def test_spool_flag_rejected_for_non_cluster_backends(tmp_path, capsys):
    assert main(["sweep", "--slices", "1", "--backend", "serial", "--spool",
                 str(tmp_path), "--no-cache", "--quiet"]) == 2
    assert "--spool only applies to --backend cluster" in capsys.readouterr().err


def test_metrics_and_top_need_an_obs_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
    from repro.runtime import obs

    obs.configure(False)
    try:
        assert main(["metrics"]) == 2
        assert "--obs-dir" in capsys.readouterr().err
        assert main(["top", "--once"]) == 2
        assert "--obs-dir" in capsys.readouterr().err
    finally:
        obs.configure(False)


def test_top_survives_truncated_and_rotated_journal(tmp_path, capsys):
    """``repro top`` tails the journal through truncation and rotation
    (the dashboard used to keep a stale byte offset and go blind)."""
    from repro.runtime import obs

    obs_dir = tmp_path / "obs"
    obs.set_registry(obs.MetricsRegistry())
    try:
        assert main(["sweep", "--slices", "1,8", "--cache-dir",
                     str(tmp_path / "cache"), "--quiet",
                     "--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        assert main(["top", "--once", "--obs-dir", str(obs_dir)]) == 0
        assert "queue depth" in capsys.readouterr().out

        journal = obs_dir / "journal.ndjson"
        journal.write_text("")  # operator truncates in place
        assert main(["top", "--once", "--obs-dir", str(obs_dir)]) == 0
        assert "queue depth" in capsys.readouterr().out

        journal.rename(obs_dir / "journal.ndjson.1")  # logrotate
        assert main(["sweep", "--slices", "1,8", "--cache-dir",
                     str(tmp_path / "cache"), "--quiet",
                     "--obs-dir", str(obs_dir)]) == 0
        capsys.readouterr()
        assert main(["top", "--once", "--obs-dir", str(obs_dir)]) == 0
        assert "queue depth" in capsys.readouterr().out
    finally:
        obs.configure(False)
        obs.set_registry(obs.MetricsRegistry())


def test_sweep_then_metrics_and_top(tmp_path, capsys):
    from repro.runtime import obs

    obs_dir = tmp_path / "obs"
    # Earlier in-process main() calls accumulated into the global
    # registry; start from a clean one so the counts below are exact.
    obs.set_registry(obs.MetricsRegistry())
    try:
        assert main(["sweep", "--slices", "1,8", "--cache-dir",
                     str(tmp_path / "cache"), "--quiet",
                     "--obs-dir", str(obs_dir)]) == 0
        assert (obs_dir / "journal.ndjson").is_file()
        capsys.readouterr()

        assert main(["metrics", "--obs-dir", str(obs_dir)]) == 0
        human = capsys.readouterr().out
        assert "repro_jobs_total" in human

        assert main(["metrics", "--json", "--obs-dir", str(obs_dir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        series = doc["metrics"]["repro_jobs_total"]["series"]
        assert sum(s["value"] for s in series) == 2  # two design points

        assert main(["metrics", "--prom", "--obs-dir", str(obs_dir)]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_jobs_total counter" in prom

        assert main(["top", "--once", "--obs-dir", str(obs_dir)]) == 0
        frame = capsys.readouterr().out
        assert "queue depth" in frame and "cache hit rate" in frame
        assert "\x1b[" not in frame  # --once frames stay grep-able
    finally:
        obs.configure(False)
        obs.set_registry(obs.MetricsRegistry())

@pytest.mark.parametrize("command", ["serve", "worker", "sweep"])
def test_each_exit_writes_the_metrics_snapshot_once(command, tmp_path, capsys,
                                                     monkeypatch):
    """`serve` (AsyncServer.aclose) and `worker` (worker_loop) write the
    snapshot on their own way out, so main() must not write it again;
    every other command relies on main()'s write."""
    from repro.runtime import Broker, dse_point_job, obs

    flush, writes = obs.flush_metrics, []

    def counting_flush(*args, **kwargs):
        path = flush(*args, **kwargs)
        if path is not None:
            writes.append(path)
        return path

    monkeypatch.setattr(obs, "flush_metrics", counting_flush)
    store, spool = str(tmp_path / "store"), tmp_path / "spool"
    request = {"id": "t", "kind": "dse_point", "params": {"n_slices": 4}}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request) + "\n"))
    Broker(spool).submit([dse_point_job(4)])
    argv = {
        "serve": ["serve", "--stdio"],
        "worker": ["worker", "--spool", str(spool), "--drain"],
        "sweep": ["sweep", "--slices", "4"],
    }[command]
    obs.set_registry(obs.MetricsRegistry())
    try:
        assert main(argv + ["--cache-dir", store, "--quiet",
                            "--obs-dir", str(tmp_path / "obs")]) == 0
        events = obs.read_metrics(tmp_path / "obs").counter("repro_store_events_total")
    finally:
        obs.configure(False)
        obs.set_registry(obs.MetricsRegistry())
    assert len(writes) == 1
    assert events.value(op="store") == 1


def test_metrics_p99_reports_overflow_direction(tmp_path, capsys):
    """Fleet-wide p99 says ``p99 > bound`` when the rank lands in the
    +Inf bucket instead of pretending the last finite bound is an upper
    bound (it is a *lower* bound there)."""
    from repro.runtime import obs

    obs_dir = tmp_path / "obs"
    obs.set_registry(obs.MetricsRegistry())
    try:
        hist = obs.get_registry().histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(50.0)  # +Inf bucket: p99 is beyond every bound
        obs.flush_metrics(obs_dir)
        assert main(["metrics", "--obs-dir", str(obs_dir)]) == 0
        out = capsys.readouterr().out
        assert "p99 > 1000.00 ms" in out

        obs.set_registry(obs.MetricsRegistry())
        hist = obs.get_registry().histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        obs.flush_metrics(obs_dir)
        assert main(["metrics", "--obs-dir", str(obs_dir)]) == 0
        assert "p99 <= 100.00 ms" in capsys.readouterr().out
    finally:
        obs.configure(False)
        obs.set_registry(obs.MetricsRegistry())


_SUBCOMMANDS = ("sweep", "eval", "profile", "cache", "worker", "serve",
                "supervise", "chaos-soak", "metrics", "top", "trace", "slo")
#: Each command taking --lease-ttl, with the arguments it requires.
_LEASE_COMMANDS = {"worker": ["--spool", "s"], "serve": [],
                   "supervise": ["--spool", "s"], "chaos-soak": []}


@pytest.mark.parametrize("argv, status", [
    *[pytest.param([cmd, "--help"], 0, id=f"{cmd}-help") for cmd in _SUBCOMMANDS],
    *[pytest.param([cmd, *extra, "--lease-ttl", "0"], 2, id=f"{cmd}-lease-ttl-0")
      for cmd, extra in _LEASE_COMMANDS.items()],
])
def test_parser_consistency(argv, status, capsys):
    """Every subcommand renders its help, and a lease TTL is a positive
    number of seconds on every command that takes one (rejected at
    parse time, before any server or fleet starts)."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == status
    if status == 2:
        assert "expected a positive number" in capsys.readouterr().err


def test_supervise_takes_the_store_cap_from_the_environment(tmp_path, monkeypatch):
    from repro.runtime import supervisor

    seen = {}
    real = supervisor.Supervisor

    def capture(*args, **kwargs):
        seen.update(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(supervisor, "Supervisor", capture)
    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
    store = tmp_path / "store"
    assert main(["supervise", "--spool", str(tmp_path / "spool"),
                 "--min-workers", "0", "--max-ticks", "1", "--tick", "0.05",
                 "--cache-dir", str(store), "--quiet"]) == 0
    assert seen["max_bytes"] == 4096
    assert seen["cache_dir"] == str(store)


class TestSigterm:
    """`serve` (TCP) and `worker` stop on SIGTERM the way they stop on
    Ctrl-C: through their normal exit path, with exit status 0."""

    @staticmethod
    @contextlib.contextmanager
    def _daemon(*args):
        """A `repro` subprocess, killed on exit if still running."""
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.Popen([sys.executable, "-m", "repro", *args], env=env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(60, proc.kill)  # never hang the suite
        watchdog.start()
        try:
            yield proc
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stderr.close()

    @staticmethod
    def _wait_for(proc, marker: str) -> str:
        while True:
            line = proc.stderr.readline()
            assert line, f"exited {proc.wait()} before printing {marker!r}"
            if marker in line:
                return line

    @staticmethod
    def _sigterm(proc) -> tuple[int, str]:
        proc.send_signal(signal.SIGTERM)
        err = proc.stderr.read()
        return proc.wait(timeout=30), err

    def test_serve_drains_and_flushes_the_store(self, tmp_path):
        from repro.runtime import ResultStore
        from repro.runtime.obs import read_metrics

        store, obs_dir = tmp_path / "store", tmp_path / "obs"
        with self._daemon("serve", "--port", "0", "--cache-dir", str(store),
                          "--obs-dir", str(obs_dir)) as proc:
            line = self._wait_for(proc, "listening on")
            port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(json.dumps({"id": "t", "kind": "dse_point",
                                         "params": {"n_slices": 4}}).encode() + b"\n")
                answer = json.loads(sock.makefile().readline())
            assert answer["ok"], answer
            status, err = self._sigterm(proc)
        assert status == 0, err
        assert "serve: 1 request(s)" in err
        assert len(list((obs_dir / "metrics").glob("*.json"))) == 1
        events = read_metrics(obs_dir).counter("repro_store_events_total")
        assert events.value(op="store") == 1
        assert len(ResultStore(store)) == 1

    def test_worker_finishes_and_reports(self, tmp_path):
        spool = tmp_path / "spool"
        with self._daemon("worker", "--spool", str(spool), "--no-cache") as proc:
            self._wait_for(proc, "[worker] attached")
            status, err = self._sigterm(proc)
        assert status == 0, err
        assert "[worker] done: 0 chunk(s) published" in err
