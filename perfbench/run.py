"""Benchmark of the repro clock-synchronization simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serial-audit --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
is the separate traced run: it wraps each inner layer (see ``spans.py``),
alternates traced and untraced passes, and reports per-layer metrics plus
the tracing overhead.  Both modes check every output (``workloads.py``) and
print, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed checks are
listed on standard error.

Every time is host time scaled to a reference host speed by calibration
kernels (``hostspeed.py``): the timed units by kernels that run between
them, each set-up probe by kernels that the probe process runs right after
its set-up.  On a shared machine whose speed drifts by 2x over minutes this
keeps runs comparable; ``README.md`` has the measurements.

The program under test is the ``repro`` package in ``src/`` next to this
directory.  It is pure Python (plus numpy), so there is nothing to build.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, NamedTuple, Sequence, Tuple

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes timed for ``setup_s``, spread through the run; the
#: median is reported.
SETUP_PROBES = 5
#: kernels that scale a set-up probe: set-up is interpreter work (imports,
#: input generation) and page faults (shared libraries, fresh allocations).
SETUP_KERNELS = ("python", "memory")
#: after this long the timed loop stops even if a unit has not repeated.
LOOP_CAP_S = 100.0

END_TO_END_UNITS = {
    "setup_s": "s", "runs_per_s": "1/s", "run_s_p50": "s", "run_s_p90": "s",
    "events_per_s": "1/s", "peak_rss_mb": "MB", "skew_over_gamma": "ratio",
}


class Timed(NamedTuple):
    """One timed unit: its result, wall time and host-speed scale."""

    out: object
    wall: float
    scale: float

    @property
    def seconds(self) -> float:
        return self.wall * self.scale


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _setup_probe(workload: str, seed: int) -> Tuple[float, float]:
    """Fresh-process set-up time, spawn to the end of ``setup()``: scaled
    by the probe process's own kernel samples, and unscaled."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe", repr(spawned)],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["wall_s"])


def _no_mark(label: str) -> None:
    return None


class Loop:
    """Runs a workload's units with kernel samples between them.

    Every unit's result is checked as it arrives: its failed runs, and its
    per-run event counts against the first time that unit ran.
    """

    def __init__(self, workload, speed: HostSpeed):
        self.workload = workload
        self.speed = speed
        self.units = workload.units()
        self.fingerprints = dict(workload.warm_fingerprints)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.timed: List[Timed] = []

    def run_pass(self, mark: Callable[[str], None]) -> List[Timed]:
        """One pass over every unit; closes with a kernel sample."""
        pending = []
        for index, unit in enumerate(self.units):
            kernel = self.speed.sample()
            start = time.perf_counter()
            out = unit(mark)
            wall = time.perf_counter() - start
            self._check(index, out)
            pending.append((kernel, out, wall))
        self.speed.sample()
        done = [Timed(out, wall, self.speed.scale_after(kernel))
                for kernel, out, wall in pending]
        self.timed.extend(done)
        return done

    def untimed(self, step: Callable[[], Tuple[int, List[str]]]) -> None:
        """Run a warm-up or parity step; a raise counts as a failure."""
        try:
            runs, failures = step()
        except Exception as err:
            runs, failures = 1, [f"{step.__name__}: raised {err!r}"]
        self.add(runs, failures)

    def add(self, runs: int, failures: List[str]) -> None:
        self.attempted += runs
        self.failed += len(failures)
        self.failures.extend(failures)

    def _check(self, index: int, out) -> None:
        self.attempted += out.runs
        self.failed += out.failed_runs
        self.failures.extend(out.failures)
        seen = self.fingerprints.setdefault(index, out.fingerprint)
        if seen != out.fingerprint:
            self.failed += 1
            self.failures.append(f"unit {index}: event counts changed "
                                 f"between passes ({seen} vs "
                                 f"{out.fingerprint})")


def measure(workload, seed: int, seconds: float):
    """The untraced run: end-to-end metrics."""
    speed = HostSpeed(workload.KERNELS)
    workload.setup()
    loop = Loop(workload, speed)
    loop.untimed(workload.warmup)
    # A set-up probe runs before each timed pass, while the passes last,
    # so that the probes sample the whole run; probe time is not measured.
    setups: List[Tuple[float, float]] = []
    passes = 0
    elapsed = 0.0
    while True:
        if len(setups) < SETUP_PROBES:
            setups.append(_setup_probe(workload.name, seed))
        start = time.perf_counter()
        loop.run_pass(_no_mark)
        elapsed += time.perf_counter() - start
        passes += 1
        if elapsed >= seconds and passes >= 2 or elapsed >= LOOP_CAP_S:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(_setup_probe(workload.name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if passes < 2:
        loop.add(0, ["event counts not checked: only one pass ran"])
    loop.untimed(workload.parity)

    units = loop.timed
    skew = [ratio for unit in units[:len(loop.units)]
            for ratio in unit.out.skew_ratios]
    latencies = [latency * unit.scale for unit in units
                 for latency in unit.out.latencies]
    metrics = {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "runs_per_s": statistics.median(unit.out.runs / unit.seconds
                                        for unit in units),
        "run_s_p50": _percentile(latencies, 50),
        "run_s_p90": _percentile(latencies, 90),
        "events_per_s": statistics.median(unit.out.events / unit.seconds
                                          for unit in units),
        "peak_rss_mb": peak_rss_mb,
        "skew_over_gamma": statistics.fmean(skew),
    }
    raw_latencies = [latency for unit in units
                     for latency in unit.out.latencies]
    info = [f"{passes} passes, {len(units)} timed units, "
            f"{len(latencies)} latency samples, "
            f"{elapsed:.2f} s measured",
            f"host speed scale {speed.scale:.4f}: {speed.describe()}",
            f"unscaled: events_per_s "
            f"{statistics.median(u.out.events / u.wall for u in units):.6g}"
            f", run_s_p50 {_percentile(raw_latencies, 50):.6g}"
            f", run_s_p90 {_percentile(raw_latencies, 90):.6g}"
            f", setup_s {statistics.median(raw for _, raw in setups):.6g}"]
    return loop, metrics, info


def traced(workload, seed: int, seconds: float):
    """The traced run: per-layer metrics and the tracing overhead."""
    import workloads
    from spans import LayerTracer

    telemetry_mod = workloads.import_api()["telemetry"]
    speed = HostSpeed(workload.KERNELS)
    tracer = LayerTracer()
    bundle = telemetry_mod.Telemetry()

    def traced_block(body):
        tracer.install()
        previous = telemetry_mod.set_active(bundle)
        try:
            return body()
        finally:
            telemetry_mod.set_active(previous)
            tracer.uninstall()
            tracer.end_run()

    tracer.begin_run("setup")
    traced_block(workload.setup)
    setup_totals = tracer.totals()
    setup_registry = bundle.registry.snapshot()
    loop = Loop(workload, speed)
    loop.untimed(workload.warmup)

    plain_s, traced_s = [], []
    traced_units: List[Timed] = []
    start = time.perf_counter()
    while True:
        plain_s.append(sum(unit.seconds
                           for unit in loop.run_pass(_no_mark)))
        traced_pass = traced_block(lambda: loop.run_pass(tracer.begin_run))
        traced_s.append(sum(unit.seconds for unit in traced_pass))
        traced_units.extend(traced_pass)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed >= LOOP_CAP_S:
            break
    loop.untimed(workload.parity)

    passes = len(traced_s)
    totals = tracer.totals()
    registry = bundle.registry
    scale = speed.scale

    def layer(name: str) -> Tuple[float, float]:
        """(calls, scaled self seconds) for set-up plus one traced pass."""
        calls, self_s = totals[name]
        setup_calls, setup_self = setup_totals[name]
        return (setup_calls + (calls - setup_calls) / passes,
                (setup_self + (self_s - setup_self) / passes) * scale)

    def counter(name: str) -> float:
        """A telemetry counter for set-up plus one traced pass."""
        total = registry.value(name)
        base = setup_registry.get(name, {}).get("value", 0.0)
        return base + (total - base) / passes

    requested = sum(unit.out.replicas_requested for unit in traced_units)
    vectorized = registry.value("runner.vectorized_replicas")
    metrics = {
        "runner.self_s": layer("runner")[1],
        "runner.specs": counter("runner.specs_executed"),
        "runner.vector_engaged_ratio":
            vectorized / requested if requested else 0.0,
        "sim.run_self_s": layer("sim.system")[1],
        "sim.events": counter("sim.events_dispatched"),
        "sim.events.ops": layer("sim.events")[0],
        "sim.events.self_s": layer("sim.events")[1],
        "sim.network.draws": layer("sim.network")[0],
        "sim.network.self_s": layer("sim.network")[1],
        "core.handler_calls": layer("core")[0],
        "core.self_s": layer("core")[1],
        "multiset.calls": layer("multiset")[0],
        "multiset.self_s": layer("multiset")[1],
        "clocks.reads": layer("clocks")[0],
        "clocks.self_s": layer("clocks")[1],
        "sim.trace.events": sum(unit.out.trace_events
                                for unit in traced_units) / passes,
        "sim.trace.self_s": layer("sim.trace")[1],
        "analysis.audits": layer("analysis.verification")[0],
        "analysis.audit_self_s": layer("analysis.verification")[1],
        "analysis.online.calls": layer("analysis.online")[0],
        "analysis.online.self_s": layer("analysis.online")[1],
        "vectorized.run_self_s": layer("vectorized.run")[1],
        "vectorized.synth_s": layer("vectorized.batch")[1],
        "vectorized.replicas": counter("runner.vectorized_replicas"),
        "vectorized.fallbacks": counter("runner.vectorized_fallbacks"),
        "roundengine.run_self_s": layer("roundengine.run")[1],
        "roundengine.synth_s": layer("roundengine.try")[1],
        "roundengine.rounds": counter("roundengine.rounds"),
        "roundengine.fallbacks": counter("roundengine.fallbacks"),
        "topology.build_s": layer("topology.build")[1],
        "topology.index_s": layer("topology.index")[1],
        "topology.index_cache_hits": counter("topology.index_cache_hits"),
        "topology.edges": registry.value("roundengine.edges"),
        "trace_overhead": (statistics.median(traced_s)
                           / statistics.median(plain_s) - 1.0),
    }
    loop.add(0, workload.traced_failures(metrics))
    metrics["fail_ratio"] = loop.failed / max(1, loop.attempted)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(str(path), {"workload": workload.name, "seed": seed,
                             "passes": passes, "host_speed_scale": scale,
                             "metrics": metrics})
    info = [f"{passes} traced + {len(plain_s)} untraced passes; "
            f"spans written to {path.relative_to(ROOT)}",
            f"host speed scale {scale:.4f}: {speed.describe()}"]
    return loop, metrics, info


def _unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio") or name.endswith("overhead"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)

    if args.setup_probe is not None:
        workload.setup()
        wall = time.monotonic() - args.setup_probe
        print(json.dumps({"setup_s": wall * HostSpeed(SETUP_KERNELS).scale,
                          "wall_s": wall}))
        return 0

    if args.trace:
        loop, metrics, info = traced(workload, args.seed, args.seconds)
        units = {name: _unit_of(name) for name in metrics}
    else:
        loop, metrics, info = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    correct = loop.failed == 0 and not loop.failures
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"engine: {workload.engine}")
    for line in info:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    print(f"fail_ratio {loop.failed}/{loop.attempted}; "
          f"correct={'yes' if correct else 'NO'}")
    for failure in loop.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
