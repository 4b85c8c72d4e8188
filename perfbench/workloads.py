"""The four benchmark workloads: inputs, timed units, correctness checks.

Each workload derives every spec seed from the benchmark's ``--seed``; the
program only ever receives the generated specs, through its public entry
points (``repro.runner.execute``, ``repro.runner.replicate``,
``repro.analysis.verification.check_maintenance_run``,
``repro.topology.spec.build_topology``,
``repro.topology.index.topology_index``).  Calls go through module
attributes at call time, so the traced run's wrappers see them.

A workload is a list of *units*.  One pass runs every unit once; the timed
loop cycles through passes.  A unit returns a :class:`UnitResult` with the
work it did and every check that failed.  Correctness is computed in the run
itself and never compared against a number from another run or machine:

* traced runs must pass ``check_maintenance_run(r).all_passed``;
* streaming runs need ``online("skew").max_skew <= agreement_bound(r.params)``
  (the run's *effective* constants) and ``online("validity").holds``;
* the per-run event counts of a unit must repeat exactly on every pass;
* the engine workloads check engagement (telemetry counters) and parity
  against the serial loop outside the timed passes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: the modules behind the public entry points, filled by :func:`import_api`.
API: Dict[str, object] = {}


def import_api() -> Dict[str, object]:
    """Import ``repro`` and the modules the workloads call (part of set-up).

    ``repro.sim.roundengine`` is imported by every ``execute`` of a
    maintenance spec, so it is loaded here with the rest rather than inside
    the first timed unit.
    """
    if not API:
        import repro  # noqa: F401
        from repro import runner, telemetry
        from repro.analysis import experiments, verification
        from repro.core import bounds
        from repro.sim import roundengine, vectorized  # noqa: F401
        from repro.topology import index, spec
        API.update(runner=runner, telemetry=telemetry, bounds=bounds,
                   experiments=experiments, verification=verification,
                   topology_spec=spec, topology_index=index)
    return API


@dataclass
class UnitResult:
    """What one unit did, and what went wrong in it."""

    runs: int = 0
    failed_runs: int = 0
    events: int = 0
    latencies: List[float] = field(default_factory=list)
    skew_ratios: List[float] = field(default_factory=list)
    trace_events: int = 0
    replicas_requested: int = 0
    #: per-run event counts, in run order; must repeat on every pass.
    fingerprint: Tuple[int, ...] = ()
    failures: List[str] = field(default_factory=list)


def events_of(result) -> int:
    """Simulated interrupts of one run: deliveries + fired timers + STARTs."""
    stats = result.trace.stats
    return stats.delivered + stats.timers_fired + result.params.n


def stream_failures(result, label: str) -> Tuple[float, List[str]]:
    """Skew/γ of a streaming run, and its failed checks (empty when sound)."""
    bounds = API["bounds"]
    gamma = bounds.agreement_bound(result.params)
    skew_obs = result.online("skew")
    validity_obs = result.online("validity")
    failures = []
    if skew_obs is None or validity_obs is None:
        return 0.0, [f"{label}: online observers missing from the result"]
    skew = skew_obs.max_skew
    if not skew <= gamma:
        failures.append(f"{label}: skew {skew!r} > gamma {gamma!r}")
    if not validity_obs.holds:
        failures.append(f"{label}: Theorem 19 validity violated "
                        f"({validity_obs.report()})")
    return skew / gamma, failures


def stream_run(spec, mark: Callable[[str], None]
               ) -> Tuple[UnitResult, Optional[object]]:
    """Execute one streaming spec and check it: (its unit, the result).

    The result is None when the run raised.
    """
    label = spec.describe()
    mark(label)
    out = UnitResult(runs=1)
    start = time.perf_counter()
    try:
        result = API["runner"].execute(spec)
        ratio, failures = stream_failures(result, label)
    except Exception as err:  # a raising run is a failed run
        out.failed_runs = 1
        out.failures.append(f"{label}: raised {err!r}")
        out.fingerprint = (-1,)
        return out, None
    out.latencies.append(time.perf_counter() - start)
    out.events = events_of(result)
    out.fingerprint = (out.events,)
    out.trace_events = len(result.trace.events)
    out.skew_ratios.append(ratio)
    out.failures.extend(failures)
    out.failed_runs = 1 if failures else 0
    return out, result


def output_signature(result) -> str:
    """Everything parity compares, as exact reprs (bit-identity, NaN-safe)."""
    trace = result.trace
    histories = []
    for pid in range(result.params.n):
        history = trace.correction_history(pid)
        histories.append((list(history.times), list(history.corrections),
                          history.adjustments))
    online = {name: obs.result()
              for name, obs in sorted(result.observers.items())}
    online["validity_report"] = result.online("validity").report()
    stats = trace.stats
    return repr((stats.as_dict(), sorted(stats.per_process_sent.items()),
                 online, histories))


def _derived_seeds(rng: random.Random, count: int) -> List[int]:
    seeds: List[int] = []
    while len(seeds) < count:
        seed = rng.randrange(1, 2 ** 31)
        if seed not in seeds:
            seeds.append(seed)
    return seeds


class Workload:
    """Base class: ``setup`` builds the inputs, ``units`` the timed work."""

    name = ""
    why = ""
    #: calibration kernels that match the workload's work (hostspeed.py).
    KERNELS: Tuple[str, ...] = ("python",)

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.engine = "serial event loop (System.run_until)"
        #: unit index -> event counts seen before the timed passes.
        self.warm_fingerprints: Dict[int, Tuple[int, ...]] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def units(self) -> List[Callable[[Callable[[str], None]], UnitResult]]:
        raise NotImplementedError

    def warmup(self) -> Tuple[int, List[str]]:
        """Untimed work before the first pass: (runs attempted, failures)."""
        return 0, []

    def parity(self) -> Tuple[int, List[str]]:
        """Untimed engine-parity checks: (runs attempted, failures)."""
        return 0, []

    def traced_failures(self, metrics: Dict[str, float]) -> List[str]:
        """Engine-engagement checks on the traced run's per-layer metrics."""
        return []


class SerialAudit(Workload):
    """144 traced complete-graph runs, each followed by the paper audit."""

    name = "serial-audit"
    why = ("traced runs + check_maintenance_run on the complete graph: "
           "event loop, trace recording and audit do all the work")
    SIZES = (7, 16, 31)
    FAULTS = (None, "silent", "crash", "two_faced")
    COLUMNS = 12
    ROUNDS = 15

    def setup(self) -> None:
        api = import_api()
        runner, experiments = api["runner"], api["experiments"]
        params = {n: experiments.default_parameters(n=n, f=(n - 1) // 3)
                  for n in self.SIZES}
        seeds = _derived_seeds(self.rng,
                               self.COLUMNS * len(self.SIZES) * len(self.FAULTS))
        seed_iter = iter(seeds)
        self.columns = [
            [runner.RunSpec.maintenance(params[n], rounds=self.ROUNDS,
                                        fault_kind=fault,
                                        seed=next(seed_iter))
             for n in self.SIZES for fault in self.FAULTS]
            for _ in range(self.COLUMNS)]

    def units(self):
        return [self._unit(column) for column in self.columns]

    def _unit(self, specs):
        def run(mark: Callable[[str], None]) -> UnitResult:
            runner = API["runner"]
            verification = API["verification"]
            out = UnitResult()
            counts = []
            for spec in specs:
                label = spec.describe()
                mark(label)
                out.runs += 1
                start = time.perf_counter()
                try:
                    result = runner.execute(spec)
                    report = verification.check_maintenance_run(result)
                except Exception as err:  # a raising run is a failed run
                    out.failed_runs += 1
                    out.failures.append(f"{label}: raised {err!r}")
                    counts.append(-1)
                    continue
                out.latencies.append(time.perf_counter() - start)
                events = events_of(result)
                counts.append(events)
                out.events += events
                out.trace_events += len(result.trace.events)
                agreement = report.check("theorem16_agreement")
                out.skew_ratios.append(agreement.measured / agreement.bound)
                if not report.all_passed:
                    out.failed_runs += 1
                    out.failures.append(
                        f"{label}: audit failed "
                        f"{[check.claim for check in report.failed()]}")
            out.fingerprint = tuple(counts)
            return out
        return run


class SerialStream(Workload):
    """Streaming runs with online skew/validity observers, no trace."""

    name = "serial-stream"
    why = ("record_trace=False runs with online observers at n=120 "
           "two_faced: no trace writes, no audit, hooks on every correction")
    N = 120
    RUNS = 8
    ROUNDS = 6

    def setup(self) -> None:
        api = import_api()
        runner, experiments = api["runner"], api["experiments"]
        params = experiments.default_parameters(n=self.N, f=(self.N - 1) // 3)
        self.specs = [
            runner.RunSpec.maintenance(params, rounds=self.ROUNDS,
                                       fault_kind="two_faced", seed=seed,
                                       record_trace=False,
                                       observers=("skew", "validity"))
            for seed in _derived_seeds(self.rng, self.RUNS)]

    def units(self):
        return [lambda mark, spec=spec: stream_run(spec, mark)[0]
                for spec in self.specs]


class ReplicaBatch(Workload):
    """``replicate()`` of one streaming spec over 256 seeds (batch engine)."""

    name = "replica-batch"
    why = ("replicate() of n=32 two_faced over 256 seeds: BatchRunner routes "
           "the group to VectorSystem, the serial loop does no work")
    #: about half of a batch is interpreter work: ``execute_batch`` builds
    #: the inputs and synthesizes 256 results around ``VectorSystem.run``.
    KERNELS = ("python", "numpy", "memory")
    N = 32
    ROUNDS = 20
    REPLICAS = 256
    PARITY_SEEDS = 4

    def setup(self) -> None:
        api = import_api()
        runner, experiments = api["runner"], api["experiments"]
        params = experiments.default_parameters(n=self.N, f=(self.N - 1) // 3)
        self.spec = runner.RunSpec.maintenance(
            params, rounds=self.ROUNDS, fault_kind="two_faced",
            seed=0, record_trace=False, observers=("skew", "validity"))
        self.seeds = _derived_seeds(self.rng, self.REPLICAS)
        self.engine = "unverified"
        self.reference: Dict[int, str] = {}

    def _replicate(self, mark: Callable[[str], None], keep: bool
                   ) -> UnitResult:
        label = f"replicate:{self.spec.describe()}x{len(self.seeds)}"
        mark(label)
        out = UnitResult(runs=len(self.seeds),
                         replicas_requested=len(self.seeds))
        start = time.perf_counter()
        try:
            replicated = API["runner"].replicate(self.spec, seeds=self.seeds)
        except Exception as err:
            out.failed_runs = out.runs
            out.failures.append(f"{label}: raised {err!r}")
            out.fingerprint = (-1,)
            return out
        counts = []
        for seed, result in zip(replicated.seeds, replicated.results):
            ratio, failures = stream_failures(result, f"{label}:seed={seed}")
            out.skew_ratios.append(ratio)
            if failures:
                out.failed_runs += 1
                out.failures.extend(failures)
            events = events_of(result)
            counts.append(events)
            out.events += events
            out.trace_events += len(result.trace.events)
        if tuple(replicated.seeds) != tuple(self.seeds):
            out.failed_runs = out.runs
            out.failures.append(f"{label}: seeds missing from the result")
        if keep:
            for seed, result in zip(replicated.seeds[:self.PARITY_SEEDS],
                                    replicated.results):
                self.reference[seed] = output_signature(result)
        out.latencies.append((time.perf_counter() - start) / len(self.seeds))
        out.fingerprint = tuple(counts)
        return out

    def units(self):
        return [lambda mark: self._replicate(mark, keep=False)]

    def warmup(self) -> Tuple[int, List[str]]:
        """Full-size batch under telemetry: every replica must vectorize."""
        telemetry_mod = API["telemetry"]
        bundle = telemetry_mod.Telemetry()
        with telemetry_mod.activated(bundle):
            out = self._replicate(lambda label: None, keep=True)
        failures = list(out.failures)
        vectorized = bundle.registry.value("runner.vectorized_replicas")
        fallbacks = bundle.registry.value("runner.vectorized_fallbacks")
        ratio = vectorized / len(self.seeds)
        self.engine = (f"batch engine (VectorSystem): {int(vectorized)}/"
                       f"{len(self.seeds)} replicas vectorized, "
                       f"{int(fallbacks)} fell back")
        if ratio != 1.0 or fallbacks:
            failures.append(f"engine engagement: vector_engaged_ratio "
                            f"{ratio!r}, {int(fallbacks)} fallbacks")
        self.warm_fingerprints = {0: out.fingerprint}
        return out.runs, failures

    def traced_failures(self, metrics: Dict[str, float]) -> List[str]:
        ratio = metrics["runner.vector_engaged_ratio"]
        if ratio != 1.0:
            return [f"traced run: vector_engaged_ratio {ratio!r}"]
        return []

    def parity(self) -> Tuple[int, List[str]]:
        """A few seeds rerun with ``vectorize=False`` must match bit for bit."""
        failures = []
        serial_spec = self.spec.replace(vectorize=False)
        for seed in self.seeds[:self.PARITY_SEEDS]:
            label = f"parity:{serial_spec.describe()}"
            try:
                result = API["runner"].execute(serial_spec.with_seed(seed))
            except Exception as err:
                failures.append(f"{label}: raised {err!r}")
                continue
            _, stream = stream_failures(result, label)
            failures.extend(stream)
            if output_signature(result) != self.reference.get(seed):
                failures.append(f"{label}: batch engine output differs "
                                f"from the serial loop")
        return self.PARITY_SEEDS, failures


class LargeNSparse(Workload):
    """One streaming run on a 2000-node hierarchy (round engine)."""

    name = "large-n-sparse"
    why = ("one streaming run on hierarchy n=2000, silent faults: the round "
           "engine and its CSR TopologyIndex do the work; set-up builds it")
    KERNELS = ("numpy", "memory")
    N = 2000
    ROUNDS = 4
    PARITY_N = 200
    TOPOLOGY = "hierarchy"

    def _spec(self, n: int, seed: int, **changes):
        api = API
        params = api["experiments"].default_parameters(n=n, f=(n - 1) // 3)
        return api["runner"].RunSpec.maintenance(
            params, rounds=self.ROUNDS, fault_kind="silent",
            topology=self.TOPOLOGY, seed=seed, record_trace=False,
            observers=("skew", "validity"),
            max_events=4 * n * n * self.ROUNDS + 10_000, **changes)

    def setup(self) -> None:
        api = import_api()
        seed, self.parity_seed = _derived_seeds(self.rng, 2)
        self.spec = self._spec(self.N, seed)
        topology = api["topology_spec"].build_topology(
            self.spec.topology, n=self.N, seed=seed)
        api["topology_index"].topology_index(topology)
        self.engine = "unverified"

    def units(self):
        return [lambda mark: stream_run(self.spec, mark)[0]]

    def _engaged(self, spec) -> Tuple[UnitResult, Optional[object],
                                      List[str], str]:
        """Run ``spec`` under telemetry; the round engine must not fall back."""
        telemetry_mod = API["telemetry"]
        bundle = telemetry_mod.Telemetry()
        with telemetry_mod.activated(bundle):
            out, result = stream_run(spec, lambda label: None)
        rounds = int(bundle.registry.value("roundengine.rounds"))
        fallbacks = int(bundle.registry.value("roundengine.fallbacks"))
        failures = list(out.failures)
        if fallbacks or rounds != spec.rounds:
            failures.append(f"{spec.describe()}: round engine ran {rounds} of "
                            f"{spec.rounds} rounds, {fallbacks} fallbacks")
        line = (f"round engine (RoundSystem): {rounds}/{spec.rounds} rounds, "
                f"{fallbacks} fallbacks at n={spec.params.n}")
        return out, result, failures, line

    def warmup(self) -> Tuple[int, List[str]]:
        """Full-size run under telemetry: the round engine must run it all."""
        out, _, failures, self.engine = self._engaged(self.spec)
        self.warm_fingerprints = {0: out.fingerprint}
        return 1, failures

    def traced_failures(self, metrics: Dict[str, float]) -> List[str]:
        fallbacks = metrics["roundengine.fallbacks"]
        rounds = metrics["roundengine.rounds"]
        if fallbacks or rounds != self.ROUNDS:
            return [f"traced run: round engine ran {rounds} of "
                    f"{self.ROUNDS} rounds, {fallbacks} fallbacks"]
        return []

    def parity(self) -> Tuple[int, List[str]]:
        """Reduced instance: round engine against the serial loop."""
        engine_spec = self._spec(self.PARITY_N, self.parity_seed,
                                 round_engine=True)
        _, engine_result, failures, line = self._engaged(engine_spec)
        self.engine += f"; parity {line}"
        serial_spec = engine_spec.replace(round_engine=False)
        serial, serial_result = stream_run(serial_spec, lambda label: None)
        failures.extend(serial.failures)
        if engine_result is not None and serial_result is not None and \
                output_signature(engine_result) \
                != output_signature(serial_result):
            failures.append(f"parity:{serial_spec.describe()}: round engine "
                            f"output differs from the serial loop")
        return 2, failures


WORKLOADS = {cls.name: cls for cls in
             (SerialAudit, SerialStream, ReplicaBatch, LargeNSparse)}
