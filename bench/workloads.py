"""The benchmark's three workloads.

Each is a closed loop with one client: this process calls the stages one
after another and starts the next call when the previous one returns. The
program sees only the config files written here; the seed of every input
comes from the benchmark's --seed.

- full_scale_20: the 50-location floor with 20 agents for 5 days of 300
  ticks, through the `pipeline` command. Tracking layers (formats, fusion,
  sensors, decoding) do nearly all the work.
- demo_stages: configs/demo.json under several derived seeds, each stage
  called on its own through the CLI entry point. Per-call fixed costs
  (config reload, manifest load and save, motion-model rebuild, handoff
  re-reads) dominate.
- long_walk: one full-scale agent without schedule or sensors walking one
  day of 100,000 ticks, then the stationary-occupancy oracle. Exercises
  simulate and world, and none of the tracking layers.
"""

from __future__ import annotations

import json
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from officelab import cli, world
from officelab.config import load_config
from officelab.presets import full_scale_config

import checks
from layers import STAGES
from spans import END, NAME, START, Tracer

DEMO_SEEDS = 10  # demo runs per iteration; one run alone is too short to time
# Oracle vs simulated occupancy, L1 over 50 locations after 100,000 ticks.
# Seeds 0-11 gave 0.015-0.035; the bound leaves room for the seed-to-seed
# spread but not for a simulator or oracle that disagree.
ORACLE_L1_BOUND = 0.08


@dataclass
class Iteration:
    """What one pass over a workload did. Op ids are '<run>/<stage>'."""

    total_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=lambda: dict.fromkeys((*STAGES, "oracle"), 0.0))
    ops: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    quality: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)


class Workload:
    name = ""
    tracks = True  # runs observe, fuse and decode

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.docs: dict[str, dict] = {}  # run name -> config document
        self._digests: dict[str, dict[str, str]] = {}  # run name -> first iteration's digests

    def prepare(self) -> Path:
        """Write the config files; returns the first one."""
        self.work.mkdir(parents=True, exist_ok=True)
        for run, doc in self.documents().items():
            (self.work / f"{run}.json").write_text(json.dumps(doc))
            self.docs[run] = doc
        return self.work / f"{next(iter(self.docs))}.json"

    def documents(self) -> dict[str, dict]:
        raise NotImplementedError

    def bases(self) -> dict[str, int]:
        agent_ticks = sum(len(d["agents"]) * d["days"] * d["ticks_per_day"] for d in self.docs.values())
        return {
            "agent_ticks": agent_ticks,
            "observed_ticks": sum(d["days"] * d["ticks_per_day"] for d in self.docs.values()) if self.tracks else 0,
            "tracked_agent_ticks": agent_ticks if self.tracks else 0,
            "agent_days": sum(len(d["agents"]) * d["days"] for d in self.docs.values()) if self.tracks else 0,
        }

    def iterate(self, tracer: Tracer, traced: bool) -> Iteration:
        it = Iteration()
        for run in self.docs:
            out = self.work / "runs" / run
            shutil.rmtree(out, ignore_errors=True)
            out.parent.mkdir(parents=True, exist_ok=True)
            self.run(it, tracer, run, out, traced)
            self.check(it, run, out, traced)
            shutil.rmtree(out, ignore_errors=True)
        return it

    def run(self, it: Iteration, tracer: Tracer, run: str, out: Path, traced: bool) -> None:
        raise NotImplementedError

    def cli_op(self, it: Iteration, tracer: Tracer, run: str, stages: tuple[str, ...], argv: list[str]) -> float:
        """Call the officelab CLI in-process as one client would; returns its wall time."""
        it.ops += len(stages)
        start = time.perf_counter()
        with tracer.span(f"op.{argv[0]}"):
            try:
                outcome = cli.main(argv)
            except (Exception, SystemExit) as exc:
                outcome = repr(exc)
        elapsed = time.perf_counter() - start
        it.total_s += elapsed
        if outcome != 0:
            for stage in stages:
                it.fail(f"{run}/{stage}", f"officelab {' '.join(argv)} -> {outcome}")
        return elapsed

    def check(self, it: Iteration, run: str, out: Path, traced: bool) -> None:
        digests = checks.data_digests(out)
        first = self._digests.setdefault(run, digests)
        for name in checks.digest_mismatches(first, digests):
            it.fail(f"{run}/{checks.FILE_STAGE.get(name, 'simulate')}", f"{name} differs between runs of one seed")
        if traced:
            it.extra["bytes_written"] = it.extra.get("bytes_written", 0) + sum(
                p.stat().st_size for p in out.iterdir() if p.is_file()
            )
            if (out / "beliefs.csv").is_file():
                with open(out / "beliefs.csv") as fh:
                    it.extra["beliefs_rows"] = it.extra.get("beliefs_rows", 0) + sum(1 for _ in fh) - 1
        if first is digests and self.tracks:
            self.check_tracking(it, run, out)

    def check_tracking(self, it: Iteration, run: str, out: Path) -> None:
        """Row, step and accuracy checks; run once per seed (later runs must match its digests)."""
        doc = self.docs[run]
        agents = [a["id"] for a in doc["agents"]]
        shape = (agents, doc["days"], doc["ticks_per_day"])
        try:
            truth, rows = checks.read_table(out / "trajectories.csv")
            if not checks.complete(truth, rows, *shape):
                it.fail(f"{run}/simulate", "trajectories.csv lacks or repeats agent-ticks")
            tables = {}
            for name, stage, key in (("argmax_paths.csv", "fuse", "argmax"), ("decoded_paths.csv", "decode", "decoded")):
                tables[key], rows = checks.read_table(out / name)
                if not checks.complete(tables[key], rows, *shape):
                    it.fail(f"{run}/{stage}", f"{name} does not hold one row per agent-tick")
                it.quality[f"{key}_matches"] = it.quality.get(f"{key}_matches", 0) + checks.matches(tables[key], truth)
            bad = checks.bad_steps(tables["decoded"], checks.neighbours_of(doc["floor_plan"]["adjacency"]))
            if bad:
                it.fail(f"{run}/decode", f"decoded_paths.csv has {bad} steps to a non-neighbour")
            it.quality["scored_agent_ticks"] = it.quality.get("scored_agent_ticks", 0) + len(truth)
        except (OSError, ValueError, IndexError) as exc:
            it.fail(f"{run}/decode", f"cannot read the tracking outputs: {exc!r}")


class FullScale20(Workload):
    name = "full_scale_20"

    def documents(self) -> dict[str, dict]:
        doc = full_scale_config(seed=self.seed, n_agents=20, days=5, ticks_per_day=300, p_detect=0.9)
        return {"full_scale_20": doc}

    def run(self, it, tracer, run, out, traced):
        first_new = len(tracer.spans)
        argv = ["pipeline", "--config", str(self.work / f"{run}.json"), "--out", str(out), "--analytics-source", "decoded"]
        self.cli_op(it, tracer, run, STAGES, argv)
        for rec in tracer.spans[first_new:]:
            stage = rec[NAME].removeprefix("pipeline.")
            if stage in STAGES:
                it.stage_s[stage] += (rec[END] - rec[START]) / 1e9


class DemoStages(Workload):
    name = "demo_stages"

    def documents(self) -> dict[str, dict]:
        base = json.loads((self.root / "configs" / "demo.json").read_text())
        return {
            f"demo-{s}": dict(base, rng_seed=s)
            for s in range(self.seed * DEMO_SEEDS, (self.seed + 1) * DEMO_SEEDS)
        }

    def run(self, it, tracer, run, out, traced):
        config = str(self.work / f"{run}.json")
        for stage in STAGES:
            argv = [stage, "--config", config, "--out", str(out)]
            if stage in ("analyze", "graph"):
                argv += ["--analytics-source", "decoded"]
            it.stage_s[stage] += self.cli_op(it, tracer, run, (stage,), argv)


class LongWalk(Workload):
    name = "long_walk"
    tracks = False

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self._config = None
        self._oracle = None
        self._occupancy = None

    def documents(self) -> dict[str, dict]:
        doc = full_scale_config(seed=self.seed, days=1, ticks_per_day=100_000, n_agents=4)
        agent = dict(doc["agents"][3], schedule=[])  # the oracle models no schedule
        doc.update(agents=[agent], sensors=[])
        doc["floor_plan"]["home_of"] = {str(agent["home"]): [agent["id"]]}
        return {"long_walk": doc}

    def run(self, it, tracer, run, out, traced):
        config_path = self.work / f"{run}.json"
        argv = ["simulate", "--config", str(config_path), "--out", str(out)]
        it.stage_s["simulate"] += self.cli_op(it, tracer, run, ("simulate",), argv)

        if self._config is None:  # the benchmark's own copy, loaded outside the timed calls
            self._config = load_config(config_path)
        config = self._config
        it.ops += 1
        start = time.perf_counter()
        with tracer.span("oracle"):
            if traced:
                tracemalloc.start()
            try:
                pi = world.stationary_distribution(
                    config.floor_plan, config.agents[0], fluctuation_rate=config.fluctuation_rate
                )
                if traced:
                    it.extra["oracle_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            except Exception as exc:
                pi = None
                it.fail(f"{run}/oracle", f"stationary_distribution raised {exc!r}")
            finally:
                if traced:
                    tracemalloc.stop()
        elapsed = time.perf_counter() - start
        it.total_s += elapsed
        it.stage_s["oracle"] += elapsed
        if pi is not None:
            self.check_oracle(it, run, out, [float(x) for x in pi])

    def check_oracle(self, it: Iteration, run: str, out: Path, pi: list[float]) -> None:
        n = len(self.docs[run]["floor_plan"]["locations"])
        problem = checks.distribution_problem(pi, n)
        if problem:
            it.fail(f"{run}/oracle", f"oracle {problem}")
            return
        if self._oracle is None:
            self._oracle = pi
        elif pi != self._oracle:
            it.fail(f"{run}/oracle", "oracle differs between runs of one seed")
        if self._occupancy is None:
            try:
                truth, _ = checks.read_table(out / "trajectories.csv")
            except (OSError, ValueError, IndexError) as exc:
                it.fail(f"{run}/simulate", f"cannot read trajectories.csv: {exc!r}")
                return
            self._occupancy = checks.occupancy(truth, n)
        distance = checks.l1(pi, self._occupancy)
        it.extra["oracle_l1"] = distance
        if distance >= ORACLE_L1_BOUND:
            it.fail(f"{run}/oracle", f"oracle is {distance:.4f} from the simulated occupancy (L1)")


WORKLOADS = {w.name: w for w in (FullScale20, DemoStages, LongWalk)}
