"""Run one softpin benchmark workload and print its metrics.

    python3 bench/run.py --workload disorder --seed 7 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 35 --trace 1
    python3 bench/run.py --record-reference

A run repeats passes over the workload's ops (each op one call of
``softpin.cli.main`` in this process) for ``--seconds`` and checks every
op's output.  Untraced passes also sample the machine's speed
(``SpeedSampler``) and report their times in units of its loop.  With
``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json, with ``--trace 1`` the per-layer metrics of a traced pass
next to untraced passes.  Human-readable lines go first; the last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in a
fresh process.  A run record and the per-pass figures are written to
bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from check import SEEDED, check_op, data_lines, parse_csv
from workloads import DEFAULT_SEED, WORKLOADS

# numpy-backed modules (softpin, tracer) are imported only after main()
# has pinned the BLAS thread count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"

# BLAS and OpenMP pools stay at one thread; softpin's own --threads is the
# only concurrency the workloads run
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import softpin.cli; "
                "print(time.perf_counter() - t)")
PROBE_TIMEOUT_S = 60
# the speed sampler: every 50 ms, a ~1 ms loop of steps on a 257-site lattice
# (numpy keeps the interpreter lock on arrays this small, so a pool
# thread cannot run inside a sample)
SAMPLE_EVERY_S = 0.05
SAMPLE_SITES = 256
SAMPLE_STEPS = 150


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ------------------------------------------------------------- run record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout has no history
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    import hashlib
    digest = hashlib.sha256()
    for path in sorted((SRC / "softpin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV,
    }


# ----------------------------------------------------------------- passes

def write_configs(ops, workdir: Path) -> list[Path]:
    import yaml
    paths = []
    for i, op in enumerate(ops):
        path = workdir / f"op{i}.yaml"
        path.write_text(yaml.safe_dump(op.config), encoding="utf-8")
        paths.append(path)
    return paths


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class SpeedSampler:
    """Samples how fast this machine runs while the ops run.

    A timer thread signals the main thread every SAMPLE_EVERY_S seconds of
    wall time.  The signal reaches the main thread even while it waits on
    softpin's pool, and its handler times a fixed loop shaped like the
    lattice step, SAMPLE_STEPS steps on SAMPLE_SITES + 1 sites, in thread
    CPU time.  The loop uses numpy only, never softpin, so a change to the
    program leaves it alone; its time follows the speed of the machine at
    that moment, which drifts by more than any bound between runs on a
    shared host.  The handler's own wall and CPU time are kept so the ops'
    times can leave them out."""

    def __init__(self):
        import numpy as np
        x = np.arange(SAMPLE_SITES + 1, dtype=float)
        self.p_up = 0.5 * (1.0 + np.tanh(-x / SAMPLE_SITES))
        self.p_down = 1.0 - self.p_up
        self.v, self.out = np.zeros_like(x), np.empty_like(x)
        self.samples: list[float] = []
        self.wall = self.cpu = 0.0
        self._previous = None
        self._stop = threading.Event()
        self._timer = threading.Thread(target=self._tick, daemon=True)

    def loop(self) -> float:
        """Thread CPU seconds of one fixed loop."""
        v, out = self.v, self.out
        t0 = time.thread_time()
        for _ in range(SAMPLE_STEPS):
            v[:] = 0.0
            v[0] = 1.0
            out[:] = 0.0
            out[1:] += v[:-1] * self.p_up[:-1]
            out[:-1] += v[1:] * self.p_down[1:]
            out *= 1.0 / out.sum()
        return time.thread_time() - t0

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        self.samples.append(self.loop())
        self.cpu += _cpu_seconds() - cpu0
        self.wall += time.perf_counter() - wall0

    def _tick(self) -> None:
        main = threading.main_thread().ident
        while not self._stop.wait(SAMPLE_EVERY_S):
            signal.pthread_kill(main, signal.SIGALRM)

    def __enter__(self) -> "SpeedSampler":
        # without SA_RESTART, so the signal wakes a main thread that waits
        # on a lock; Python retries interrupted system calls itself
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._timer.join()
        signal.signal(signal.SIGALRM, self._previous)

    def unit_s(self) -> float:
        """Mean loop time over the samples, or one loop if none came."""
        return statistics.fmean(self.samples) if self.samples \
            else self.loop()


def run_pass(ops, configs, workdir: Path, seed: int, serial=False,
             tracer=None, sampler: SpeedSampler | None = None) -> dict:
    """One pass over the ops: exit codes, outputs, and wall and CPU time.

    With a ``sampler`` the op times leave out its handler's time, and the
    pass times are also given in units of its loop (``*_norm``)."""
    import softpin.cli

    outs = [workdir / f"out{i}" for i in range(len(ops))]
    for out in outs:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
    outcomes = []
    t0 = time.perf_counter()
    with sampler or contextlib.nullcontext():
        for i, (op, config, out) in enumerate(zip(ops, configs, outs)):
            if tracer is not None:
                tracer.op = i
            threads = 1 if serial else op.threads
            spent = (sampler.wall, sampler.cpu) if sampler else (0.0, 0.0)
            cpu0, s0 = _cpu_seconds(), time.perf_counter()
            try:
                code = softpin.cli.main([
                    op.subcommand, "--config", str(config), "--out", str(out),
                    "--seed", str(seed), "--threads", str(threads)])
                exc = None
            except Exception as raised:  # a failing op is counted, not fatal
                code, exc = None, raised
            wall, cpu = time.perf_counter() - s0, _cpu_seconds() - cpu0
            if sampler:
                wall -= sampler.wall - spent[0]
                cpu -= sampler.cpu - spent[1]
            outcomes.append({"exit": code, "exc": exc, "wall_s": wall,
                             "cpu_s": cpu})
    elapsed = time.perf_counter() - t0
    for outcome, out in zip(outcomes, outs):
        exc = outcome.pop("exc")
        outcome["error"] = None
        if exc is not None:
            traceback.print_exception(exc)
            outcome["error"] = f"{type(exc).__name__}: {exc}"
        outcome["files"] = {p.name: p.read_text(encoding="utf-8")
                            for p in sorted(out.iterdir())}
    result = {
        "wall_s": sum(o["wall_s"] for o in outcomes),
        "cpu_s": sum(o["cpu_s"] for o in outcomes),
        "elapsed_s": elapsed,
        "ops": outcomes,
    }
    if sampler:
        unit = sampler.unit_s()
        result.update(wall_norm=result["wall_s"] / unit,
                      cpu_norm=result["cpu_s"] / unit, unit_s=unit,
                      samples=len(sampler.samples))
    return result


def _setup_seconds() -> list[float]:
    """Import time of softpin.cli in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             env=_env(), capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# ------------------------------------------------------------------ checks

class Checker:
    """Checks every op of every pass; counts attempted and failed ops."""

    def __init__(self, ops, reference: list[dict], seeded: bool):
        self.ops, self.reference, self.seeded = ops, reference, seeded
        self.first: list[dict] | None = None
        self.counts: dict | None = None
        self.attempted = self.failed = 0
        self.correct = True
        self.notes: dict[str, list[str]] = {}

    def _note(self, label: str, reason: str) -> None:
        notes = self.notes.setdefault(label, [])
        if reason not in notes:
            notes.append(reason)

    def __call__(self, pass_result: dict) -> None:
        for i, (op, outcome) in enumerate(zip(self.ops, pass_result["ops"])):
            verdict = check_op(op, outcome["exit"], outcome["error"],
                               outcome["files"], self.reference[i],
                               self.seeded)
            if self.first is not None and not verdict.failures and \
                    outcome["files"] != self.first[i]["files"]:
                verdict.fail("output differs from the first pass", wrong=True)
            self.attempted += 1
            self.failed += bool(verdict.failures)
            self.correct = self.correct and not verdict.wrong
            for reason in verdict.failures:
                self._note(f"op {i} {op.label}", reason)
        if self.first is None:
            self.first = pass_result["ops"]

    def check_counts(self, layer: dict) -> None:
        """Work counts depend only on the inputs, so every traced pass of a
        run must give the same ones."""
        counts = {k: v for k, v in layer.items() if isinstance(v, int)}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.correct = False
            self._note("trace", "work counts differ between traced passes")


# ---------------------------------------------------------------- workload

def _median(values):
    return statistics.median(values) if values else float("nan")


def _spread(values) -> str:
    return (f"median of {len(values)}, min {min(values):.4f}, "
            f"max {max(values):.4f}") if values else "no samples"


def _walls(passes, key="wall_s") -> list[float]:
    return [p[key] for p in passes]


def _output_bytes(pass_result: dict) -> int:
    return sum(len(text.encode("utf-8")) for outcome in pass_result["ops"]
               for text in outcome["files"].values())


def repeat_passes(workload: str, ops, seed: int, seconds: float,
                  trace: bool, checker: Checker):
    """Passes cycling through their kinds until the next one would end
    after ``seconds``.  Kinds: plain; with tracing also traced, and serial
    (every op at --threads 1) when an op runs the pool.  A first plain pass
    warms up lazy imports and caches; it is checked but not timed."""
    from tracer import Tracer, layer_metrics

    kinds = ["plain"]
    if trace:
        kinds.append("traced")
        if any(op.threads > 1 for op in ops):
            kinds.append("serial")
    passes: dict[str, list[dict]] = {kind: [] for kind in kinds}
    layer: list[dict] = []
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        configs = write_configs(ops, workdir)
        deadline = time.perf_counter() + seconds
        warm_up = run_pass(ops, configs, workdir, seed,
                           sampler=SpeedSampler())
        checker(warm_up)
        for k in itertools.count():
            kind = kinds[k % len(kinds)]
            if kind == "traced":
                with Tracer() as tracer:
                    result = run_pass(ops, configs, workdir, seed,
                                      tracer=tracer)
                records = tracer.spans()
                layer.append(layer_metrics(records, result["wall_s"]))
                checker.check_counts(layer[-1])
                _save_spans(workload, records)
            else:
                sampler = SpeedSampler() if kind == "plain" else None
                result = run_pass(ops, configs, workdir, seed,
                                  serial=kind == "serial", sampler=sampler)
            checker(result)
            passes[kind].append(result)
            upcoming = passes[kinds[(k + 1) % len(kinds)]] or [warm_up]
            if k + 1 >= len(kinds) and time.perf_counter() + \
                    max(_walls(upcoming, "elapsed_s")) > deadline:
                return passes, layer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    ops = WORKLOADS[workload]
    reference = json.loads(REFERENCE.read_text())["workloads"][workload]
    checker = Checker(ops, reference, seeded=seed == DEFAULT_SEED)
    load_before = os.getloadavg()
    passes, layer = repeat_passes(workload, ops, seed, seconds, trace,
                                  checker)
    # children are counted before the set-up probes start
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    plain = passes["plain"]
    setup = []
    if trace:
        # counts repeat exactly (Checker.check_counts); times take a median
        values = {name: value if isinstance(value, int)
                  else _median([m[name] for m in layer])
                  for name, value in layer[0].items()}
        values["trace_overhead_frac"] = \
            _median(_walls(passes["traced"])) / _median(_walls(plain)) - 1.0
        # the plain passes already run every op at --threads 1 on a
        # workload without a pool op
        values["cli.serial_wall_s"] = _median(
            _walls(passes.get("serial", passes["plain"])))
        values["cli.output_bytes"] = _output_bytes(plain[0])
        wanted = _spec()["per_layer"]
    else:
        setup = _setup_seconds()
        values = {
            "wall_norm": _median(_walls(plain, "wall_norm")),
            "cpu_norm": _median(_walls(plain, "cpu_norm")),
            "peak_rss_mb": (own + kids) / 1024.0,  # Linux reports KiB
            "setup_s": _median(setup),
        }
        wanted = _spec()["end_to_end"]

    result = {
        "correct": checker.correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    report = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "record": run_record(),
        "load_before": load_before, "load_after": os.getloadavg(),
        "passes": {kind: [{
            **{key: p[key] for key in ("wall_s", "cpu_s", "wall_norm",
                                       "cpu_norm", "unit_s", "samples",
                                       "elapsed_s") if key in p},
            "op_wall_s": [o["wall_s"] for o in p["ops"]],
        } for p in ps] for kind, ps in passes.items()},
        "setup_samples_s": setup,
        "raw": {key: _median(_walls(plain, key))
                for key in ("wall_s", "cpu_s")} | {
            "unit_s": _median(_walls(plain, "unit_s"))},
        "op_wall_s": [_median([p["ops"][i]["wall_s"] for p in passes["plain"]])
                      for i in range(len(ops))],
        "notes": checker.notes,
        "values": values,
        "result": result,
    }
    _print_report(report, ops, wanted)
    RESULTS.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (RESULTS / name).write_text(json.dumps(report, indent=1) + "\n")
    return result


def _save_spans(workload: str, records) -> None:
    import numpy as np
    from tracer import SPAN_NAMES
    RESULTS.mkdir(exist_ok=True)
    np.savez(RESULTS / f"spans-{workload}.npz", spans=records,
             names=np.array(SPAN_NAMES), workload=workload)


def _print_report(report, ops, wanted) -> None:
    print(f"softpin benchmark: workload {report['workload']}, seed "
          f"{report['seed']}, {report['seconds']} s, trace "
          f"{int(report['trace'])}")
    print("record: " + ", ".join(f"{k} {v}"
                                 for k, v in report["record"].items()))
    print(f"load average before {report['load_before']}, after "
          f"{report['load_after']}")
    for i, op in enumerate(ops):
        notes = report["notes"].get(f"op {i} {op.label}")
        status = "FAILED: " + "; ".join(notes) if notes else "ok"
        print(f"op {i} {op.label} --threads {op.threads}: median "
              f"{report['op_wall_s'][i]:.4f} s, {status}")
    for note in report["notes"].get("trace", ()):
        print(f"trace: {note}")
    for kind, ps in report["passes"].items():
        print(f"{kind} passes, raw wall_s: {_spread(_walls(ps))}")
        if kind == "plain":  # the only passes the sampler runs in
            print(f"{kind} passes, wall_norm: "
                  f"{_spread(_walls(ps, 'wall_norm'))}")
    values = report["values"]
    if report["trace"]:
        for name in sorted(values):
            print(f"  {name:48s} {values[name]:.6g}")
    else:
        print(f"setup samples: {_spread(report['setup_samples_s'])}")
    raw = report["raw"]
    print(f"plain passes, raw medians: wall_s {raw['wall_s']:.6g} s, cpu_s "
          f"{raw['cpu_s']:.6g} s, sampler loop {raw['unit_s']:.6g} s")
    for m in wanted:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    res = report["result"]
    print(f"failed_frac {res['failed'] / res['attempted']:.4g} ratio "
          f"({res['failed']} of {res['attempted']} ops)")


# -------------------------------------------------------------- entry point

def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; prints a summary table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=seconds + 150)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary:")
    for workload, res in results.items():
        cells = ", ".join(f"{name} {m['value']:.6g} {m['unit']}"
                          for name, m in res["metrics"].items())
        print(f"  {workload}: {cells}; failed {res['failed']} of "
              f"{res['attempted']}, correct {res['correct']}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"all-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(results, indent=1) + "\n")
    print(json.dumps(results))
    return 0


def record_reference() -> int:
    """Record every op's outputs at the default seed into reference.json."""

    def one_pass(workload, seed):
        ops = WORKLOADS[workload]
        workdir = WORK / f"reference-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            configs = write_configs(ops, workdir)
            return run_pass(ops, configs, workdir, seed)["ops"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        entries = []
        other = one_pass(workload, DEFAULT_SEED + 1)
        for i, outcome in enumerate(one_pass(workload, DEFAULT_SEED)):
            files = {name: data_lines(text)
                     for name, text in outcome["files"].items()}
            # every cell outside SEEDED must be the same on another seed
            for name, text in files.items():
                if name not in other[i]["files"]:
                    continue
                for a, b in zip(parse_csv(text),
                                parse_csv(other[i]["files"][name])):
                    for column in a:
                        if column not in SEEDED.get(name, ()) and \
                                repr(a[column]) != repr(b[column]):
                            raise SystemExit(
                                f"{workload} op {i} {name} {column} depends "
                                "on the seed but is not listed in SEEDED")
            entries.append({"subcommand": WORKLOADS[workload][i].subcommand,
                            "exit": outcome["exit"], "error": outcome["error"],
                            "files": files})
            print(f"{workload} op {i}: exit {outcome['exit']}, error "
                  f"{outcome['error']}, files {sorted(files)}")
        out["workloads"][workload] = entries
    REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record reference outputs at the default seed")
    args = parser.parse_args(argv)

    if not (SRC / "softpin" / "cli.py").is_file():
        print(f"bench: no softpin sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))

    if args.record_reference:
        return record_reference()
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if not 0 <= seed < 2 ** 64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.workload == "all":
        return run_all(seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    result = run_workload(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
