"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import softpin.cli  # noqa: E402
import softpin.lattice  # noqa: E402
import softpin.localization  # noqa: E402
import softpin.transfer  # noqa: E402
from softpin.model import ChargeModel, PotentialSpec, WalkSpec  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())["workloads"]
WALK = WalkSpec(alpha=0.6)
TAIL = PotentialSpec(kind="power_tail", theta=3.0)
GAUSSIAN = ChargeModel("gaussian")


def _ref(workload: str, index: int):
    return WORKLOADS[workload][index], REFERENCE[workload][index]


def _replace_cell(text: str, name: str, column: str, value) -> str:
    """The CSV text with one cell of its first data row replaced."""
    lines = text.splitlines(keepends=True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[head].rstrip("\n").split(",")
    cells = lines[head + 1].rstrip("\n").split(",")
    cells[columns.index(column)] = value
    lines[head + 1] = ",".join(cells) + "\n"
    return "".join(lines)


# ------------------------------------------------------------ correctness

def test_check_accepts_a_live_run_and_rejects_a_perturbed_cell(tmp_path):
    op, ref = _ref("annealed-curve", 1)  # localize, a fraction of a second
    configs = run.write_configs([op], tmp_path)
    outcome = run.run_pass([op], configs, tmp_path, seed=7)["ops"][0]
    verdict = check.check_op(op, outcome["exit"], outcome["error"],
                             outcome["files"], ref, seeded=False)
    assert verdict.failures == []

    text = outcome["files"]["localize.csv"]
    value = check.parse_csv(text)[0]["partial_sum"]
    bad = _replace_cell(text, "localize.csv", "partial_sum",
                        repr(value * (1.0 + 1e-6)))
    verdict = check.check_op(op, 0, None, {"localize.csv": bad}, ref,
                             seeded=False)
    assert verdict.wrong and "partial_sum" in verdict.failures[0]


def test_sampled_pass_leaves_out_the_sampler_and_divides_by_its_loop(
        tmp_path):
    ops = [_ref("annealed-curve", 1)[0]] * 3
    configs = run.write_configs(ops, tmp_path)
    sampler = run.SpeedSampler()
    result = run.run_pass(ops, configs, tmp_path, seed=7, sampler=sampler)
    assert result["samples"] == len(sampler.samples) > 0
    assert result["unit_s"] == pytest.approx(np.mean(sampler.samples))
    assert result["wall_s"] == pytest.approx(
        sum(o["wall_s"] for o in result["ops"]))
    assert result["wall_s"] + sampler.wall <= result["elapsed_s"]
    assert result["wall_norm"] == result["wall_s"] / result["unit_s"]
    assert result["cpu_norm"] == result["cpu_s"] / result["unit_s"]


def test_sampler_samples_while_the_main_thread_waits_on_a_pool():
    def spin(n):
        total = 0
        for i in range(n):
            total += i * i
        return total

    handler = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(spin, [400_000] * 8))
        wall = time.perf_counter() - t0
    expected = wall / run.SAMPLE_EVERY_S
    assert len(sampler.samples) >= expected / 3
    assert signal.getsignal(signal.SIGALRM) is handler
    assert not sampler._timer.is_alive()


def test_non_finite_cell_and_wrong_exit_code_are_failures():
    op, ref = _ref("annealed-curve", 1)
    text = ref["files"]["localize.csv"]
    nan = _replace_cell(text, "localize.csv", "estimate", "nan")
    verdict = check.check_op(op, 0, None, {"localize.csv": nan}, ref,
                             seeded=False)
    assert verdict.failures and not verdict.wrong
    verdict = check.check_op(op, 3, None, {"localize.csv": text}, ref,
                             seeded=False)
    assert verdict.failures == ["exit code 3, reference 0"]


def test_brackets_agree_to_one_bisection_step():
    op, ref = _ref("annealed-curve", 0)
    text = ref["files"]["critical_curve.csv"]
    lo = check.parse_csv(text)[0]["hc_ann_lo"]
    for shift, ok in ((0.5, True), (2.0, False)):
        moved = _replace_cell(text, "critical_curve.csv", "hc_ann_lo",
                              repr(lo - shift * check.ANNEALED_TOL))
        verdict = check.check_op(op, 0, None,
                                 {"critical_curve.csv": moved}, ref,
                                 seeded=False)
        assert (verdict.failures == []) is ok


def test_seeded_cells_compare_only_at_the_default_seed():
    op, ref = _ref("disorder", 0)
    files = dict(ref["files"])
    summary = check.parse_csv(files["free_energy_summary.csv"])[0]
    files["free_energy_summary.csv"] = _replace_cell(
        files["free_energy_summary.csv"], "free_energy_summary.csv",
        "f_quenched", repr(summary["f_quenched"] * 1.01))
    assert check.check_op(op, 0, None, files, ref, seeded=False).failures == []
    assert check.check_op(op, 0, None, files, ref, seeded=True).wrong


def test_quenched_above_annealed_breaks_the_invariant():
    op, ref = _ref("disorder", 0)
    files = dict(ref["files"])
    summary = check.parse_csv(files["free_energy_summary.csv"])[0]
    files["free_energy_summary.csv"] = _replace_cell(
        files["free_energy_summary.csv"], "free_energy_summary.csv",
        "f_quenched", repr(summary["f_annealed"] + 1.0))
    verdict = check.check_op(op, 0, None, files, ref, seeded=False)
    assert verdict.wrong
    assert "annealed + 3 sem" in verdict.failures[-1]


def test_probe_fails_only_by_raising_or_non_finite_output():
    op, ref = _ref("annealed-curve", 3)  # localize probe, raised at record
    assert op.probe and ref["error"] is not None
    ok = _replace_cell(REFERENCE["annealed-curve"][1]["files"]["localize.csv"],
                       "localize.csv", "beta", "40.0")
    for code in check.PROBE_EXIT_CODES:
        verdict = check.check_op(op, code, None, {"localize.csv": ok}, ref,
                                 seeded=False)
        assert verdict.failures == []
    assert check.check_op(op, 1, None, {}, ref, seeded=False).failures
    assert check.check_op(op, None, "OverflowError: math range error", {},
                          ref, seeded=False).failures


def test_fixed_free_energy_probe_passes_although_its_reference_is_nan():
    op, ref = _ref("annealed-curve", 2)  # free-energy probe, wrote nan
    assert op.probe and ref["error"] is None and ref["files"]
    assert "nan" in ref["files"]["free_energy_summary.csv"]
    fixed = {name: text.replace("nan", "-39.5").replace("False", "True")
             for name, text in ref["files"].items()}
    for code in check.PROBE_EXIT_CODES:
        verdict = check.check_op(op, code, None, fixed, ref, seeded=True)
        assert verdict.failures == []
    verdict = check.check_op(op, 3, None, ref["files"], ref, seeded=True)
    assert verdict.failures and not verdict.wrong


# ----------------------------------------------------------------- tracer

def _softpin_bindings() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "softpin" or name.startswith("softpin."):
            out.update({(name, k): v for k, v in vars(module).items()
                        if callable(v)})
    for cls in (softpin.lattice.FoldedKernel, softpin.lattice.SignedKernel):
        out[(cls.__name__, "step")] = cls.step
    return out


def test_tracer_rebinds_every_namespace_and_restores_them():
    before = _softpin_bindings()
    t = tracer.Tracer()
    with t:
        assert softpin.cli.run is not before[("softpin.cli", "run")]
        assert softpin.cli.quenched_critical_h is not before[
            ("softpin.cli", "quenched_critical_h")]
        assert softpin.localization.quenched_free_energy is not before[
            ("softpin.localization", "quenched_free_energy")]
        assert softpin.lattice.SignedKernel.step is not before[
            ("SignedKernel", "step")]
    assert _softpin_bindings() == before


def _traced(fn):
    """Spans and layer metrics of fn(), which must call through module
    attributes so that it reaches the wrappers."""
    t = tracer.Tracer()
    with t:
        fn()
    rec = t.spans()
    wall = float(rec[:, tracer.T1].max() - rec[:, tracer.T0].min())
    return rec, tracer.layer_metrics(rec, wall)


def test_traced_counts_on_a_tiny_annealed_sweep():
    rec, m = _traced(lambda: softpin.transfer.annealed_sweep(
        WALK, TAIL, GAUSSIAN, 0.5, 0.1, [16, 64], l=20))
    assert m["transfer.annealed_sweep.calls"] == 1
    assert m["lattice.step.calls"] == 64
    assert m["lattice.site_updates"] == 64 * 21  # folded lattice, L = 20
    assert m["lattice.bytes_computed"] == 64 * 21 * tracer.BYTES_PER_SITE
    sweep = rec[rec[:, tracer.NAME] == tracer.SPAN_NAMES.index(
        "transfer.annealed_sweep")][0, tracer.ID]
    steps = rec[:, tracer.NAME] == tracer.SPAN_NAMES.index("lattice.step")
    assert np.all(rec[steps, tracer.PARENT] == sweep)
    assert m["transfer.annealed_sweep.self_s"] >= 0.0


def test_traced_counts_on_a_tiny_quenched_estimate():
    _, m = _traced(lambda: softpin.transfer.quenched_free_energy(
        WALK, TAIL, GAUSSIAN, 0.5, 0.1, n_max=32, n_samples=3, seed=1, l=10))
    assert m["transfer.quenched_free_energy.rows"] == 3
    assert m["transfer.quenched_sweep.calls"] == 3
    assert m["transfer.quenched_sweep.steps"] == 3 * 32
    assert m["lattice.step.calls"] == 3 * 32
    assert m["lattice.site_updates"] == 3 * 32 * 11


def test_traced_bisection_evals_match_criterion_calls():
    _, m = _traced(lambda: softpin.localization.annealed_critical_h(
        WALK, TAIL, GAUSSIAN, 0.5, tol=0.05, m_max=64))
    evals = m["localization.annealed_critical_h.evals"]
    assert evals == m["localization.excursion_sum.calls"] > 2
    assert m["localization.excursion_weights.steps"] == evals * 64
    assert m["model.return_law.calls"] == 1


def test_pool_worker_spans_hang_off_the_open_cli_run(tmp_path):
    config = {"model": {"walk": {"alpha": 0.6},
                        "potential": {"kind": "power_tail", "theta": 3.0}},
              "task": {"beta_grid": [0.5, 1.0]},
              "numerics": {"m_max": 64, "tol": 0.05}}
    rec, m = _traced(lambda: softpin.cli.run(
        "critical-curve", config, out=str(tmp_path), threads=2))
    names = rec[:, tracer.NAME]
    root = rec[names == tracer.SPAN_NAMES.index("cli.run")]
    brackets = rec[names == tracer.SPAN_NAMES.index(
        "localization.annealed_critical_h")]
    assert len(root) == 1 and len(brackets) == 2
    assert np.all(brackets[:, tracer.PARENT] == root[0, tracer.ID])
    assert np.all(brackets[:, tracer.THREAD] != root[0, tracer.THREAD])
    assert m["cli.run.cover_frac"] == pytest.approx(1.0)


def test_self_time_merges_overlapping_children_on_pool_threads():
    #         id name op thread parent t0   t1   cpu  work
    rec = np.array([
        [0, 0, 0, 0, -1, 0.0, 10.0, 0.5, 0],   # root, waits on the pool
        [1, 0, 0, 1, 0, 1.0, 6.0, 4.0, 0],     # worker child
        [2, 0, 0, 2, 0, 2.0, 8.0, 6.0, 0],     # overlapping worker child
        [3, 0, 0, 1, 1, 2.0, 5.0, 3.0, 0],     # same-thread grandchild
    ], dtype=float)
    self_s, wait_s = tracer.span_times(rec)
    assert self_s.tolist() == [3.0, 2.0, 6.0, 3.0]
    assert wait_s.tolist() == [9.5, 1.0, 0.0, 0.0]


# --------------------------------------------------------------- contract

def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "disorder", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_in_benchmark_json_are_all_produced():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    _, m = _traced(lambda: softpin.transfer.annealed_sweep(
        WALK, TAIL, GAUSSIAN, 0.5, 0.1, [16], l=8))
    produced = set(m) | {"trace_overhead_frac", "cli.serial_wall_s",
                         "cli.output_bytes"}
    assert {x["name"] for x in spec["per_layer"]} <= produced
    assert {x["name"] for x in spec["end_to_end"]} == {
        "wall_norm", "cpu_norm", "peak_rss_mb", "setup_s"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
