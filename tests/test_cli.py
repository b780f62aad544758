import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from softpin import __version__, cli
from softpin.cli import config_digest, job_seed, main, run
from softpin.continuum import (
    ContinuumParams,
    ContinuumPhasePoint,
    continuum_free_energy_mc,
)

from conftest import log_uniform, signed

CS1, CS2 = 0.513531, 0.395852  # frozen height-sum constants, alpha=0.6 theta=3


def write_cfg(tmp_path, name: str, cfg: dict) -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return str(path)


def read_csv(path):
    """(comment_lines, columns, rows-as-string-dicts) of one output file."""
    comments, columns, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append(dict(zip(columns, line.split(","))))
    return comments, columns, rows


def pinning_model(alpha=0.5):
    return {
        "walk": {"alpha": alpha},
        "potential": {"kind": "pinning"},
        "charges": {"law": "gaussian"},
    }


# ---------------------------------------------------------------- happy paths

def test_localize_reports_delocalized_point(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(),
        "task": {"beta": 0.0, "h": 0.1},
        "output": {"dir": str(out)},
    })
    assert main(["localize", "--config", cfg]) == 0
    comments, columns, rows = read_csv(out / "localize.csv")
    assert comments[0].startswith("config sha256 ")
    assert len(comments[0].split()[-1]) == 64
    assert comments[1] == f"softpin {__version__}"
    assert comments[2] == "subcommand localize"
    assert len(rows) == 1
    row = rows[0]
    assert row["localized"] == "no"
    # the single-excursion weight is exp(-h) for this potential at beta = 0
    assert float(row["estimate"]) == pytest.approx(math.exp(-0.1), rel=1e-6)
    assert float(row["partial_sum"]) < 1.0


def test_critical_curve_at_beta_zero_contains_zero(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(),
        "task": {"beta_grid": [0.0], "lower_bound": True},
        "numerics": {"m_max": 2048},
        "output": {"dir": str(out)},
    })
    assert main(["critical-curve", "--config", cfg]) == 0
    _, columns, rows = read_csv(out / "critical_curve.csv")
    assert columns[:4] == ["beta", "hc_ann_lo", "hc_ann_hi", "hc_lower_bound"]
    lo, hi = float(rows[0]["hc_ann_lo"]), float(rows[0]["hc_ann_hi"])
    assert lo <= 0.0 <= hi
    assert hi - lo <= 1e-3
    assert float(rows[0]["hc_lower_bound"]) <= hi
    assert rows[0]["hc_que_lo"] == ""  # quenched columns stay empty


def test_free_energy_outputs_and_ladder_columns(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "seed": 5,
        "model": pinning_model(),
        "task": {"beta": 0.5, "h": 0.2, "n_max": 64,
                 "quenched": {"n_samples": 2}},
        "numerics": {"n_points": 3},
        "output": {"dir": str(out)},
    })
    assert main(["free-energy", "--config", cfg]) == 0
    _, cols, rows = read_csv(out / "free_energy_ladder.csv")
    assert cols == ["N", "log_Z_free", "log_Z_constrained", "f_free",
                    "f_constrained"]
    assert [r["N"] for r in rows] == ["16", "32", "64"]
    _, qcols, qrows = read_csv(out / "free_energy_quenched.csv")
    assert qcols[-2:] == ["sample", "seed"]
    assert len(qrows) == 6  # 2 samples x 3 rungs
    _, _, srows = read_csv(out / "free_energy_summary.csv")
    s = srows[0]
    assert math.isfinite(float(s["f_annealed"]))
    assert math.isfinite(float(s["f_quenched"]))
    assert s["n_samples"] == "2"
    # repr floats round-trip
    assert repr(float(s["f_annealed"])) == s["f_annealed"]


def test_bessel_check_ratios(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "task": {"alpha": 0.5, "n": 64, "ks": [0, 1, 2]},
        "output": {"dir": str(out)},
    })
    assert main(["bessel-check", "--config", cfg]) == 0
    _, _, rows = read_csv(out / "bessel_check.csv")
    by = {}
    for r in rows:
        by.setdefault(r["check"], []).append(r)
    assert 0.85 < float(by["return_mass"][0]["value"]) <= 1.0
    ratios = {r["param"]: r["ratio"] for r in by["local_limit"]}
    assert float(ratios["0"]) == pytest.approx(1.0, abs=0.05)
    assert float(ratios["2"]) == pytest.approx(1.0, abs=0.05)
    assert ratios["1"] == ""  # parity-mismatched height carries no mass
    for r in by["density_norm"]:
        assert float(r["value"]) == pytest.approx(1.0, abs=1e-8)


def test_scaling_subcommand_ladder_and_series(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": {"walk": {"alpha": 0.6},
                  "potential": {"kind": "power_tail", "theta": 3.0}},
        "task": {"alpha": 0.6, "theta": 3.0, "beta_hat": 1.0, "h_hat": 0.1,
                 "n_ladder": [64, 128], "cstar_phi": CS1, "cstar_phi2": CS2,
                 "series": {"k": 1}},
        "output": {"dir": str(out)},
    })
    assert main(["scaling", "--config", cfg]) == 0
    _, cols, rows = read_csv(out / "scaling_ladder.csv")
    assert cols == ["N", "beta_N", "h_N", "N_times_F", "continuum_target",
                    "rel_gap", "localized", "diverged"]
    assert [r["N"] for r in rows] == ["64", "128"]
    assert all(r["diverged"] == "False" for r in rows)
    _, scols, srows = read_csv(out / "scaling_series.csv")
    assert scols == ["N", "k", "C_TNk", "hatC_gamma_ak", "hatC_gamma_ak_plus1",
                     "rel_gap"]
    assert all(r["k"] == "1" for r in srows)


def test_scaling_estimates_the_c_weights_once(tmp_path, monkeypatch):
    # the ladder's target and the series candidates read one cstar pair
    from softpin import scaling

    calls = []
    estimate = scaling.estimate_c_weights
    monkeypatch.setattr(scaling, "estimate_c_weights",
                        lambda *a, **k: calls.append(a) or estimate(*a, **k))
    assert run("scaling", {
        "model": {"walk": {"alpha": 0.6},
                  "potential": {"kind": "power_tail", "theta": 3.0}},
        "task": {"alpha": 0.6, "theta": 3.0, "beta_hat": 1.0, "h_hat": 0.1,
                 "n_ladder": [16, 32], "series": {"k": 1}},
    }, out=str(tmp_path)) == 0
    assert len(calls) == 1


def test_continuum_subcommand_closed_forms(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "task": {"alpha": 0.6, "theta": 3.0, "beta_hat": 1.0, "h_hat": 0.1,
                 "cstar_phi": CS1, "cstar_phi2": CS2,
                 "ztilde": {"mu": 1.0, "T": 50.0}},
        "output": {"dir": str(out)},
    })
    assert main(["continuum", "--config", cfg]) == 0
    _, _, rows = read_csv(out / "continuum.csv")
    vals = {r["name"]: r["value"] for r in rows}
    assert vals["regime"] == "short_range"
    assert float(vals["critical_exponent"]) == 2.0
    assert float(vals["free_energy"]) == pytest.approx(0.07913, abs=2e-4)
    assert float(vals["critical_h"]) == pytest.approx(CS2 / (2 * CS1),
                                                      rel=1e-12)
    target = math.gamma(0.6) ** (1.0 / 0.6)
    assert float(vals["ztilde_growth_target"]) == pytest.approx(target,
                                                                rel=1e-12)
    assert float(vals["ztilde_growth_rate"]) == pytest.approx(target, rel=0.01)


def test_continuum_mc_runs_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = {
        "seed": 21,
        "task": {"alpha": 0.3, "theta": 0.25, "beta_hat": 1.0, "h_hat": 0.1,
                 "mc": {"T": 1.0, "n_paths": 64, "dt": 0.001,
                        "n_bootstrap": 16}},
    }
    cfg = write_cfg(tmp_path, "c.yaml", base)
    assert main(["continuum", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["continuum", "--config", cfg, "--out", str(out2)]) == 0
    a = (out1 / "continuum_mc.csv").read_bytes()
    assert a == (out2 / "continuum_mc.csv").read_bytes()
    _, cols, rows = read_csv(out1 / "continuum_mc.csv")
    assert {"estimate", "stderr", "flagged"} <= set(cols)
    assert rows[0]["flagged"] == "False"
    assert math.isfinite(float(rows[0]["estimate"]))


def test_continuum_mc_record_columns(tmp_path):
    out = tmp_path / "out"
    mc = {"T": 1.0, "n_paths": 30, "dt": 0.001, "n_bootstrap": 16}
    cfg = write_cfg(tmp_path, "c.yaml", {
        "seed": 1,
        "task": {"alpha": 0.3, "theta": 0.25, "beta_hat": 0.7, "h_hat": 0.2,
                 "mc": mc},
        "output": {"dir": str(out)},
    })
    assert main(["continuum", "--config", cfg]) == 0
    _, columns, rows = read_csv(out / "continuum_mc.csv")
    assert columns == ["alpha", "theta", "beta_hat", "h_hat", "T", "dt",
                       "n_paths", "estimate", "stderr", "flagged"]
    row = rows[0]
    assert (row["alpha"], row["beta_hat"], row["n_paths"]) == ("0.3", "0.7", "30")
    est = continuum_free_energy_mc(
        ContinuumParams(alpha=0.3, theta=0.25),
        ContinuumPhasePoint(beta_hat=0.7, h_hat=0.2), T=1.0, dt=0.001,
        n_paths=30, seed=job_seed(1, 0), n_bootstrap=16,
    )
    assert float(row["estimate"]) == est.estimate
    assert row["flagged"] == str(est.flagged)


def _continuum_mc_estimate(tmp_path, name, mc=(), **task):
    out = tmp_path / name
    cfg = write_cfg(tmp_path, f"{name}.yaml", {
        "task": {"alpha": 0.6, "theta": 0.6, "beta_hat": 1.0, "h_hat": 0.5,
                 "mc": {"T": 1.0, "n_paths": 50, **dict(mc)}, **task},
        "output": {"dir": str(out)},
    })
    assert main(["continuum", "--config", cfg]) == 0
    return read_csv(out / "continuum_mc.csv")[2][0]["estimate"]


def test_continuum_mc_reads_cstar_phi2(tmp_path):
    # the intermediate regime's local-time term carries cstar_phi2
    coarse = {"dt": 1e-3}
    small, one, large = (
        _continuum_mc_estimate(tmp_path, f"c{c}", coarse, cstar_phi2=c)
        for c in (0.25, 1.0, 4.0))
    assert float(small) < float(one) < float(large)
    # left out, it takes the library's default of 1
    assert _continuum_mc_estimate(tmp_path, "absent", coarse) == one
    assert _continuum_mc_estimate(tmp_path, "default") == "-1.358770880004844"


# ------------------------------------------------------------- reproducibility

def test_same_config_and_seed_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "seed": 11,
        "model": pinning_model(),
        "task": {"beta": 0.5, "h": 0.2, "n_max": 64,
                 "quenched": {"n_samples": 2}},
        "numerics": {"n_points": 3},
    })
    assert main(["free-energy", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["free-energy", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("free_energy_ladder.csv", "free_energy_quenched.csv",
                 "free_energy_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # an explicit --seed equal to the config seed is the same run
    out3 = tmp_path / "d"
    assert main(["free-energy", "--config", cfg, "--out", str(out3),
                 "--seed", "11"]) == 0
    assert (out1 / "free_energy_summary.csv").read_bytes() == \
        (out3 / "free_energy_summary.csv").read_bytes()


def test_thread_count_never_changes_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(),
        "task": {"beta_grid": [0.0, 0.4, 0.8]},
        "numerics": {"m_max": 512},
    })
    assert main(["critical-curve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["critical-curve", "--config", cfg, "--out", str(out2),
                 "--threads", "4"]) == 0
    assert (out1 / "critical_curve.csv").read_bytes() == \
        (out2 / "critical_curve.csv").read_bytes()


def test_seed_override_changes_only_sampled_numbers(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "seed": 11,
        "model": pinning_model(),
        "task": {"beta": 0.5, "h": 0.2, "n_max": 64,
                 "quenched": {"n_samples": 2}},
        "numerics": {"n_points": 3},
    })
    assert main(["free-energy", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["free-energy", "--config", cfg, "--out", str(out2),
                 "--seed", "99"]) == 0
    _, _, r1 = read_csv(out1 / "free_energy_summary.csv")
    _, _, r2 = read_csv(out2 / "free_energy_summary.csv")
    assert r1[0]["f_annealed"] == r2[0]["f_annealed"]
    assert r1[0]["f_quenched"] != r2[0]["f_quenched"]


def test_job_seed_is_counter_keyed():
    assert job_seed(11, 0) != job_seed(11, 1)
    assert job_seed(11, 3) == job_seed(11, 3)
    assert job_seed(11, 0) != job_seed(12, 0)
    assert 0 <= job_seed(2 ** 63, 5) < 2 ** 64


def test_config_digest_ignores_output_block():
    cfg = {"seed": 1, "model": pinning_model(),
           "task": {"beta": 0.0, "h": 0.1}}
    d1 = config_digest(cfg, 1)
    d2 = config_digest({**cfg, "output": {"dir": "/elsewhere"}}, 1)
    assert d1 == d2
    assert d1 != config_digest(cfg, 2)  # effective seed is part of the hash
    assert len(d1) == 64


def test_json_format(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(),
        "task": {"beta": 0.0, "h": 0.1},
        "output": {"dir": str(out), "format": "json"},
    })
    assert main(["localize", "--config", cfg]) == 0
    doc = json.loads((out / "localize.json").read_text(encoding="utf-8"))
    assert list(doc) == ["_meta", "columns", "rows"]
    assert doc["_meta"]["version"] == __version__
    assert doc["_meta"]["subcommand"] == "localize"
    assert len(doc["_meta"]["config_sha256"]) == 64
    row = doc["rows"][0]
    assert row["localized"] == "no"
    assert isinstance(row["estimate"], float)
    assert isinstance(row["diverged"], bool)


_POWER_TAIL = {"walk": {"alpha": 0.6},
               "potential": {"kind": "power_tail", "theta": 3.0}}


@pytest.mark.parametrize("subcommand,model,task,numerics,l", [
    ("localize", pinning_model(0.6), {"beta": 0.5, "h": 0.1},
     {"m_max": 256}, 8),
    ("critical-curve", _POWER_TAIL,
     {"beta_grid": [1.0], "quenched": {"n_samples": 8, "n_max": 256}},
     {"m_max": 256}, 6),
    # c-weights estimated from the walk: no cstar_phi or cstar_phi2
    ("scaling", _POWER_TAIL,
     {"alpha": 0.6, "theta": 3.0, "beta_hat": 1.0, "h_hat": 0.1,
      "n_ladder": [16, 32], "k_weights": 8, "n_probe": 256,
      "series": {"k": 1}}, {}, 40),
], ids=["localize", "critical-curve", "scaling"])
def test_numerics_l_is_the_walk_truncation_height_everywhere(
        tmp_path, subcommand, model, task, numerics, l):
    # the tail bound's return law, the quenched band and the c-weights
    # run on the same lattice as the rest of the row
    data = []
    for walk, extra in [(model["walk"], {"l": l}),
                        ({**model["walk"], "l_max": l}, {})]:
        out = tmp_path / str(len(data))
        config = {"model": {**model, "walk": walk}, "task": task,
                  "numerics": {**numerics, **extra}}
        assert run(subcommand, config, out=str(out)) == 0
        data.append({path.name: [line for line in path.read_text(
            encoding="utf-8").splitlines() if not line.startswith("# ")]
            for path in sorted(out.glob("*.csv"))})
    assert data[0] and data[0] == data[1]


@pytest.mark.parametrize("walk,numerics", [
    ({"alpha": 0.6}, {"m_max": 256, "l": 8}),
    ({"alpha": 0.6, "l_max": 8}, {"m_max": 256})], ids=["numerics", "walk"])
def test_localize_on_a_narrow_lattice_certifies_nothing(tmp_path, walk,
                                                        numerics):
    # L = 8 is below 4 sqrt(256) = 64: the partial sum 1.0248 is the
    # reflected walk's, and its exact prefix (m < 16) does not pass 1
    out = tmp_path / "out"
    config = {"model": {**pinning_model(), "walk": walk},
              "task": {"beta": 0.5, "h": 0.1}, "numerics": numerics}
    assert run("localize", config, out=str(out)) == 0
    _, _, (row,) = read_csv(out / "localize.csv")
    assert float(row["partial_sum"]) > 1.0
    assert row["localized"] == "undetermined" and row["tail_bound"] == ""


# ------------------------------------------------------------------ failures

def test_unknown_subcommand_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.yaml", {"task": {}})
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", cfg])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_format_override_exits_2(tmp_path, capsys):
    config = {"model": pinning_model(), "task": {"beta": 0.0, "h": 0.1}}
    assert run("localize", config, out=str(tmp_path), fmt="xml") == 2
    assert "'xml'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("mangle", [
    lambda c: c.pop("task"),                       # missing required block
    lambda c: c.pop("model"),                      # lattice task needs model
    lambda c: c["task"].update(beta="hot"),        # wrong type
    lambda c: c["task"].update(surprise=1),        # unknown key
    lambda c: c["model"]["walk"].pop("alpha"),     # incomplete walk
    lambda c: c.update(seed=-3),                   # negative seed
])
def test_invalid_config_exits_2(tmp_path, capsys, mangle):
    cfg = {
        "seed": 1,
        "model": pinning_model(),
        "task": {"beta": 0.0, "h": 0.1},
    }
    mangle(cfg)
    path = write_cfg(tmp_path, "c.yaml", cfg)
    assert main(["localize", "--config", path]) == 2
    assert "softpin:" in capsys.readouterr().err


def test_missing_and_malformed_config_exit_2(tmp_path, capsys):
    assert main(["localize", "--config", str(tmp_path / "absent.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("task: [unclosed", encoding="utf-8")
    assert main(["localize", "--config", str(bad)]) == 2
    bad.write_bytes(b"task: {beta: 0.5, h: \xff}\n")  # not UTF-8
    assert main(["localize", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_loader_without_libyaml_reads_the_same_config(tmp_path, capsys,
                                                      monkeypatch):
    # PyYAML built without libyaml has no CSafeLoader; the pure-Python
    # scanner feeds the same SafeConstructor
    path = tmp_path / "c.yaml"
    path.write_text(
        "seed: 7\n"
        "model:\n"
        "  walk: {alpha: 0.5, l_max: null}\n"
        "  potential: {kind: table, table: {0: 1.0, -1: .5, 2: 1e-3}}\n"
        "task: {beta_grid: [0.25, 1], lower_bound: yes}\n"
        "output: {prefix: 'x', format: csv}\n", encoding="utf-8")
    with_libyaml = cli._load_config(str(path))
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    without = cli._load_config(str(path))
    assert without == with_libyaml and repr(without) == repr(with_libyaml)
    bad = tmp_path / "bad.yaml"
    bad.write_text("task: [unclosed", encoding="utf-8")
    assert main(["localize", "--config", str(bad)]) == 2
    assert "not valid YAML" in capsys.readouterr().err


def test_repeated_main_calls_in_one_process_write_the_same_bytes(tmp_path,
                                                                 capsys):
    # one parser serves every call in a process, and an argparse error
    # between two runs leaves it as it was
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(),
        "task": {"beta_grid": [0.5], "quenched": {"n_samples": 2,
                                                  "n_max": 64}},
        "numerics": {"m_max": 256},
    })
    args = ["critical-curve", "--config", cfg, "--seed", "7",
            "--format", "json"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["critical-curve", "--config", cfg, "--seed", "x",
              "--format", "xml"])
    assert exc.value.code == 2
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "critical_curve.json").read_bytes()
    assert (tmp_path / "b" / "critical_curve.json").read_bytes() == first


# the values where draft 2020-12's types are easy to get wrong (1.0 is an
# integer; True is neither an integer nor a number), and other wrong types
_EDGES = st.sampled_from([None, True, False, 0, 1, 2, -1, 1.0, 2.5, 0.0,
                          -0.5, "csv", "x", [], {}])


def _near(schema: dict):
    """Values around a schema: mostly of its shape, else of another type,
    on or past a bound, with an unknown key or with a key missing."""
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    bound = schema.get("minimum", schema.get("exclusiveMinimum", 0))
    fits, odd = [], [_EDGES]
    if "enum" in schema:
        fits.append(st.sampled_from(schema["enum"]))
    if "integer" in types:
        fits.append(st.integers(bound, bound + 40))
    if "number" in types:
        fits.append(st.floats(bound, bound + 40.0,
                              exclude_min="exclusiveMinimum" in schema))
    if {"integer", "number"} & set(types):
        odd.append(st.sampled_from([bound, bound - 1, float(bound),
                                    bound + 0.5]))
    for name, values in (("null", st.none()), ("boolean", st.booleans()),
                         ("string", st.text(max_size=3))):
        if name in types:
            fits.append(values)
    if "array" in types:
        fits.append(st.lists(_near(schema.get("items", {})), max_size=3))
    if "object" in types:
        props = schema.get("properties", {})
        required = schema.get("required", [])
        whole = st.fixed_dictionaries(
            {k: _near(props[k]) for k in required},
            optional={k: _near(s) for k, s in props.items()
                      if k not in required})
        fits.append(whole)
        odd += [whole.map(lambda d: {**d, "surprise": 1}),
                whole.flatmap(lambda d: st.sampled_from([None, *d]).map(
                    lambda k: {x: v for x, v in d.items() if x != k}))]
        extra = schema.get("additionalProperties")
        if isinstance(extra, dict):
            fits.append(st.dictionaries(
                st.one_of(st.integers(-2, 2), st.sampled_from(["a", "0"])),
                _near(extra), max_size=3))
    # one value in eight is odd, so that whole configs are often accepted
    return st.integers(0, 7).flatmap(
        lambda i: st.one_of(odd if i == 0 else fits))


def _verdict(schema: dict, value) -> str | None:
    """The message _check raises on value, or None when it accepts it."""
    try:
        cli._check(schema, value, "config.task")
    except cli.ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["config", *cli._TASKS])
def test_check_accepts_and_rejects_what_draft_2020_12_does(name):
    schema = cli._BASE if name == "config" else cli._TASKS[name]
    oracle = Draft202012Validator(schema)

    @settings(max_examples=300, deadline=None)
    @given(_near(schema))
    def agree(value):
        assert (_verdict(schema, value) is None) == oracle.is_valid(value)

    agree()


@pytest.mark.parametrize("task,where", [
    ({"alpha": 0.5, "n": 16.0}, None),                    # 16.0 is an integer
    ({"alpha": 0.5, "n": True}, "config.task.n: True"),   # a bool is not
    ({"alpha": True, "n": 16}, "config.task.alpha: True"),  # nor a number
    ({"alpha": 0.5, "n": 16, "surprise": 1}, "config.task: unknown key "
                                             "'surprise'"),
    ({"n": 16}, "config.task: 'alpha' is a required property"),
    ({"alpha": 0.5, "n": 3}, "config.task.n: 3 is less than"),
    ({"alpha": 0.0, "n": 16}, "config.task.alpha: 0.0 is not greater"),
    ({"alpha": 0.5, "n": 16, "ks": []}, "config.task.ks: needs at least 1"),
    ({"alpha": 0.5, "n": 16, "ks": [0, -1]}, "config.task.ks[1]: -1"),
])
def test_check_verdicts_and_messages_on_the_edges(task, where):
    schema = cli._TASKS["bessel-check"]
    assert Draft202012Validator(schema).is_valid(task) is (where is None)
    verdict = _verdict(schema, task)
    if where is None:
        assert verdict is None
    else:
        assert verdict.startswith(where)


def test_invalid_model_values_exit_2(tmp_path, capsys):
    # schema-valid but rejected by the domain objects (alpha outside (0,1))
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": {"walk": {"alpha": 1.7}, "potential": {"kind": "pinning"}},
        "task": {"beta": 0.0, "h": 0.1},
    })
    assert main(["localize", "--config", cfg]) == 2
    assert "softpin:" in capsys.readouterr().err


def _table_model(table):
    return {"walk": {"alpha": 0.5},
            "potential": {"kind": "table", "table": table}}


@pytest.mark.parametrize("subcommand,mangle,key", [
    # YAML's .nan and .inf pass the schema's number type
    ("critical-curve", lambda c: c["numerics"].update(tol=math.nan),
     "config.numerics.tol"),
    ("critical-curve", lambda c: c["numerics"].update(tol=math.inf),
     "config.numerics.tol"),
    ("localize", lambda c: c["task"].update(beta=math.inf), "config.task.beta"),
    # a table height must be an integer, not a float or a boolean
    ("localize", lambda c: c.update(model=_table_model({math.inf: 1.0})),
     "model.potential.table: height inf"),
    ("localize", lambda c: c.update(model=_table_model({1.5: 1.0})),
     "model.potential.table: height 1.5"),
    ("localize", lambda c: c.update(model=_table_model({True: 1.0})),
     "model.potential.table: height True"),
    # a table value must be a number, not anything float() would take
    *[("localize", lambda c, v=v: c.update(model=_table_model({0: 1.0, 1: v})),
       "model.potential.table[1]: ") for v in (True, None, "0.5", [0.5])],
], ids=["tol-nan", "tol-inf", "beta-inf", "height-inf", "height-1.5",
        "height-true", "value-true", "value-null", "value-string",
        "value-list"])
def test_non_finite_numbers_and_non_integer_heights_exit_2(
        tmp_path, capsys, subcommand, mangle, key):
    cfg = {
        "model": pinning_model(),
        "task": ({"beta_grid": [0.5]} if subcommand == "critical-curve"
                 else {"beta": 0.5, "h": 0.1}),
        "numerics": {"m_max": 64},
        "output": {"dir": str(tmp_path / "out")},
    }
    mangle(cfg)
    path = write_cfg(tmp_path, "c.yaml", cfg)
    assert main([subcommand, "--config", path]) == 2
    assert key in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize("potential", [
    {"kind": "power_tail"},
    {"kind": "power_tail", "theta": None},
    {"kind": "power_tail", "theta": math.inf},
], ids=["absent", "null", "inf"])
def test_power_tail_without_a_finite_theta_exits_2(tmp_path, capsys,
                                                   potential):
    # it would otherwise run as the pinning potential
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": {"walk": {"alpha": 0.6}, "potential": potential},
        "task": {"beta": 0.5, "h": 0.1},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["localize", "--config", cfg]) == 2
    assert "theta" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x", encoding="utf-8")
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(),
        "task": {"beta": 0.0, "h": 0.1},
        "output": {"dir": str(blocker / "sub")},
    })
    assert main(["localize", "--config", cfg]) == 2
    assert "softpin:" in capsys.readouterr().err


def test_diverged_scaling_exits_3(tmp_path, capsys):
    task = {"alpha": 0.6, "theta": 3.0, "h_hat": 0.1}
    cases = [
        ({"kind": "power_tail", "theta": 3.0},
         {"beta_hat": 80.0, "n_ladder": [64], "m_mult": 4,
          "cstar_phi": CS1, "cstar_phi2": CS2}),
        # exp(psi(0)) overflows: no renewal root for a NaN solver to chase
        ({"kind": "pinning"},
         {"beta_hat": 2000.0, "n_ladder": [16, 32],
          "cstar_phi": 1.0, "cstar_phi2": 1.0}),
    ]
    for i, (potential, extra) in enumerate(cases):
        cfg = write_cfg(tmp_path, f"c{i}.yaml", {
            "model": {"walk": {"alpha": 0.6}, "potential": potential},
            "task": {**task, **extra},
            "output": {"dir": str(tmp_path / f"out{i}")},
        })
        assert main(["scaling", "--config", cfg]) == 3, potential
    capsys.readouterr()


@pytest.mark.parametrize("potential,task,code", [
    # copolymer, beta = 1: psi > 0 off the origin leaves no finite tail
    # bound, yet the partial sum alone certifies the verdict
    ({"kind": "copolymer"}, {"beta": 1.0, "h": 0.499}, 0),
    # psi(0) = 1000 overflows exp(), so the row runs in logs and its sum
    # passes the cap at the first return: a diverged sum writes no cell
    ({"kind": "table", "table": {0: 100.0, 1: 40.0, -1: 40.0}},
     {"beta": 1.0, "h": 40.0}, 3),
], ids=["copolymer", "overflowing-return-weight"])
def test_localize_without_a_tail_bound_writes_an_empty_cell(
        tmp_path, potential, task, code):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": {"walk": {"alpha": 0.6}, "potential": potential,
                  "charges": {"law": "gaussian"}},
        "task": task,
        "output": {"dir": str(out)},
    })
    assert main(["localize", "--config", cfg]) == code
    if code == 3:
        assert not (out / "localize.csv").exists()
        return
    _, _, (row,) = read_csv(out / "localize.csv")
    assert row["tail_bound"] == ""
    assert row["localized"] == "yes" and row["diverged"] == "False"
    assert 1.0 < float(row["partial_sum"]) < float(row["estimate"])


@pytest.mark.parametrize("subcommand,task,code", [
    ("free-energy", {"beta": 40.0, "h": 0.0, "n_max": 256}, 0),
    ("localize", {"beta": 40.0, "h": 0.0}, 3),  # the excursion sum diverges
    # psi(0) = beta^2 / 2 itself overflows: three RuntimeWarnings came
    # ahead of the exit code
    ("free-energy", {"beta": 1e200, "h": 0.0, "n_max": 64}, 3),
])
def test_strong_coupling_writes_no_non_finite_cell(tmp_path, capsys,
                                                   subcommand, task, code):
    # psi(0) = 800 overflows exp(): finite numbers or exit 3 with no file,
    # no traceback
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(alpha=0.6), "task": task,
        "output": {"dir": str(out)},
    })
    assert main([subcommand, "--config", cfg]) == code
    err = capsys.readouterr().err
    assert (code == 3) == ("non-finite" in err)
    assert code == 0 or not any(out.iterdir())
    cells = [cell for path in out.glob("*.csv")
             for row in read_csv(path)[2] for cell in row.values()]
    numbers = [float(c) for c in cells if c not in ("", "True", "False")]
    assert numbers or code == 3
    assert all(math.isfinite(x) for x in numbers)


@pytest.mark.parametrize("subcommand,potential,task", [
    # beta^2 / 2 overflows the upper start: a warning, then exit 2
    ("critical-curve", "pinning", {"beta_grid": [1e200]}),
    # psi = +inf on the copolymer's arm: the sum diverges, without the
    # two RuntimeWarnings of its -inf + inf
    ("localize", "copolymer", {"beta": 1e200, "h": 0.0}),
])
def test_overflowing_weights_exit_3_with_no_file(tmp_path, capsys,
                                                 subcommand, potential, task):
    out = tmp_path / "out"
    model = dict(pinning_model(), potential={"kind": potential})
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": model, "task": task, "output": {"dir": str(out)}})
    assert main([subcommand, "--config", cfg]) == 3
    assert "numerics failed" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("subcommand,task", [
    ("free-energy", {"beta": 1e200, "h": 0.0, "n_max": 16,
                     "quenched": {"n_samples": 2}}),
    ("critical-curve", {"beta_grid": [1e200],
                        "quenched": {"n_samples": 2, "n_max": 16}}),
])
def test_overflowing_quenched_sem_exits_3_with_no_file(tmp_path, capsys,
                                                       subcommand, task):
    # +-1 charges at beta = 1e200: the samples' f lie some 1e199 apart, and
    # their variance overflowed with a RuntimeWarning, ahead of exit 3 and
    # two files, or of a band written from sem = inf
    out = tmp_path / "out"
    model = dict(pinning_model(alpha=0.6), charges={"law": "bernoulli_pm1"})
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": model, "task": task, "numerics": {"m_max": 16},
        "output": {"dir": str(out)}})
    assert main([subcommand, "--config", cfg]) == 3
    assert "numerics failed" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_strong_pinning_free_energy_writes_half_the_origin_reward(tmp_path):
    # beta = 60: psi(0) = 1800, and f_annealed = psi(0)/2 + log(p2)/2
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": pinning_model(alpha=0.6),
        "task": {"beta": 60.0, "h": 0.0, "n_max": 64},
        "output": {"dir": str(out)},
    })
    assert main(["free-energy", "--config", cfg]) == 0
    _, _, (row,) = read_csv(out / "free_energy_summary.csv")
    assert float(row["f_annealed"]) == pytest.approx(
        900.0 + 0.5 * math.log(0.55), rel=1e-12)


def test_strong_copolymer_quenched_ladder_is_written_finite(tmp_path):
    # beta = 1000 on copolymer, Gaussian charges: the sample rows run in
    # logs, so the quenched ladder is written with finite cells, and the
    # exit code follows the convergence flags alone
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "seed": 1,
        "model": {"walk": {"alpha": 0.6}, "potential": {"kind": "copolymer"},
                  "charges": {"law": "gaussian"}},
        "task": {"beta": 1000.0, "h": 0.0, "n_max": 64,
                 "quenched": {"n_samples": 6}},
        "output": {"dir": str(out)},
    })
    code = main(["free-energy", "--config", cfg])
    _, _, rows = read_csv(out / "free_energy_quenched.csv")
    assert len(rows) == 6 * 3
    assert all(math.isfinite(float(row[c])) for row in rows
               for c in ("log_Z_free", "log_Z_constrained"))
    _, _, (summary,) = read_csv(out / "free_energy_summary.csv")
    converged = (summary["annealed_converged"] == "True"
                 and summary["quenched_converged"] == "True")
    assert code == (0 if converged else 3)


_POTENTIALS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["pinning", "copolymer"]),
         "amplitude": log_uniform(1e10, zero=False)}),
    st.fixed_dictionaries(
        {"kind": st.just("power_tail"), "theta": st.floats(0.1, 6.0),
         "amplitude": log_uniform(1e10, zero=False)}),
    # a table of zeros is a config error of the model, not of the schema
    st.fixed_dictionaries({"kind": st.just("table"), "table": st.dictionaries(
        st.integers(-4, 4), log_uniform(1e10), min_size=1, max_size=4,
    ).filter(lambda t: any(v > 0 for v in t.values()))}),
)


@settings(max_examples=300, deadline=None)
@given(subcommand=st.sampled_from(["localize", "free-energy",
                                   "critical-curve"]),
       alpha=st.floats(0.05, 0.95), potential=_POTENTIALS,
       law=st.sampled_from(["gaussian", "bernoulli_pm1"]),
       beta=log_uniform(1e300), h=signed(log_uniform(1e300)),
       m_max=st.sampled_from([16, 64, 300]), n_max=st.sampled_from([16, 32]),
       quenched=st.booleans(),
       beta_grid=st.lists(log_uniform(1e300), min_size=1, max_size=3),
       lower_bound=st.booleans(), whole=st.sampled_from([int, float]))
def test_exit_code_is_0_2_or_3_and_written_numbers_are_finite(
        subcommand, alpha, potential, law, beta, h, m_max, n_max, quenched,
        beta_grid, lower_bound, whole):
    # a config that passes the validator exits 0 or 3, never 2, and warns
    # of nothing but the return law's missing mass at small m_max; its
    # integer fields are ints or whole floats
    task = {"beta": beta, "h": h}
    if subcommand == "free-energy":
        task["n_max"] = whole(n_max)
        if quenched:
            task["quenched"] = {"n_samples": whole(2)}
    if subcommand == "critical-curve":
        task = {"beta_grid": beta_grid, "lower_bound": lower_bound}
        if quenched:
            task["quenched"] = {"n_samples": whole(2), "n_max": whole(n_max)}
    config = {
        "seed": whole(1),
        "model": {"walk": {"alpha": alpha}, "potential": potential,
                  "charges": {"law": law}},
        "task": task,
        "numerics": {"m_max": whole(m_max)},
    }
    cli._validate(config, subcommand)
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "first-return mass short",
                                UserWarning)
        code = run(subcommand, config, out=out)
        assert code in (0, 3)
        if code != 0:
            return
        cells = [cell for path in Path(out).glob("*.csv")
                 for row in read_csv(path)[2] for cell in row.values()]
    assert cells
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:  # verdicts, booleans, empty cells
            pass
    assert all(math.isfinite(x) for x in numbers)


def as_ints(config):
    """config with each whole float an int."""
    if isinstance(config, dict):
        return {k: as_ints(v) for k, v in config.items()}
    if isinstance(config, list):
        return [as_ints(v) for v in config]
    return int(config) if isinstance(config, float) and config.is_integer() \
        else config


@pytest.mark.parametrize("subcommand,config", [
    ("free-energy", {"seed": 1.0, "model": pinning_model(), "task": {
        "beta": 0.5, "h": 0.2, "n_max": 64, "quenched": {"n_samples": 2}}}),
    ("continuum", {"seed": 1.0, "task": {
        "alpha": 0.3, "theta": 0.25, "beta_hat": 0.7, "h_hat": 0.2,
        "mc": {"T": 0.5, "n_paths": 30, "dt": 0.001, "n_bootstrap": 16}}}),
    ("free-energy", {"model": pinning_model(), "task": {
        "beta": 0.5, "h": 0.2, "n_max": 64, "quenched": {"n_samples": 2.0}}}),
    ("localize", {"model": pinning_model(), "task": {"beta": 0.5, "h": 0.1},
                  "numerics": {"m_max": 256.0}}),
    ("bessel-check", {"task": {"alpha": 0.5, "n": 16.0}}),
    ("critical-curve", {"model": pinning_model(), "task": {
        "beta_grid": [0.5], "quenched": {"n_samples": 2.0, "n_max": 16.0}},
        "numerics": {"m_max": 256}}),
    ("free-energy", {"model": pinning_model(), "task": {
        "beta": 0.5, "h": 0.2, "n_max": 16.0}}),
    ("free-energy", {"model": {"walk": {"alpha": 0.6, "l_max": 64.0},
                               "potential": {"kind": "pinning"}},
                     "task": {"beta": 0.5, "h": 0.2, "n_max": 64}}),
    ("scaling", {"model": {"walk": {"alpha": 0.6}, "potential": {
        "kind": "power_tail", "theta": 2.5}}, "task": {
        "alpha": 0.6, "theta": 2.5, "beta_hat": 1.5, "h_hat": 0.1,
        "n_ladder": [64.0], "cstar_phi": 0.5, "cstar_phi2": 0.4}}),
], ids=["seed-quenched", "seed-mc", "n_samples", "m_max", "n",
        "critical-quenched", "n_max", "l_max", "n_ladder"])
def test_whole_float_integers_run_as_ints(tmp_path, subcommand, config):
    # 1.0 is an integer to the schema: a whole float in an integer field
    # runs, and writes the data rows of the int config
    written = {}
    for name, cfg in (("float", config), ("int", as_ints(config))):
        out = tmp_path / name
        assert run(subcommand, cfg, out=str(out)) == 0
        written[name] = {p.name: p.read_text(encoding="utf-8").splitlines()[3:]
                         for p in out.iterdir()}
    assert written["float"] == written["int"]


def test_flagged_monte_carlo_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.yaml", {
        "task": {"alpha": 0.4, "theta": 0.8, "beta_hat": 8.0, "h_hat": 0.1,
                 "mc": {"T": 1.0, "n_paths": 64, "dt": 0.001,
                        "n_bootstrap": 16}},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["continuum", "--config", cfg]) == 3
    capsys.readouterr()
    # a flagged estimate is still written, next to the closed forms
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "continuum.csv", "continuum_mc.csv"]


@pytest.mark.parametrize("theta,dt", [(0.3, 3.0), (0.6, 3.0), (0.6, 1e-310)],
                         ids=["no-step", "no-step-intermediate",
                              "infinite-steps"])
def test_monte_carlo_step_count_out_of_range_exits_2(tmp_path, capsys, theta,
                                                     dt):
    # T / dt must round to 1 .. 1999999 path steps
    cfg = write_cfg(tmp_path, "c.yaml", {
        "task": {"alpha": 0.6, "theta": theta, "beta_hat": 1.0, "h_hat": 0.5,
                 "mc": {"T": 1.0, "n_paths": 50, "dt": dt}},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["continuum", "--config", cfg]) == 2
    assert "T / dt" in capsys.readouterr().err
    # the closed forms are not written either: a rejected run writes nothing
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("theta,series,message", [
    (0.6, {}, "short_range regime"),
    (3.0, {"k": 4}, "1 <= k <= 3"),
    (3.0, {"T": 0.01}, "tn must be a positive integer"),  # round(0.16) = 0
], ids=["not-short-range", "k-4", "tn-0"])
def test_rejected_series_block_writes_no_file(tmp_path, capsys, theta, series,
                                              message):
    # the ladder is computed, but the run stops on the series block:
    # scaling_ladder.csv is not written either
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "c.yaml", {
        "model": {"walk": {"alpha": 0.6},
                  "potential": {"kind": "power_tail", "theta": theta}},
        "task": {"alpha": 0.6, "theta": theta, "beta_hat": 1.0, "h_hat": 0.1,
                 "n_ladder": [16, 32], "series": series},
        "output": {"dir": str(out)},
    })
    assert main(["scaling", "--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_installed_entry_point_reports_version():
    exe = shutil.which("softpin")
    if exe is None:
        proc = subprocess.run(
            [sys.executable, "-m", "softpin.cli", "--version"],
            capture_output=True, text=True,
        )
    else:
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"softpin {__version__}"
