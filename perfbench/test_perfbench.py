"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_hand_built_span_tree():
    S = spans.Span
    tree = [
        S(0, "ensemble", 0.0, 10.0, None, "r"),
        # two batches on two threads overlap in [3, 4]
        S(1, "batch", 1.0, 4.0, 0, "r", agg={"rng.draw": [3, 0.5]}),
        S(2, "batch", 3.0, 6.0, 0, "r"),
        S(3, "reduce", 8.0, 9.0, 0, "r"),
        S(4, "fft", 2.0, 3.0, 1, "r"),
    ]
    self_t = spans.self_times(tree)
    assert self_t[0] == pytest.approx(10.0 - 5.0 - 1.0)   # children cover [1, 6] and [8, 9]
    assert self_t[1] == pytest.approx(3.0 - 1.0 - 0.5)    # minus the fft child and the draws
    assert self_t[2] == pytest.approx(3.0)
    assert self_t[4] == pytest.approx(1.0)
    assert spans.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_referred_wall_scales_by_the_mean_of_the_probes_around_it():
    ref = run.PROBE_REF_S
    # a repeat between probes twice as slow as the reference is halved
    assert run.referred([4.0, 3.0], [2 * ref, 2 * ref, ref]) == pytest.approx([2.0, 3.0 / 1.5])


@pytest.fixture(scope="module")
def capture():
    cap = workloads.Capture().install()
    yield cap
    cap.restore()


def _tiny(name, tmp_path):
    wl = workloads.Workload(name, 5, tmp_path, scale="tiny")
    wl.write_configs()
    return wl


def test_perturbed_msd_fails_its_tolerance(tmp_path, capture):
    wl = _tiny("continuum", tmp_path)
    res = wl.run_op(wl.ops[0], 1, capture)
    assert all(ok for _, ok, _ in wl.checks(res))
    ens = res.captured["run_continuum"]
    ens.msd_mean[-1] += 10.0 * (ens.msd_stderr[-1] + 1e-3 * ens.msd_mean[-1])
    verdict = {name: ok for name, ok, _ in wl.checks(res)}
    assert verdict["continuum MSD vs msd_closed_form"] is False


def test_changed_data_file_fails_the_digest_check(tmp_path, capture):
    wl = _tiny("deterministic", tmp_path)
    res = wl.run_op(wl.ops[0], 1, capture)
    before = res.digest
    csv = res.out_dir / "msd_closed_form.csv"
    text = csv.read_text()
    last = "1" if text[-2] != "1" else "2"    # change the last digit of the last value
    csv.write_text(text[:-2] + last + "\n")
    res.digest = workloads.digest_dir(res.out_dir)
    ledger = run.Ledger()
    ledger.digests("repeat", {res.label: before}, [res])
    assert ledger.attempted == 1 and len(ledger.failures) == 1
    # the manifest is outside the digest
    (res.out_dir / "manifest.json").write_text("{}\n")
    assert workloads.digest_dir(res.out_dir) == res.digest


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_completes_without_failures(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["tiny"])
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
