"""Tests for the benchmark itself (not part of the library's suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re

import pytest

import run

run.load_library()

import akizuki as ak  # noqa: E402
import akizuki.cli  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.WORKLOADS)
COUNT_SUFFIXES = (".calls", "term_products", "dense_frac", "coeff_bits_max", "_per_call", "_per_task")


def task_list(name, seed, blocks=2):
    workload = workloads.WORKLOADS[name]()
    specs = [s for b in range(blocks) for s in workload.block(seed, b)]
    return json.dumps(specs, sort_keys=True).encode()


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_task_lists(name):
    assert task_list(name, 7) == task_list(name, 7)


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_gives_different_inputs(name):
    assert task_list(name, 7) != task_list(name, 8)


@pytest.mark.parametrize("name", NAMES)
def test_traced_count_metrics_repeat_exactly(name):
    limit = 2 if name == "completion-fp511" else 12
    first, second = (run.traced(workloads.WORKLOADS[name](), 3, limit) for _ in range(2))
    assert first[0].failures == [] and second[0].failures == []
    counts = [
        {k: v for k, (v, _, _) in metrics.items() if k.endswith(COUNT_SUFFIXES)}
        for _, metrics, _ in (first, second)
    ]
    assert counts[0] == counts[1]
    assert set(first[1]) == {name for name, _ in spans.metric_names()}
    assert counts[0]["series.mul.calls"] > 0


def test_traced_run_restores_the_library():
    original = ak.TruncatedSeries.__mul__
    run.traced(workloads.WORKLOADS["cli-desk"](), 1, 3)
    assert ak.TruncatedSeries.__mul__ is original
    assert akizuki.cli.main.__module__ == "akizuki.cli" and not hasattr(akizuki.cli.main, "__wrapped__")


def _corrupt(monkeypatch, name):
    """Make the library return a wrong answer on the workload's path."""
    if name == "completion-fp511":
        mul, composed, invert = (
            ak.CompletionElement.__mul__, ak.CompletionElement.mul_via_composition, ak.NormalForm.invert,
        )
        one = ak.CompletionElement.one
        monkeypatch.setattr(ak.CompletionElement, "__mul__", lambda a, b: mul(a, b) + one(a.ring))
        monkeypatch.setattr(
            ak.CompletionElement, "mul_via_composition", lambda a, b, u: composed(a, b, u) + one(a.ring)
        )
        monkeypatch.setattr(ak.NormalForm, "invert", lambda f, r_index=None: -invert(f))
    else:
        emit = akizuki.cli._emit

        def wrong(args, rows, bare=None):
            rows = [(key, f"{value} + t") for key, value in rows]
            emit(args, rows, None if bare is None else f"{bare} + t")

        monkeypatch.setattr(akizuki.cli, "_emit", wrong)


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_result_counts_in_error_rate(monkeypatch, name):
    workload = workloads.WORKLOADS[name]()
    jobs = [workload.prepare(spec) for spec in workload.block(5, 0)]
    clean = run.Tally()
    run.run_jobs(workload, jobs, clean)
    assert clean.failures == []
    _corrupt(monkeypatch, name)
    tally = run.Tally()
    run.run_jobs(workload, jobs, tally)
    assert tally.attempted == len(jobs)
    assert len(tally.failures) == len(jobs)


def test_generated_cli_inputs_stay_within_the_instance():
    cli = workloads.CliDesk()
    for spec in cli.block(11, 0) + cli.block(11, 1) + cli.block(12, 0):
        positional, flags = cli._split(spec["argv"])
        level = int(flags.get("--prec", cli.precision))
        assert 2 <= level <= cli.precision
        allowed = workloads.generator_headroom(cli.precision, level)
        for index in re.findall(r"\bg(\d)\b", " ".join(positional)):
            assert int(index) in allowed


def test_benchmark_json_names_every_workload_and_per_layer_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == NAMES
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.metric_names()
