"""Budgets, scoring, aggregation, sweep determinism, output files."""

import json
import math

import numpy as np
import pytest

import diffdag as dd
from diffdag import (
    DagEdgeSet,
    EstimatorConfig,
    ExperimentRecord,
    PipelineConfig,
    SweepConfig,
    VertexMismatchError,
    aggregate,
    run_sweep,
    sample_budget,
    score,
)
from diffdag.experiments import run_trial, write_sweep


class TestSampleBudget:
    def test_small_vertex_count(self):
        # floor(5 * 1 * ln 3) = 5, already above the p + 1 clamp
        assert sample_budget(3, 5, 1) == 5

    def test_empty_difference_clamps(self):
        assert sample_budget(10, 5, 0) == 11

    def test_large_cell(self):
        assert sample_budget(15, 20, 2) == math.floor(20 * 4 * math.log(15))

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_budget(1, 5, 1)
        with pytest.raises(ValueError):
            sample_budget(10, 0, 1)

    @pytest.mark.parametrize("args, message", [
        ((5.5, 5, 1), "p must be an integer, got 5.5"),
        ((True, 5, 1), "p must be an integer, got True"),
        ((10, 5, 1.5), "d_prime must be an integer, got 1.5"),
        ((1, 5, 1), "p must be at least 2, got 1"),
        ((10, 0, 1), "c must be at least 1, got 0"),
        ((10, 5, -1), "d_prime must be at least 0, got -1"),
    ], ids=["fractional-p", "bool-p", "fractional-d_prime", "p-one", "c-zero", "negative-d_prime"])
    def test_bad_argument_rejected_naming_it(self, args, message):
        with pytest.raises(ValueError, match=message):
            sample_budget(*args)


def _edges(vertices, *pairs):
    return DagEdgeSet(frozenset(vertices), frozenset(pairs))


class TestScore:
    def test_perfect_nonempty(self):
        t = _edges(range(4), (1, 2), (0, 3))
        assert score(t, t) == (1.0, 1.0, 1.0, 0)

    def test_empty_estimate_nonempty_truth(self):
        t = _edges(range(4), (1, 2), (0, 3))
        e = _edges(range(4))
        assert score(t, e) == (0.0, 0.0, 0.0, 2)

    def test_both_empty(self):
        t = _edges(range(3))
        assert score(t, t) == (1.0, 1.0, 1.0, 0)

    def test_partial_overlap(self):
        t = _edges(range(5), (1, 2))
        e = _edges(range(5), (1, 2), (3, 4))
        p, r, f, h = score(t, e)
        assert (p, r, h) == (0.5, 1.0, 1)
        assert f == pytest.approx(2.0 / 3.0)

    def test_vertex_mismatch(self):
        with pytest.raises(VertexMismatchError):
            score(_edges(range(3)), _edges(range(4)))


def _record(p=5, c=5, rep=0, hamming=0, norm=0.0, prec=1.0, rec=1.0, f=1.0, failure=""):
    edges = _edges(range(p))
    return ExperimentRecord(
        p=p, c=c, n=20, rep=rep, seed=rep, d_prime=1,
        true_edges=edges, estimated_edges=edges,
        hamming=hamming, norm_hamming=norm,
        precision=prec, recall=rec, f_score=f,
        failure=failure,
    )


class TestAggregate:
    def test_single_record_sd_zero(self):
        cells = aggregate([_record(hamming=2, norm=0.5)])
        assert len(cells) == 1
        assert cells[0].means["hamming"] == 2.0
        assert cells[0].sds["hamming"] == 0.0
        assert cells[0].count == 1

    def test_two_records_sample_sd(self):
        cells = aggregate([_record(rep=0, hamming=0), _record(rep=1, hamming=2)])
        assert cells[0].means["hamming"] == pytest.approx(1.0)
        assert cells[0].sds["hamming"] == pytest.approx(math.sqrt(2.0))

    def test_groups_by_cell(self):
        records = [_record(c=5), _record(c=10), _record(p=10, c=5)]
        cells = aggregate(records)
        assert len(cells) == 3

    def test_failures_counted(self):
        cells = aggregate([_record(failure="OrderStallError"), _record(rep=1)])
        assert cells[0].failures == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


def _tiny_sweep(seed_base=0):
    return SweepConfig(
        p_values=(5,),
        c_values=(5, 10),
        repetitions=2,
        gen=dd.SemPairGenConfig(p=5),
        pipeline=PipelineConfig(
            estimator="dantzig", est_cfg=EstimatorConfig(lambda_auto=True)
        ),
        seed_base=seed_base,
    )


class TestSweepConfig:
    def test_fixed_n_below_largest_p_rejected(self):
        with pytest.raises(ValueError, match="fixed_n=9 is below the largest p=10"):
            SweepConfig(p_values=(5, 10), fixed_n=9)

    def test_fixed_n_equal_to_largest_p_accepted(self):
        assert SweepConfig(p_values=(5, 10), fixed_n=10).fixed_n == 10

    def test_p_below_two_rejected_naming_it(self):
        with pytest.raises(ValueError, match="p_values entry must be at least 2, got 1"):
            SweepConfig(p_values=(5, 1))

    @pytest.mark.parametrize("c", [0, -2])
    def test_c_below_one_rejected_naming_it(self, c):
        with pytest.raises(ValueError, match=f"c_values entry must be at least 1, got {c}"):
            SweepConfig(c_values=(5, c))

    def test_numpy_integer_counts_and_seeds_are_accepted(self):
        cfg = SweepConfig(
            p_values=(np.int64(5),), c_values=(np.int32(5),), repetitions=np.int64(2),
            fixed_n=np.int64(6), gen=dd.SemPairGenConfig(p=np.int64(5), seed=np.uint32(3)),
            seed_base=np.uint64(7),
        )
        assert (cfg.p_values, cfg.c_values) == ((5,), (5,))


class TestRunSweep:
    def test_canonical_ordering_and_determinism(self):
        a = run_sweep(_tiny_sweep())
        b = run_sweep(_tiny_sweep())
        assert [(r.p, r.c, r.rep) for r in a] == [(5, 5, 0), (5, 5, 1), (5, 10, 0), (5, 10, 1)]
        for ra, rb in zip(a, b):
            assert (ra.seed, ra.hamming, ra.precision, ra.estimated_edges) == (
                rb.seed, rb.hamming, rb.precision, rb.estimated_edges
            )

    def test_different_base_seed_changes_trials(self):
        a = run_sweep(_tiny_sweep(seed_base=0))
        b = run_sweep(_tiny_sweep(seed_base=1))
        assert [r.seed for r in a] != [r.seed for r in b]

    def test_population_mode_recovers_exactly(self):
        cfg = SweepConfig(
            p_values=(5, 8),
            c_values=(5,),
            repetitions=3,
            pipeline=PipelineConfig(estimator="population"),
            seed_base=3,
        )
        records = run_sweep(cfg)
        assert all(r.hamming == 0 for r in records)
        assert not any(r.failed for r in records)

    def test_fixed_n_mode(self):
        cfg = SweepConfig(
            p_values=(5,),
            repetitions=2,
            fixed_n=200,
            pipeline=PipelineConfig(estimator="population"),
            seed_base=0,
        )
        records = run_sweep(cfg)
        assert all(r.c is None and r.n == 200 for r in records)

    def test_pipeline_failures_recorded_as_empty_estimates(self):
        cfg = SweepConfig(
            p_values=(10,),
            c_values=(5,),
            repetitions=1,
            # a fixed radius far below the auto rule's 0.74 at the trial's n = 11
            pipeline=PipelineConfig(estimator="dantzig", est_cfg=EstimatorConfig(lambda_n=0.1)),
            seed_base=0,
        )
        rec = run_sweep(cfg)[0]
        assert rec.failed
        assert rec.estimated_edges.edges == frozenset()
        assert rec.hamming == len(rec.true_edges.edges)

    def test_stalled_trial_records_its_cause(self, tmp_path):
        # rep 3 of p = 10, c = 20 has an empty difference sampled at n = 11,
        # where layer peeling finds no zero-diagonal vertex
        cfg = SweepConfig(p_values=(10,), c_values=(20,), repetitions=4, seed_base=0)
        rec = run_trial(cfg, 10, 20, 3)
        assert rec.failure == "OrderStallError"
        assert rec.failed
        write_sweep([rec], tmp_path)
        row = (tmp_path / "records.csv").read_text().splitlines()[1].split(",")
        assert row[11] == "1"
        assert row[-1] == "OrderStallError"

    def test_spent_prune_budget_is_recorded_and_the_sweep_goes_on(self, monkeypatch):
        cfg = SweepConfig(
            p_values=(6,),
            c_values=(5,),
            repetitions=6,
            gen=dd.SemPairGenConfig(p=6),
            pipeline=PipelineConfig(estimator="population"),
        )
        full = run_sweep(cfg)
        # reps 3 and 5 need more than 3 prune estimates, the others at most 3
        monkeypatch.setattr(dd.pipeline, "PRUNE_BUDGET", 3)
        cut = run_sweep(cfg)
        assert [r.failure for r in full] == [""] * 6
        assert [r.failure for r in cut] == ["", "", "", "PruneBudgetError", "", "PruneBudgetError"]
        for before, after in zip(full, cut):
            if after.failed:
                assert after.estimated_edges.edges == frozenset()
                assert after.true_edges == before.true_edges
            else:
                assert after == before

    def test_returned_trial_records_no_failure(self):
        rec = run_sweep(_tiny_sweep())[0]
        assert rec.failure == ""
        assert not rec.failed

    def test_norm_hamming_convention(self):
        records = run_sweep(_tiny_sweep())
        for r in records:
            denom = max(1, len(r.true_edges.edges) + len(r.estimated_edges.edges))
            assert r.norm_hamming == pytest.approx(r.hamming / denom)

    def test_score_identities_on_records(self):
        for r in run_sweep(_tiny_sweep()):
            assert 0.0 <= r.precision <= 1.0
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.f_score <= 1.0
            if r.precision + r.recall == 0.0:
                assert r.f_score == 0.0
            else:
                expected = 2.0 * r.precision * r.recall / (r.precision + r.recall)
                assert r.f_score == pytest.approx(expected)


class TestOutputs:
    def test_records_csv_deterministic_and_schema(self, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        one.mkdir()
        two.mkdir()
        write_sweep(run_sweep(_tiny_sweep()), one)
        write_sweep(run_sweep(_tiny_sweep()), two)
        for name in ("records.csv", "summary.json", "plot.tsv", "table.txt"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        header = (one / "records.csv").read_text().splitlines()[0]
        assert header == (
            "p,c,n,rep,seed,d_prime,hamming,norm_hamming,precision,recall,"
            "f_score,failed,failure"
        )

    def test_summary_json_and_plot_tsv(self, tmp_path):
        records = run_sweep(_tiny_sweep())
        cells = write_sweep(records, tmp_path)
        assert cells == aggregate(records)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert len(payload["cells"]) == 2
        lines = (tmp_path / "plot.tsv").read_text().splitlines()
        assert lines[0] == "p\tc_or_n\tmean_norm_hamming"
        assert len(lines) == 3

    def test_table_has_one_mean_sd_row_per_cell_and_nothing_else(self, tmp_path):
        cells = write_sweep(run_sweep(_tiny_sweep()), tmp_path)
        lines = (tmp_path / "table.txt").read_text().splitlines()
        assert lines[0] == "p\tc_or_n\tprecision\trecall\tf_score"
        assert len(lines) == 1 + len(cells)
        for line, s in zip(lines[1:], cells):
            assert line.split("\t") == [
                str(s.p),
                str(s.c),
                *(f"{s.means[m]:.2f} ({s.sds[m]:.2f})" for m in ("precision", "recall", "f_score")),
            ]
