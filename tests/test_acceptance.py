"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict line.
Criteria mix exact population guarantees (recovery, solver, marginalization
oracles) with finite-sample property and trend targets on the benchmark
harness. Each test pins its tolerance inline.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import diffdag as dd
from diffdag import (
    CovariancePair,
    EstimatorConfig,
    PipelineConfig,
    SemPairGenConfig,
    SweepConfig,
)
from diffdag.estimators import dantzig_selector
from diffdag.experiments import _trial_seed, run_trial, write_sweep
from helpers import C07_SWEEP, marginalize_sem, perturb_sem, random_sem


def _verdict(cid: str, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {cid}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


def test_c01_population_pipeline_exactness():
    t0 = time.time()
    exact = 0
    total = 0
    seed = 0
    per_p = {5: 67, 10: 67, 15: 66}
    cfg = PipelineConfig(estimator="population")
    for p, want in per_p.items():
        done = 0
        while done < want:
            sem1, sem2, truth = dd.generate_sem_pair(SemPairGenConfig(p=p, seed=seed))
            seed += 1
            done += 1
            total += 1
            res = dd.run_pipeline(CovariancePair.from_sems(sem1, sem2), cfg)
            exact += res.delta.edges == truth.edges
    elapsed = time.time() - t0
    line = _verdict(
        "C01", exact == 200 and elapsed < 60.0,
        f"exact recovery {exact}/200 on population covariances in {elapsed:.1f}s",
    )
    assert exact == total == 200, line
    assert elapsed < 60.0, line


def test_c02_population_solver_matches_direct_inversion():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 16))
        sem1 = random_sem(rng, p, edge_prob=0.4)
        sem2 = perturb_sem(rng, sem1, n_changes=2)
        cov = CovariancePair.from_sems(sem1, sem2)
        oracle = np.linalg.inv(cov.sigma1) - np.linalg.inv(cov.sigma2)
        worst = max(worst, float(np.abs(dd.solve_population(cov).matrix - oracle).max()))
    line = _verdict("C02", worst <= 1e-8, f"max deviation from direct inversion {worst:.2e}")
    assert worst <= 1e-8, line


def test_c03_marginalization_matches_schur_complement():
    worst = 0.0
    terminal_exact = True
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        p = int(rng.integers(4, 11))
        sem = random_sem(rng, p, edge_prob=0.5)
        k = int(rng.integers(1, max(2, p // 2 + 1)))
        removed = set(rng.choice(sem.labels, size=k, replace=False).tolist())
        marg = marginalize_sem(sem, removed)
        om = dd.precision(sem)
        keep = [sem.index(lab) for lab in marg.labels]
        drop = [i for i in range(p) if i not in keep]
        schur = om[np.ix_(keep, keep)] - om[np.ix_(keep, drop)] @ np.linalg.solve(
            om[np.ix_(drop, drop)], om[np.ix_(drop, keep)]
        )
        worst = max(worst, float(np.abs(dd.precision(marg) - schur).max()))
        terminals = [sem.labels[k] for k in range(p) if not sem.b[:, k].any()]
        if terminals:
            tm = marginalize_sem(sem, {terminals[0]})
            idx = [sem.index(lab) for lab in tm.labels]
            terminal_exact &= np.array_equal(tm.b, sem.b[np.ix_(idx, idx)])
            terminal_exact &= np.array_equal(tm.noise_vars, sem.noise_vars[idx])
    line = _verdict(
        "C03", worst <= 1e-8 and terminal_exact,
        f"max Schur deviation {worst:.2e}; terminal removals exact: {terminal_exact}",
    )
    assert worst <= 1e-8, line
    assert terminal_exact, line


def test_c04_column_invariant_vertices_have_zero_diagonal():
    worst = 0.0
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        p = int(rng.integers(4, 11))
        sem1 = random_sem(rng, p, edge_prob=0.5)
        sem2 = perturb_sem(rng, sem1, n_changes=2)
        dom = dd.precision(sem1) - dd.precision(sem2)
        for i in range(p):
            if np.array_equal(sem1.b[:, i], sem2.b[:, i]):
                checked += 1
                worst = max(worst, abs(float(dom[i, i])))
    line = _verdict(
        "C04", worst <= 1e-10,
        f"max diagonal at {checked} column-invariant vertices {worst:.2e}",
    )
    assert worst <= 1e-10, line


def test_c05_constrained_l1_contract():
    tol = 1e-7
    ok_feasible = ok_l1 = ok_zero = True
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        sem1 = random_sem(rng, 5, edge_prob=0.5)
        sem2 = perturb_sem(rng, sem1, n_changes=2)
        cov = CovariancePair.from_sems(sem1, sem2)
        truth = dd.precision(sem1) - dd.precision(sem2)
        lam = 0.05
        raw = dantzig_selector(cov.sigma1, cov.sigma2, lam)
        kron = np.kron(cov.sigma2, cov.sigma1)
        b = (cov.sigma2 - cov.sigma1).flatten(order="F")
        resid = float(np.abs(kron @ raw.flatten(order="F") - b).max())
        ok_feasible &= resid <= lam + tol
        ok_l1 &= float(np.abs(raw).sum()) <= float(np.abs(truth).sum()) + tol
        big = float(np.abs(b).max())
        zero = dantzig_selector(cov.sigma1, cov.sigma2, big + 1e-9)
        ok_zero &= bool(np.array_equal(zero, np.zeros_like(zero)))
    line = _verdict(
        "C05", ok_feasible and ok_l1 and ok_zero,
        f"feasible: {ok_feasible}, l1-optimal vs truth: {ok_l1}, exact zero at large radius: {ok_zero}",
    )
    assert ok_feasible and ok_l1 and ok_zero, line


def test_c06_finite_sample_support_recovery():
    # n = floor(c * max(d', 1)^2 * ln p / eps^2) samples per model. The
    # estimate's sup-norm error falls as lambda ~ sqrt(ln p / n), and
    # thresholding at eps must tell zero from |delta| >= 2 * eps, so n grows
    # as ln p / eps^2. Confirming that nothing changed (d' = 0) needs the same
    # resolution as finding one change, hence max(d', 1). c = 20 is the
    # constant of the earlier floor(c * d'^2 * ln p) budget, kept as it was
    # rather than derived for this one.
    p, c = 10, 20
    # each trial runs at its own fixed_n, which reads no c_values: c keys the
    # trial seeds and is passed to run_trial
    cfg = SweepConfig(
        p_values=(p,),
        repetitions=50,
        gen=SemPairGenConfig(p=p),
        pipeline=PipelineConfig(
            estimator="dantzig",
            est_cfg=EstimatorConfig(lambda_auto=True, epsilon=0.125),
        ),
        seed_base=0,
    )
    eps = cfg.pipeline.est_cfg.epsilon
    records = []
    for rep in range(cfg.repetitions):
        seed = _trial_seed(cfg.seed_base, p, c, rep)
        d_prime = dd.generate_sem_pair(replace(cfg.gen, p=p, seed=seed))[2].max_degree()
        n = math.floor(c * max(d_prime, 1) ** 2 * math.log(p) / eps**2)
        records.append(run_trial(replace(cfg, fixed_n=n), p, c, rep))
        # n must have been sized from the very pair run_trial built.
        assert (records[-1].d_prime, records[-1].n) == (d_prime, n)
    # A failed run is scored as an empty estimate, which matches an empty
    # truth at Hamming 0; it is a miss, not a recovery.
    recovered = [not r.failed and r.hamming == 0 for r in records]
    rate = sum(recovered) / len(records)
    # Empty differences make up about half of the pairs, so the pairs that
    # change must reach the target on their own as well.
    changed = [ok for r, ok in zip(records, recovered) if r.d_prime > 0]
    changed_rate = sum(changed) / len(changed)
    by_degree: dict = {}
    for r, ok in zip(records, recovered):
        wins, total, _ = by_degree.get(r.d_prime, (0, 0, r.n))
        by_degree[r.d_prime] = (wins + ok, total + 1, r.n)
    breakdown = ", ".join(
        f"d'={d}: {w}/{t} at n={n}" for d, (w, t, n) in sorted(by_degree.items())
    )
    failed = sum(r.failed for r in records)
    passed = rate >= 0.70 and changed_rate >= 0.70
    line = _verdict(
        "C06", passed,
        f"exact-recovery rate {rate:.2f}, on d' >= 1 pairs {changed_rate:.2f} "
        f"(target 0.70 for both); by difference degree: {breakdown}; "
        f"failed runs {failed}; empty differences {len(records) - len(changed)}",
    )
    assert passed, line


@pytest.fixture(scope="module")
def trend_records():
    return dd.run_sweep(C07_SWEEP)


def test_c07_normalized_hamming_trend(trend_records):
    t0 = time.time()
    bad = []
    detail = []
    for p in (5, 10, 15):
        medians = [
            float(np.median([r.norm_hamming for r in trend_records if r.p == p and r.c == c]))
            for c in (5, 10, 15, 20)
        ]
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
        detail.append(f"p={p} medians {[round(m, 3) for m in medians]} inversions={inversions}")
        if inversions > 1:
            bad.append(p)
    line = _verdict("C07", not bad, "; ".join(detail))
    assert not bad, line


# sha256 of the C07 grid's records.csv. A change that moves it, or any of the
# sweep artifact pins below, updates the pin and says in CHANGES.md which
# records moved and why.
C07_RECORDS_SHA256 = "6a3db439f6947860c2bde9e9b106d2655dbac007efae7f6578f07eacc169cee4"


def _artifact_sha256s(records, tmp_path) -> dict:
    """sha256 of each file ``write_sweep``, and so ``diffdag sweep``, writes
    for these records."""
    write_sweep(records, tmp_path)
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("records.csv", "summary.json", "plot.tsv", "table.txt")
    }


def test_c07_records_csv_is_pinned(trend_records, tmp_path):
    assert _artifact_sha256s(trend_records, tmp_path)["records.csv"] == C07_RECORDS_SHA256


def test_c07_sweep_artifacts_are_pinned(trend_records, tmp_path):
    # records.csv is C07_RECORDS_SHA256, checked above
    digests = _artifact_sha256s(trend_records, tmp_path)
    assert digests["summary.json"] == "9c86f35c3d2bd115c30328397eddad6e5ccc21140c39e807bc8251f947c61179"
    assert digests["plot.tsv"] == "d7d7b0d6fd7736fe561d1d0ad5656a35002208630da827536fbc68a568f7030e"
    assert digests["table.txt"] == "5fa51192c65684170ca444e35c2ee8c2a3f2c8002dfe3f8cb57325d7fc92e727"


@pytest.fixture(scope="module")
def fixed_n_records():
    # the head-to-head setting: one sample count, so every record has c None
    return dd.run_sweep(
        SweepConfig(
            p_values=(10,),
            repetitions=10,
            fixed_n=1000,
            gen=SemPairGenConfig(p=10),
            pipeline=PipelineConfig(
                estimator="dantzig",
                est_cfg=EstimatorConfig(lambda_auto=True, epsilon=0.125),
            ),
            seed_base=0,
        )
    )


def test_c08_fixed_n_sweep_artifacts_are_pinned(fixed_n_records, tmp_path):
    assert _artifact_sha256s(fixed_n_records, tmp_path) == {
        "records.csv": "0d7bb458020464d04f144591995788389eebbff18799e9cdce5c2eaf3ef02679",
        "summary.json": "7446ddaabdfab01e7cbb3fc1bbec4f31a2d9f8c53dbd5a70c279f10797199629",
        "plot.tsv": "7351a8b9018798cfdbdc2676f9efc7ac5f1d1e8012b901db02ac640fd438d617",
        "table.txt": "fa2165f6dcff4bfd86719131a68f9b0762563f6a34e39d51b6f36ed2f94e29bc",
    }


def test_c08_fixed_sample_f_score(fixed_n_records):
    mean_f = float(np.mean([r.f_score for r in fixed_n_records]))
    line = _verdict("C08", mean_f >= 0.70, f"mean F-score {mean_f:.3f} at n=1000 (target 0.70)")
    assert mean_f >= 0.70, line


def test_c09_sample_bound_calculator():
    got = dd.minimax_sample_bound(32, 2)
    expected = (2.0 / 2.0) * math.log(32.0 / 4.0) - (2.0 / 32.0) * math.log(2.0)
    err = abs(got - expected)
    line = _verdict("C09", err <= 1e-12, f"bound(32, 2) = {got!r}, deviation {err:.1e}")
    assert err <= 1e-12, line


def test_c10_sweep_determinism(tmp_path):
    cfg = SweepConfig(
        p_values=(5,),
        c_values=(5, 10),
        repetitions=3,
        gen=SemPairGenConfig(p=5),
        pipeline=PipelineConfig(
            estimator="dantzig",
            est_cfg=EstimatorConfig(lambda_auto=True, epsilon=0.125),
        ),
        seed_base=11,
    )
    one, two = tmp_path / "one", tmp_path / "two"
    one.mkdir()
    two.mkdir()
    same = _artifact_sha256s(dd.run_sweep(cfg), one) == _artifact_sha256s(dd.run_sweep(cfg), two)
    line = _verdict("C10", same, "repeated sweeps wrote byte-identical CSV records")
    assert same, line
