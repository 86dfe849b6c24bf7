"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from distreg import (
    GAUSSIAN,
    KernelConfig,
    SampleSet,
    combine,
    embed,
    inner,
    mmd2,
)
from distreg.cli import main as cli_main
from distreg.data_io import SyntheticScenario, generate_synthetic
from distreg.evaluation import kfold, run_evaluation
from distreg.kernels import Embedding
from distreg.pipeline import (
    InterferenceConfig,
    PerturbedObservation,
    input_variable_samples,
    predict,
    resolve_rho,
    train,
)
from distreg.oracles import _simplex_grid as simplex_grid
from distreg.regression import (
    TrainingPairs,
    apply_nonparametric,
    fit_mixture_distributions,
    fit_mixture_embeddings,
    fit_nonparametric,
    fit_one_parameter,
)
from distreg.sampler import Basis, expectation_gap, fit_mixture_weights, sample_from_mixture
from distreg.simplex_qp import SimplexQPProblem, solve

from util import dataset_days, gaussian_set, mixture_set, projected_operator_error

K = KernelConfig(GAUSSIAN, 0.5)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_mixture_distribution_recovery():
    """0.3/0.7 two-Gaussian mixture, I=2, N=5000: 20-seed median sup-error <= 0.05."""
    t0 = time.time()
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(10000 + seed)
        n = 5000
        q1, q2 = gaussian_set(rng, 0.0, n), gaussian_set(rng, 5.0, n)
        p = mixture_set(rng, [0.0, 5.0], [0.3, 0.7], n)
        pairs = TrainingPairs(
            inputs=((embed(K, q1), embed(K, q2)),), outputs=(embed(K, p),)
        )
        w = fit_mixture_distributions(pairs).w
        errs.append(float(np.max(np.abs(w - np.array([0.3, 0.7])))))
    med = float(np.median(errs))
    elapsed = time.time() - t0
    report(
        1,
        med <= 0.05 and elapsed < 30.0,
        f"median sup-error {med:.4f} (<= 0.05), runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_one_parameter_trend():
    """alpha-bar = 1: 20-seed median error strictly decreasing over n, <= 0.05 at 1600."""
    t0 = time.time()
    sizes = [100, 400, 1600]
    medians = []
    for n in sizes:
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(20000 + seed)
            qs = [gaussian_set(rng, m, n) for m in (0.0, 3.0, 6.0)]
            ps = [gaussian_set(rng, m, n) for m in (0.0, 3.0, 6.0)]
            pairs = TrainingPairs(
                inputs=tuple((embed(K, q),) for q in qs),
                outputs=tuple(embed(K, p) for p in ps),
            )
            errs.append(abs(fit_one_parameter(pairs).alpha - 1.0))
        medians.append(float(np.median(errs)))
    elapsed = time.time() - t0
    strict = all(b < a for a, b in zip(medians, medians[1:]))
    report(
        2,
        strict and medians[-1] <= 0.05 and elapsed < 30.0,
        f"medians {[f'{m:.4f}' for m in medians]} strictly decreasing={strict}, "
        f"final <= 0.05, runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_mixture_embedding_recovery():
    """Even two-Gaussian mixture at N=5000: 20-seed median sup-error of alpha <= 0.05."""
    errs = []
    for seed in range(20):
        rng = np.random.default_rng(11000 + seed)
        n = 5000
        q1, q2 = gaussian_set(rng, 0.0, n), gaussian_set(rng, 6.0, n)
        p = mixture_set(rng, [0.0, 6.0], [0.5, 0.5], n)
        pairs = TrainingPairs(
            inputs=((embed(K, q1), embed(K, q2)),), outputs=(embed(K, p),)
        )
        alpha = fit_mixture_embeddings(pairs, ridge=0.0).alpha
        errs.append(float(np.max(np.abs(alpha - 0.5))))
    med = float(np.median(errs))
    report(3, med <= 0.05, f"median sup-error {med:.4f} (<= 0.05)")


def test_criterion_4_sampling_consistency():
    """Target inside basis span: expectation gap non-increasing in n, <= 0.02 at 3200."""
    theta_bar = np.array([0.4, 0.6])
    test_functions = []
    for i in range(5):
        fr = np.random.default_rng(900 + i)
        pts = SampleSet(fr.normal(scale=3.0, size=(10, 1)))
        w = fr.normal(size=10)
        f = Embedding(kernel=K, sample_set=pts, weights=w)
        norm = np.sqrt(inner(f, f))
        test_functions.append(Embedding(kernel=K, sample_set=pts, weights=w / norm))

    sizes = [200, 800, 3200]
    medians = []
    for n in sizes:
        gaps = []
        for seed in range(20):
            rng = np.random.default_rng(30000 + seed)
            basis = Basis(
                K, [gaussian_set(rng, 0.0, n), gaussian_set(rng, 4.0, n)]
            )
            target_emb = combine(list(basis.embeddings), theta_bar)
            fm = fit_mixture_weights(target_emb, basis)
            target_samples = mixture_set(rng, [0.0, 4.0], [0.4, 0.6], n)
            draws = sample_from_mixture(fm.basis, fm.theta, n, seed=40000 + seed)
            gaps.append(
                float(
                    np.mean(
                        [expectation_gap(f, target_samples, draws) for f in test_functions]
                    )
                )
            )
        medians.append(float(np.median(gaps)))
    monotone = all(b <= a for a, b in zip(medians, medians[1:]))
    report(
        4,
        monotone and medians[-1] <= 0.02,
        f"gap medians {[f'{m:.4f}' for m in medians]} non-increasing={monotone}, "
        f"final {medians[-1]:.4f} <= 0.02",
    )


def test_criterion_5_nonparametric_interpolation_and_trend():
    """ridge=0, K=3 separated pairs: interpolation residual <= 1e-8; error trend decreases."""
    rng = np.random.default_rng(12345)
    qs = [gaussian_set(rng, m, 60) for m in (0.0, 5.0, 10.0)]
    ps = [gaussian_set(rng, m + 1.0, 60) for m in (0.0, 5.0, 10.0)]
    pairs = TrainingPairs(
        inputs=tuple((embed(K, q),) for q in qs), outputs=tuple(embed(K, p) for p in ps)
    )
    op = fit_nonparametric(pairs, ridge=0.0)
    p_emb = list(pairs.outputs)
    m_pp = np.array([[inner(a, b) for b in p_emb] for a in p_emb])
    worst = 0.0
    for k in range(3):
        out = apply_nonparametric(op, pairs.inputs[k][0])
        assert mmd2(out, pairs.outputs[k]) <= 1e-14
        v = np.array([inner(e, pairs.inputs[k][0]) for e in op.train_inputs])
        c = op.coeff @ v
        d = c - np.eye(3)[k]
        worst = max(worst, float(np.sqrt(max(d @ m_pp @ d, 0.0))))

    sizes = [50, 200, 800]
    medians = []
    for n in sizes:
        vals = []
        for seed in range(20):
            srng = np.random.default_rng(50000 + seed)
            tq = [gaussian_set(srng, m, n) for m in (0.0, 4.0, 8.0)]
            tp = [gaussian_set(srng, m, n) for m in (0.0, 4.0, 8.0)]
            vals.append(projected_operator_error(K, tq, tp))
        medians.append(float(np.median(vals)))
    monotone = all(b <= a for a, b in zip(medians, medians[1:]))
    report(
        5,
        worst <= 1e-8 and monotone,
        f"interpolation residual {worst:.2e} (<= 1e-8), projected-error medians "
        f"{[f'{m:.4f}' for m in medians]} non-increasing={monotone}",
    )


def test_criterion_6_qp_grid_equivalence():
    """100 random n=2 and 20 random n=3 instances vs the 0.01-step grid oracle."""
    rng = np.random.default_rng(777)
    grids = {2: simplex_grid(2, 0.01), 3: simplex_grid(3, 0.01)}
    worst_gap = -np.inf
    worst_kkt = 0.0
    for n, count in ((2, 100), (3, 20)):
        grid = grids[n]
        for _ in range(count):
            A = rng.normal(size=(n, n))
            G = A.T @ A
            G = (G + G.T) / 2.0
            b = rng.normal(size=n)
            sol = solve(SimplexQPProblem(G=G, b=b))
            objs = np.einsum("ki,ij,kj->k", grid, G, grid) - 2.0 * grid @ b
            worst_gap = max(worst_gap, sol.objective - float(np.min(objs)))
            worst_kkt = max(worst_kkt, sol.kkt_residual)
    report(
        6,
        worst_gap <= 1e-6 and worst_kkt <= 1e-8,
        f"worst objective gap {worst_gap:.2e} (<= 1e-6), worst KKT {worst_kkt:.2e} (<= 1e-8)",
    )


GRID_SCENARIO = SyntheticScenario(
    topology="grid",
    n_nodes=30,
    days=30,
    n_disruptions=12,
    phi=0.8,
    rate_low=0.5,
    rate_high=1.2,
    window_min=80,
    window_max=140,
    seed=42,
)


def test_criterion_7_pipeline_structural_invariants():
    """X1+X2=X3 exactly on synthetic and paper-schema data; folds; feasible theta-hat."""
    cfg = InterferenceConfig()
    checked = 0

    # synthetic grid scenario
    ds = generate_synthetic(GRID_SCENARIO)
    days = dataset_days(ds)
    naturals = [days[d] for d in range(GRID_SCENARIO.days)]
    for z in ds.disruptions:
        x1, x2, x3, x4, x5 = input_variable_samples(naturals, z, ds.graph, cfg)
        assert np.array_equal(x1.samples + x2.samples, x3.samples)
        assert np.all(x4.samples == x4.samples[0])
        checked += 1

    # paper-schema scale: D=269 stations, 35 natural days, K=72 disruptions, I=5
    paper = SyntheticScenario(
        topology="grid",
        n_nodes=269,
        days=35,
        n_disruptions=72,
        phi=0.6,
        rate_low=0.005,
        rate_high=0.03,
        window_min=80,
        window_max=160,
        seed=3,
    )
    pds = generate_synthetic(paper)
    pdays = dataset_days(pds)
    pnaturals = [pdays[d] for d in range(paper.days)]
    pobs = [PerturbedObservation.from_day_counts(pdays[z.day], z) for z in pds.disruptions]
    for z in pds.disruptions:
        x1, x2, x3, _, _ = input_variable_samples(pnaturals, z, pds.graph, cfg)
        assert np.array_equal(x1.samples + x2.samples, x3.samples)
        checked += 1
    cfg_paper = cfg.with_rho(resolve_rho(pnaturals, pobs, pds.graph, cfg))
    model = train(pnaturals, pobs, pds.graph, cfg_paper)
    assert model.alpha.shape == (5,) and np.all(np.isfinite(model.alpha))

    # k-fold partition validity
    folds = kfold(list(range(20)), 10, seed=0)
    seen = [t for _, test in folds for t in test]
    assert sorted(seen) == list(range(20))
    assert all(not set(tr) & set(te) for tr, te in folds)

    # theta-hat feasibility in predict calls
    cfg_grid = cfg.with_rho(
        resolve_rho(
            naturals,
            [PerturbedObservation.from_day_counts(days[z.day], z) for z in ds.disruptions],
            ds.graph,
            cfg,
        )
    )
    grid_model = train(
        naturals,
        [PerturbedObservation.from_day_counts(days[z.day], z) for z in ds.disruptions[:6]],
        ds.graph,
        cfg_grid,
    )
    for z in ds.disruptions[6:9]:
        fm, _ = predict(grid_model, naturals, z, ds.graph, cfg_grid, 50, seed=1)
        assert np.min(fm.theta) >= -1e-12
        assert abs(float(np.sum(fm.theta)) - 1.0) <= 1e-9
    report(
        7,
        True,
        f"X1+X2=X3 exact on {checked} disruptions across two datasets "
        "(incl. 269-node/35-day/72-disruption paper schema), folds partition, "
        "theta-hat feasible",
    )


def test_criterion_8_end_to_end_synthetic():
    """Grid D=30, N=30, K=12, phi=0.8, 10-fold: model beats random NLL >= 60%, baseline SE >= 50%."""
    t0 = time.time()
    ds = generate_synthetic(GRID_SCENARIO)
    days = dataset_days(ds)
    scores, records = run_evaluation(
        days,
        ds.disruptions,
        ds.graph,
        InterferenceConfig(),
        out_dir=None,
        n_folds=10,
        top_n=20,
        seed=0,
        n_samples=400,
    )
    elapsed = time.time() - t0
    assert len(records) == 12, f"expected all 12 disruptions evaluated, got {len(records)}"
    nll_wins = sum(1 for r in records if r.model_nll < r.random_nll)
    se_wins = sum(1 for r in records if r.model_se < r.baseline_se)
    ok = (
        nll_wins / len(records) >= 0.60
        and se_wins / len(records) >= 0.50
        and elapsed < 300.0
    )
    report(
        8,
        ok,
        f"NLL wins vs random {nll_wins}/{len(records)} (>= 60%), "
        f"SE wins vs baseline {se_wins}/{len(records)} (>= 50%), "
        f"runtime {elapsed:.0f}s (< 5 min)",
    )


def dir_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_9_cli_determinism(tmp_path, capsys):
    """Every CLI command re-run with identical inputs and seeds is byte-identical."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "topology": "grid",
                "n_nodes": 12,
                "days": 10,
                "n_disruptions": 4,
                "phi": 0.8,
                "rate_low": 0.8,
                "rate_high": 1.6,
                "window_min": 80,
                "window_max": 140,
                "seed": 11,
            }
        )
    )
    data1, data2 = tmp_path / "d1", tmp_path / "d2"
    assert cli_main(["simulate", "--scenario", str(scenario), "--out", str(data1)]) == 0
    assert cli_main(["simulate", "--scenario", str(scenario), "--out", str(data2)]) == 0
    sim_ok = dir_digest(data1) == dir_digest(data2)

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    cli_main(["score", "--data", str(data1), "--out", str(s1)])
    cli_main(["score", "--data", str(data1), "--out", str(s2)])
    score_ok = s1.read_bytes() == s2.read_bytes()

    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    cli_main(["train", "--data", str(data1), "--out", str(m1)])
    cli_main(["train", "--data", str(data1), "--out", str(m2)])
    train_ok = dir_digest(m1) == dir_digest(m2)

    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    pred_args = [
        "predict",
        "--data", str(data1),
        "--model", str(m1 / "model.json"),
        "--disruption", "99,60,180,1;2",
        "--n-samples", "30",
        "--seed", "5",
    ]
    cli_main(pred_args + ["--out", str(p1)])
    cli_main(pred_args + ["--out", str(p2)])
    predict_ok = dir_digest(p1) == dir_digest(p2)

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    eval_args = ["evaluate", "--data", str(data1), "--folds", "2", "--seed", "0", "--n-samples", "50"]
    cli_main(eval_args + ["--out", str(e1)])
    cli_main(eval_args + ["--out", str(e2)])
    eval_ok = dir_digest(e1) == dir_digest(e2)

    capsys.readouterr()  # drain output of the preceding commands
    cli_main(["oracle", "--suite", "all"])
    first = capsys.readouterr().out
    cli_main(["oracle", "--suite", "all"])
    second = capsys.readouterr().out
    oracle_ok = first == second

    ok = sim_ok and score_ok and train_ok and predict_ok and eval_ok and oracle_ok
    report(
        9,
        ok,
        f"byte-identical re-runs: simulate={sim_ok} score={score_ok} train={train_ok} "
        f"predict={predict_ok} evaluate={eval_ok} oracle={oracle_ok}",
    )
