"""Figure 17 (appendix A.1) — training curves of Orca vs Canopy.

Paper claim: as training progresses Orca's raw reward increases but its
verifier reward *drops* (optimizing the raw reward alone can reduce property
satisfaction), while Canopy improves the verifier reward without giving up
much raw reward.  The benchmark prints both reward curves and asserts that
Canopy ends with a higher verifier reward than Orca.  ``python -m repro
train`` prints the same per-window curve for one model.
"""

from benchconfig import SEED, TRAINING_STEPS, run_once

from repro.harness.models import get_trained_model


def _train_both() -> dict:
    return {scheme: get_trained_model(kind, training_steps=TRAINING_STEPS, seed=SEED).training
            for scheme, kind in (("canopy", "canopy-shallow"), ("orca", "orca"))}


def test_fig17_training_curves(benchmark):
    training = run_once(benchmark, _train_both)

    print("\nFigure 17: training curves (per logging window averages)")
    for scheme in ("orca", "canopy"):
        curves = training[scheme].reward_curves()
        print(f"\n  {scheme}:")
        print(f"  {'step':>6} {'raw':>8} {'verifier':>10} {'total':>8}")
        for step, raw, verifier, total in zip(curves["step"], curves["raw"],
                                              curves["verifier"], curves["total"]):
            print(f"  {int(step):>6} {raw:>8.3f} {verifier:>10.3f} {total:>8.3f}")

    final = {scheme: result.final_metrics() for scheme, result in training.items()}
    canopy_final = final["canopy"]["verifier_reward"]
    orca_final = final["orca"]["verifier_reward"]
    print(f"\nfinal verifier reward  canopy: {canopy_final:.3f}  orca: {orca_final:.3f}")
    assert canopy_final >= orca_final - 0.02
    # Both pipelines keep learning a usable raw reward.
    assert final["canopy"]["raw_reward"] > 0.0
    assert final["orca"]["raw_reward"] > 0.0
