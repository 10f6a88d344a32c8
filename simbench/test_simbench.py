"""The benchmark's own test: its checks pass on the program's real output
and reject a corrupted one.

    python3 -m pytest simbench/test_simbench.py

Each workload makes a tiny round; then one AoI value in one output is
altered, or one success flag in another output is flipped, and the
independent evaluator must reject the result.
"""

import csv
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
from workloads import IclPool, PpoTrain, Rollout  # noqa: E402

TINY = {
    "rollout-n100": lambda out: Rollout(3, out, n_sensors=12, n_steps=40, aoi_rounds=1),
    "icl-pool": lambda out: IclPool(3, out, n_sensors=5, n_steps=40, aoi_rounds=1),
    "ppo-train": lambda out: PpoTrain(3, out, episodes=3, held_out=2, aoi_rounds=1),
}


# Layers each workload must call, as the README's layer table names them.
CALLED = {
    "rollout-n100": ("channel.link_budget", "env.observe", "env.step",
                     "env.summarize", "policies.decide", "harness.run_experiment"),
    "icl-pool": ("features.feature_vector", "icl.controller.icl_decide",
                 "icl.pool.retrieve", "icl.pool.add", "icl.prompts.build_step_prompt",
                 "icl.backends.complete", "icl.parsing.parse_action",
                 "harness.run_experiment"),
    "ppo-train": ("env.init_world", "features.feature_vector", "ppo.net.forward",
                  "ppo.net.sample_action", "ppo.gae.gae_advantages",
                  "ppo.loss.ppo_loss_and_grads", "ppo.adam.adam_update"),
}


@pytest.fixture(params=sorted(TINY))
def ran(request, tmp_path):
    workload = TINY[request.param](str(tmp_path))
    res = workload.run_round(0)
    assert res.episodes == len(workload.episodes()) > 0
    return workload


def _edit_steps_csv(path: str, step: int, column: str, edit) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
        header = rows[0].keys()
    rows[step][column] = edit(rows[step][column])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _corrupt(workload, which: int, column: str) -> None:
    """Alter step 7 of the which-th episode of the last round."""
    if isinstance(workload, PpoTrain):
        ep = workload.episodes()[which]
        if column == "avg_aoi_s":
            ep.avg_aoi[7] += 0.25
        else:
            ep.success[7] = not ep.success[7]
        return
    label = workload.episodes()[which].label
    out_dir = label.rsplit(":", 1)[0]
    edit = ((lambda v: str(float(v) + 0.25)) if column == "avg_aoi_s"
            else (lambda v: "0" if v == "1" else "1"))
    _edit_steps_csv(os.path.join(out_dir, "steps.csv"), 7, column, edit)


def test_checks_accept_real_output(ran):
    check.check_all(ran.cfg, ran.episodes())


def test_altered_aoi_rejected(ran):
    _corrupt(ran, 0, "avg_aoi_s")
    with pytest.raises(check.CheckError, match="step 7: average AoI"):
        check.check_all(ran.cfg, ran.episodes())


def test_flipped_success_flag_rejected(ran):
    _corrupt(ran, -1, "success")
    with pytest.raises(check.CheckError, match="step 7: success flag"):
        check.check_all(ran.cfg, ran.episodes())


def test_aoi_bound_matches_round_robin():
    cfg = Rollout(0, "", n_sensors=4, n_steps=10).cfg
    # Polling 1, 2, 3, 4, 1, ... with every poll succeeding attains the bound.
    assert [check.aoi_sum_lower_bound(cfg, t) for t in (1, 2, 4, 6)] == [
        1 + 3 * 1, 1 + 2 + 2 * 2, 1 + 2 + 3 + 4, 1 + 2 + 3 + 4]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_round_calls_every_named_layer(name, tmp_path):
    # One untraced and one traced round; per_layer raises CheckError if
    # tracing changed the AoI the program reached.
    _, metrics = run.per_layer(TINY[name](str(tmp_path)), seconds=0)
    for layer in CALLED[name]:
        assert metrics[f"{layer}.calls"][0] > 0, layer
        assert metrics[f"{layer}.self_ms"][0] > 0, layer
    assert metrics["trace.overhead_ratio"][0] > 0
    assert (metrics["ppo.train_aoi_s"][0] > 0) == (name == "ppo-train")
