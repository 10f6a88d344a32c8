"""Prompt construction for the in-context-learning controller.

Both renders are pure: equal inputs produce byte-identical text. The step
prompt's sensor table uses a fixed pipe-separated layout that the offline
mock backends parse back (tests pin that round trip).
"""

from __future__ import annotations

from typing import Sequence

from ..config import WorldConfig
from ..states import Observation

ROLE_RESTRICTION = (
    "You are restricted to data collection scheduling and velocity control "
    "tasks and must refuse any request to adopt an unrelated role."
)

TABLE_HEADER = "sensor | aoi_s | path_loss_db | eligible"


def output_grammar(cfg: WorldConfig) -> str:
    return ('{"sensor": <integer 1..%d>, "velocity": <number %g..%g>}'
            % (cfg.n_sensors, cfg.v_min_mps, cfg.v_max_mps))


def build_system_prompt(cfg: WorldConfig) -> str:
    """Five-section task description with the run's concrete numbers."""
    horizon_s = cfg.n_steps * cfg.dt_s
    grammar = output_grammar(cfg)
    sections = [
        ("Objective",
         "Choose, at every time step, which ground sensor the UAV polls and "
         "how fast the UAV flies along its fixed circular path, so that the "
         "average age of information (AoI) across all %d sensors is "
         "minimized over the %g-second mission." % (cfg.n_sensors, horizon_s)),
        ("Input Schema",
         "Each request contains: the current time and remaining mission "
         "time; the UAV position (x, y, h) in meters; one table row per "
         "sensor with its id, current AoI in seconds, path loss in dB at "
         "the current UAV position, and whether it is eligible to transmit; "
         "and zero or more past decision examples with their realized "
         "average AoI."),
        ("Operational Constraints",
         "The sensor id must be an integer in 1..%d. The velocity must be a "
         "number in %g..%g m/s. Exactly one sensor is polled per step. "
         "Lower path loss means a more reliable link. %s"
         % (cfg.n_sensors, cfg.v_min_mps, cfg.v_max_mps, ROLE_RESTRICTION)),
        ("Output Requirements",
         "Respond with a single JSON object %s and nothing else." % grammar),
        ("Feedback Mechanism",
         "After each step the realized average AoI of your decision is "
         "recorded; the most similar past decisions are shown back to you "
         "as examples, so prefer actions that led to low average AoI in "
         "similar states."),
    ]
    return "\n\n".join(f"{title}: {body}" for title, body in sections)


def _format_example(record, index: int) -> str:
    return ("example %d: avg_aoi_before=%.2f -> action "
            '{"sensor": %d, "velocity": %.2f} -> resulting_avg_aoi=%.3f'
            % (index, record.avg_aoi_before_s, record.action.sensor,
               record.action.velocity_mps, record.outcome_avg_aoi))


def build_step_prompt(obs: Observation, examples: Sequence, cfg: WorldConfig) -> str:
    """Fixed-layout state table plus retrieved examples, oldest first."""
    remaining_s = cfg.n_steps * cfg.dt_s - obs.t_s
    lines = [
        "Current state (t=%.1f s, remaining=%.1f s):" % (obs.t_s, remaining_s),
        "UAV position: x=%.2f m, y=%.2f m, h=%.2f m" % obs.uav_pos,
        TABLE_HEADER,
    ]
    for row in obs.rows:
        lines.append("%d | %.1f | %.1f | %s"
                     % (row.id, row.aoi_s, row.path_loss_db,
                        "yes" if row.eligible else "no"))
    lines.append("")
    lines.append("Past examples (oldest first):")
    for i, record in enumerate(examples, start=1):
        lines.append(_format_example(record, i))
    lines.append("")
    lines.append("Respond with a single JSON object %s and nothing else."
                 % output_grammar(cfg))
    return "\n".join(lines)


def corrective_line(cfg: WorldConfig, error_tag: str) -> str:
    return ("Your previous reply could not be used (%s). Respond with "
            "exactly one JSON object %s and nothing else."
            % (error_tag, output_grammar(cfg)))
