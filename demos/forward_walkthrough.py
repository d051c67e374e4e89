"""
Walk through the forward model one update at a time
===================================================

Two tasks, one algorithm, a four-step curriculum. The recurrence is
computed here in plain floats, one printed step at a time, next to the
columns of simulate_all's performance matrix, and the two must agree to
the last bit.
"""

import numpy as np

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    ScenarioParams,
    TaskProperties,
    simulate_all,
)


def performance(e, d):
    """2 / (1 + exp(-e/d)) - 1, written as tanh so that it cannot overflow."""
    return float(np.tanh(e / d * 0.5))


# Task 0 transfers strongly to task 1 (0.6) but task 1 slightly hurts
# task 0 (-0.2). Diagonal is 1: training a task always helps itself.
transfer = [[1.0, 0.6], [-0.2, 1.0]]
difficulty = [0.3, 0.5]

# A sticky, low-gain algorithm: keeps 90% of experience per step,
# earns a flat 0.4 per training step, and converts a quarter of current
# expertise into extra gain.
gamma, h, lam = 0.4, 0.9, 0.25

params = ScenarioParams(
    tasks=TaskProperties(transfer=transfer, difficulty=difficulty),
    algorithms=[AlgorithmProperties("demo", gamma, h, lam)],
)
curriculum = Curriculum(entries=[0, 0, 1, 0], n_tasks=2)
curve = simulate_all(params, curriculum)[0].values  # tasks x curriculum steps

# Each step trains task i: every task's experience decays by h and gains
# transfer[i][j] * (gamma + before * lambda), where `before` is task i's
# performance before the step.
experience = [0.0, 0.0]
print("step  trained  before  gain    experience        performance       simulate_all")
for step, i in enumerate(curriculum.entries):
    before = performance(experience[i], difficulty[i])
    gain = gamma + before * lam
    experience = [e * h + transfer[i][j] * gain for j, e in enumerate(experience)]
    by_hand = [performance(e, d) for e, d in zip(experience, difficulty)]
    column = curve[:, step].tolist()
    print(
        f"{step:4d}  {i:7d}  {before:6.3f}  {gain:6.3f}  "
        f"[{experience[0]:6.3f}, {experience[1]:6.3f}]  "
        f"[{by_hand[0]:6.3f}, {by_hand[1]:6.3f}]  "
        f"[{column[0]:6.3f}, {column[1]:6.3f}]"
    )
    assert by_hand == column, (step, by_hand, column)

# Retention alone. Step 0 trains task 2 from zero experience, so it
# gains exactly gamma = 2 and primes tasks 0 and 1 at 2 * (0.4375, -0.75)
# = (0.875, -1.5). Task 3's transfer row adds nothing to tasks 0 and 1,
# so each step that trains it only multiplies their experience by h.
primer = np.eye(4)
primer[2] = 0.4375, -0.75, 1.0, 0.0
idle = ScenarioParams(
    tasks=TaskProperties(transfer=primer, difficulty=[0.5] * 4),
    algorithms=[AlgorithmProperties("idle", 2.0, 0.9, 0.0)],
)
curve = simulate_all(idle, Curriculum(entries=[2, 3, 3, 3], n_tasks=4))[0].values
experience = [0.875, -1.5]
print("\nidle steps after priming tasks 0 and 1 at (0.875, -1.5), h = 0.9:")
for step in range(4):
    if step:
        experience = [e * 0.9 for e in experience]
    by_hand = [performance(e, 0.5) for e in experience]
    column = curve[:2, step].tolist()
    print(
        f"{step:4d}  experience [{experience[0]:6.3f}, {experience[1]:6.3f}]  "
        f"performance [{by_hand[0]:6.3f}, {by_hand[1]:6.3f}]  "
        f"simulate_all [{column[0]:6.3f}, {column[1]:6.3f}]"
    )
    assert by_hand == column, (step, by_hand, column)
print("after 3 idle steps the experience is 0.9^3 times the primed state")
