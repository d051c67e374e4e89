"""
Walk through the forward model one update at a time
===================================================

Two tasks, one algorithm, a four-step curriculum. Everything is printed
so the recurrence can be followed by hand.
"""

import numpy as np

from latentperf import (
    AlgorithmProperties,
    Curriculum,
    ExperienceState,
    ScenarioParams,
    TaskProperties,
    experience_step,
    performance_map,
    simulate_all,
)

# Task 0 transfers strongly to task 1 (0.6) but task 1 slightly hurts
# task 0 (-0.2). Diagonal is 1: training a task always helps itself.
tasks = TaskProperties(
    transfer=[[1.0, 0.6], [-0.2, 1.0]],
    difficulty=[0.3, 0.5],
)

# A sticky, low-gain algorithm: keeps 90% of experience per step,
# earns a flat 0.4 per training step, and converts a quarter of current
# expertise into extra gain.
algo = AlgorithmProperties(
    name="demo",
    transfer_efficiency=0.4,
    experience_retention=0.9,
    expertise_translation=0.25,
)

curriculum = Curriculum(entries=[0, 0, 1, 0], n_tasks=2)

state = ExperienceState(experience=np.zeros(2), step=0)
print("step  trained  experience              performance")
for trained in curriculum.entries:
    p_prev = performance_map(state.experience[trained], tasks.difficulty[trained])
    state = experience_step(state, trained, p_prev, tasks, algo)
    perf = [
        performance_map(e, d) for e, d in zip(state.experience, tasks.difficulty)
    ]
    print(
        f"{state.step:4d}  {trained:7d}  "
        f"[{state.experience[0]:6.3f}, {state.experience[1]:6.3f}]  "
        f"[{perf[0]:6.3f}, {perf[1]:6.3f}]"
    )

# The same curriculum through the vectorized simulator gives the same
# curve, column by column.
params = ScenarioParams(tasks=tasks, algorithms=(algo,))
curve = simulate_all(params, curriculum)[0]
print("\nsimulate_all() performance matrix (tasks x curriculum steps):")
print(np.array2string(curve.values, precision=3))

# Retention alone: with no gain, experience just decays by h each step.
# (A nonzero state needs step >= 1; step 0 always starts from zero.)
idle = AlgorithmProperties("idle", 0.0, 0.9, 0.0)
state = ExperienceState(experience=np.array([1.0, 2.0]), step=1)
for _ in range(3):
    state = experience_step(state, 0, 0.0, tasks, idle)
print("\nafter 3 idle steps from [1, 2]:", state.experience, "(= 0.9^3 * start)")
