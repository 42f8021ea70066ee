"""The term-by-term Adam step that `numerics.adam_update` must match bit
for bit, shared by the numerics and the training-loop tests."""

from dataclasses import replace

import numpy as np


def reference_adam_step(params, grads, state, rate):
    """Adam written out term by term, allocating every intermediate; returns
    the new vector and a new state, and leaves `params` and `state` as they
    were."""
    t = state.step_count + 1
    m = state.beta1 * state.first_moment + (1.0 - state.beta1) * grads
    v = state.beta2 * state.second_moment + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    return (params - rate * m_hat / (np.sqrt(v_hat) + state.epsilon),
            replace(state, first_moment=m, second_moment=v, step_count=t))
