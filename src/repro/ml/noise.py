"""Label-noise injection and robustness evaluation.

The paper's authors studied classifier behaviour under mislabeling
noise (Mirylenka, Giannakopoulos, Do, Palpanas, DMKD 2017 — reference
[24]; see also [14]) and cite that line of work in Section 2.2: the
PharmaVerComp corpus is described as "consistent and error free", but a
production deployment would face noisy reviewer labels.  This module
provides the tooling to reproduce that analysis on the pharmacy task:
:func:`inject_label_noise` flips a fraction of labels, uniformly or
asymmetrically (e.g. only illegitimate -> legitimate, the costly
direction).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from repro.exceptions import ValidationError

__all__ = ["inject_label_noise"]


def inject_label_noise(
    y: Sequence[int],
    noise_rate: float,
    direction: str = "both",
    seed: int = 0,
) -> np.ndarray:
    """Return a copy of ``y`` with a fraction of labels flipped.

    Args:
        y: binary labels (0/1).
        noise_rate: fraction of *eligible* labels to flip, in [0, 1].
        direction: ``"both"`` flips a random sample of all labels;
            ``"legit_to_illegit"`` flips only 1 -> 0;
            ``"illegit_to_legit"`` flips only 0 -> 1.
        seed: RNG seed.

    Returns:
        The noisy label vector (original is untouched).
    """
    if not 0.0 <= noise_rate <= 1.0:
        raise ValidationError(f"noise_rate must be in [0, 1], got {noise_rate}")
    if direction not in ("both", "legit_to_illegit", "illegit_to_legit"):
        raise ValidationError(f"unknown direction: {direction!r}")
    labels = np.asarray(y, dtype=np.int64).copy()
    rng = np.random.default_rng(seed)
    if direction == "both":
        eligible = np.arange(labels.shape[0])
    elif direction == "legit_to_illegit":
        eligible = np.flatnonzero(labels == 1)
    else:
        eligible = np.flatnonzero(labels == 0)
    n_flip = int(round(noise_rate * eligible.shape[0]))
    if n_flip == 0:
        return labels
    flip = rng.choice(eligible, size=n_flip, replace=False)
    labels[flip] = 1 - labels[flip]
    return labels
