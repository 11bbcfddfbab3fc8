"""Multi-label classification losses over per-class probabilities.

One loss builds graph nodes: the asymmetric loss ``asl``.  Binary
cross-entropy and the symmetric focal loss are presets of it,
(gamma_pos, gamma_neg, mu) = (0, 0, 0) and (gamma, gamma, 0).  The loss
takes a score tensor ``s`` holding probabilities — a ``(c,)`` vector for
one sample or an ``(r, c)`` matrix for a batch — plus a same-shaped
binary label array.  The scalar result is the mean over samples of the
per-sample sum over classes, so the single-sample and batched forms
agree.  Scores are clamped to ``[eps, ...]`` before any log so saturated
probabilities cannot produce infinities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .schema import Field, check_fields, key, non_negative, number, spec_of, tagged

__all__ = ["ASLConfig", "LOSS", "asl", "bce", "focal", "get_loss"]


@dataclass
class ASLConfig:
    """Knobs of the asymmetric loss.

    gamma_pos / gamma_neg are the focusing exponents on the positive and
    negative branches; mu is the probability margin subtracted from the
    score on the negative branch before focusing (scores at or below mu
    contribute nothing and receive zero gradient — the subgradient at the
    kink is taken as 0).  The first three are the config's ``asl`` keys.
    """

    gamma_pos: float = key(non_negative, 0.0)
    gamma_neg: float = key(non_negative, 4.0)
    mu: float = key(number("in [0, 1)", lambda x: 0.0 <= x < 1.0), 0.05)
    eps: float = key(number("in (0, 0.5)", lambda x: 0.0 < x < 0.5), 1e-8)

    def __post_init__(self):
        check_fields(self)


# The config's loss section: the keys of each loss name, with their one
# default each.  asl's are ASLConfig's own fields.
LOSS = tagged("name", {
    "asl": {k: f for k, f in spec_of(ASLConfig).items() if k != "eps"},
    "bce": {},
    "focal": {"gamma": Field(non_negative, 2.0)},
})


def _check_inputs(s: Tensor, y: np.ndarray) -> tuple[np.ndarray, int]:
    y = np.asarray(y, dtype=np.float64)
    if s.shape != y.shape:
        raise ad.ShapeError(f"scores {s.shape} and labels {y.shape} differ")
    if s.data.ndim not in (1, 2):
        raise ad.ShapeError(f"scores must be a vector or matrix, got {s.shape}")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be binary")
    rows = s.shape[0] if s.data.ndim == 2 else 1
    return y, rows


def asl(s: Tensor, y: np.ndarray, cfg: ASLConfig | None = None) -> Tensor:
    """Asymmetric loss.

    Per class j:

        -[ y_j * (1 - s_j)^gamma_pos * log(s_j)
           + (1 - y_j) * m_j^gamma_neg * log(1 - m_j) ]

    where m_j = max(s_j - mu, 0) is the margin-shifted negative score.
    ``bce`` is (gamma_pos, gamma_neg, mu) = (0, 0, 0) and ``focal`` is
    (gamma, gamma, 0).  Those presets still pass s_j - 0 through the relu,
    so a negative scored exactly 0.0 sits on the kink and gets gradient 0,
    where the textbook BCE gradient is 1/rows.  A sigmoid returns exactly
    0.0 only for a logit below about -745.
    """
    cfg = cfg or ASLConfig()
    y, rows = _check_inputs(s, y)
    pos_mask = ad.constant(y)
    neg_mask = ad.constant(1.0 - y)

    one_minus_s = ad.add_scalar(ad.neg(s), 1.0)
    pos = ad.mul(pos_mask,
                 ad.mul(ad.power(one_minus_s, cfg.gamma_pos),
                        ad.log(ad.clamp_min(s, cfg.eps))))

    shifted = ad.relu(ad.add_scalar(s, -cfg.mu))
    one_minus_shifted = ad.add_scalar(ad.neg(shifted), 1.0)
    neg = ad.mul(neg_mask,
                 ad.mul(ad.power(shifted, cfg.gamma_neg),
                        ad.log(ad.clamp_min(one_minus_shifted, cfg.eps))))

    total = ad.sum_all(ad.add(pos, neg))
    return ad.scale(total, -1.0 / rows)


def bce(s: Tensor, y: np.ndarray, eps: float = 1e-8) -> Tensor:
    """Plain binary cross-entropy over probabilities: ASL with no focusing
    and no margin."""
    return asl(s, y, ASLConfig(0.0, 0.0, 0.0, eps))


def focal(s: Tensor, y: np.ndarray, gamma: float = 2.0, eps: float = 1e-8) -> Tensor:
    """Symmetric focal loss, ASL with gamma on both branches and no margin:

    -[ y * (1-s)^gamma * log(s) + (1-y) * s^gamma * log(1-s) ];
    gamma = 0 reduces to ``bce``.
    """
    return asl(s, y, ASLConfig(gamma, gamma, 0.0, eps))


def get_loss(name: str, loss_cfg: dict | None = None) -> Callable[[Tensor, np.ndarray], Tensor]:
    """Resolve a loss by config name to ``asl`` under the matching
    ``ASLConfig``.  ``loss_cfg`` holds the name's other keys, each
    optional: ``gamma_pos`` / ``gamma_neg`` / ``mu`` for "asl", ``gamma``
    for "focal", none for "bce".  An unknown name, an unknown key or a
    mistyped value raises ValueError naming the key (see ``LOSS``).
    """
    loss = LOSS({**(loss_cfg or {}), "name": name}, "loss")
    if name == "asl":
        cfg = ASLConfig(loss["gamma_pos"], loss["gamma_neg"], loss["mu"])
    elif name == "bce":
        cfg = ASLConfig(0.0, 0.0, 0.0)
    else:
        cfg = ASLConfig(loss["gamma"], loss["gamma"], 0.0)
    return lambda s, y: asl(s, y, cfg)
