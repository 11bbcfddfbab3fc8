"""Multi-label classification losses over per-class probabilities.

One loss builds a graph node: the asymmetric loss ``asl``.  The
symmetric focal loss is a preset of it, (gamma_pos, gamma_neg, mu) =
(gamma, gamma, 0), and binary cross-entropy is focal at gamma 0.  The loss
takes a score tensor ``s`` holding probabilities, an ``(r, c)`` matrix
for a batch of r samples (one sample is a batch of one), plus a
same-shaped binary label array.  The scalar result is the mean over
samples of the per-sample sum over classes.  Each log's argument is
clamped to ``[eps, ...]`` so saturated probabilities cannot produce
infinities; a NaN or infinite score, which the clamps would turn into a
finite loss, raises ``NonFiniteError``.

``asl`` is a single node whose parent is ``s``, built with the engine's
own node constructor: its forward is one numpy pass and its backward the
closed-form d(loss)/ds, with the subgradient conventions spelled out in
``asl``: 0 at the margin kink and 0 through a log clamped at its floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accumulate, _from_op
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
    if s.data.ndim != 2:
        raise ad.ShapeError(f"scores must be a (B, c) matrix, got {s.shape}")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValueError("labels must be binary")
    if (bad := ~np.isfinite(s.data)).any():
        raise ad.NonFiniteError(f"scores are not finite: {np.unique(s.data[bad])}")
    return y, s.shape[0]


def _power_slope(base: np.ndarray, gamma: float) -> np.ndarray:
    """d(base**gamma)/d(base) for gamma > 0, taken as 0 wherever base <= 0.
    The power is evaluated only where base > 0, so a fractional gamma
    meets no 0**(gamma - 1)."""
    slope = np.zeros_like(base)
    np.power(base, gamma - 1.0, out=slope, where=base > 0.0)
    slope *= gamma
    return slope


def asl(s: Tensor, y: np.ndarray, cfg: ASLConfig | None = None) -> Tensor:
    """Asymmetric loss, as one graph node.

    Per class j:

        -[ y_j * (1 - s_j)^gamma_pos * log(max(s_j, eps))
           + (1 - y_j) * m_j^gamma_neg * log(max(1 - m_j, eps)) ]

    where m_j = max(s_j - mu, 0) is the margin-shifted negative score.
    The node's backward is the closed form of d/ds_j:

        y_j * [ (1 - s_j)^gamma_pos / s_j - gamma_pos (1 - s_j)^(gamma_pos-1) log s_j ]
        + (1 - y_j) * [ gamma_neg m_j^(gamma_neg-1) log(1 - m_j) - m_j^gamma_neg / (1 - m_j) ]

    scaled by -1/rows, with these conventions: a score at or below the
    margin (s_j <= mu, the kink included) gets 0 on the negative branch;
    below either clamp floor (s_j <= eps on a positive, 1 - m_j <= eps on
    a negative) the log term gets 0; a power's slope is 0 where its base
    is <= 0 and for exponent 0.  ``bce`` is (gamma_pos, gamma_neg, mu) =
    (0, 0, 0) and ``focal`` is (gamma, gamma, 0); with mu = 0 a negative
    scored exactly 0.0 still sits on the kink and gets gradient 0, where
    the textbook BCE gradient is 1/rows.  A sigmoid returns exactly 0.0
    only for a logit below about -745.
    """
    cfg = cfg or ASLConfig()
    y, rows = _check_inputs(s, y)
    x = s.data
    not_y = 1.0 - y

    one_minus_s = 1.0 - x
    s_live = x > cfg.eps
    s_clamped = np.maximum(x, cfg.eps)   # x is finite: _check_inputs refused the rest
    log_s = np.log(s_clamped)
    pow_pos = np.power(one_minus_s, cfg.gamma_pos)

    shifted = x - cfg.mu
    above = shifted > 0.0
    m = np.maximum(shifted, 0.0)
    one_minus_m = 1.0 - m
    m_live = one_minus_m > cfg.eps
    m_clamped = np.maximum(one_minus_m, cfg.eps)
    log_m = np.log(m_clamped)
    pow_neg = np.power(m, cfg.gamma_neg)

    terms = y * (pow_pos * log_s) + not_y * (pow_neg * log_m)
    out = np.asarray(terms.sum()) * (-1.0 / rows)

    def _bw(g: np.ndarray) -> None:
        # live / clamped is 1/x above a floor and 0 below it
        d_pos = pow_pos * (s_live / s_clamped)
        d_neg = pow_neg * (m_live / m_clamped)
        if cfg.gamma_pos:
            d_pos -= _power_slope(one_minus_s, cfg.gamma_pos) * log_s
        if cfg.gamma_neg:
            d_neg -= _power_slope(m, cfg.gamma_neg) * log_m
        _accumulate(s, (g * (-1.0 / rows)) * (y * d_pos - (not_y * above) * d_neg), fresh=True)

    return _from_op(out, (s,), _bw)


def bce(s: Tensor, y: np.ndarray) -> Tensor:
    """Plain binary cross-entropy over probabilities: focal at gamma 0."""
    return focal(s, y, 0.0)


def focal(s: Tensor, y: np.ndarray, gamma: float = 2.0) -> Tensor:
    """Symmetric focal loss, ASL with gamma on both branches and no margin:

    -[ y * (1-s)^gamma * log(s) + (1-y) * s^gamma * log(1-s) ];
    gamma = 0 reduces to ``bce``.
    """
    return asl(s, y, ASLConfig(gamma, gamma, 0.0))


def get_loss(name: str, loss_cfg: dict | None = None) -> Callable[[Tensor, np.ndarray], Tensor]:
    """Resolve a loss by config name to ``asl`` under the matching
    ``ASLConfig``.  ``loss_cfg`` holds the name's other keys, each optional:
    ``gamma_pos`` / ``gamma_neg`` / ``mu`` for "asl", ``gamma`` for "focal",
    none for "bce" (focal at gamma 0).  An unknown name, an unknown key or
    a mistyped value raises ValueError naming the key (see ``LOSS``).
    """
    loss = LOSS({**(loss_cfg or {}), "name": name}, "loss")
    if name == "asl":
        cfg = ASLConfig(loss["gamma_pos"], loss["gamma_neg"], loss["mu"])
    else:   # focal's preset; bce is focal at gamma 0
        cfg = ASLConfig(loss.get("gamma", 0.0), loss.get("gamma", 0.0), 0.0)
    return lambda s, y: asl(s, y, cfg)
