"""Stochastic gates: reparameterized masks, their information cost, and
the redundancy-score thresholding that turns them into hard 0/1 masks.

A gate holds one (mu, log_sigma) pair per structural unit of the group it
controls. Sampled masks are mu + eps * sigma; a unit is dropped when
log(mu^2 / sigma^2) falls at or below the threshold tau.

`kl_term`, `soft_keep` and the hard-mask rule take a single gate or a
`GateVector`, the units of every gate of a model as one pair of vectors;
training and `model.structure` call them once on the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ContractError
from .tensor import (
    Tensor,
    add,
    constant,
    mul,
    parameter,
    reparam,
    scale,
    sigmoid,
    square,
    texp,
    tlog,
    tsum,
)

# floor added to mu^2 before taking logs; keeps log-alpha finite at mu == 0
# without moving any decision boundary that float32 can represent
_ALPHA_FLOOR = 1e-38


class Site(str, Enum):
    EMBEDDING_WIDTH = "embedding_width"
    HEADS = "heads"
    FFN_INTERMEDIATE = "ffn_intermediate"
    FFN_OUTPUT = "ffn_output"
    LAYER_MHA = "layer_mha"
    LAYER_FFN = "layer_ffn"


@dataclass
class GateInit:
    mu_mean: float = 1.0
    mu_std: float = 0.01
    sigma_init: float = 0.1
    seed: int = 0

    def validate(self):
        if self.mu_std < 0:
            raise ContractError("GateInit: mu_std must be >= 0")
        if self.sigma_init <= 0:
            raise ContractError("GateInit: sigma_init must be > 0")


class VibGate:
    """One gated structural group (width dims, heads, FFN units, or a sub-layer)."""

    def __init__(self, unit_count: int, site: Site, beta: float,
                 mu: np.ndarray, log_sigma: np.ndarray):
        self.unit_count = unit_count
        self.site = Site(site)
        self.beta = float(beta)
        self.mu = parameter(mu)
        self.log_sigma = parameter(log_sigma)


class GateVector(NamedTuple):
    """The units of many gates as one (mu, log_sigma) pair of graph vectors;
    it stands in for a single gate wherever only those two are read."""

    mu: Tensor
    log_sigma: Tensor


def new_gate(unit_count: int, site: Site, beta: float, init: GateInit) -> VibGate:
    if unit_count < 1:
        raise ContractError(f"new_gate: unit_count must be >= 1, got {unit_count}")
    if beta < 0:
        raise ContractError("new_gate: beta must be >= 0")
    init.validate()
    rng = np.random.default_rng(init.seed)
    mu = rng.normal(init.mu_mean, init.mu_std, size=unit_count).astype(np.float32)
    log_sigma = np.full(unit_count, np.log(init.sigma_init), dtype=np.float32)
    return VibGate(unit_count, site, beta, mu, log_sigma)


def normal32(rng, n: int) -> np.ndarray:
    """`n` standard normal float32 values, Box-Muller on one call
    `rng.random(2 * ceil(n / 2), dtype=np.float32)` = (u1, u2): r cos(2 pi u2)
    then r sin(2 pi u2), r = sqrt(-2 log(1 - u1)); 1 - u1 in (0, 1] keeps r finite."""
    h = (n + 1) // 2
    u = rng.random(2 * h, dtype=np.float32)
    r, t = u[:h], u[h:]
    np.log(np.subtract(1.0, r, out=r), out=r)
    np.sqrt(np.multiply(r, -2.0, out=r), out=r)
    t *= np.float32(2.0 * np.pi)
    out = np.empty(2 * h, dtype=np.float32)
    np.multiply(np.cos(t, out=out[:h]), r, out=out[:h])
    np.multiply(np.sin(t, out=out[h:]), r, out=out[h:])
    return out[:n]


def sample_mask(gate: VibGate, epsilon) -> Tensor:
    """Mask tensor mu + eps * sigma of shape (batch, seq, unit_count), with eps
    supplied by the caller; differentiable in mu/log_sigma."""
    return reparam(gate.mu, gate.log_sigma, np.asarray(epsilon, dtype=np.float32))


def kl_term(gate, beta: np.ndarray = None) -> Tensor:
    """Information cost of the gate: sum over units of log(1 + mu^2/sigma^2),
    each unit's term weighted by its entry of `beta` when one is given."""
    alpha_t = mul(square(gate.mu), texp(scale(gate.log_sigma, -2.0)))
    cost = tlog(add(alpha_t, constant(1.0)))
    return tsum(cost if beta is None else mul(cost, constant(beta)))


def alpha(gate) -> np.ndarray:
    """Per-unit redundancy mu^2 / sigma^2 of a gate or a `GateVector` (0: noise)."""
    sigma = np.exp(gate.log_sigma.data)
    return (gate.mu.data.astype(np.float64) ** 2) / (sigma.astype(np.float64) ** 2)


def log_alpha(gate) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(alpha(gate))


def hard_mask(gate, tau: float) -> np.ndarray:
    """Binary keep mask: 1 where log(alpha) > tau, else 0 (boundary drops)."""
    return (log_alpha(gate) > tau).astype(np.float32)


def soft_keep(gate, tau: float, temperature: float) -> Tensor:
    """Differentiable keep probability: sigmoid((log alpha - tau) / temperature)."""
    if temperature <= 0:
        raise ContractError("soft_keep: temperature must be > 0")
    la = add(
        tlog(add(square(gate.mu), constant(_ALPHA_FLOOR))),
        scale(gate.log_sigma, -2.0),
    )
    return sigmoid(scale(add(la, constant(-float(tau))), 1.0 / temperature))

