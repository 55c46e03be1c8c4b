"""Pure-NumPy inference kernels mirroring the eval-time autodiff forward.

Each function replicates, operation for operation and in the same dtype, what
the corresponding :mod:`repro.nn` module computes in eval mode with the fused
kernels enabled (the default).  That makes a served forward bitwise-comparable
to the training stack's forward: the parity tests assert identical top-k.

Nothing here touches :class:`repro.nn.tensor.Tensor` — these kernels are what
the serving subsystem runs after an artifact is loaded without the autodiff
graph.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear", "layer_norm", "softmax", "masked_softmax", "masked_fill",
    "gelu", "sigmoid", "multi_head_attention", "transformer_encoder",
    "build_attention_mask", "interest_readout",
]

_NEG_INF = -1e9
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
           ) -> np.ndarray:
    """Affine map ``x @ W^T + b`` on the last axis (mirrors ``nn.Linear``)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    """Layer norm over the last axis (mirrors the fused ``F.layer_norm``)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(variance + eps)
    return (centered * inv_std) * gamma + beta


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (mirrors the fused ``F.softmax``)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_fill(x: np.ndarray, mask: np.ndarray, value: float = _NEG_INF
                ) -> np.ndarray:
    """``value`` where ``mask`` is True (mirrors ``Tensor.masked_fill``)."""
    return np.where(mask, np.asarray(value, dtype=x.dtype), x)


def masked_softmax(x: np.ndarray, mask: np.ndarray | None, axis: int = -1,
                   neg: float = _NEG_INF) -> np.ndarray:
    """Softmax with blocked positions (mirrors the fused ``F.masked_softmax``).

    Blocked positions get exactly zero weight: the ``-1e9`` fill underflows
    ``exp`` to 0.0 in float32, so padded keys cannot leak into the output —
    which is what makes served results independent of batch composition.
    """
    if mask is None:
        return softmax(x, axis=axis)
    return softmax(masked_fill(x, mask, neg), axis=axis)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU (mirrors the fused ``F.gelu``)."""
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * x * (1.0 + t)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-stable logistic (mirrors ``Tensor.sigmoid``)."""
    value = np.empty_like(x)
    positive = x >= 0
    value[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    value[~positive] = exp_x / (1.0 + exp_x)
    return value


def build_attention_mask(valid_mask: np.ndarray | None, length: int,
                         causal: bool = True) -> np.ndarray | None:
    """Combined padding + causal block mask, broadcastable to ``(B, H, L, L)``
    (mirrors ``TransformerEncoder.build_mask``)."""
    mask = None
    if valid_mask is not None:
        mask = ~valid_mask.astype(bool)[:, None, None, :]
    if causal:
        causal_mask = np.triu(np.ones((length, length), dtype=bool), k=1)[None, None]
        mask = causal_mask if mask is None else (mask | causal_mask)
    return mask


def _take(params: dict[str, np.ndarray], name: str) -> np.ndarray:
    try:
        return params[name]
    except KeyError:
        raise KeyError(f"artifact is missing serving parameter {name!r}") from None


def multi_head_attention(x: np.ndarray, mask: np.ndarray | None,
                         params: dict[str, np.ndarray], prefix: str,
                         num_heads: int) -> np.ndarray:
    """Self-attention block (mirrors ``nn.attention.MultiHeadAttention``)."""
    batch, length, dim = x.shape
    head_dim = dim // num_heads

    def project(name: str) -> np.ndarray:
        out = linear(x, _take(params, f"{prefix}{name}.weight"),
                     _take(params, f"{prefix}{name}.bias"))
        return out.reshape(batch, length, num_heads, head_dim).transpose(0, 2, 1, 3)

    q, k, v = project("q_proj"), project("k_proj"), project("v_proj")
    scale = np.asarray(1.0 / np.sqrt(head_dim), dtype=x.dtype)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    weights = masked_softmax(scores, mask, axis=-1)
    attended = (weights @ v).transpose(0, 2, 1, 3).reshape(batch, length, dim)
    return linear(attended, _take(params, f"{prefix}out_proj.weight"),
                  _take(params, f"{prefix}out_proj.bias"))


def transformer_encoder(x: np.ndarray, valid_mask: np.ndarray | None,
                        params: dict[str, np.ndarray], prefix: str,
                        num_layers: int, num_heads: int,
                        causal: bool = True) -> np.ndarray:
    """Pre-LN encoder stack (mirrors ``nn.transformer.TransformerEncoder``)."""
    mask = build_attention_mask(valid_mask, x.shape[1], causal=causal)
    for layer in range(num_layers):
        base = f"{prefix}layers.{layer}."
        normed = layer_norm(x, _take(params, f"{base}attn_norm.gamma"),
                            _take(params, f"{base}attn_norm.beta"))
        x = x + multi_head_attention(normed, mask, params, f"{base}attn.",
                                     num_heads)
        normed = layer_norm(x, _take(params, f"{base}ffn_norm.gamma"),
                            _take(params, f"{base}ffn_norm.beta"))
        hidden = gelu(linear(normed, _take(params, f"{base}ffn.fc1.weight"),
                             _take(params, f"{base}ffn.fc1.bias")))
        x = x + linear(hidden, _take(params, f"{base}ffn.fc2.weight"),
                       _take(params, f"{base}ffn.fc2.bias"))
    return layer_norm(x, _take(params, f"{prefix}final_norm.gamma"),
                      _take(params, f"{prefix}final_norm.beta"))


def interest_readout(per_interest: np.ndarray, score_mode: str = "max",
                     score_pow: float = 1.0) -> np.ndarray:
    """Collapse ``(..., K, C)`` per-interest scores to ``(..., C)`` (mirrors
    ``SequentialRecommender.interest_readout``)."""
    if score_mode == "max":
        return per_interest.max(axis=-2)
    if score_mode == "softmax":
        weights = softmax(per_interest * np.asarray(score_pow,
                                                    dtype=per_interest.dtype),
                          axis=-2)
        return (weights * per_interest).sum(axis=-2)
    raise ValueError(f"unknown score_mode {score_mode!r}")

