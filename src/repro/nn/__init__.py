"""``repro.nn`` — a from-scratch NumPy deep-learning substrate.

This package replaces PyTorch for this reproduction (no GPU frameworks are
available offline).  It provides reverse-mode autodiff (:mod:`.tensor`),
modules and layers (:mod:`.module`, :mod:`.layers`, :mod:`.attention`,
:mod:`.transformer`, :mod:`.rnn`), losses (:mod:`.losses`), optimizers
(:mod:`.optim`) and LR schedules (:mod:`.schedule`).
"""

from . import functional, init
from .attention import (AdditiveAttentionPool, MultiHeadAttention, make_causal_mask,
                        make_padding_mask, scaled_dot_product_attention)
from .layers import (Dropout, Embedding, FeedForward, LayerNorm, Linear,
                     SinusoidalPositionalEncoding)
from .losses import (bpr_loss, cross_entropy, cross_entropy_with_candidates, info_nce,
                     info_nce_from_logits)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import SGD, Adagrad, Adam, AdamW, Optimizer, RMSprop, clip_grad_norm
from .rnn import GRU, GRUCell
from .sanitizer import (GradSanitizer, InplaceMutationError, NonFiniteOriginError,
                        disable_sanitizer, enable_sanitizer, get_sanitizer,
                        sanitized)
from .scatter import (SegmentPlan, get_scatter_backend, scatter_backend,
                      set_scatter_backend)
from .schedule import ConstantLR, LRSchedule, StepDecay, WarmupCosine
from .serialization import load_checkpoint, save_checkpoint
# NOTE: the `tensor(...)` factory function is deliberately NOT re-exported:
# it would shadow the `repro.nn.tensor` submodule in `import repro.nn.tensor
# as t` resolution.  Use `Tensor(...)` or `repro.nn.tensor.tensor(...)`.
from .tensor import (Tensor, arange, concatenate, get_default_dtype, is_grad_enabled,
                     maximum, minimum, no_grad, ones, ones_like, set_default_dtype, stack,
                     where, zeros, zeros_like)
from .transformer import TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "functional", "init",
    "Tensor", "zeros", "ones", "zeros_like", "ones_like", "arange",
    "concatenate", "stack", "where", "maximum", "minimum",
    "no_grad", "is_grad_enabled", "set_default_dtype", "get_default_dtype",
    "Module", "ModuleList", "Parameter", "Sequential",
    "Linear", "Embedding", "LayerNorm", "Dropout", "FeedForward",
    "SinusoidalPositionalEncoding",
    "MultiHeadAttention", "AdditiveAttentionPool", "scaled_dot_product_attention",
    "make_causal_mask", "make_padding_mask",
    "TransformerEncoder", "TransformerEncoderLayer",
    "GRU", "GRUCell",
    "cross_entropy", "cross_entropy_with_candidates", "bpr_loss", "info_nce",
    "info_nce_from_logits",
    "Optimizer", "SGD", "Adam", "AdamW", "Adagrad", "RMSprop", "clip_grad_norm",
    "LRSchedule", "ConstantLR", "WarmupCosine", "StepDecay",
    "save_checkpoint", "load_checkpoint",
    "SegmentPlan", "scatter_backend", "set_scatter_backend", "get_scatter_backend",
    "GradSanitizer", "sanitized", "enable_sanitizer", "disable_sanitizer",
    "get_sanitizer", "InplaceMutationError", "NonFiniteOriginError",
]
