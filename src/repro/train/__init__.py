"""``repro.train`` — optimization loop and history."""

from .history import EpochRecord, History
from .trainer import TrainConfig, Trainer

__all__ = ["TrainConfig", "Trainer", "History", "EpochRecord"]
