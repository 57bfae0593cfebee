"""Meta-learned knowledge-grounded dialogue generation."""

from .config import RunConfig
from .dialogue import (
    DialogueGoal,
    DialogueSample,
    KnowledgeGraph,
    KnowledgeTriplet,
    START_MARKER,
)
from .meta import Task, TaskSampler
from .model import DialogueModel
from .params import ParamStore
from .tensor import Tape, Tensor

__all__ = [
    "DialogueGoal",
    "DialogueSample",
    "DialogueModel",
    "KnowledgeGraph",
    "KnowledgeTriplet",
    "ParamStore",
    "RunConfig",
    "START_MARKER",
    "Tape",
    "Task",
    "TaskSampler",
    "Tensor",
]
