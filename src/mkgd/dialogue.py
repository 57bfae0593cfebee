"""Domain records: knowledge triplets, graphs, goals, and dialogue samples."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError

START_MARKER = "[start]"


@dataclass(frozen=True)
class KnowledgeTriplet:
    head: str
    relation: str
    tail: str

    def __post_init__(self):
        if not all(map(str.strip, (self.head, self.relation, self.tail))):
            raise ContractError(f"every triplet field must hold a token: {self!r}")

    def tokens(self):
        """Linearize to 'head relation tail' with no separators."""
        return self.head.split() + self.relation.split() + self.tail.split()


@dataclass(frozen=True)
class DialogueGoal:
    """Three-stage topic path: [start] -> topic_a -> topic_b."""

    path: tuple

    def __post_init__(self):
        path = tuple(self.path)
        object.__setattr__(self, "path", path)
        if len(path) != 3:
            raise ContractError(f"goal path must have 3 stages, got {len(path)}")
        if path[0] != START_MARKER:
            raise ContractError(f"goal path must begin with {START_MARKER!r}, got {path[0]!r}")


@dataclass
class KnowledgeGraph:
    """Ordered triplets attached to one dialogue goal; order identifies triplets."""

    triplets: list
    goal: DialogueGoal

    def __post_init__(self):
        if not self.triplets:
            raise ContractError("knowledge graph needs at least one triplet")

    def __len__(self):
        return len(self.triplets)


@dataclass
class DialogueSample:
    """One numericalized (history, response, graph, gold triplet index) record."""

    history: list
    response: list
    graph: KnowledgeGraph
    gold_triplet: int

    def __post_init__(self):
        if not self.history:
            raise ContractError("dialogue history must be non-empty")
        if not self.response:
            raise ContractError("dialogue response must be non-empty")
        if not (0 <= self.gold_triplet < len(self.graph)):
            raise ContractError(
                f"gold triplet {self.gold_triplet} out of range for "
                f"{len(self.graph)}-triplet graph"
            )
