"""The whole model's gradient against central differences over its one parameter vector.

Since the store is one vector, a directional derivative costs two forwards:
(L(theta + h d) - L(theta - h d)) / 2h against <grad L, d>, with store.install
for each point. The directions are five random unit vectors over the whole
vector and one random unit direction inside each parameter's slot, so every
layer is checked through the objective, hand-written backward rules included.
"""

import numpy as np
import pytest

from mkgd import tensor as T
from mkgd.data import Vocab
from mkgd.dialogue import DialogueGoal, DialogueSample, KnowledgeGraph, KnowledgeTriplet
from mkgd.layers import lockstep_layout
from mkgd.meta import Task, _query_objective
from mkgd.model import DialogueModel

VOCAB = Vocab(["a", "b", "c", "r0", "r1", "x", "y"])
TWO = KnowledgeGraph([KnowledgeTriplet("a", "r0", "b"), KnowledgeTriplet("c", "r1", "x y")],
                     DialogueGoal(("[start]", "a", "b")))
THREE = KnowledgeGraph([KnowledgeTriplet("b", "r1", "a"), KnowledgeTriplet("a", "r1", "c"),
                        KnowledgeTriplet("y", "r0", "b a")],
                       DialogueGoal(("[start]", "b", "a")))


def sample(graph, history, response, gold=0):
    return DialogueSample(history=VOCAB.encode(history.split()),
                          response=VOCAB.encode(response.split()) + [VOCAB.EOS],
                          graph=graph, gold_triplet=gold)


# Ragged histories beside a graph of 2: no run has more rows than the
# longest, so the encoders step in one lockstep group.
ONE_GROUP = [sample(TWO, "a r0 b c x", "b c"), sample(TWO, "x y", "a", 1),
             sample(TWO, "c a b", "y x b")]
# One long history beside a graph of 3: the triplets step apart.
SPLIT = [sample(THREE, "a r0 b c x y a b", "a b", 2)]
# Two tasks' query sets in one forward: graphs of 2 and 3, padded and masked.
TASKS = [Task(support=[sample(TWO, "a", "b")], query=ONE_GROUP[:2]),
         Task(support=[sample(THREE, "b", "a")],
              query=[sample(THREE, "b a r1 c y x", "c a", 1), sample(THREE, "y", "b")])]


def groups(samples):
    """The number of lockstep groups forward's encoders step in."""
    triplets = [len(VOCAB.encode(t.tokens())) for g in {id(s.graph): s.graph
                                                         for s in samples}.values()
                for t in g.triplets]
    histories = [len(s.history) for s in samples]
    lengths = (histories, histories, triplets, [len(s.response) for s in samples])
    return len(lockstep_layout(tuple(np.array(n) for n in lengths))[0])


def model():
    return DialogueModel(VOCAB, 4, 5, seed=3, loss_weights=(1.0, 0.5, 2.0))


def objective_gradient(model, objective):
    tape = T.Tape()
    tape.watch(model.store)
    with tape:
        loss = objective(model)
    return T.backward(tape, loss).flat


def central_difference(model, objective, direction, h):
    theta = model.store.vector.copy()
    values = []
    for sign in (1.0, -1.0):
        model.store.install(theta + sign * h * direction)
        values.append(objective(model).item())
    model.store.install(theta)
    return (values[0] - values[1]) / (2.0 * h)


# name -> (objective, its samples, the lockstep groups their encoders step in)
OBJECTIVES = {
    "one-group": (lambda m: m.batch_objective(ONE_GROUP)[0], ONE_GROUP, 1),
    "split": (lambda m: m.batch_objective(SPLIT)[0], SPLIT, 2),
    # 5 triplets beside 4 histories of up to 6 tokens: the triplets step apart
    "meta-query": (lambda m: _query_objective(m, TASKS)[0],
                   [s for task in TASKS for s in task.query], 2),
}


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_objective_gradient_matches_directional_central_differences(name):
    objective, samples, expected = OBJECTIVES[name]
    assert groups(samples) == expected
    m = model()
    grad = objective_gradient(m, objective)
    rng = np.random.default_rng(60)
    # Whole-vector directions: relative agreement, the derivatives are O(1).
    for _ in range(5):
        d = rng.normal(size=grad.size)
        d /= np.linalg.norm(d)
        want, got = central_difference(m, objective, d, 1e-4), float(grad @ d)
        assert abs(got - want) <= 1e-7 * abs(want) + 1e-9, (got, want)
    # One direction per parameter, with an absolute bound: some of these
    # derivatives are near 1e-11, so a relative bound would test rounding.
    for pname, view in m.store.views(np.arange(grad.size)).items():
        d = np.zeros(grad.size)
        d[view.reshape(-1)] = rng.normal(size=view.size)
        d /= np.linalg.norm(d)
        want, got = central_difference(m, objective, d, 1e-5), float(grad @ d)
        assert abs(got - want) <= 1e-8, (pname, got, want)
