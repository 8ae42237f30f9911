"""Finite differences of the whole model's saddle objective.

``train_step`` backpropagates ``L_y + L_d`` through the model as it wires
it: window gather, hidden layer, lateral-inhibition (LI) gate, tag head,
mean pooling, gradient reversal with coefficient lam, discriminator and
both cross-entropies. The tape gradient that leaves is the gradient of

  * ``L_y - lam * L_d`` for the extractor's parameters,
  * ``L_y`` for the classifier's, and
  * ``L_d`` for the discriminator's:

the saddle point of Ganin & Lempitsky (2015, arXiv:1409.7495). So one
central difference of ``J = L_y + s * L_d`` along a fixed random direction
of each parameter, with ``s = -lam`` for the extractor and ``s = 1``
elsewhere, checks the reversal's sign and its lam as well as every vjp.

The LI layer is checked in its relaxed form, whose true gradient is the
hard gate's surrogate gradient. The hard gate itself is the negative
control: finite differences read its LI weight and bias as 0, against a
non-zero surrogate gradient, so the check must disagree there.
"""

import itertools

import numpy as np
import pytest

import mweid
from mweid.autodiff import softmax_cross_entropy
from mweid.corpus import merge_corpora, parse_cupt_file
from mweid.model import ModelConfig, MweTagger
from mweid.trainer import encode, train_step

# A step of 1e-6 leaves up to 8e-6 of rounding error here, and one of 1e-4
# crosses a relu kink. At 1e-5 the worst relative error of the model is
# 6.6e-7, under a tolerance that a reversal that does not negate, a
# reversal given the config's lam or a discriminator detached from the
# extractor each exceed many times over.
STEP = 1e-5
TOLERANCE = 1e-5

CORPUS = merge_corpora([
    (parse_cupt_file(mweid.fixture_path("synthetic_ro.cupt")), "RO"),
    (parse_cupt_file(mweid.fixture_path("synthetic_fr.cupt")), "FR")])
RO, FR = CORPUS.sentences[:5], CORPUS.sentences[5:]
BATCHES = {1: [FR[0]], 3: [RO[0], FR[1], RO[2]]}
WINDOWS = (0, 2)
LAMBDAS = (0.0, 0.7)


def _model(window: int, li: str | None, adversarial: bool) -> MweTagger:
    """A small model of the fixtures; ``li`` is None, "relaxed" or "hard".
    The config's lam stays 1.0, so a forward that ignores the caller's lam
    is seen."""
    config = ModelConfig(embedding_dim=5, window=window, hidden_dim=6,
                         disc_hidden_dim=4, use_lateral_inhibition=li is not None,
                         use_adversarial=adversarial, lam=1.0, seed=3)
    model = MweTagger.build(config, CORPUS)
    if li == "relaxed":
        layer = model.classifier.inhibition
        layer.forward = layer.forward_relaxed
    return model


def _tape_gradients(model: MweTagger, sentences, lam: float) -> dict:
    """Each parameter's gradient after ``train_step``'s backward; the step's
    update is undone."""
    saved = [p.data.copy() for p in model.parameters()]
    train_step(model, sentences, 1.0, lam=lam)
    grads = {p.name: p.grad.copy() for p in model.parameters()}
    for param, value in zip(model.parameters(), saved):
        param.data[...] = value
    return grads


def _losses(model: MweTagger, batch, lam: float) -> tuple[float, float]:
    tag_logits, lang_logits = model.forward(batch, lam=lam)
    loss_y = float(softmax_cross_entropy(tag_logits, batch.tags).data)
    if lang_logits is None:
        return loss_y, 0.0
    return loss_y, float(softmax_cross_entropy(lang_logits,
                                               batch.languages).data)


def _errors(model: MweTagger, sentences, lam: float, seed: int) -> dict:
    """Relative error of the tape's directional derivative of J against its
    central difference, per parameter."""
    grads = _tape_gradients(model, sentences, lam)
    batch = encode(model, sentences)
    rng = np.random.default_rng(seed)
    extractor = {p.name for p in model.feature_parameters()}
    errors = {}
    for param in model.parameters():
        direction = rng.standard_normal(param.shape)
        if param is model.extractor.embedding:
            read = np.zeros(len(direction), dtype=bool)
            read[batch.windows.reshape(-1)] = True
            direction[~read] = 0.0
        sign = -lam if param.name in extractor else 1.0
        saved = param.data.copy()
        values = []
        for offset in (STEP, -STEP):
            param.data[...] = saved + offset * direction
            loss_y, loss_d = _losses(model, batch, lam)
            values.append(loss_y + sign * loss_d)
        param.data[...] = saved
        numeric = (values[0] - values[1]) / (2 * STEP)
        tape = float(np.sum(grads[param.name] * direction))
        errors[param.name] = abs(numeric - tape) / max(abs(numeric), abs(tape))
    return errors


def _steps(model: MweTagger, sentences, lam: float, count: int) -> None:
    for _ in range(count):
        train_step(model, sentences, 1.0, lam=lam)


@pytest.mark.parametrize("steps", (0, 3))
@pytest.mark.parametrize("adversarial", (True, False),
                         ids=("adversary", "no_adversary"))
@pytest.mark.parametrize("li", (None, "relaxed"), ids=("no_li", "relaxed_li"))
def test_tape_gradient_is_the_saddle_gradient(li, adversarial, steps):
    worst = {}
    for (size, sentences), window, lam in itertools.product(
            BATCHES.items(), WINDOWS, LAMBDAS):
        if not adversarial and lam:
            continue  # without a discriminator lam changes nothing
        model = _model(window, li, adversarial)
        _steps(model, sentences, lam, steps)
        errors = _errors(model, sentences, lam, seed=size + window)
        assert len(errors) == 3 + 2 * (li is not None) + 2 + 4 * adversarial
        name = max(errors, key=errors.get)
        worst[(size, window, lam)] = (name, errors[name])
    failing = {key: value for key, value in worst.items()
               if not value[1] <= TOLERANCE}
    assert not failing, failing


def test_relaxed_li_vote_with_drawn_weights():
    # LI weights start at 0 and 3 steps leave them below 1e-3, so the vote
    # of the other dimensions hardly reaches the features' gradient; drawn
    # weights make that path count.
    for (size, sentences), window, lam in itertools.product(
            BATCHES.items(), WINDOWS, LAMBDAS):
        model = _model(window, "relaxed", True)
        weight = model.classifier.inhibition.weight
        weight.data[...] = np.random.default_rng(size).uniform(
            -0.5, 0.5, weight.shape)
        errors = _errors(model, sentences, lam, seed=size + window)
        assert max(errors.values()) <= TOLERANCE, (size, window, lam, errors)


@pytest.mark.parametrize("steps", (0, 3))
def test_hard_gate_disagrees(steps):
    # The gate is a step: nudging the LI weight or bias moves no output, but
    # the tape carries the surrogate's gradient.
    model = _model(2, "hard", True)
    _steps(model, BATCHES[3], 0.7, steps)
    errors = _errors(model, BATCHES[3], 0.7, seed=5)
    assert errors["classifier.li.weight"] > 0.5
    assert errors["classifier.li.bias"] > 0.5
