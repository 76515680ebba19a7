"""Property-style certification of the attack stack.

Two randomized suites backing the adversarial-training tentpole:

* ``input_gradient`` matches central finite differences for every
  predictor body (F/C/L/H) on *randomized* window geometries — the
  fixed-shape checks in ``test_gradients.py`` can miss stride or
  reshape bugs that only bite at other alphas / neighbourhood widths;
* FGSM and PGD outputs never escape the :class:`PlausibilityBox`
  (absolute range, L-infinity budget, per-tick rate bound) under
  randomized budgets, step counts and box configurations — the
  guarantee :class:`repro.core.AdversarialAugmenter` relies on to keep
  training batches physically plausible.
"""

import numpy as np
import pytest

from repro import nn
from repro.attacks import FGSMAttack, PGDAttack, PlausibilityBox, input_gradient
from repro.attacks.constraints import MAX_PLAUSIBLE_SPEED_KMH
from repro.core.config import table1_spec
from repro.core.predictors import build_predictor
from repro.data import FeatureConfig

#: Randomized-but-pinned window geometries: (alpha, m, batch).
SHAPES = [(3, 1, 2), (5, 2, 1), (4, 1, 3)]


def _predictor_for(kind: str, config: FeatureConfig, seed: int):
    spec = table1_spec(kind, width_factor=0.05)
    return build_predictor(kind, config, spec=spec, rng=np.random.default_rng(seed))


def _random_inputs(config: FeatureConfig, batch: int, rng: np.random.Generator):
    images = rng.uniform(0.05, 0.95, size=(batch, config.image_rows, config.alpha))
    day_types = np.zeros((batch, 4))
    day_types[np.arange(batch), rng.integers(0, 4, size=batch)] = 1.0
    targets = rng.uniform(0.1, 0.9, size=batch)
    return images, day_types, targets


@pytest.mark.parametrize("kind", ["F", "C", "L", "H"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"a{s[0]}m{s[1]}b{s[2]}")
def test_input_gradient_matches_finite_difference_on_random_shapes(kind, shape):
    alpha, m, batch = shape
    config = FeatureConfig(alpha=alpha, m=m)
    # Deterministic per-case seed (str hash is process-randomized).
    seed = ord(kind) * 1009 + alpha * 101 + m * 11 + batch
    rng = np.random.default_rng(seed)
    predictor = _predictor_for(kind, config, seed)
    images, day_types, targets = _random_inputs(config, batch, rng)

    result = input_gradient(predictor, images, day_types, targets)

    images_t = nn.Tensor(images, requires_grad=True)
    day_t = nn.Tensor(day_types)
    targets_t = nn.Tensor(targets)

    def objective():
        flat = nn.ops.concat([images_t.reshape(batch, -1), day_t], axis=1)
        residual = predictor.forward(images_t, day_t, flat) - targets_t
        return (residual * residual).sum()

    numeric = nn.numerical_gradient(objective, images_t, eps=1e-5)
    assert result.grad_images.shape == images.shape
    assert np.allclose(result.grad_images, numeric, atol=1e-4, rtol=1e-3)


#: Randomized box/attack draws per suite run (pinned generator below).
_TRIALS = 8


def _random_box(rng: np.random.Generator) -> PlausibilityBox:
    max_step = None if rng.random() < 0.3 else float(rng.uniform(1.0, 8.0))
    return PlausibilityBox(
        epsilon_kmh=float(rng.uniform(0.5, 12.0)), max_step_kmh=max_step
    )


def _assert_in_box(result, box: PlausibilityBox) -> None:
    speeds, reference = result.speeds_kmh, result.reference_kmh
    tol = 1e-9
    assert box.contains(speeds, reference)
    assert np.all(speeds >= box.min_speed_kmh - tol)
    assert np.all(speeds <= MAX_PLAUSIBLE_SPEED_KMH + tol)
    delta = speeds - reference
    assert np.max(np.abs(delta)) <= box.epsilon_kmh + tol
    if box.max_step_kmh is not None:
        steps = np.abs(np.diff(delta, axis=-1))
        assert np.max(steps) <= box.max_step_kmh + tol


class TestAttacksStayInsideTheBox:
    def test_fgsm_never_escapes(self, victim_model, small_batch):
        images, day_types, targets = small_batch
        rng = np.random.default_rng(4242)
        for _ in range(_TRIALS):
            box = _random_box(rng)
            attack = FGSMAttack(victim_model.predictor, victim_model.scalers, box)
            _assert_in_box(attack.perturb(images, day_types, targets), box)

    def test_pgd_never_escapes(self, victim_model, small_batch):
        images, day_types, targets = small_batch
        rng = np.random.default_rng(2424)
        for _ in range(_TRIALS):
            box = _random_box(rng)
            attack = PGDAttack(
                victim_model.predictor,
                victim_model.scalers,
                box,
                steps=int(rng.integers(1, 5)),
                random_start=bool(rng.random() < 0.5),
                seed=int(rng.integers(0, 2**31)),
            )
            _assert_in_box(attack.perturb(images, day_types, targets), box)

    def test_pgd_with_oversized_step_is_still_projected(self, victim_model, small_batch):
        # A step far larger than the budget stresses the projection:
        # every iterate lands outside and must be pulled back.
        images, day_types, targets = small_batch
        box = PlausibilityBox(epsilon_kmh=2.0, max_step_kmh=1.5)
        attack = PGDAttack(
            victim_model.predictor, victim_model.scalers, box,
            steps=3, step_kmh=50.0, seed=3,
        )
        _assert_in_box(attack.perturb(images, day_types, targets), box)
