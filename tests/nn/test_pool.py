"""Reusing kernel arrays across training steps never changes a value.

Inside :func:`repro.nn.reuse_arrays` the fused LSTM, conv2d and pad2d take
their large arrays from a shape-keyed free list and hand one out again
only when the list holds its sole reference.  Every check here runs the
same computation inside the scope and outside it and requires bitwise
equality, in the cases where a careless reuse would overwrite live data.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.core import Discriminator, TrainSpec, build_predictor, table1_spec
from repro.core.adversarial import APOTSTrainer
from repro.core.trainer import SupervisedTrainer
from repro.nn import pool
from repro.nn.compile import CompiledFunction


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TinyHybrid(nn.Module):
    """The H predictor's kernels in small: conv, ReLU, then a two-layer LSTM."""

    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.conv = nn.Conv2d(1, 3, 3, padding=1, rng=rng)
        self.mix = nn.Conv2d(3, 2, 1, rng=rng)
        self.lstm = nn.LSTM(2 * 4, [5, 3], rng=rng)

    def forward(self, x):
        batch = x.shape[0]
        conv = self.mix(self.conv(x.reshape(batch, 1, 4, 6)).relu()).relu()
        sequence = conv.reshape(batch, -1, 6).transpose(0, 2, 1)
        return self.lstm(sequence)[0]


def step(model, x, seed):
    """One forward and backward; returns the output and the gradients."""
    model.zero_grad()
    xt = nn.Tensor(x, requires_grad=True)
    out = model(xt)
    out.backward(np.random.default_rng(seed).normal(size=out.shape))
    return out, [xt.grad.copy()] + [p.grad.copy() for p in model.parameters()]


def inputs(count, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(7, 4, 6)) for _ in range(count)]


def test_steps_in_the_scope_equal_steps_outside():
    model = TinyHybrid()
    xs = inputs(4)
    outside = [step(model, x, seed) for seed, x in enumerate(xs)]
    with nn.reuse_arrays():
        inside = [step(model, x, seed) for seed, x in enumerate(xs)]
    for (out_a, grads_a), (out_b, grads_b) in zip(outside, inside):
        assert bitwise(out_a.data, out_b.data)
        assert all(bitwise(a, b) for a, b in zip(grads_a, grads_b))


def test_two_forwards_before_one_backward():
    model = TinyHybrid()
    x1, x2 = inputs(2)
    seeds = np.random.default_rng(3)
    g1, g2 = seeds.normal(size=(7, 6, 3)), seeds.normal(size=(7, 6, 3))

    def both():
        model.zero_grad()
        a, b = nn.Tensor(x1, requires_grad=True), nn.Tensor(x2, requires_grad=True)
        out1, out2 = model(a), model(b)  # the second forward's arrays must not be the first's
        ((out1 * nn.Tensor(g1)).sum() + (out2 * nn.Tensor(g2)).sum()).backward()
        return [out1.data.copy(), out2.data.copy(), a.grad.copy(), b.grad.copy()] + [
            p.grad.copy() for p in model.parameters()
        ]

    outside = both()
    with nn.reuse_arrays():
        both()  # fill the free list
        inside = both()
    assert all(bitwise(a, b) for a, b in zip(outside, inside))


def test_held_output_and_its_view_survive_later_steps():
    model = TinyHybrid()
    xs = inputs(4)
    with nn.reuse_arrays():
        held, _ = step(model, xs[0], 0)
        view = held.data[:, -1]
        held_copy, view_copy = held.data.copy(), view.copy()
        for seed, x in enumerate(xs[1:], start=1):
            step(model, x, seed)
        assert bitwise(held.data, held_copy)
        assert bitwise(view, view_copy)


def test_tape_recorded_in_the_scope_replays_unchanged_after_more_steps():
    served, trained = TinyHybrid(seed=0), TinyHybrid(seed=1)  # same shapes, same free-list keys
    cf = CompiledFunction(lambda x: served(x), name="served")
    x = inputs(1, seed=5)[0]
    with nn.reuse_arrays():
        modes = [cf(x).mode for _ in range(4)]
        assert modes == ["record", "validate", "validate", "replay"]
        held = cf(x).outputs[0].data  # the tape's own output buffer
        before = held.copy()
        optimizer = nn.Adam(trained.parameters(), lr=1e-2)
        for seed, batch in enumerate(inputs(3, seed=6)):
            step(trained, batch, seed)
            optimizer.step()
        assert bitwise(held, before)  # no step wrote into the tape's buffers
        run = cf(x)
        assert run.mode == "replay"
        assert bitwise(run.outputs[0].data, before)
    with nn.no_grad():
        assert bitwise(before, served(nn.Tensor(x)).data)


def test_no_pooled_array_survives_the_scope():
    model = TinyHybrid()
    with nn.reuse_arrays():
        for seed, x in enumerate(inputs(2)):
            step(model, x, seed)
        pooled = [weakref.ref(array) for arrays in pool._SCOPE.free.values() for array in arrays]
    assert pooled and pool._SCOPE.free is None
    gc.collect()
    assert [ref for ref in pooled if ref() is not None] == []


def test_nested_scopes_share_the_outer_list():
    with nn.reuse_arrays():
        outer = pool._SCOPE.free
        with nn.reuse_arrays():
            assert pool._SCOPE.free is outer
        assert pool._SCOPE.free is outer
    assert pool._SCOPE.free is None


def test_no_grad_forwards_allocate_outside_the_list():
    # Nothing keeps an inference forward's arrays, so listing them would
    # hold one array of every layer's shapes at once.
    model = TinyHybrid()
    with nn.reuse_arrays():
        with nn.no_grad():
            model(nn.Tensor(inputs(1)[0]))
        assert pool._SCOPE.free == {}


def test_an_array_is_handed_out_again_only_when_the_list_holds_it_alone():
    with nn.reuse_arrays():
        held = pool.empty((3, 2))
        dropped = pool.empty((3, 2))
        assert dropped is not held
        dropped_id = id(dropped)
        del dropped
        again = pool.empty((3, 2))
        assert id(again) == dropped_id  # only the list held it
        view = held[1:]
        del held
        fresh = pool.empty((3, 2))
        assert fresh is not view.base and fresh is not again  # a view keeps its base
    assert pool.empty((3, 2)) is not again  # outside the scope: a new array


def _fit_weights(make_trainer, dataset):
    trainer = make_trainer()
    trainer.fit(dataset)
    return [p.data.copy() for p in trainer.predictor.parameters()]


@pytest.mark.parametrize("adversarial", [False, True], ids=["supervised", "apots"])
def test_trainer_fits_equal_fits_without_reuse(adversarial, tiny_dataset, monkeypatch):
    spec = TrainSpec(
        epochs=1, batch_size=16, adversarial_batch_size=4, max_steps_per_epoch=3, seed=0
    )
    features = tiny_dataset.config

    def make_trainer():
        rng = np.random.default_rng(0)
        model_spec = table1_spec("H", 0.0625)
        predictor = build_predictor("H", features, spec=model_spec, rng=rng)
        if not adversarial:
            return SupervisedTrainer(predictor, spec)
        return APOTSTrainer(predictor, Discriminator(features, spec=model_spec, rng=rng), spec)

    reused = _fit_weights(make_trainer, tiny_dataset)
    monkeypatch.setattr(pool, "empty", lambda shape: np.empty(shape))
    plain = _fit_weights(make_trainer, tiny_dataset)
    assert all(bitwise(a, b) for a, b in zip(reused, plain))
