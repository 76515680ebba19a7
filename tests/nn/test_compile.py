"""Tests for the forward tape-replay layer (repro.nn.compile).

The contract under test is strict: a trusted replay must be *bitwise*
identical to the eager forward it replaced, and any construct the tape
cannot reproduce must fall back to eager, never to silently-wrong
numbers.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.compile import CompiledFunction

# A trusted replay needs: 1 record call + 2 validate calls.
WARMUP_CALLS = 3


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def make_mlp(sizes, seed=0, activation=nn.ReLU):
    rng = np.random.default_rng(seed)
    net = nn.Sequential()
    for i in range(len(sizes) - 2):
        net.append(nn.Linear(sizes[i], sizes[i + 1], rng=rng))
        net.append(activation())
    net.append(nn.Linear(sizes[-2], sizes[-1], rng=rng))
    return net


def eager_reference(fn, arrays):
    """Run fn eagerly under no_grad on fresh leaves; return its outputs."""
    with nn.no_grad():
        outputs = fn(*(nn.Tensor(np.array(a, dtype=np.float64)) for a in arrays))
    return outputs if isinstance(outputs, tuple) else (outputs,)


class TestReplayBitwise:
    """Replay == eager, bit for bit, across the predictor-style graphs."""

    def fixture_fn(self, kind):
        """A loss function shaped like each predictor family's hot path."""
        rng = np.random.default_rng(7)
        if kind == "F":  # deep fully-connected stack on the flat features
            net = make_mlp([12, 16, 16, 1], seed=1)

            def fn(flat, targets):
                residual = net(flat).reshape(-1) - targets
                return (residual * residual).mean()

            return fn, lambda: (rng.normal(size=(6, 12)), rng.normal(size=6))
        if kind == "C":  # conv2d -> relu -> reshape -> linear, as CNNPredictor
            conv = nn.Conv2d(1, 3, kernel_size=3, rng=np.random.default_rng(2))
            head = nn.Linear(3 * 4 * 4, 1, rng=np.random.default_rng(3))

            def fn(images, targets):
                h = conv(images.reshape(4, 1, 6, 6)).relu()
                out = head(h.reshape(4, -1)).reshape(-1)
                residual = out - targets
                return (residual * residual).mean()

            return fn, lambda: (rng.normal(size=(4, 6, 6)), rng.normal(size=4))
        if kind == "L":  # fused LSTM -> linear head on the last timestep
            lstm = nn.LSTM(5, [8], rng=np.random.default_rng(4))
            head = nn.Linear(8, 1, rng=np.random.default_rng(5))

            def fn(x, targets):
                seq, _ = lstm(x)
                out = head(seq[:, -1, :]).reshape(-1)
                residual = out - targets
                return (residual * residual).mean()

            return fn, lambda: (rng.normal(size=(3, 7, 5)), rng.normal(size=3))
        raise AssertionError(kind)

    @pytest.mark.parametrize("kind", ["F", "C", "L"])
    def test_losses_bitwise_equal(self, kind):
        fn, draw = self.fixture_fn(kind)
        cf = CompiledFunction(fn, name=f"test_{kind}")
        for _ in range(WARMUP_CALLS + 3):
            arrays = draw()
            run = cf(*arrays)
            assert bitwise(run.outputs[0].data, eager_reference(fn, arrays)[0].data)
        assert run.mode == "replay"
        assert cf.states() == {tuple(a.shape for a in arrays): "trusted"}
        assert cf.stats["replay"] == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_widths_bitwise(self, seed):
        """Property sweep: random layer widths, fresh inputs every call,
        leaky-relu scales refreshed so replay matches eager bitwise."""
        rng = np.random.default_rng(100 + seed)
        in_dim = int(rng.integers(3, 9))
        hidden = int(rng.integers(4, 12))
        batch = int(rng.integers(2, 7))
        net = make_mlp([in_dim, hidden, 1], seed=200 + seed, activation=nn.LeakyReLU)

        def fn(x, targets):
            residual = net(x).reshape(-1) - targets
            return residual * residual, net(x)

        cf = CompiledFunction(fn, name="prop")
        for _ in range(WARMUP_CALLS + 2):
            arrays = (rng.normal(size=(batch, in_dim)), rng.normal(size=batch))
            run = cf(*arrays)
            for replayed, eager in zip(run.outputs, eager_reference(fn, arrays)):
                assert bitwise(replayed.data, eager.data)
        assert run.mode == "replay"


class TestFallbacks:
    """Anything the tape cannot faithfully replay must run eager."""

    def test_softmax_is_rejected_not_misreplayed(self):
        # The softmax shift is read from the input values, so the graph
        # bakes in an untraced constant; the validation pass must catch
        # the stale value and reject the tape.
        w = nn.Tensor(np.random.default_rng(0).normal(size=(4, 4)), requires_grad=True)

        def fn(x):
            z = x @ w
            exp = (z - z.data.max(axis=1, keepdims=True)).exp()
            return exp / exp.sum(axis=1, keepdims=True)

        cf = CompiledFunction(fn, name="softmax")
        rng = np.random.default_rng(1)
        for _ in range(5):
            arrays = (rng.normal(size=(3, 4)),)
            run = cf(*arrays)
            assert bitwise(run.outputs[0].data, eager_reference(fn, arrays)[0].data)
        assert list(cf.states().values()) == ["rejected"]
        assert cf.tape_info()[((3, 4),)]["reason"] == "forward replay diverged from eager"
        assert cf.stats["replay"] == 0 and cf.stats["rejected"] == 1

    def test_max_over_all_axes_rejected_at_record(self):
        cf = CompiledFunction(lambda x: x.max(), name="max")
        run = cf(np.arange(6.0).reshape(2, 3))
        assert list(cf.states().values()) == ["rejected"]
        assert "max() over all elements" in cf.tape_info()[((2, 3),)]["reason"]
        # the record call itself still produced correct eager output
        assert run.mode == "record" and float(run.outputs[0].data) == 5.0
        assert cf(np.arange(6.0).reshape(2, 3)).mode == "eager"

    def test_new_shape_runs_eager(self):
        cf = CompiledFunction(lambda x: (x * 2.0).sum(), name="shapes")
        for _ in range(WARMUP_CALLS + 1):
            cf(np.arange(3.0))
        for n in (5, 7):
            run = cf(np.arange(float(n)))
            assert run.mode == "eager"
            assert float(run.outputs[0].data) == float(n * (n - 1))
        assert cf.states() == {((3,),): "trusted"}
        assert cf.stats["eager"] == 2
        assert cf(np.arange(3.0)).mode == "replay"

    def test_no_grad_falls_back_to_eager(self):
        cf = CompiledFunction(lambda x: x.sum(), name="nograd")
        with nn.no_grad():
            run = cf(np.ones(3))
        assert run.mode == "eager"
        assert cf.states() == {}

    def test_nested_recording_does_not_corrupt_outer_tape(self):
        inner = CompiledFunction(lambda x: (x * 3.0).sum(), name="inner")

        def outer_fn(x):
            run = inner(x.data)  # inner sees a raw array
            return x * 2.0 + float(run.outputs[0].data)

        outer = CompiledFunction(outer_fn, name="outer")
        for _ in range(WARMUP_CALLS + 1):
            run = outer(np.arange(3.0))
        # While outer was *recording*, inner had to run plain eager (a
        # nested record would have spliced its ops into outer's tape).
        assert inner.stats["eager"] >= 1
        assert inner.stats["record"] <= inner.stats["eager"]
        assert outer.states() == {((3,),): "trusted"}
        assert run.mode == "replay"
        assert bitwise(run.outputs[0].data, np.arange(3.0) * 2.0 + 9.0)


class TestValueNodeRefresh:
    """Ops with no grad-requiring parents still refresh on replay.

    Regression test for the conditional-discriminator bug: the concat
    of a detached prediction with a static condition has no tape of its
    own, but its output buffer feeds grad-requiring ops downstream and
    must be recomputed from the *current* inputs on every replay.
    """

    def test_concat_of_non_grad_inputs_refreshes(self):
        w = nn.Tensor(np.random.default_rng(0).normal(size=(6, 1)), requires_grad=True)

        def fn(a, b):
            joined = nn.ops.concat([a, b], axis=1)  # value node: no grad parents
            return (joined @ w).sum()

        cf = CompiledFunction(fn, name="valuenode")
        rng = np.random.default_rng(2)
        outputs = []
        for _ in range(WARMUP_CALLS + 2):
            a, b = rng.normal(size=(2, 4)), rng.normal(size=(2, 2))
            run = cf(a, b)
            expected = float(np.sum(np.concatenate([a, b], axis=1) @ w.data))
            outputs.append((float(run.outputs[0].data), expected, run.mode))
        assert outputs[-1][2] == "replay"
        for got, expected, _ in outputs:
            assert got == pytest.approx(expected, rel=0, abs=1e-12)
        # distinct inputs produced distinct outputs (no stale buffer)
        assert len({got for got, _, _ in outputs}) == len(outputs)


class TestForwardOnly:
    def test_promotes_after_two_clean_passes_and_refuses_backward(self):
        net = make_mlp([3, 4, 1], seed=21)

        def fn(x):
            return net(x).reshape(-1)

        cf = CompiledFunction(fn, name="fwd")
        arrays = (np.linspace(0.0, 1.0, 6).reshape(2, 3),)
        modes = [cf(*arrays).mode for _ in range(4)]
        assert modes == ["record", "validate", "validate", "replay"]
        run = cf(*arrays)
        # A run carries values only: there is no backward to call.
        assert not hasattr(run, "backward")
        expected = eager_reference(fn, arrays)[0].data
        assert bitwise(run.outputs[0].data, expected)


class TestInputRefresh:
    """Replay refreshes exactly the inputs whose memory a recorded array shares."""

    @staticmethod
    def refreshed(cf):
        (entry,) = cf._entries.values()
        return [index for index, _ in entry.tape._refreshed]

    def test_unread_input_is_skipped_and_outputs_stay_exact(self):
        net = make_mlp([3, 4, 1], seed=5)
        cf = CompiledFunction(lambda unread, x: net(x).reshape(-1))
        rng = np.random.default_rng(0)
        for _ in range(6):
            unread, x = rng.random((2, 5)), rng.random((2, 3))
            run = cf(unread, x)
            with nn.no_grad():
                assert bitwise(run.outputs[0].data, net(nn.Tensor(x)).reshape(-1).data)
        assert run.mode == "replay" and self.refreshed(cf) == [1]

    def test_input_read_through_an_alias_is_refreshed(self):
        # A loss reads its target through .detach(): a new leaf sharing
        # the input's memory, so the input itself is no op's parent.
        cf = CompiledFunction(lambda x, target: (x - target.detach()) ** 2)
        rng = np.random.default_rng(1)
        for _ in range(6):
            x, target = rng.random(4), rng.random(4)
            run = cf(x, target)
            assert bitwise(run.outputs[0].data, (x - target) ** 2)
        assert run.mode == "replay" and self.refreshed(cf) == [0, 1]

    def test_tape_reports_retained_bytes(self):
        net = make_mlp([3, 4, 1], seed=5)
        cf = CompiledFunction(lambda x: net(x).reshape(-1))
        cf(np.ones((2, 3)))
        ((key, info),) = cf.tape_info().items()
        assert key == ((2, 3),) and info["state"] == "validating" and info["reason"] is None
        # The input copy (2x3), the hidden matmul/add/relu outputs (3 x 2x4),
        # the relu mask (2x4 bool) and the output matmul/add (2 x 2x1); the
        # module's parameters and the reshape view are not the tape's.
        assert info["nbytes"] == 6 * 8 + 3 * 8 * 8 + 8 + 2 * 2 * 8
