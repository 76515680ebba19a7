"""Tests for the tape-replay compile layer (repro.nn.compile).

The contract under test is strict: a trusted replay must be *bitwise*
identical to the eager computation it replaced — outputs, parameter
gradients and input gradients alike — and any construct the tape cannot
reproduce must fall back to eager, never to silently-wrong numbers.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn.compile import CompiledFunction, _matmul_shape

# A trusted replay needs: 1 record call + 1 validate call.
WARMUP_CALLS = 2


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


def eager_reference(fn, arrays, grad_indices=()):
    """Run fn eagerly on fresh leaves; return (outputs, input grads, param grads fn)."""
    inputs = [
        nn.Tensor(np.array(a, dtype=np.float64), requires_grad=i in grad_indices)
        for i, a in enumerate(arrays)
    ]
    outputs = fn(*inputs)
    outputs = outputs if isinstance(outputs, tuple) else (outputs,)
    outputs[0].backward()
    return outputs, [t.grad for t in inputs]


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

            return fn, net, [(rng.normal(size=(6, 12)), rng.normal(size=6))]
        if kind == "C":  # conv2d -> relu -> reshape -> linear, as CNNPredictor
            conv = nn.Conv2d(1, 3, kernel_size=3, rng=np.random.default_rng(2))
            head = nn.Linear(3 * 4 * 4, 1, rng=np.random.default_rng(3))

            def fn(images, targets):
                h = conv(images.reshape(4, 1, 6, 6)).relu()
                out = head(h.reshape(4, -1)).reshape(-1)
                residual = out - targets
                return (residual * residual).mean()

            net = nn.Sequential()
            net.append(conv)
            net.append(head)
            return fn, net, [(rng.normal(size=(4, 6, 6)), rng.normal(size=4))]
        if kind == "L":  # fused LSTM -> linear head on the last timestep
            lstm = nn.LSTM(5, [8], fused=True, rng=np.random.default_rng(4))
            head = nn.Linear(8, 1, rng=np.random.default_rng(5))

            def fn(x, targets):
                seq, _ = lstm(x)
                out = head(seq[:, -1, :]).reshape(-1)
                residual = out - targets
                return (residual * residual).mean()

            net = nn.Sequential()
            net.append(lstm)
            net.append(head)
            return fn, net, [(rng.normal(size=(3, 7, 5)), rng.normal(size=3))]
        raise AssertionError(kind)

    @pytest.mark.parametrize("kind", ["F", "C", "L"])
    def test_losses_and_grads_bitwise_equal(self, kind):
        fn, net, cases = self.fixture_fn(kind)
        cf = CompiledFunction(fn, grad_indices=(0,), name=f"test_{kind}")
        for arrays in cases:
            for call in range(WARMUP_CALLS + 3):
                for p in net.parameters():
                    p.grad = None
                run = cf(*arrays)
                run.backward()
                replay_param_grads = [np.array(p.grad, copy=True) for p in net.parameters()]
                replay_input_grad = np.array(run.input_grad(0), copy=True)
                replay_loss = np.array(run.outputs[0].data, copy=True)

                for p in net.parameters():
                    p.grad = None
                _, eager_input_grads = eager_reference(fn, arrays, grad_indices=(0,))
                eager_param_grads = [np.array(p.grad, copy=True) for p in net.parameters()]

                assert bitwise(replay_loss, fn(
                    nn.Tensor(np.array(arrays[0])), nn.Tensor(np.array(arrays[1]))
                ).data)
                assert bitwise(replay_input_grad, eager_input_grads[0])
                for rg, eg in zip(replay_param_grads, eager_param_grads):
                    assert bitwise(rg, eg)
        assert all(state == "trusted" for state in cf.states().values())
        assert cf.stats["replay"] >= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_shapes_gradcheck(self, seed):
        """Property sweep: random layer widths, replay grads match eager
        bitwise and pass a numeric finite-difference check."""
        rng = np.random.default_rng(100 + seed)
        in_dim = int(rng.integers(3, 9))
        hidden = int(rng.integers(4, 12))
        batch = int(rng.integers(2, 7))
        net = make_mlp([in_dim, hidden, 1], seed=200 + seed, activation=nn.LeakyReLU)

        def fn(x, targets):
            residual = net(x).reshape(-1) - targets
            return (residual * residual).sum()

        arrays = (rng.normal(size=(batch, in_dim)), rng.normal(size=batch))
        cf = CompiledFunction(fn, grad_indices=(0,), name="prop")
        for _ in range(WARMUP_CALLS + 1):
            for p in net.parameters():
                p.grad = None
            run = cf(*arrays)
            run.backward()
        assert run.mode == "replay"
        replay_grad = np.array(run.input_grad(0), copy=True)

        # Bitwise vs eager.
        for p in net.parameters():
            p.grad = None
        _, eager_grads = eager_reference(fn, arrays, grad_indices=(0,))
        assert bitwise(replay_grad, eager_grads[0])

        # Numeric: central finite differences on the input leaf.
        def value_at(x):
            with nn.no_grad():
                out = fn(nn.Tensor(x), nn.Tensor(np.array(arrays[1])))
            return float(out.data)

        eps = 1e-6
        base = np.array(arrays[0], dtype=np.float64)
        flat_grad = replay_grad.reshape(-1)
        for idx in rng.choice(base.size, size=min(6, base.size), replace=False):
            probe = base.copy().reshape(-1)
            probe[idx] += eps
            up = value_at(probe.reshape(base.shape))
            probe[idx] -= 2 * eps
            down = value_at(probe.reshape(base.shape))
            numeric = (up - down) / (2 * eps)
            assert abs(numeric - flat_grad[idx]) < 1e-4 * max(1.0, abs(numeric))


class TestAccumulationSemantics:
    """Repeated backward() accumulates grads identically in both engines."""

    def _grads_after_double_backward(self, compiled: bool):
        net = make_mlp([4, 5, 1], seed=11)

        def fn(x):
            return net(x).sum()

        arrays = (np.linspace(-1.0, 1.0, 12).reshape(3, 4),)
        cf = CompiledFunction(fn, grad_indices=(0,), name="accum")
        if compiled:
            for _ in range(WARMUP_CALLS):
                for p in net.parameters():
                    p.grad = None
                cf(*arrays).backward()
            for p in net.parameters():
                p.grad = None
            run = cf(*arrays)
            assert run.mode == "replay"
            run.backward()
            run.backward()
            return (
                np.array(run.input_grad(0), copy=True),
                [np.array(p.grad, copy=True) for p in net.parameters()],
            )
        x = nn.Tensor(arrays[0], requires_grad=True)
        out = fn(x)
        out.backward()
        out.backward()
        return np.array(x.grad, copy=True), [np.array(p.grad, copy=True) for p in net.parameters()]

    def test_double_backward_doubles_grads_in_both_engines(self):
        eager_input, eager_params = self._grads_after_double_backward(compiled=False)
        replay_input, replay_params = self._grads_after_double_backward(compiled=True)
        assert bitwise(eager_input, replay_input)
        for eg, rg in zip(eager_params, replay_params):
            assert bitwise(eg, rg)
        # And it genuinely accumulated: one backward gives half.
        x = nn.Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4), requires_grad=True)
        net = make_mlp([4, 5, 1], seed=11)
        net(x).sum().backward()
        np.testing.assert_allclose(eager_input, 2.0 * x.grad)

    def test_replay_resets_input_leaf_grad_between_runs(self):
        """tape.forward() gives each run a fresh input leaf: grads do not
        leak from one call of the compiled function into the next."""
        def fn(x):
            return (x * x).sum()

        cf = CompiledFunction(fn, grad_indices=(0,), name="fresh")
        arrays = (np.arange(4.0),)
        grads = []
        for _ in range(WARMUP_CALLS + 2):
            run = cf(*arrays)
            run.backward()
            grads.append(np.array(run.input_grad(0), copy=True))
        assert all(bitwise(g, grads[0]) for g in grads[1:])


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
            return (exp / exp.sum(axis=1, keepdims=True)).sum()

        cf = CompiledFunction(fn, grad_indices=(0,), name="softmax")
        rng = np.random.default_rng(1)
        for _ in range(4):
            w.grad = None
            arrays = (rng.normal(size=(3, 4)),)
            run = cf(*arrays)
            run.backward()
            expected, eager_grads = eager_reference(fn, arrays, grad_indices=(0,))
            w.grad = None
            assert bitwise(run.outputs[0].data, expected[0].data)
            assert bitwise(run.input_grad(0), eager_grads[0])
        assert set(cf.states().values()) <= {"rejected", "validating"}
        assert cf.stats["replay"] == 0

    def test_max_over_all_axes_rejected_at_record(self):
        def fn(x):
            return x.max()

        cf = CompiledFunction(fn, grad_indices=(0,), name="max")
        run = cf(np.arange(6.0).reshape(2, 3))
        run.backward()
        assert list(cf.states().values()) == ["rejected"]
        # and the record call itself still produced correct eager output
        assert float(run.outputs[0].data) == 5.0

    def test_new_shape_gets_new_tape(self):
        def fn(x):
            return (x * 2.0).sum()

        cf = CompiledFunction(fn, grad_indices=(0,), name="shapes")
        for n in (3, 5):
            for _ in range(WARMUP_CALLS + 1):
                cf(np.arange(float(n))).backward()
        assert len(cf.states()) == 2
        assert all(state == "trusted" for state in cf.states().values())

    def test_max_tapes_overflow_runs_eager(self):
        def fn(x):
            return x.sum()

        cf = CompiledFunction(fn, grad_indices=(0,), name="overflow", max_tapes=2)
        for n in range(1, 6):
            run = cf(np.ones(n))
            assert float(run.outputs[0].data) == float(n)
        assert len(cf.states()) == 2
        assert cf.stats["eager"] == 3

    def test_no_grad_falls_back_to_eager(self):
        def fn(x):
            return x.sum()

        cf = CompiledFunction(fn, name="nograd", forward_only=True)
        with nn.no_grad():
            run = cf(np.ones(3))
        assert run.mode == "eager"
        assert cf.states() == {}

    def test_nested_recording_does_not_corrupt_outer_tape(self):
        inner = CompiledFunction(lambda x: (x * 3.0).sum(), grad_indices=(0,), name="inner")

        def outer_fn(x):
            run = inner(x.data)  # inner sees a raw array, runs eagerly
            return x.sum() + float(run.outputs[0].data)

        outer = CompiledFunction(outer_fn, grad_indices=(0,), name="outer")
        for _ in range(WARMUP_CALLS + 1):
            run = outer(np.arange(3.0))
            run.backward()
        # While outer was *recording*, inner had to run plain eager (a
        # nested record would have spliced its ops into outer's tape).
        assert inner.stats["eager"] >= 1
        assert inner.stats["record"] <= inner.stats["eager"]
        assert outer.states() == {((3,),): "trusted"}
        assert bitwise(run.input_grad(0), np.ones(3))


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
            run.backward()
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

        cf = CompiledFunction(fn, name="fwd", forward_only=True)
        arrays = (np.linspace(0.0, 1.0, 6).reshape(2, 3),)
        modes = [cf(*arrays).mode for _ in range(4)]
        assert modes[0] == "record"
        assert "replay" in modes
        run = cf(*arrays)
        with pytest.raises(RuntimeError, match="forward-only"):
            run.backward()
        with nn.no_grad():
            expected = net(nn.Tensor(arrays[0])).reshape(-1).data
        assert bitwise(run.outputs[0].data, expected)


class TestInputRefresh:
    """Replay refreshes exactly the inputs whose memory a recorded array shares."""

    @staticmethod
    def refreshed(cf):
        (entry,) = cf._entries.values()
        return [index for index, _ in entry.tape._refreshed]

    def test_unread_input_is_skipped_and_outputs_stay_exact(self):
        net = make_mlp([3, 4, 1], seed=5)
        cf = CompiledFunction(lambda unread, x: net(x).reshape(-1), forward_only=True)
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
        cf = CompiledFunction(lambda x, target: ((x - target.detach()) ** 2).sum(), grad_indices=(0,))
        rng = np.random.default_rng(1)
        for _ in range(6):
            x, target = rng.random(4), rng.random(4)
            run = cf(x, target)
            run.backward()
            assert bitwise(run.outputs[0].data, ((x - target) ** 2).sum())
            assert bitwise(run.input_grad(0), 2.0 * (x - target))
        assert run.mode == "replay" and self.refreshed(cf) == [0, 1]

    def test_tape_reports_retained_bytes(self):
        net = make_mlp([3, 4, 1], seed=5)
        cf = CompiledFunction(lambda x: net(x).reshape(-1), forward_only=True)
        cf(np.ones((2, 3)))
        ((key, info),) = cf.tape_info().items()
        assert key == ((2, 3),) and info["state"] == "validating" and info["reason"] is None
        # The input copy (2x3), the hidden matmul/add/relu outputs (3 x 2x4),
        # the relu mask (2x4 bool) and the output matmul/add (2 x 2x1); the
        # module's parameters and the reshape view are not the tape's.
        assert info["nbytes"] == 6 * 8 + 3 * 8 * 8 + 8 + 2 * 2 * 8


class TestInputGradsOnly:
    """Pruned tapes: input grads bitwise, param grads untouched on replay."""

    def make_cf(self, input_grads_only):
        net = make_mlp([6, 8, 8, 1], seed=33)

        def fn(x, targets):
            residual = net(x).reshape(-1) - targets
            return (residual * residual).sum()

        return net, CompiledFunction(
            fn, grad_indices=(0,), name="pruned",
            input_grads_only=input_grads_only,
        ), fn

    def test_input_grads_bitwise_match_unpruned_replay(self):
        rng = np.random.default_rng(11)
        arrays = (rng.normal(size=(5, 6)), rng.normal(size=5))
        grads = {}
        for pruned in (False, True):
            net, cf, fn = self.make_cf(pruned)
            for _ in range(WARMUP_CALLS + 2):
                for p in net.parameters():
                    p.grad = None
                run = cf(*arrays)
                run.backward()
            assert all(state == "trusted" for state in cf.states().values())
            assert run.mode == "replay"
            grads[pruned] = np.array(run.input_grad(0), copy=True)
        assert bitwise(grads[False], grads[True])

    def test_trusted_replay_leaves_param_grad_alone(self):
        rng = np.random.default_rng(12)
        arrays = (rng.normal(size=(4, 6)), rng.normal(size=4))
        net, cf, fn = self.make_cf(True)
        for _ in range(WARMUP_CALLS):
            for p in net.parameters():
                p.grad = None
            run = cf(*arrays)
            run.backward()
        # Trusted now: a replay backward must not refresh param.grad …
        for p in net.parameters():
            p.grad = None
        run = cf(*arrays)
        assert run.mode == "replay"
        run.backward()
        assert all(p.grad is None for p in net.parameters())
        assert run.input_grad(0) is not None
        # … while the eager reference still owns full training gradients.
        for p in net.parameters():
            p.grad = None
        eager_reference(fn, arrays, grad_indices=(0,))
        assert all(p.grad is not None for p in net.parameters())


@pytest.mark.parametrize(
    "a, b",
    [((3, 4), (4, 5)), ((2, 3, 4), (4, 5)), ((4, 5), (2, 5, 6)), ((2, 1, 3, 4), (5, 4, 2))],
)
def test_matmul_shape_matches_numpy(a, b):
    # Backward rules pick in-place matmul from this shape, computed without
    # multiplying arrays whose contents are arbitrary.
    assert _matmul_shape(a, b) == np.matmul(np.zeros(a), np.zeros(b)).shape
