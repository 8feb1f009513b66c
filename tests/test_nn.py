import numpy as np
import pytest

from prefrl.nn import (ParamSet, ParamStack, finite_diff_grad, optimizer_step,
                       sample_categorical, softmax)

from helpers import max_rel_err

# exp-normalize of [1, 2, 3] evaluated at 50 decimal digits
SOFTMAX_123 = (0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_no_overflow_on_large_logits(self):
        p = softmax([1000.0, 0.0])
        assert abs(p[0] - 1.0) <= 1e-12
        assert p[1] <= 1e-12

    def test_matches_high_precision_reference(self):
        assert np.allclose(softmax([1.0, 2.0, 3.0]), SOFTMAX_123, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.normal(size=rng.integers(2, 12)) * 10
            c = rng.normal() * 100
            assert np.abs(softmax(z) - softmax(z + c)).max() < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_output_is_distribution(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = softmax(rng.normal(size=8) * 5)
            assert p.min() >= 0
            assert abs(p.sum() - 1.0) <= 1e-6


class TestSampleCategorical:
    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        assert all(sample_categorical([1.0, 0.0], rng) == 0 for _ in range(100))

    def test_seed_reproducibility(self):
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        seq_a = [sample_categorical([0.5, 0.5], rng_a) for _ in range(200)]
        seq_b = [sample_categorical([0.5, 0.5], rng_b) for _ in range(200)]
        assert seq_a == seq_b

    def test_empirical_frequencies(self):
        probs = [0.2, 0.3, 0.5]
        rng = np.random.default_rng(42)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            counts[sample_categorical(probs, rng)] += 1
        assert np.abs(counts / n - probs).max() < 0.01

    def test_rejects_invalid_distribution(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_categorical([0.5, 0.4], rng)
        with pytest.raises(ValueError):
            sample_categorical([-0.1, 1.1], rng)
        with pytest.raises(ValueError):
            sample_categorical([np.nan, 1.0], rng)


class TestOptimizerStep:
    def test_plain_descent_arithmetic(self):
        ps = ParamSet({"p": np.array([1.0])})
        ps.grads["p"][0] = 0.5
        optimizer_step(ps, lr=0.1)
        assert ps["p"][0] == pytest.approx(0.95)
        assert ps.grads["p"][0] == 0.0

    def test_zero_gradient_is_noop(self):
        ps = ParamSet({"p": np.array([1.0, -2.0])})
        optimizer_step(ps, lr=0.1)
        assert np.array_equal(ps["p"], [1.0, -2.0])

    def test_two_steps_on_quadratic(self):
        # f(p) = p^2, grad 2p: 1 -> 0.8 -> 0.64
        ps = ParamSet({"p": np.array([1.0])})
        for _ in range(2):
            ps.grads["p"][0] = 2.0 * ps["p"][0]
            optimizer_step(ps, lr=0.1)
        assert ps["p"][0] == pytest.approx(0.64)

    def test_decreases_convex_quadratic(self):
        rng = np.random.default_rng(5)
        ps = ParamSet({"p": rng.normal(size=6)})
        loss = lambda: float((ps["p"] ** 2).sum())
        before = loss()
        for _ in range(10):
            ps.grads["p"][...] = 2.0 * ps["p"]
            optimizer_step(ps, lr=0.01)
            after = loss()
            assert after < before
            before = after

    def test_momentum_accumulates(self):
        ps = ParamSet({"p": np.array([0.0])})
        ps.grads["p"][0] = 1.0
        optimizer_step(ps, lr=0.1, momentum=0.9)
        ps.grads["p"][0] = 1.0
        optimizer_step(ps, lr=0.1, momentum=0.9)
        # v1 = 1, v2 = 0.9 + 1 = 1.9; p = -(0.1 + 0.19)
        assert ps["p"][0] == pytest.approx(-0.29)

    def test_aborts_on_non_finite_gradient(self):
        ps = ParamSet({"ok": np.array([1.0]), "bad": np.array([1.0])})
        ps.grads["bad"][0] = np.nan
        with pytest.raises(ValueError, match="bad"):
            optimizer_step(ps, lr=0.1)
        assert ps["ok"][0] == 1.0  # nothing was touched

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_the_step_is_the_plain_update_and_keeps_one_zeroed_buffer(self, momentum):
        # the bits of ``flat -= lr * step`` (step the raw gradient, or the
        # velocity ``momentum * v + g``), with the gradient's buffer and views
        # kept and reading +0.0 after every step; a non-finite gradient is
        # refused, by name, with nothing touched
        rng = np.random.default_rng(2)
        ps = ParamSet({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)})
        reference, velocity = ps.flat.copy(), None
        views = ps.grads
        buffer = ps.grad
        for _ in range(3):
            g = rng.normal(size=ps.num_scalars())
            buffer[...] = g
            optimizer_step(ps, 0.1, momentum)
            step = g
            if momentum > 0.0:
                velocity = step = g.copy() if velocity is None else momentum * velocity + g
            reference -= 0.1 * step
            assert np.array_equal(ps.flat, reference)
            assert ps.grads is views and ps.grad is buffer
            assert not buffer.any() and not np.signbit(buffer).any()
        views["b"][2] = np.inf
        with pytest.raises(ValueError, match="^non-finite gradient for parameter 'b'$"):
            optimizer_step(ps, 0.1, momentum)
        assert np.array_equal(ps.flat, reference)

    def test_momentum_decays_the_velocity_of_an_untouched_parameter(self):
        ps = ParamSet({"a": np.array([0.0]), "b": np.array([0.0])})
        ps.grads["a"][0] = 1.0
        ps.grads["b"][0] = 1.0
        optimizer_step(ps, lr=0.1, momentum=0.5)
        ps.grads["a"][0] = 1.0  # "b" gets no gradient on this step
        optimizer_step(ps, lr=0.1, momentum=0.5)
        # a: v = 1 then 1.5; b: v = 1 then 0.5
        assert ps["a"][0] == pytest.approx(-0.25)
        assert ps["b"][0] == pytest.approx(-0.15)

    def test_a_step_without_a_gradient_moves_by_the_decayed_velocity(self):
        ps = ParamSet({"p": np.array([0.0])})
        ps.grads["p"][0] = 1.0
        optimizer_step(ps, lr=0.1, momentum=0.5)
        optimizer_step(ps, lr=0.1, momentum=0.5)  # no gradient written: v = 0.5
        assert ps["p"][0] == pytest.approx(-0.15)
        assert ps.grad.tolist() == [0.0] and ps.velocity.tolist() == [0.5]

    def test_parameter_never_given_a_gradient_does_not_move(self):
        ps = ParamSet({"a": np.array([1.0]), "b": np.array([2.0])})
        for momentum in (0.0, 0.9):
            ps.grads["a"][0] = 1.0
            optimizer_step(ps, lr=0.1, momentum=momentum)
        assert ps["b"][0] == 2.0
        assert ps["a"][0] == pytest.approx(0.8)


class TestFiniteDiff:
    def test_quadratic_derivative(self):
        ps = ParamSet({"p": np.array([3.0])})
        grad = finite_diff_grad(lambda q: float(q["p"][0] ** 2), ps, eps=1e-4)
        assert grad["p"][0] == pytest.approx(6.0, abs=1e-6)

    def test_constant_function(self):
        ps = ParamSet({"p": np.arange(4.0)})
        grad = finite_diff_grad(lambda q: 7.0, ps, eps=1e-4)
        assert np.array_equal(grad["p"], np.zeros(4))

    def test_restores_parameters(self):
        ps = ParamSet({"p": np.array([1.0, 2.0])})
        finite_diff_grad(lambda q: float(q["p"].sum()), ps)
        assert np.array_equal(ps["p"], [1.0, 2.0])

    def test_rejects_bad_eps_and_non_finite_loss(self):
        ps = ParamSet({"p": np.array([1.0])})
        with pytest.raises(ValueError):
            finite_diff_grad(lambda q: 0.0, ps, eps=0.0)
        with pytest.raises(ValueError):
            finite_diff_grad(lambda q: float("nan"), ps)


class TestParamSet:
    def test_rejects_non_finite_init(self):
        with pytest.raises(ValueError, match="w"):
            ParamSet({"w": np.array([np.inf])})

    def test_copy_is_independent(self):
        ps = ParamSet({"w": np.ones(3)})
        other = ps.copy()
        other["w"][0] = 99.0
        assert ps["w"][0] == 1.0

    def test_shapes_and_names(self):
        ps = ParamSet({"a": np.zeros((2, 3)), "b": np.zeros(4)})
        assert ps.names() == ["a", "b"]
        assert ps.num_scalars() == 10
        assert ps.grads["a"].shape == (2, 3)

    def test_every_parameter_has_a_zero_gradient(self):
        ps = ParamSet({"a": np.ones((2, 3)), "b": np.ones(4)})
        for _ in range(2):
            assert list(ps.grads) == ["a", "b"]
            assert len(ps.grads) == 2 and "b" in ps.grads and "c" not in ps.grads
            assert all(np.array_equal(g, np.zeros_like(ps[name]))
                       for name, g in ps.grads.items())
            ps.grads["a"][0, 0] = 1.0
            optimizer_step(ps, lr=0.1)
            assert not ps.grad.any()  # the flat gradient zeroed in place by the step

    def test_missing_accumulation_fails_the_gradient_check(self):
        # the finite-difference checks build the analytic side from every
        # entry of grads; a parameter whose gradient is never accumulated
        # must show up there as zeros and fail, not be skipped
        ps = ParamSet({"a": np.array([1.0, 2.0]), "b": np.array([3.0])})
        ps.grads["a"] += 2.0 * ps["a"]  # the gradient of b is "forgotten"
        analytic = {k: v.copy() for k, v in ps.grads.items()}
        numeric = finite_diff_grad(lambda q: float((q["a"] ** 2).sum() + q["b"][0] ** 2), ps)
        assert sorted(analytic) == ["a", "b"]
        assert max_rel_err(analytic, numeric) > 0.5


class TestFlatLayout:
    def make(self):
        return ParamSet({"a": np.arange(6.0).reshape(2, 3), "b": np.array([-1.0, 0.5]),
                         "c": np.full((1, 2, 2), 3.0)})

    def test_every_tensor_views_one_buffer_in_insertion_order(self):
        ps = self.make()
        assert ps.flat.dtype == np.float64 and ps.flat.shape == (ps.num_scalars(),)
        assert all(np.shares_memory(ps[name], ps.flat) for name in ps)
        assert np.array_equal(ps.flat, np.concatenate([ps[name].ravel() for name in ps]))
        grads = {name: ps.grads[name] for name in ps}
        assert all(np.shares_memory(g, ps.grad) for g in grads.values())
        assert ps.grad.shape == ps.flat.shape and not ps.grad.any()
        ps.grads["b"] += 1.0
        assert ps.grad.tolist() == [0.0] * 6 + [1.0, 1.0] + [0.0] * 4

    def test_a_gradient_view_handed_back_is_not_copied(self):
        ps = self.make()
        view = ps.grads["a"]
        ps.grads["a"] += 2.0                      # __setitem__ gets the view itself
        assert ps.grads["a"] is view and view.sum() == 12.0
        ps.grads["c"] = np.ones((1, 2, 2))        # another array is written into the view
        assert np.shares_memory(ps.grads["c"], ps.grad) and ps.grads["c"].sum() == 4.0
        with pytest.raises(KeyError):
            ps.grads["d"] = np.ones(1)

    def test_copy_is_one_independent_flat_copy(self):
        ps = self.make()
        ps.grads["a"] += 1.0
        optimizer_step(ps, lr=0.1, momentum=0.9)
        other = ps.copy()
        assert not np.shares_memory(other.flat, ps.flat)
        assert np.array_equal(other.flat, ps.flat) and other.names() == ps.names()
        assert all(np.shares_memory(other[name], other.flat) for name in other)
        other["b"][0] = 99.0
        assert ps["b"][0] == -1.0
        assert ps.grad is not None and other.grad is None  # the kept buffer is not copied
        before = other.flat.copy()
        optimizer_step(other, lr=0.1, momentum=0.9)   # no velocity was copied
        assert np.array_equal(other.flat, before)

    def test_from_flat_adopts_the_array(self):
        flat = np.arange(5.0)
        ps = ParamSet.from_flat(flat, {"w": (2, 2), "b": (1,)})
        assert ps.flat is flat and ps["b"].tolist() == [4.0]
        for bad in (np.arange(4.0), np.arange(5, dtype=np.float32), np.arange(10.0)[::2]):
            with pytest.raises(ValueError):
                ParamSet.from_flat(bad, {"w": (2, 2), "b": (1,)})
        with pytest.raises(ValueError, match="'b'"):
            ParamSet.from_flat(np.array([0.0, 1.0, 2.0, 3.0, np.nan]), {"w": (2, 2), "b": (1,)})

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_a_non_finite_gradient_names_its_parameter_and_moves_nothing(self, momentum):
        ps = self.make()
        ps.grads["a"] += 1.0
        optimizer_step(ps, lr=0.1, momentum=momentum)
        before, velocity = ps.flat.copy(), (None if ps.velocity is None
                                            else ps.velocity.copy())
        ps.grads["a"] += 1.0
        ps.grads["b"][1] = np.nan
        ps.grads["c"][0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite gradient for parameter 'b'"):
            optimizer_step(ps, lr=0.1, momentum=momentum)
        assert np.array_equal(ps.flat, before)
        assert (ps.velocity is None) if velocity is None else np.array_equal(ps.velocity,
                                                                             velocity)

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_the_step_keeps_the_flat_gradient_and_zero_grads_releases_it(self, momentum):
        ps = self.make()
        optimizer_step(ps, lr=0.1, momentum=momentum)     # no gradient read at all
        buffer = ps.grad
        assert buffer.shape == ps.flat.shape and not buffer.any()
        ps.grads["c"] += 1.0
        optimizer_step(ps, lr=0.1, momentum=momentum)
        assert ps.grad is buffer and not buffer.any()
        assert ps["c"].tolist() == [[[2.9, 2.9], [2.9, 2.9]]]
        assert (ps.velocity is None) == (momentum == 0.0)
        ps.zero_grads()
        assert ps.grad is None
        assert ps.grads["c"].sum() == 0.0 and ps.grad is not buffer


class TestParamStack:
    def make(self, seed):
        rng = np.random.default_rng(seed)
        return ParamSet({"table": rng.normal(size=(4, 3)), "w": rng.normal(size=(3, 3)),
                         "b": rng.normal(size=3)})

    def test_views_carry_the_stack_axis_and_a_unit_batch_axis(self):
        sets = [self.make(0), self.make(1)]
        stack = ParamStack(sets, gathered=("table",))
        assert stack.flat.shape == (2, sets[0].num_scalars())
        assert stack["table"].shape == (2, 4, 3)
        assert stack["w"].shape == (2, 1, 3, 3) and stack["b"].shape == (2, 1, 3)
        for name in ("table", "w", "b"):
            assert np.shares_memory(stack[name], stack.flat)
            for s, ps in enumerate(sets):
                assert np.array_equal(stack[name][s].reshape(ps[name].shape), ps[name])
        assert not any(np.shares_memory(stack.flat, ps.flat) for ps in sets)  # copied in

    def test_sets_of_another_layout_are_refused(self):
        with pytest.raises(ValueError, match="one layout"):
            ParamStack([self.make(0), ParamSet({"w": np.zeros((3, 3))})])

    @pytest.mark.parametrize("momentum", [0.0, 0.5])
    def test_a_set_moved_into_a_row_is_stepped_there(self, momentum):
        ps, twin = self.make(2), self.make(2)
        for p in (ps, twin):
            p.grads["w"] += 1.0
            optimizer_step(p, 0.1, momentum)      # a velocity to carry, with momentum
        stack = ParamStack([self.make(3), ps])
        velocity = ps.velocity
        ps.move_to(stack.flat[1])
        assert ps.flat is not twin.flat and np.array_equal(ps.flat, twin.flat)
        assert all(np.shares_memory(ps[name], stack.flat) for name in ps)
        assert ps.velocity is velocity
        for p in (ps, twin):
            p.grads["b"] += 2.0
            optimizer_step(p, 0.1, momentum)
        assert np.array_equal(stack.flat[1], twin.flat)
        own = np.empty(ps.num_scalars())
        ps.move_to(own)
        assert ps.flat is own and np.array_equal(own, twin.flat)
        assert not np.shares_memory(ps["w"], stack.flat)
        with pytest.raises(ValueError, match="contiguous float64"):
            ps.move_to(np.empty(ps.num_scalars() + 1))
