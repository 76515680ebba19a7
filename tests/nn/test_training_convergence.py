"""Convergence tests: the substrate actually learns known functions."""

import numpy as np
import pytest

from repro import nn


def train(net, inputs, targets, steps=300, lr=0.01):
    opt = nn.Adam(net.parameters(), lr=lr)
    loss_fn = nn.MSELoss()
    losses = []
    for _ in range(steps):
        opt.zero_grad()
        loss = loss_fn(net(nn.Tensor(inputs)).reshape(-1), targets)
        loss.backward()
        opt.step()
        losses.append(loss.item())
    return losses


class TestMLP:
    def test_learns_linear_map(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 3))
        y = x @ np.array([1.5, -2.0, 0.5])
        net = nn.Sequential(nn.Linear(3, 1, rng=rng))
        losses = train(net, x, y, steps=400, lr=0.05)
        assert losses[-1] < 1e-4

    def test_learns_xor_like_interaction(self):
        rng = np.random.default_rng(1)
        x = rng.choice([-1.0, 1.0], size=(256, 2))
        y = x[:, 0] * x[:, 1]  # pure interaction: linear model cannot fit
        net = nn.Sequential(nn.Linear(2, 16, rng=rng), nn.ReLU(), nn.Linear(16, 1, rng=rng))
        losses = train(net, x, y, steps=500, lr=0.02)
        assert losses[-1] < 0.05

    def test_deep_relu_net_learns_abs(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, size=(256, 1))
        y = np.abs(x[:, 0])
        net = nn.Sequential(
            nn.Linear(1, 16, rng=rng), nn.ReLU(), nn.Linear(16, 16, rng=rng), nn.ReLU(),
            nn.Linear(16, 1, rng=rng),
        )
        losses = train(net, x, y, steps=500, lr=0.01)
        assert losses[-1] < 0.01


class TestLSTMLearning:
    def test_learns_sequence_mean(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(256, 6, 1))
        y = x.mean(axis=(1, 2))

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.lstm = nn.LSTM(1, [12], rng=rng)
                self.head = nn.Linear(12, 1, rng=rng)

            def forward(self, seq):
                out, _ = self.lstm(seq)
                return self.head(out[:, -1, :])

        losses = train(Net(), x, y, steps=400, lr=0.02)
        assert losses[-1] < 0.02

    def test_learns_last_element(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(256, 5, 1))
        y = x[:, -1, 0]

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.lstm = nn.LSTM(1, [8], rng=rng)
                self.head = nn.Linear(8, 1, rng=rng)

            def forward(self, seq):
                out, _ = self.lstm(seq)
                return self.head(out[:, -1, :])

        losses = train(Net(), x, y, steps=500, lr=0.02)
        assert losses[-1] < 0.02


class TestConvLearning:
    def test_learns_centre_detector(self):
        """A conv net can learn to report the centre pixel of a patch."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(256, 1, 5, 5))
        y = x[:, 0, 2, 2]

        class Net(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(1, 4, 3, padding=1, rng=rng)
                self.head = nn.Linear(4 * 25, 1, rng=rng)

            def forward(self, img):
                return self.head(self.conv(img).relu().reshape(img.shape[0], -1))

        losses = train(Net(), x, y, steps=300, lr=0.01)
        assert losses[-1] < 0.05


class TestGANDynamics:
    def test_discriminator_learns_to_separate(self):
        """A small D separates two Gaussian populations of sequences."""
        rng = np.random.default_rng(6)
        real = rng.normal(1.0, 0.3, size=(256, 8))
        fake = rng.normal(-1.0, 0.3, size=(256, 8))
        disc = nn.Sequential(nn.Linear(8, 16, rng=rng), nn.LeakyReLU(0.2), nn.Linear(16, 1, rng=rng))
        opt = nn.Adam(disc.parameters(), lr=0.01)
        bce = nn.BCEWithLogitsLoss()
        for _ in range(200):
            opt.zero_grad()
            loss = bce(disc(nn.Tensor(real)).reshape(-1), np.ones(256)) + bce(
                disc(nn.Tensor(fake)).reshape(-1), np.zeros(256)
            )
            loss.backward()
            opt.step()
        with nn.no_grad():
            real_prob = disc(nn.Tensor(real)).reshape(-1).sigmoid().data.mean()
            fake_prob = disc(nn.Tensor(fake)).reshape(-1).sigmoid().data.mean()
        assert real_prob > 0.95
        assert fake_prob < 0.05

    def test_generator_chases_discriminator(self):
        """Adversarial pressure moves a bias parameter toward the real mean."""
        rng = np.random.default_rng(7)
        real_mean = 2.0
        real = rng.normal(real_mean, 0.1, size=(128, 4))
        offset = nn.Parameter(np.zeros(4))
        disc = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.LeakyReLU(0.2), nn.Linear(8, 1, rng=rng))
        g_opt = nn.Adam([offset], lr=0.05)
        d_opt = nn.Adam(disc.parameters(), lr=0.01)
        bce = nn.BCEWithLogitsLoss()
        noise = rng.normal(0.0, 0.1, size=(128, 4))
        for _ in range(300):
            fake = nn.Tensor(noise) + offset
            d_opt.zero_grad()
            d_loss = bce(disc(nn.Tensor(fake.data)).reshape(-1), np.zeros(128)) + bce(
                disc(nn.Tensor(real)).reshape(-1), np.ones(128)
            )
            d_loss.backward()
            d_opt.step()
            g_opt.zero_grad()
            g_loss = bce(disc(fake).reshape(-1), np.ones(128))
            g_loss.backward()
            g_opt.step()
            disc.zero_grad()
        # GAN dynamics oscillate around the target; assert the adversarial
        # pressure moved the generator decisively toward the real mean.
        assert offset.data.mean() > real_mean * 0.5
