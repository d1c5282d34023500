"""Tests for the real inverse DFT, the DCT/DST constructions and the
e^{i theta} kernel."""

import ast
from pathlib import Path

import numpy as np
import pytest

from oracles import naive_cos_sin, naive_dct2, naive_dst2, naive_inverse_dft
from swiftpricer import dct2_via_fft, dst2_via_fft
from swiftpricer.transform import _cis, cos_sin_sum, inverse_dft


def hermitian(half):
    """The full spectrum X_0 .. X_{n-1} of a real signal from its half
    spectrum X_0 .. X_{n/2} (X_{n-j} = conj X_j, real DC and Nyquist)."""
    half = np.asarray(half, dtype=complex)
    return np.concatenate([[half[0].real], half[1:-1], [half[-1].real],
                           np.conj(half[-2:0:-1])])


class TestInverseDft:
    # inverse_dft takes the half spectrum X_0 .. X_{n/2} of a real signal
    def test_delta_to_constant(self):
        assert np.array_equal(inverse_dft([1.0, 0.0, 0.0]), np.ones(4))

    def test_constant_to_scaled_delta(self):
        g = inverse_dft([1.0, 1.0, 1.0])
        assert np.allclose(g, [4.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_nyquist_alternates(self):
        assert np.array_equal(inverse_dft([0.0, 0.0, 1.0]), [1.0, -1.0, 1.0, -1.0])

    def test_random_vs_naive(self):
        # the imaginary parts of the DC and Nyquist entries are ignored
        rng = np.random.default_rng(1)
        for n in (2, 4, 16, 64):
            half = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
            ref = naive_inverse_dft(hermitian(half))
            assert np.abs(ref.imag).max() <= 1e-13 * n
            assert np.abs(inverse_dft(half) - ref.real).max() <= 1e-13 * n

    @pytest.mark.parametrize("n", [0, 3, 6, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        # n + 1 half-spectrum entries are a signal of length 2n
        with pytest.raises(ValueError, match="power of two"):
            inverse_dft(np.zeros(n + 1, dtype=complex))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for n in (8, 64, 512):
            x = rng.normal(size=n)
            assert np.abs(inverse_dft(np.fft.rfft(x)) / n - x).max() <= 1e-13 * np.abs(x).max()

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for n in (16, 256):
            half = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
            lhs = np.sum(inverse_dft(half) ** 2)
            rhs = n * np.sum(np.abs(hermitian(half)) ** 2)
            assert abs(lhs - rhs) <= 1e-11 * rhs

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=33) + 1j * rng.normal(size=33)
        y = rng.normal(size=33) + 1j * rng.normal(size=33)
        al, be = 1.7, -2.1
        lhs = inverse_dft(al * x + be * y)
        rhs = al * inverse_dft(x) + be * inverse_dft(y)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()

    def test_given_length_zero_pads(self):
        # a half spectrum shorter than n/2 + 1 is X_0 .. X_{len-1}, the rest 0
        rng = np.random.default_rng(6)
        for n, size in ((2, 1), (2, 2), (8, 1), (8, 3), (16, 8), (16, 9), (64, 20)):
            half = rng.normal(size=size) + 1j * rng.normal(size=size)
            padded = np.zeros(n // 2 + 1, dtype=complex)
            padded[:size] = half
            assert np.array_equal(inverse_dft(half, n), inverse_dft(padded))
            ref = naive_inverse_dft(hermitian(padded)).real
            assert np.abs(inverse_dft(half, n) - ref).max() <= 1e-13 * n

    @pytest.mark.parametrize("size, n, match", [
        (3, 6, "power of two"), (3, 0, "power of two"), (3, -4, "power of two"),
        (3, 12, "power of two"), (6, 8, "1 to 5 entries"), (0, 8, "1 to 5 entries"),
        ((2, 3), 8, "1-D")])
    def test_given_length_refusals(self, size, n, match):
        with pytest.raises(ValueError, match=match):
            inverse_dft(np.ones(size, dtype=complex), n)

    def test_input_not_modified(self):
        half = np.arange(5, dtype=complex) * (1 + 1j)
        keep = half.copy()
        inverse_dft(half)
        assert np.array_equal(half, keep)


class TestDct2:
    def test_zeros(self):
        assert np.array_equal(dct2_via_fft(np.zeros(8)), np.zeros(8))

    def test_single_term(self):
        a = np.zeros(8)
        a[0] = 1.0
        expected = np.cos(np.pi * np.arange(8) / 16.0)
        assert np.abs(dct2_via_fft(a) - expected).max() <= 1e-14

    def test_random_vs_naive(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=32)
        assert np.abs(dct2_via_fft(a) - naive_dct2(a)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_size_sweep(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1, 1, size=n)
        assert np.abs(dct2_via_fft(a) - naive_dct2(a)).max() <= 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dct2_via_fft(np.zeros(12))


class TestDst2:
    def test_zeros(self):
        assert np.array_equal(dst2_via_fft(np.zeros(8)), np.zeros(8))

    def test_single_term(self):
        b = np.zeros(8)
        b[0] = 1.0
        expected = np.sin(np.pi * np.arange(8) / 16.0)
        assert np.abs(dst2_via_fft(b) - expected).max() <= 1e-14

    def test_random_vs_naive(self):
        rng = np.random.default_rng(6)
        b = rng.normal(size=32)
        assert np.abs(dst2_via_fft(b) - naive_dst2(b)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_size_sweep(self, n):
        rng = np.random.default_rng(n + 1)
        b = rng.uniform(-1, 1, size=n)
        assert np.abs(dst2_via_fft(b) - naive_dst2(b)).max() <= 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dst2_via_fft(np.zeros(24))


class TestCosSinSum:
    def test_reduces_to_dct_when_b_zero(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=16)
        got = cos_sin_sum(a, np.zeros(16), range(16))
        assert np.abs(got - dct2_via_fft(a)).max() <= 1e-13

    def test_reduces_to_dst_when_a_zero(self):
        rng = np.random.default_rng(8)
        b = rng.normal(size=16)
        got = cos_sin_sum(np.zeros(16), b, range(16))
        assert np.abs(got - dst2_via_fft(b)).max() <= 1e-13

    def test_random_vs_naive(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=64)
        b = rng.normal(size=64)
        ks = range(64)
        assert np.abs(cos_sin_sum(a, b, ks) - naive_cos_sin(a, b, ks)).max() <= 1e-12

    def test_extended_k_range_vs_naive(self):
        # negative k and k beyond 2N exercise the period 2N and its sign
        rng = np.random.default_rng(10)
        for n in (1, 2, 32):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            ks = np.arange(-10 * n, 10 * n + 1)
            got = cos_sin_sum(a, b, ks)
            ref = naive_cos_sin(a, b, ks)
            assert np.abs(got - ref).max() <= 1e-12, n

    def test_index_n_special_values(self):
        rng = np.random.default_rng(11)
        n = 16
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        got = cos_sin_sum(a, b, [n])
        ref = naive_cos_sin(a, b, [n])
        assert abs(got[0] - ref[0]) <= 1e-13

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cos_sin_sum(np.zeros(8), np.zeros(4), range(4))

    def test_linearity(self):
        rng = np.random.default_rng(12)
        n = 32
        ks = np.arange(-n, 2 * n)
        a1, b1 = rng.normal(size=n), rng.normal(size=n)
        a2, b2 = rng.normal(size=n), rng.normal(size=n)
        lhs = cos_sin_sum(2.0 * a1 - a2, 2.0 * b1 - b2, ks)
        rhs = 2.0 * cos_sin_sum(a1, b1, ks) - cos_sin_sum(a2, b2, ks)
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestCis:
    def test_against_mpmath(self):
        # seeded theta up to 1e12, and the floats next to odd multiples of
        # pi up to 1e12, where |tan(theta/2)| is largest
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(34)
        xs = [rng.uniform(-hi, hi, 200) for hi in 10.0 ** np.arange(0, 13, 2)]
        with mp.workdps(40):
            for k in (0, 1, 2, 5, 100, 12345, 10**6, 10**9, 159154943091):
                x0 = float((2 * k + 1) * mp.pi)
                near = x0 + np.arange(-3, 4) * np.spacing(x0)
                xs += [near, -near]
            xs = np.concatenate(xs)
            assert np.abs(np.tan(0.5 * xs)).max() > 1e16
            for x, v in zip(xs.tolist(), _cis(xs)):
                x = mp.mpf(x)
                assert abs(v.real - mp.cos(x)) <= 2.5e-16, x
                assert abs(v.imag - mp.sin(x)) <= 2.5e-16, x


class TestOneDimensional:
    # each transform runs along the last axis, so anything but a 1-D input
    # is refused rather than transformed row by row
    @pytest.mark.parametrize("shape", [(), (2, 4), (4, 2), (2, 3), (1, 8)])
    @pytest.mark.parametrize("fn", [
        inverse_dft, dct2_via_fft, dst2_via_fft,
        lambda x: cos_sin_sum(x, x, range(4))])
    def test_rejects_non_1d(self, fn, shape):
        with pytest.raises(ValueError, match="1-D"):
            fn(np.ones(shape))


SRC = Path(__file__).resolve().parent.parent / "src" / "swiftpricer"


def dotted(node):
    """'a.b.c' of an attribute chain, '' for anything else."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_complex_fft_or_scipy_fft(path):
    # every cosine sum goes through inverse_dft's one real transform
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and dotted(node) in (
                "np.fft.fft", "np.fft.ifft", "numpy.fft.fft", "numpy.fft.ifft"):
            found.append(dotted(node))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.fft")]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
            found += [n for n in names if n.startswith(("scipy.fft", "numpy.fft.fft",
                                                        "numpy.fft.ifft"))]
    assert not found, f"{path.name}: {found}"
