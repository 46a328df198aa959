"""Session setup shared by every test module."""

import warnings

import numpy as np

# hypothesis imports libcst to explain a failing example; under the
# warnings-as-errors filter that import's DeprecationWarning (from
# mypy_extensions) would turn the failure report into an internal error
# that ends the session, so import it once here with the warning ignored
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


def full_fft_derivative(values, h, axis, order):
    """The spectral derivative of order 1 or 2 by the full complex FFT, an
    oracle for the half-spectrum transform of real stacks and for the
    spectral Laplacian of a wavefunction."""
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    mult = 1j * k if order == 1 else -(k * k)
    if order == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis) * mult.reshape(shape), axis=axis)
