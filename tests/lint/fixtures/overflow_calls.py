"""Fixture: NumPy call spellings of datapath arithmetic, none of them proven.

``Calls.einsum`` is a matched-filter MAC written as ``np.einsum`` (the
operator form is ``window @ envelope``); every other method holds one more
NumPy call that does the work of a tracked operator, as a function or as a
method of an expression.  The overflow checker's tests scope these methods
with an empty proof ledger and expect each call to report
``overflow-unproven``.
"""

import numpy as np


class Calls:
    def einsum(self, window, envelope):
        return np.einsum("ij,j->i", window, envelope, dtype=np.int64)

    def dot(self, a, b):
        return np.dot(a, b)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def tensordot(self, a, b):
        return np.tensordot(a, b, axes=1)

    def inner(self, a, b):
        return np.inner(a, b)

    def add(self, slot0, slot1, acc):
        return np.add(slot0, slot1, out=acc, dtype=np.int64)

    def subtract(self, a, b):
        return np.subtract(a, b)

    def left_shift(self, a, bits):
        return np.left_shift(a, bits)

    def sum(self, trace):
        return trace[:, :4].sum(axis=1)

    def cumsum(self, a):
        return np.cumsum(a, axis=1)

    def prod(self, a):
        return np.prod(a, axis=1)

    def cumprod(self, a, b):
        return (a * b).cumprod(axis=1)

    def reduce(self, trace):
        return np.add.reduce(trace, axis=2, dtype=np.int64)

    def accumulate(self, trace):
        return np.add.accumulate(trace, axis=2)

    def method_dot(self, window, envelope):
        return window[:, :8].dot(envelope)
