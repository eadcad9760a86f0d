"""Shared test tooling."""

import gc
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace


@contextmanager
def fractions_built():
    """Count the Fractions built inside the block, a machine-independent
    measure of the work of an exact-rational loop:

        with fractions_built() as built:
            ...
        assert built.count <= 150
    """
    built = SimpleNamespace(count=0)
    new = Fraction.__dict__["__new__"]
    # From Python 3.12 on, Fraction arithmetic builds its results through
    # this private constructor, which bypasses __new__.
    coprime = Fraction.__dict__.get("_from_coprime_ints")

    def counting_new(cls, *args, **kwargs):
        built.count += 1
        return new.__func__(cls, *args, **kwargs)

    def counting_coprime(cls, *args):
        built.count += 1
        return coprime.__func__(cls, *args)

    Fraction.__new__ = staticmethod(counting_new)
    if coprime is not None:
        Fraction._from_coprime_ints = classmethod(counting_coprime)
    try:
        yield built
    finally:
        Fraction.__new__ = new
        if coprime is not None:
            Fraction._from_coprime_ints = coprime


def held_bytes(run):
    """(result, bytes it holds): what `run()` leaves allocated while its
    result is kept, measured with tracemalloc after a first warming call,
    so that caches the first call fills do not count."""
    run()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, held
