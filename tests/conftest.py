"""Shared test tooling."""

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

    def counting_new(cls, *args, **kwargs):
        built.count += 1
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        yield built
    finally:
        Fraction.__new__ = new
