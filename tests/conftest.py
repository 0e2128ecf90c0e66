"""Shared fixtures: the pinned suite (built once) and corruption helpers."""

import dataclasses

import pytest
from hypothesis import strategies as st

from gmpi.builder import (
    GmpiInstance,
    build_double_complex,
    build_star_complex,
    total_complex,
)
from gmpi.families import random_instance
from gmpi.monomials import ideal, simple_context
from gmpi.verify import SUITE_SEEDS


class SuiteItem:
    def __init__(self, seed):
        self.seed = seed
        self.instance = random_instance(seed)
        self.star = build_star_complex(self.instance)
        self.double = build_double_complex(self.instance)
        self.total = total_complex(self.double)


@pytest.fixture(scope="session")
def suite():
    return [SuiteItem(seed) for seed in SUITE_SEEDS]


@st.composite
def small_ideals(draw):
    """Ideals of at most 6 generators in at most 4 variables, exponents <= 3."""
    nvars = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=6))
    ctx = simple_context(nvars, tuple("xyzw"[:nvars]))
    return ideal(ctx, gens)


def with_resolution_copy(inst: GmpiInstance) -> GmpiInstance:
    """The instance over a copy of its resolution, for a fixture to corrupt
    without touching ``inst``."""
    return dataclasses.replace(inst, resolution=inst.resolution.copy())


def corrupt_lambda(inst: GmpiInstance, i: int = 2):
    """The instance over a copy of its resolution in which the first nonzero
    scalar of lam_i (in row-major order) is set to zero, and its (i, r, c)."""
    probe = with_resolution_copy(inst)
    entries = probe.resolution.diffs[i].entries
    if not entries:
        raise AssertionError("no nonzero entry to corrupt")
    r, c = min(entries)
    del entries[(r, c)]
    return probe, (i, r, c)


def non_nested_instance() -> GmpiInstance:
    """Genuine nesting violation, built with the validation bypassed.

    Induced by (x^2, xy, y^2) over two blocks of two variables, with the
    degree-1 substitutions not containing the degree-2 ones; the star complex
    has nonvanishing first homology at a^2 c^2.
    """
    from gmpi.builder import SubstitutionFamily, validate_family
    from gmpi.monomials import VariableContext, ideal, simple_context

    S = simple_context(2, ("x", "y"))
    inducing = ideal(S, [(2, 0), (1, 1), (0, 2)])
    T = VariableContext((2, 2), ("a", "c"))
    actx = VariableContext((2,), ("a",))
    cctx = VariableContext((2,), ("c",))
    fam = SubstitutionFamily(T, {
        (0, 2): ideal(actx, [(2, 0)]),      # (a1^2)
        (0, 1): ideal(actx, [(0, 1)]),      # (a2): does not contain a1^2
        (1, 2): ideal(cctx, [(2, 0)]),
        (1, 1): ideal(cctx, [(0, 1)]),
    })
    return validate_family(inducing, fam, label="non-nested", check_nesting=False)
