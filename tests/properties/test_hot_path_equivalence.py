"""Memoised hot paths against the straightforward code they replace.

``normalize``, ``RngStreams.jitter`` and ``Annotator.begin``/``end`` take
shortcuts (a canonical-path fast path, memoised lognormal parameters and
bound draw methods, a path→node dict). Each reference below is the plain
formulation kept in the test; the memoised code must agree with it bit
for bit, or recorded fingerprints would drift.
"""

import posixpath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PerfError, StorageError
from repro.perf.caliper import Annotator, Category
from repro.perf.calltree import CallTree
from repro.perf.trace import Tracer
from repro.sim.rng import RngStreams
from repro.storage.posixfs import normalize


# -- normalize ----------------------------------------------------------------

def reference_normalize(path: str) -> str:
    if not path:
        raise StorageError("empty path")
    if not path.startswith("/"):
        path = "/" + path
    return posixpath.normpath(path)


path_pieces = st.sampled_from(
    ["/", "//", ".", "..", "/./", "/../", "a", "b.c", ".h", "...", " "])
paths = st.one_of(
    st.text(min_size=1),
    st.lists(path_pieces, min_size=1, max_size=12).map("".join),
)


@given(paths)
@example("//a")
@example("///a")
@example("/./a")
@example("a/../b")
@example("/a/")
@example("/")
@example("/..")
@example("/a/.hidden")
@example("/pair0001/frame00002.mdfr")
@settings(max_examples=500, deadline=None)
def test_normalize_equals_normpath(path):
    assert normalize(path) == reference_normalize(path)


def test_normalize_rejects_empty():
    with pytest.raises(StorageError):
        normalize("")


# -- RngStreams.jitter ------------------------------------------------------------

#: streams the program draws uniforms from with ``stream(name).random()``
UNIFORM_NAMES = ["dyad.retry", "transport.fault", "faults.bit_corrupt"]
NAMES = UNIFORM_NAMES + ["ssd.wlat", "pair0.frame3"]


def reference_jitter(streams: RngStreams, name, mean, cv) -> float:
    if mean == 0.0 or cv == 0.0:
        return mean
    sigma2 = np.log1p(cv * cv)
    mu = np.log(mean) - 0.5 * sigma2
    return float(streams.stream(name).lognormal(mu, np.sqrt(sigma2)))


means = st.one_of(st.sampled_from([0.0, 1e-5, 2e-5, 0.25, 3.0]),
                  st.floats(min_value=0.0, max_value=1e3))
cvs = st.one_of(st.sampled_from([0.0, 0.05, 0.3]),
                st.floats(min_value=0.0, max_value=2.0))
ops = st.lists(st.one_of(
    st.tuples(st.just("jitter"), st.sampled_from(NAMES), means, cvs),
    st.tuples(st.just("random"), st.sampled_from(UNIFORM_NAMES)),
), max_size=60)


def _replay(streams: RngStreams, program, jitter) -> list:
    out = []
    for op in program:
        if op[0] == "jitter":
            out.append(jitter(streams, *op[1:]).hex())
        else:
            out.append(streams.stream(op[1]).random().hex())
    return out


@given(st.integers(min_value=0, max_value=2**32 - 1), ops)
@settings(max_examples=200, deadline=None)
def test_jitter_bit_identical_with_interleaved_draws(seed, program):
    memoised = _replay(RngStreams(seed), program,
                       lambda s, name, mean, cv: s.jitter(name, mean, cv))
    assert memoised == _replay(RngStreams(seed), program, reference_jitter)


#: inputs where numpy's ``log``/``log1p`` and ``math``'s round differently
#: on some builds; the memo must keep numpy's bits
LIBM_SPLIT_MEANS = [0.8621193898174793, 0.0005401561663182035,
                    3.461335060957972, 1.015695407966849]
LIBM_SPLIT_CVS = [1.1994468974025059, 1.1838879230160575,
                  0.7311966367317695, 1.9716184516813586]


def test_jitter_keeps_numpy_rounding():
    program = [("jitter", "lat", mean, cv)
               for mean in LIBM_SPLIT_MEANS for cv in LIBM_SPLIT_CVS] * 2
    memoised = _replay(RngStreams(8), program,
                       lambda s, name, mean, cv: s.jitter(name, mean, cv))
    assert memoised == _replay(RngStreams(8), program, reference_jitter)


# -- Caliper ---------------------------------------------------------------------

class ReferenceAnnotator:
    """Region annotation resolving each node from the root on ``end``."""

    def __init__(self, clock):
        self.clock = clock
        self.tree = CallTree(label="ref")
        self.stack = []
        self.spans = []

    def current_path(self):
        return tuple(entry[0] for entry in self.stack)

    def begin(self, region, category=None):
        if category is not None and category not in Category.ALL:
            raise PerfError(category)
        if category is None and self.stack:
            category = self.stack[-1][2]
        self.stack.append((region, self.clock(), category))

    def end(self, region):
        if not self.stack:
            raise PerfError(region)
        name, started, category = self.stack.pop()
        if name != region:
            self.stack.append((name, started, category))
            raise PerfError(region)
        now = self.clock()
        path = self.current_path() + (name,)
        node = self.tree.node(*path)
        if category is not None:
            existing = node.metrics.get("category")
            if existing is not None and existing != category:
                self.stack.append((name, started, category))
                raise PerfError(name)
        node.add_metric("time", now - started)
        node.add_metric("count", 1)
        if category is not None:
            node.metrics["category"] = category
        self.spans.append((name, category, started, now))
        return now - started


class StepClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


region_ops = st.lists(st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(["io", "sync", "x"]),
              st.sampled_from([None] + list(Category.ALL))),
    st.tuples(st.just("end"), st.sampled_from(["io", "sync", "x", None])),
), max_size=40)
steps = st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=40,
                 max_size=40)


def _drive(ann, clock, program, dt):
    """Apply ``program``; ``end(None)`` closes the innermost region."""
    outcomes = []
    for op, step in zip(program, dt):
        clock.now += step
        try:
            if op[0] == "begin":
                outcomes.append(ann.begin(op[1], op[2]))
            else:
                region = op[1] or (ann.current_path() or ("io",))[-1]
                outcomes.append(ann.end(region))
        except PerfError:
            outcomes.append("error")
    return outcomes


def _tree_state(tree):
    """Every node's path and metrics, children in creation order."""
    out = []

    def visit(node):
        for child in node.children.values():
            out.append((child.path(), list(child.metrics.items())))
            visit(child)

    visit(tree.root)
    return out


@given(region_ops, steps)
@settings(max_examples=300, deadline=None)
def test_annotator_trees_match_reference(program, dt):
    clock, ref_clock = StepClock(), StepClock()
    ann = Annotator("proc", clock)
    ref = ReferenceAnnotator(ref_clock)
    assert _drive(ann, clock, program, dt) == \
        _drive(ref, ref_clock, program, dt)
    assert ann.current_path() == ref.current_path()
    assert ann.depth == len(ref.stack)
    assert _tree_state(ann.tree) == _tree_state(ref.tree)


@given(region_ops, steps)
@settings(max_examples=200, deadline=None)
def test_tracing_annotator_spans_match_reference(program, dt):
    clock, ref_clock = StepClock(), StepClock()
    tracer = Tracer(clock)
    ann = tracer.annotator("p0")
    ref = ReferenceAnnotator(ref_clock)
    _drive(ann, clock, program, dt)
    _drive(ref, ref_clock, program, dt)
    assert [(s.region, s.category, s.start, s.end)
            for s in tracer.spans()] == ref.spans
    assert _tree_state(ann.tree) == _tree_state(ref.tree)


def test_category_clash_leaves_stack_and_node_untouched():
    clock = StepClock()
    ann = Annotator("proc", clock)
    ann.begin("outer", Category.COMPUTE)
    ann.begin("io", Category.MOVEMENT)
    clock.now = 1.0
    ann.end("io")
    ann.begin("io", Category.IDLE)
    clock.now = 3.0
    with pytest.raises(PerfError, match="category clash"):
        ann.end("io")
    assert ann.current_path() == ("outer", "io")
    node = ann.tree.find("outer", "io")
    assert node.metrics == {"time": 1.0, "count": 1.0,
                            "category": Category.MOVEMENT}
