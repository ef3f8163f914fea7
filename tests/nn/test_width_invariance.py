"""Width invariance: a row's inference bits do not depend on its batch.

Every inference GEMM covers one sample's rows — batched conv GEMMs issue
one product per sample and group, and the tape-free ``F.linear`` one per
row — so an image's logits are the same bits whether it is forwarded
alone, in a batch of 32, or at any offset inside one.  Serving relies on
this to forward only the real rows of a coalesced group; the compiled
program relies on it to replay one arena on any row prefix.  The tape
path (training, Neural Cleanse) keeps its single batched GEMM.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import available_models, build_model
from repro.nn import functional as F
from repro.nn.fold import _inference_copy_impl
from repro.nn.graph import compile as nn_compile
from repro.nn.tensor import Tensor

SHAPE = (3, 12, 12)
WIDTHS = [1, 2, 3, 4, 5, 6, 7, 8, 16, 20, 32]
#: Compiled programs under test: the serving width and the widest batch.
COMPILED_WIDTHS = (8, 32)
MAX_OFFSET = 8
POOL = max(WIDTHS) + MAX_OFFSET


@pytest.fixture(scope="module")
def subjects():
    """name -> (folded copy, {width: compiled program}, image pool,
    each pool image's 1-row logits)."""
    out = {}
    for name in available_models():
        nn.manual_seed(3)
        model = build_model(name, num_classes=4, scale="tiny")
        model.eval()
        folded = _inference_copy_impl(model)
        compiled = {width: nn_compile(model, width, input_shape=SHAPE,
                                      autotune=False)
                    for width in COMPILED_WIDTHS}
        pool = np.random.default_rng(7).random((POOL,) + SHAPE,
                                               dtype=np.float32)
        with nn.no_grad():
            solo = np.stack([folded(Tensor(pool[i:i + 1])).data[0]
                             for i in range(POOL)])
        out[name] = folded, compiled, pool, solo
    return out


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(available_models()),
       n=st.sampled_from(WIDTHS),
       offset=st.integers(0, MAX_OFFSET))
def test_rows_match_their_one_row_forward(subjects, name, n, offset):
    folded, compiled, pool, solo = subjects[name]
    batch = pool[offset:offset + n]
    expected = solo[offset:offset + n]
    with nn.no_grad():
        interpreted = folded(Tensor(batch)).data
    assert interpreted.tobytes() == expected.tobytes(), (
        f"{name}: interpreted rows at width {n}, offset {offset}")
    for width, program in compiled.items():
        assert program.compiled, program.fallback_reason
        if n > width:
            continue
        assert program(batch).data.tobytes() == expected.tobytes(), (
            f"{name}: program of width {width} at {n} rows, offset {offset}")


def test_tape_linear_is_the_batched_gemm():
    """With a tape, ``F.linear`` is byte-identical to ``x @ W.T + b`` —
    forward and gradients — so training does not move a bit."""
    rng = np.random.default_rng(5)
    x_data = rng.standard_normal((9, 37)).astype(np.float32)
    w_data = rng.standard_normal((6, 37)).astype(np.float32)
    b_data = rng.standard_normal(6).astype(np.float32)
    results = []
    for fn in (lambda x, w, b: F.linear(x, w, b),
               lambda x, w, b: x.matmul(w.T) + b):
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = fn(x, w, b)
        (out * out).sum().backward()
        results.append([t.tobytes() for t in
                        (out.data, x.grad, w.grad, b.grad)])
    assert results[0] == results[1]


def test_tape_free_linear_runs_one_gemm_per_row():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((16, 37)).astype(np.float32)
    w = Tensor(rng.standard_normal((6, 37)).astype(np.float32))
    with nn.no_grad():
        batched = F.linear(Tensor(x), w).data
        rows = [F.linear(Tensor(x[i:i + 1]), w).data for i in range(16)]
    assert batched.tobytes() == np.concatenate(rows).tobytes()
