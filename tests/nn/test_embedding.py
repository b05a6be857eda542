"""``F.embedding``: ids outside the table raise on the serial path as on the
fused one, and backward's scatter is ``np.add.at``'s sum, bit for bit, in
occurrence rounds or by ``np.add.at`` itself, whichever the most frequent
id's count makes cheaper."""

import numpy as np
import pytest

from repro import hfta, nn
from repro.nn import functional as F
from ..conftest import same_bytes


@pytest.mark.parametrize("ids", [[[-1, 3]], [[3, 10]], [[-11, 0]]])
def test_an_id_outside_the_table_raises_serial_and_fused(ids):
    ids = np.array(ids)
    with pytest.raises(IndexError, match="out of range"):
        nn.Embedding(10, 4)(ids)
    with pytest.raises(IndexError, match="out of range"):
        hfta.ops.Embedding(2, 10, 4)(np.stack([ids[0], ids[0]]))


def test_every_id_of_the_table_and_no_id_look_up():
    emb = nn.Embedding(10, 4, generator=np.random.default_rng(0))
    ids = np.arange(10).reshape(2, 5)
    np.testing.assert_array_equal(emb(ids).data, emb.weight.data[ids])
    assert emb(np.zeros((0,), np.int64)).shape == (0, 4)


def add_at(num, ids, rows):
    out = np.zeros((num, rows.shape[1]), rows.dtype)
    np.add.at(out, ids, rows)
    return out


def random_scatter(rng, dtype, dim):
    num, n = (int(v) for v in rng.integers(1, [20, 60]))
    ids = rng.integers(0, num, n)
    rows = (rng.standard_normal((n, dim))
            * 10.0 ** rng.integers(-8, 8, (n, dim))).astype(dtype)
    special = rng.random((n, dim))
    rows[special < 0.05] = -0.0
    rows[(special > 0.05) & (special < 0.07)] = np.nan
    rows[(special > 0.07) & (special < 0.09)] = np.inf
    rows[(special > 0.09) & (special < 0.11)] = -np.inf
    return num, ids, rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_scatter_is_bitwise_add_at(dtype):
    rng = np.random.default_rng(0)
    for trial in range(200):
        # narrow rows keep np.add.at; rows this wide always go in rounds
        dim = int(rng.integers(1, 6)) if trial % 2 else 530
        num, ids, rows = random_scatter(rng, dtype, dim)
        with np.errstate(invalid="ignore"):
            want = add_at(num, ids, rows)
            rounds = np.zeros_like(want)
            F._add_in_rounds(rounds, ids, rows)
            out = np.zeros_like(want)
            F._scatter_add_rows(out, ids, rows)
        assert same_bytes(rounds, want)
        assert same_bytes(out, want)


@pytest.mark.parametrize("ids, dim, in_rounds", [
    # a fused width-4 LM batch's position ids (8 x 32 tokens, d_model 64):
    # 4 x 32 ids, 8 rows each
    (np.tile(np.arange(4 * 32), 8), 64, True),
    # BERT's default all-zero segment ids, 32 x 32 tokens, hidden 32 and 512
    (np.zeros(1024, np.int64), 32, False),
    (np.zeros(1024, np.int64), 512, False),
    # the same, fused width 4: four ids of 1024 rows each
    (np.repeat(np.arange(4), 1024), 512, True),
    # any batch of rows no wider than the per-row sorting cost
    (np.arange(1024), 16, False),
])
def test_the_most_frequent_ids_count_picks_the_form(ids, dim, in_rounds):
    most = np.bincount(ids).max()
    assert (most <= F._round_budget(len(ids), dim)) == in_rounds


def test_embedding_gradient_is_add_at_of_the_output_gradient():
    rng = np.random.default_rng(1)
    weight = nn.tensor(rng.standard_normal((7, 3)).astype(np.float32),
                       requires_grad=True)
    ids = rng.integers(0, 7, (4, 9))
    grad = rng.standard_normal((4, 9, 3)).astype(np.float32)
    F.embedding(ids, weight).backward(grad)
    assert weight.grad.tobytes() == add_at(
        7, ids.reshape(-1), grad.reshape(-1, 3)).tobytes()
