"""The paper's equivalence claim as a tracked table (``docs/equivalence.md``).

A fused model must follow the trajectory it would follow alone.  For
{sweep MLP, ``PointNetCls(width=0.25)``, small ``TransformerLM``} x {fused
SGD, Adam, AdamW, Adadelta} x widths {1, 2, 4} this module trains the fused
array and its ``B`` unfused twins (same initial weights, per-model data and
learning rates) and records, against the unfused models:

* ``loss_abs`` / ``loss_ulp`` — largest divergence of a per-model loss at
  the first step's forward pass,
* ``param_abs`` / ``param_ulp`` — largest divergence of any parameter
  after the first optimizer step,
* ``drift4`` — largest relative divergence of a per-model loss at step 4.

An ulp here is the float32 spacing at the reference's largest magnitude (the
loss itself; for a parameter, the largest element of that tensor), so an
element near zero cannot blow the count up.

``equivalence_matrix.json`` holds one column of the table per commit in
``COLUMNS``, the last being the change that last touched the kernels or the
fused optimizers.  The tests assert every cell at twice its value in that
column (a zero stays a zero), that every cell of it is exactly zero, and
that no cell is more than twice its value in the column before.  To
re-measure:

    PYTHONPATH=src python -m tests.hfta.test_equivalence_matrix > cells.json
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import hfta, nn, optim as serial_optim
from repro.hfta import optim as fused_optim
from repro.hfta.fusion import load_from_unfused
from repro.hfta.ops.factory import OpsLibrary
from repro.models import PointNetCls, TransformerLM
from repro.nn import functional as F

RECORD = Path(__file__).with_name("equivalence_matrix.json")
DOC = Path(__file__).resolve().parents[2] / "docs" / "equivalence.md"
#: the record's columns, oldest first: commit key -> heading in the doc
COLUMNS = {"one-node-kernels": "one autograd node per paper operator",
           "serial-optimizer": "fused optimizers in the serial arithmetic",
           "one-node-linear": "Linear as one node, serial GEMM per slice"}
*_, PREVIOUS, LATEST = COLUMNS
WIDTHS = (1, 2, 4)
OPTIMIZERS = {"sgd": (serial_optim.SGD, fused_optim.SGD),
              "adam": (serial_optim.Adam, fused_optim.Adam),
              "adamw": (serial_optim.AdamW, fused_optim.AdamW),
              "adadelta": (serial_optim.Adadelta, fused_optim.Adadelta)}
METRICS = ("loss_abs", "loss_ulp", "param_abs", "param_ulp", "drift4")
STEPS = 4


class SweepMLP(nn.Module):
    """The benchmark's 32-64-10 sweep MLP."""

    def __init__(self, num_models=None, generator=None):
        super().__init__()
        lib = self.lib = OpsLibrary(num_models)
        self.fc1 = lib.Linear(32, 64, generator=generator)
        self.fc2 = lib.Linear(64, 10, generator=generator)
        self.relu = lib.ReLU()

    def fuse_inputs(self, features):
        return self.lib.fuse_dense_inputs(features)

    def forward(self, x):
        return self.fc2(self.relu(self.fc1(x)))


def _mlp_batch(rng):
    return (nn.tensor(rng.standard_normal((16, 32)).astype(np.float32)),
            rng.integers(0, 10, size=16))


def _cloud_batch(rng):
    return (nn.tensor(rng.standard_normal((8, 3, 64)).astype(np.float32)),
            rng.integers(0, 8, size=8))


def _token_batch(rng):
    ids = rng.integers(0, 64, size=(4, 17))
    return ids[:, :-1], ids[:, 1:].reshape(-1)


def _build_pointnet(num_models=None, generator=None):
    return PointNetCls(num_classes=8, num_models=num_models, width=0.25,
                       dropout=0.0, generator=generator)


def _build_lm(num_models=None, generator=None):
    return TransformerLM(vocab_size=64, d_model=32, nhead=2, num_layers=2,
                         dim_feedforward=64, max_len=16, dropout=0.0,
                         num_models=num_models, generator=generator)


def _flat_logits(logits):
    """``[..., N, L, V]`` LM logits as ``[..., N*L, V]`` samples."""
    *lead, n, length, vocab = logits.shape
    return logits.reshape(*lead, n * length, vocab)


def _as_is(prediction):
    return prediction


#: name -> (builder, batch maker, prediction adapter, serial loss, fused
#: criterion)
MODELS = {
    "mlp": (SweepMLP, _mlp_batch, _as_is, F.cross_entropy,
            hfta.FusedCrossEntropyLoss),
    "pointnet": (_build_pointnet, _cloud_batch, _as_is, F.nll_loss,
                 hfta.FusedNLLLoss),
    "lm": (_build_lm, _token_batch, _flat_logits, F.cross_entropy,
           hfta.FusedCrossEntropyLoss),
}


def _ulps(diff, reference):
    scale = np.float32(np.abs(reference).max())
    return float(np.abs(diff).max() / np.spacing(scale))


def measure_cell(model_name, optimizer_name, width):
    """One cell of the table: ``{metric: value}``."""
    build, make_batch, adapt, serial_loss, criterion_cls = MODELS[model_name]
    serial_cls, fused_cls = OPTIMIZERS[optimizer_name]
    lrs = [1e-3 * (1 + b) for b in range(width)]
    serial = [build(None, np.random.default_rng(100 + b))
              for b in range(width)]
    fused = load_from_unfused(
        build(width, [np.random.default_rng(b) for b in range(width)]),
        serial)
    serial_opts = [serial_cls(m.parameters(), lr=lrs[b])
                   for b, m in enumerate(serial)]
    fused_opt = fused_cls(fused.parameters(), num_models=width, lr=lrs)
    criterion = criterion_cls(width)
    data = [np.random.default_rng([7, b]) for b in range(width)]

    cell = {}
    for step in range(1, STEPS + 1):
        batches = [make_batch(rng) for rng in data]
        serial_losses = []
        for b, model in enumerate(serial):
            x, y = batches[b]
            serial_opts[b].zero_grad()
            loss = serial_loss(adapt(model(x)), y)
            serial_losses.append(np.float32(loss.data))
            loss.backward()
            serial_opts[b].step()
        serial_losses = np.array(serial_losses)

        fused_opt.zero_grad()
        pred = adapt(fused(fused.fuse_inputs([x for x, _ in batches])))
        targets = np.stack([y for _, y in batches])
        fused_losses = criterion.per_model(pred, targets)
        fused_losses.sum().backward()
        fused_opt.step()
        fused_losses = fused_losses.data

        gap = np.abs(fused_losses - serial_losses)
        if step == 1:
            cell["loss_abs"] = float(gap.max())
            cell["loss_ulp"] = float(
                (gap / np.spacing(np.abs(serial_losses))).max())
            cell["param_abs"] = cell["param_ulp"] = 0.0
            fused_params = dict(fused.named_parameters())
            for b, model in enumerate(serial):
                for name, p in model.named_parameters():
                    diff = fused_params[name].data[b] - p.data
                    cell["param_abs"] = max(cell["param_abs"],
                                            float(np.abs(diff).max()))
                    cell["param_ulp"] = max(cell["param_ulp"],
                                            _ulps(diff, p.data))
        if step == STEPS:
            cell["drift4"] = float((gap / np.abs(serial_losses)).max())
    return cell


def cell_key(model_name, optimizer_name, width):
    return f"{model_name}/{optimizer_name}/w{width}"


CELLS = [(m, o, w) for m in MODELS for o in OPTIMIZERS for w in WIDTHS]


def render(record) -> str:
    """The markdown table of ``docs/equivalence.md``, one value per column."""
    lines = ["| cell | " + " | ".join(METRICS) + " |",
             "|---|" + "---|" * len(METRICS)]
    for cell in CELLS:
        key = cell_key(*cell)
        lines.append(f"| `{key}` | " + " | ".join(
            " -> ".join(f"{record[column][key][m]:.3g}" for column in COLUMNS)
            for m in METRICS) + " |")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text())


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: cell_key(*c))
def test_cell_within_twice_its_recorded_value(cell, record):
    measured = measure_cell(*cell)
    recorded = record[LATEST][cell_key(*cell)]
    for metric in METRICS:
        assert measured[metric] <= 2 * recorded[metric], (
            f"{cell_key(*cell)} {metric}: measured {measured[metric]:.3g}, "
            f"recorded {recorded[metric]:.3g}")


def test_every_cell_is_recorded_bitwise(record):
    """Forward, backward, loss and fused optimizer step run the unfused
    models' arithmetic, each fused slice in the serial GEMM shape: no cell,
    ``lm/*`` included, may be re-recorded above 0."""
    assert set(record[LATEST]) == {cell_key(*cell) for cell in CELLS}
    for key, cell in record[LATEST].items():
        assert cell == dict.fromkeys(METRICS, 0.0), key


def test_no_recorded_cell_above_twice_its_parent(record):
    for key, cell in record[LATEST].items():
        for metric in METRICS:
            assert cell[metric] <= 2 * record[PREVIOUS][key][metric], \
                (key, metric)


def test_doc_table_is_the_record(record):
    assert render(record) in DOC.read_text()


if __name__ == "__main__":
    print(json.dumps({cell_key(*c): measure_cell(*c) for c in CELLS},
                     indent=1))
