"""A fixed reference computation that gauges the machine's current speed.

On a shared host the speed of a core drifts by 20% and more over minutes
(neighbours on the same physical core, memory bandwidth, frequency), and
that drift reaches CPU time as much as wall time. The benchmark therefore
times this computation right before and after every job and reports the
job's CPU time as a multiple of the reference's: a slow phase of the
machine slows both, a slower fedanom slows only the job.

The computation uses no fedanom code, so no change to fedanom moves it.
It has three parts, one for each kind of work the workloads do, and each
workload sets how much of each it runs, in about the shares its own job
spends on them:

- batch-32 training steps of a dense autoencoder of the default shape,
  with dropout masks and Adam (small numpy calls, interpreter overhead);
- a pure-Python parse of CSV rows into a one-hot float matrix;
- large-batch forward passes (BLAS).
"""
from __future__ import annotations

import csv
import io

import numpy as np

DIMS = (66, 128, 64, 32, 16, 32, 64, 128, 66)
BATCH = 32
DATA_ROWS = 16000
LR = 1e-3
DROPOUT = 0.2
N_NUMERIC = 39
N_CATEGORICAL = 7
VOCAB = 4        # 39 numeric + 7 x 4 one-hot = 67 columns, near the model's 66


class Reference:
    """Inputs made once; `run` does the fixed work and checks its result."""

    def __init__(self, train_steps: int, parse_rows: int,
                 forward_rows: int) -> None:
        rng = np.random.default_rng(20230823)
        self.train_steps = train_steps
        self.forward_rows = forward_rows
        self.weights0 = [rng.normal(0.0, (2.0 / (a + b)) ** 0.5, (a, b))
                         for a, b in zip(DIMS[:-1], DIMS[1:])]
        self.data = rng.random((DATA_ROWS, DIMS[0]))
        self.vocab = [[f"c{j}v{k}" for k in range(VOCAB)]
                      for j in range(N_CATEGORICAL)]
        numeric = rng.integers(0, 10 ** 6, size=(parse_rows, N_NUMERIC))
        numeric = numeric.astype(str).astype(object)
        numeric[rng.integers(0, parse_rows, parse_rows // 100),
                rng.integers(0, N_NUMERIC, parse_rows // 100)] = "-"
        picks = rng.integers(0, VOCAB, size=(parse_rows, N_CATEGORICAL))
        lines = []
        for r in range(parse_rows):
            cats = [self.vocab[j][k] for j, k in enumerate(picks[r])]
            lines.append(",".join([f"2021 11 22 10:{r:05d}", *numeric[r],
                                   *cats, "Normal"]))
        self.csv_text = "\n".join(lines) + "\n"
        self.expected = None

    def _train(self) -> list[np.ndarray]:
        rng = np.random.default_rng(7)
        ws = [w.copy() for w in self.weights0]
        bs = [np.zeros(w.shape[1]) for w in ws]
        ms = [np.zeros_like(w) for w in ws]
        vs = [np.zeros_like(w) for w in ws]
        last = len(ws) - 1
        order = rng.permutation(DATA_ROWS)
        for t in range(1, self.train_steps + 1):
            lo = (t * BATCH) % (DATA_ROWS - BATCH)
            xb = self.data[order[lo:lo + BATCH]]
            acts = [xb]
            masks = []
            h = xb
            for i, (w, b) in enumerate(zip(ws, bs)):
                z = h @ w + b
                if i == last:
                    h = z
                else:
                    mask = (rng.random(z.shape) >= DROPOUT) / (1.0 - DROPOUT)
                    h = np.maximum(z, 0.0) * mask
                    masks.append(mask)
                acts.append(h)
            grad = 2.0 * (h - xb) / xb.size
            for i in range(last, -1, -1):
                g_w = acts[i].T @ grad
                g_b = grad.sum(axis=0)
                if i:
                    grad = (grad @ ws[i].T) * (acts[i] > 0.0) * masks[i - 1]
                ms[i] = 0.9 * ms[i] + 0.1 * g_w
                vs[i] = 0.999 * vs[i] + 0.001 * g_w * g_w
                m_hat = ms[i] / (1.0 - 0.9 ** t)
                v_hat = vs[i] / (1.0 - 0.999 ** t)
                ws[i] = ws[i] - LR * m_hat / (np.sqrt(v_hat) + 1e-8)
                bs[i] = bs[i] - LR * g_b
        return ws

    def _parse(self) -> np.ndarray:
        kinds = ([None] + [()] * N_NUMERIC + self.vocab + [None])
        rows = []
        for row in csv.reader(io.StringIO(self.csv_text)):
            out: list[float] = []
            try:
                for cell, vocab in zip(row, kinds):
                    if vocab is None:
                        continue
                    if vocab:
                        out.extend(1.0 if cell == v else 0.0 for v in vocab)
                    else:
                        out.append(float(cell))
            except ValueError:
                continue
            rows.append(out)
        return np.array(rows, dtype=np.float64)

    def _forward(self, ws: list[np.ndarray]) -> float:
        total = 0.0
        for lo in range(0, self.forward_rows, DATA_ROWS):
            x = self.data[:min(DATA_ROWS, self.forward_rows - lo)]
            h = x
            for i, w in enumerate(ws):
                h = h @ w
                if i < len(ws) - 1:
                    h = np.maximum(h, 0.0)
            total += float(np.square(h - x).sum())
        return total

    def run(self) -> tuple:
        """Do the fixed work once; raises if its result ever changes."""
        ws = self._train()
        parsed = self._parse()
        result = (parsed.shape, float(parsed.sum()), self._forward(ws))
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            raise RuntimeError(f"reference result {result} differs from "
                               f"{self.expected}")
        return result
