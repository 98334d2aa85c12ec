#!/usr/bin/env python
"""Training throughput benchmark: sequential vs minibatch vs fused STDP.

Measures how many training-sample presentations per second the
sequential (``batch_size=1``), minibatch-reference (the unfused
``reference_run_batch_stdp`` loop of ``tests/oracles.py``, the
"batched" column) and fused (the platform's numba or numpy kernel)
training engines sustain on two network sizes at both compute
precisions, plus the per-step oracle loop of ``tests/oracles.py`` that
the sequential engine's event-driven loop replaced
(``sequential_speedup_vs_oracle``).
Timing is steady-state: each engine column reuses one trainer (so
workspaces, minibatch machinery and the drive operator cache are warm)
and reports its best epoch.  Two bitwise gates guard the numbers:
``batch_size=1`` must reproduce the per-step oracle loop, and the
fused kernel must reproduce the minibatch-reference kernel — weight
for weight, threshold for threshold.  Results go to
``BENCH_training.json`` — the training half of the repo's performance
trajectory artifacts (see ``BENCH_engine.json`` for evaluation).

Usage::

    PYTHONPATH=src python benchmarks/perf_training.py           # full run
    PYTHONPATH=src python benchmarks/perf_training.py --quick   # CI smoke

The workload mirrors one fault-aware training stage (Algorithm 1):
Poisson-encoded samples presented with STDP, a corrupted-weight read
per presentation, deltas credited back to the stored clean tensor.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.engine.trainer import BatchedTrainer
from repro.snn.encoding import poisson_rate_code
from repro.snn.kernels import HAVE_NUMBA
from repro.snn.network import DiehlCookNetwork, NetworkParameters, make_stdp
from repro.snn.stdp import normalize_columns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from oracles import minibatch_oracle, reference_run_sample  # noqa: E402

# N400 runs batch 32: the dense-step cutoff in the accumulate makes
# larger minibatches profitable there (with the purely column-restricted
# accumulate, 32 lanes' bigger spiking-column unions made B=32 *slower*
# than B=16).
FULL_SCENARIOS = (
    {"n_neurons": 100, "n_train": 32, "n_steps": 100, "dtype": "float64",
     "batch_size": 16},
    {"n_neurons": 400, "n_train": 32, "n_steps": 100, "dtype": "float64",
     "batch_size": 32},
    {"n_neurons": 100, "n_train": 32, "n_steps": 100, "dtype": "float32",
     "batch_size": 16},
    {"n_neurons": 400, "n_train": 32, "n_steps": 100, "dtype": "float32",
     "batch_size": 32},
)
QUICK_SCENARIOS = (
    {"n_neurons": 60, "n_train": 12, "n_steps": 30, "dtype": "float64",
     "batch_size": 6},
    {"n_neurons": 100, "n_train": 12, "n_steps": 30, "dtype": "float32",
     "batch_size": 6},
)


def _images(scenario: dict, n_input: int = 784) -> np.ndarray:
    rng = np.random.default_rng(1234)
    # MNIST-like sparse images: most pixels dark, a bright blob.
    return np.clip(
        rng.random((scenario["n_train"], n_input)) - 0.55, 0.0, 0.45
    ) * 2


def _network(scenario: dict, n_input: int = 784) -> DiehlCookNetwork:
    params = NetworkParameters(n_input=n_input, n_neurons=scenario["n_neurons"])
    return DiehlCookNetwork(
        params, rng=np.random.default_rng(7), dtype=np.dtype(scenario["dtype"])
    )


def _corrupter(network: DiehlCookNetwork, seed: int = 5):
    """A cheap stand-in for the DRAM error injector (same call pattern)."""
    rng = np.random.default_rng(seed)

    def corrupt(weights):
        noisy = weights + rng.normal(0.0, 0.005, weights.shape).astype(
            weights.dtype, copy=False
        )
        return np.clip(noisy, 0.0, network.w_max)

    return corrupt


def _reference_train(network, images, n_steps, rng, corrupt, stdp=None):
    """One epoch of the pre-refactor sequential loop, on the per-step oracle.

    Ground truth for the ``batch_size=1`` identity gate and the baseline
    of ``sequential_speedup_vs_oracle``.
    """
    stdp = stdp or make_stdp(network)
    order = rng.permutation(len(images))
    for i in order:
        train = poisson_rate_code(images[i], n_steps, rng=rng)
        clean = network.weights
        corrupted = np.asarray(corrupt(clean), dtype=network.dtype)
        network.weights = corrupted.copy()
        reference_run_sample(network, train, stdp, normalize=False)
        delta = network.weights - corrupted
        network.weights = np.clip(clean + delta, 0.0, network.w_max)
        if network.parameters.weight_norm > 0:
            normalize_columns(network.weights, network.parameters.weight_norm)


def _best_epoch(train_epoch, repeats):
    """Best of ``repeats`` timed epochs, after one untimed warmup epoch."""
    train_epoch()
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        train_epoch()
        best = min(best, time.perf_counter() - started)
    return best


def _kernel(oracle):
    """Minibatches run on the fused kernel, or on the oracle loop."""
    return minibatch_oracle() if oracle else contextlib.nullcontext()


def _time_trainer(scenario, batch_size, repeats, oracle=False):
    """Best steady-state epoch seconds of one engine configuration.

    One trainer serves warmup + all timed epochs, the way the training
    engine runs in a fault-aware sweep (many epochs x BER stages per
    trainer): the minibatch machinery, fused workspaces and first-touch
    costs are paid once, outside the timed region.
    """
    images = _images(scenario)
    network = _network(scenario)
    trainer = BatchedTrainer(
        network, batch_size=batch_size, corrupt_weights=_corrupter(network)
    )
    rng = np.random.default_rng(99)
    with _kernel(oracle):
        return _best_epoch(
            lambda: trainer.train(
                images, n_steps=scenario["n_steps"], epochs=1, rng=rng
            ),
            repeats,
        )


def _time_oracle(scenario, repeats):
    """Best steady-state epoch seconds of the per-step oracle at B=1."""
    images = _images(scenario)
    network = _network(scenario)
    stdp = make_stdp(network)
    corrupt = _corrupter(network)
    rng = np.random.default_rng(99)
    return _best_epoch(
        lambda: _reference_train(
            network, images, scenario["n_steps"], rng, corrupt, stdp
        ),
        repeats,
    )


def _trained_network(scenario, batch_size, oracle=False):
    """One fresh-trainer epoch at a fixed seed (for the identity gates)."""
    network = _network(scenario)
    trainer = BatchedTrainer(
        network, batch_size=batch_size, corrupt_weights=_corrupter(network)
    )
    with _kernel(oracle):
        trainer.train(
            _images(scenario), n_steps=scenario["n_steps"], epochs=1,
            rng=np.random.default_rng(99),
        )
    return network


def _same_state(a, b) -> bool:
    return bool(
        np.array_equal(a.weights, b.weights)
        and np.array_equal(a.neurons.theta, b.neurons.theta)
    )


def run_benchmark(quick: bool, repeats: int) -> dict:
    scenarios = QUICK_SCENARIOS if quick else FULL_SCENARIOS
    fused_kernel = "numba" if HAVE_NUMBA else "numpy"
    results = []
    for scenario in scenarios:
        n_train = scenario["n_train"]
        batch = scenario["batch_size"]
        row = dict(scenario, n_input=784, fused_kernel=fused_kernel)

        # Bit-identity gates: batch_size=1 must equal the per-step
        # oracle loop; the fused kernel must equal the minibatch
        # reference.
        ref_net = _network(scenario)
        _reference_train(
            ref_net, _images(scenario), scenario["n_steps"],
            np.random.default_rng(99), _corrupter(ref_net),
        )
        row["sequential_matches_reference"] = _same_state(
            ref_net, _trained_network(scenario, 1)
        )
        row["fused_matches_batched"] = _same_state(
            _trained_network(scenario, batch, oracle=True),
            _trained_network(scenario, batch),
        )

        oracle_seconds = _time_oracle(scenario, repeats)
        seq_seconds = _time_trainer(scenario, 1, repeats)
        batch_seconds = _time_trainer(scenario, batch, repeats, oracle=True)
        fused_seconds = _time_trainer(scenario, batch, repeats)

        row["oracle_seconds"] = oracle_seconds
        row["sequential_seconds"] = seq_seconds
        row["sequential_samples_per_sec"] = n_train / seq_seconds
        row["sequential_speedup_vs_oracle"] = oracle_seconds / seq_seconds
        row["batched_seconds"] = batch_seconds
        row["batched_samples_per_sec"] = n_train / batch_seconds
        row["speedup"] = seq_seconds / batch_seconds
        row["fused_seconds"] = fused_seconds
        row["fused_samples_per_sec"] = n_train / fused_seconds
        row["fused_speedup"] = seq_seconds / fused_seconds
        results.append(row)
        print(
            f"N{scenario['n_neurons']:<4} {scenario['dtype']:<8} "
            f"B={batch:<3} {n_train:>3} samples | "
            f"sequential {row['sequential_samples_per_sec']:7.1f}/s "
            f"({row['sequential_speedup_vs_oracle']:4.2f}x oracle) | "
            f"batched {row['batched_samples_per_sec']:7.1f}/s "
            f"({row['speedup']:5.2f}x) | "
            f"fused[{fused_kernel}] {row['fused_samples_per_sec']:7.1f}/s "
            f"({row['fused_speedup']:5.2f}x) | "
            f"seq-identical={row['sequential_matches_reference']} "
            f"fused-identical={row['fused_matches_batched']}"
        )
    return {
        "benchmark": "repro.engine.trainer sequential-vs-minibatch throughput",
        "quick": quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "scenarios": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small scenarios for CI smoke runs")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed epochs per engine; the best is reported")
    parser.add_argument("--out", default="BENCH_training.json", metavar="PATH",
                        help="output JSON path (default: ./BENCH_training.json)")
    args = parser.parse_args(argv)
    if args.repeats <= 0:
        parser.error("--repeats must be > 0")

    payload = run_benchmark(args.quick, args.repeats)
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"results written to {out}")

    failed = False
    if not all(r["sequential_matches_reference"] for r in payload["scenarios"]):
        print("ERROR: batch_size=1 diverged from the per-step oracle loop",
              file=sys.stderr)
        failed = True
    if not all(r["fused_matches_batched"] for r in payload["scenarios"]):
        print("ERROR: fused kernel diverged from the minibatch reference",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
