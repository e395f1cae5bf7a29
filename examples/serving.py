"""Warm serving sessions: calibrate once, stream many runs.

The paper's readout datapath is persistent — calibrated once, then
discriminating shots continuously. `repro.serve` mirrors that shape:
a declarative `ServeSpec` describes the whole session (traffic, cluster
topology, batching, calibration), and a `ReadoutService` warms once and
serves repeated runs with zero refits.

The same spec can live in a JSON file (see `examples/serve_spec.json`)
and drive the CLI instead::

    PYTHONPATH=src python -m repro serve --spec examples/serve_spec.json \
        --repeat 3 --json session.json
"""

from __future__ import annotations

from repro.serve import (
    BatchingSpec,
    ClusterSpec,
    ReadoutService,
    ServeSpec,
    TrafficSpec,
)


def main() -> None:
    # One frozen spec is the single source of truth: serve_once(spec),
    # ReadoutService and `repro serve --spec` all take this same object.
    # (Sections left out take defaults; ServeSpec.from_file loads the
    # identical structure from JSON.)
    spec = ServeSpec(
        traffic=TrafficSpec(shots=200, chunk_size=50),
        cluster=ClusterSpec(qubits_per_feedline=2),
        batching=BatchingSpec(batch_size=50),
    )

    # The context manager warms the session: the discriminator is fitted
    # (or loaded from a registry) and shard pools spawn *before* the
    # first run, so every run below is pure serving.
    with ReadoutService(spec) as service:
        print(
            f"warmed in {service.stats.warm_seconds:.2f} s "
            f"({service.stats.cold_fits} cold fit(s))\n"
        )
        for _ in range(3):
            report = service.run()  # same traffic, zero refits
            print(
                f"run {service.stats.n_runs - 1}: "
                f"{report.shots_per_second:,.0f} shots/s, "
                f"accuracy {report.accuracy:.4f}"
            )
        print()
        print(service.stats.format_table())


if __name__ == "__main__":
    main()
