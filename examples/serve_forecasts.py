"""Online serving: train a model, checkpoint it, serve a live stream.

Trains a small APOTS model on simulated corridor traffic, saves it with
the zoo (scalers included), rebuilds a
:class:`repro.serving.ForecastService` from the checkpoint alone, then
replays the held-out final day as an observation stream — printing live
forecasts against what actually happened, and the telemetry snapshot an
operator dashboard would scrape.

Run with::

    python examples/serve_forecasts.py [preset]

where ``preset`` is ``smoke`` (default), ``medium`` or ``paper``.
"""

import json
import sys
import tempfile

from repro import APOTS, FeatureConfig, SimulationConfig, TrafficDataset, simulate
from repro.core import save_model
from repro.serving import ForecastService, Observation


def observation(series, segment: int, step: int) -> Observation:
    """What a roadside feed would emit for one segment at one tick."""
    return Observation(
        segment_id=segment,
        step=step,
        speed_kmh=float(series.speeds[segment, step]),
        event=float(series.events[segment, step]),
        temperature=float(series.temperature[step]),
        precipitation=float(series.precipitation[step]),
        day_type=tuple(series.day_types[step]),
    )


def main(preset: str = "smoke") -> None:
    # 1. Simulate 8 days; the final day is held out as the live stream.
    print("simulating corridor traffic ...")
    series = simulate(SimulationConfig(num_days=8, seed=2018))
    steps_per_day = 24 * 60 // series.interval_minutes
    history = series.slice_steps(0, series.num_steps - steps_per_day)
    target = series.corridor.target_index

    # 2. Train on the first 7 days and write a zoo checkpoint.
    print(f"training APOTS predictor at preset={preset!r} ...")
    features = FeatureConfig(alpha=12, beta=1, m=2)
    dataset = TrafficDataset(history, features, seed=0)
    model = APOTS(predictor="F", adversarial=False, preset=preset, seed=0)
    model.fit(dataset)

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        save_model(model, checkpoint_dir)

        # 3. Serve from the checkpoint alone: the manifest carries the
        #    fitted scalers, so raw km/h observations go straight in.
        service = ForecastService.from_checkpoint(
            checkpoint_dir, num_segments=series.num_segments
        )

        # 4. Replay the held-out day tick by tick.  Every tick ingests one
        #    observation per segment and asks for the whole corridor's
        #    forecasts in one micro-batched call; the target road is also
        #    queried a few extra times to exercise the cache, as many
        #    dashboard users would.
        print("replaying the held-out day as a live stream ...\n")
        first = series.num_steps - steps_per_day
        print(f"  {'time':>7s} {'observed':>9s} {'forecast':>9s} {'error':>7s}  source")
        for step in range(first, series.num_steps):
            service.ingest_many(
                observation(series, segment, step)
                for segment in range(series.num_segments)
            )
            forecasts = service.predict_many(range(series.num_segments))
            for _ in range(4):  # repeated dashboard queries within the tick
                service.predict(target)
            forecast = forecasts[target]
            if forecast.target_step < series.num_steps and step % 24 == 0:
                observed = series.speeds[target, forecast.target_step]
                stamp = series.timestamps[forecast.target_step].strftime("%H:%M")
                flag = "naive" if forecast.degraded else "model"
                print(
                    f"  {stamp:>7s} {observed:8.1f} {forecast.speed_kmh:9.1f} "
                    f"{forecast.speed_kmh - observed:+7.1f}  {flag}"
                )

        # 5. The operator's view: counters, latency percentiles, batch
        #    sizes and cache efficiency.
        print("\ntelemetry snapshot after one day of serving:")
        print(json.dumps(service.snapshot(), indent=2, default=float))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "smoke")
