"""Schema validation of run logs (the contract tools/ci.sh enforces)."""

import json

from repro.obs import validate_event, validate_run_dir
from repro.obs.schema import EVENT_SCHEMA


def envelope(kind, **fields):
    return {"seq": 0, "ts": 1.0, "kind": kind, **fields}


class TestValidateEvent:
    def test_valid_events_for_every_kind(self):
        samples = {
            "step": envelope("step", epoch=0, step=1, loss=0.5, grad_norm=1.0),
            "epoch": envelope("epoch", epoch=0, train_loss=0.5, validation_loss=0.6, grad_norm=1.0),
            "early_stop": envelope("early_stop", epoch=3, patience=2),
            "d_step": envelope(
                "d_step", epoch=0, step=0, loss=0.1, real_prob=0.6, fake_prob=0.4, grad_norm=1.0
            ),
            "p_step": envelope(
                "p_step",
                epoch=0,
                step=0,
                loss=1.0,
                mse_loss=0.5,
                adv_loss=0.5,
                adv_share=0.5,
                grad_norm=1.0,
                fake_std=0.2,
            ),
            "adv_epoch": envelope(
                "adv_epoch",
                epoch=0,
                predictor_loss=1.0,
                mse_loss=0.5,
                adversarial_loss=0.5,
                discriminator_loss=1.3,
                discriminator_real_prob=0.6,
                discriminator_fake_prob=0.4,
                predictor_grad_norm=1.0,
                discriminator_grad_norm=1.0,
            ),
            "model_fit": envelope("model_fit", name="APOTS_H"),
            "warning": envelope("warning", code="d_saturation", message="D won"),
            "attack_step": envelope("attack_step", attack="pgd", epsilon=5.0, step=0, loss=1.2),
            "robustness_summary": envelope(
                "robustness_summary",
                attack="pgd",
                epsilon=5.0,
                num_samples=128,
                clean_mae=3.1,
                attacked_mae=4.2,
                clean_rmse=4.0,
                attacked_rmse=5.3,
                clean_mape=6.5,
                attacked_mape=8.9,
            ),
            "adv_train_step": envelope(
                "adv_train_step",
                epoch=0,
                step=2,
                epsilon=5.0,
                num_perturbed=8,
                num_samples=16,
                clean_loss=0.4,
                robust_loss=0.7,
                max_abs_delta_kmh=4.9,
            ),
            "robustness_delta": envelope(
                "robustness_delta",
                attack="pgd",
                epsilon=5.0,
                attacked_mae_before=4.2,
                attacked_mae_after=3.6,
                clean_mae_before=3.1,
                clean_mae_after=3.2,
            ),
            "pool_task_start": envelope("pool_task_start", task=0, attempt=0, worker=1),
            "pool_task_end": envelope(
                "pool_task_end", task=0, attempt=0, worker=1, duration_s=0.25
            ),
            "pool_task_retry": envelope(
                "pool_task_retry", task=0, attempt=0, reason="worker died (exitcode -9)"
            ),
            "fleet_shard_lost": envelope(
                "fleet_shard_lost",
                shard=1,
                method="predict_batch",
                reason="group worker 0 died mid-call during 'predict_batch' (exitcode 21)",
            ),
            "fleet_ingest_rejected": envelope(
                "fleet_ingest_rejected",
                reason="segment 3: stream skipped steps 5..6; call reset_segment(3) to restart the stream",
                count=1022,
            ),
            "fleet_shed": envelope(
                "fleet_shed", shard=0, count=3, queue_depth=8, reason="queue full"
            ),
            "fleet_drain": envelope(
                "fleet_drain", served=12, shed=3, max_queue_depth=8, duration_s=0.02
            ),
            "fleet_loadgen_summary": envelope(
                "fleet_loadgen_summary",
                rate=10.0,
                offered=120,
                served=100,
                shed=20,
                shed_rate=0.1667,
                offered_qps=950.0,
                served_qps=790.0,
                p50_ms=1.2,
                p99_ms=26.0,
            ),
            "fleet_swap": envelope("fleet_swap", shards_swapped=2, fingerprint="ab12"),
            "fleet_swap_refused": envelope(
                "fleet_swap_refused", reason="checkpoint lacks scaler state"
            ),
            "blas_threads_unpinned": envelope(
                "blas_threads_unpinned", library="libscipy_openblas64_.so"
            ),
            "drift_error": envelope(
                "drift_error",
                samples=64,
                regime="whole",
                rolling_mae=6.1,
                baseline_mae=3.0,
                ratio=2.03,
                threshold=1.5,
                breaches=2,
                triggered=False,
            ),
            "drift_input": envelope(
                "drift_input",
                samples=256,
                psi=0.31,
                psi_threshold=0.25,
                mean_kmh=48.0,
                reference_mean_kmh=71.0,
                conditioned=True,
                breaches=3,
                triggered=True,
            ),
            "network_build": envelope(
                "network_build", segments=48, junctions=16, zones=4, bfs_ordered=True
            ),
            "network_simulate": envelope(
                "network_simulate", scenario="baseline", segments=48, steps=576, duration_s=0.8
            ),
            "network_kpis": envelope(
                "network_kpis",
                scenario="stress",
                vkt=3.5e6,
                vht=1.0e5,
                mean_speed_kmh=50.7,
                congested_share=0.066,
                spillback_onsets=137,
            ),
            "network_train": envelope(
                "network_train",
                model="APOTS_F",
                targets=4,
                windows=1104,
                k=2,
                duration_s=1.7,
                fingerprint="aadb6c38319926459f242de0",
            ),
            "network_stress": envelope(
                "network_stress",
                model="APOTS_F",
                phase="cascade",
                samples=132,
                baseline_mae=5.9,
                stressed_mae=9.7,
                degradation=1.64,
            ),
            "mlops_trigger": envelope(
                "mlops_trigger", monitor="error", reason="mae ratio 2.03", step=410, seed=7
            ),
            "mlops_retrain_start": envelope(
                "mlops_retrain_start", seed=7, num_windows=320, epochs=2
            ),
            "mlops_retrain_end": envelope(
                "mlops_retrain_end", status="ok", num_windows=320, duration_s=4.2
            ),
            "mlops_shadow": envelope(
                "mlops_shadow",
                champion_mae=6.1,
                challenger_mae=3.4,
                rel_improvement=0.44,
                num_samples=80,
                promote=True,
                reason="rel improvement 0.44 >= 0.02",
            ),
            "mlops_swap": envelope(
                "mlops_swap", fingerprint="cd34", previous_fingerprint="ab12", shards=2
            ),
            "mlops_rollback": envelope(
                "mlops_rollback",
                fingerprint="cd34",
                restored_fingerprint="ab12",
                rolling_mae=9.4,
                guard_mae=3.1,
            ),
        }
        assert set(samples) == set(EVENT_SCHEMA)
        for kind, event in samples.items():
            assert validate_event(event) == [], kind

    def test_missing_envelope(self):
        errors = validate_event({"kind": "model_fit", "name": "x"})
        assert any("seq" in e for e in errors) and any("ts" in e for e in errors)

    def test_unknown_kind(self):
        assert validate_event(envelope("mystery")) == ["unknown event kind 'mystery'"]

    def test_missing_required_field(self):
        errors = validate_event(envelope("warning", code="x"))
        assert errors == ["warning: field 'message' missing or not str"]

    def test_bool_is_not_numeric(self):
        errors = validate_event(envelope("step", epoch=0, step=1, loss=True, grad_norm=1.0))
        assert any("loss" in e for e in errors)

    def test_nan_loss_is_valid(self):
        event = envelope("step", epoch=0, step=1, loss=float("nan"), grad_norm=1.0)
        assert validate_event(event) == []


class TestValidateRunDir:
    def write_run(self, tmp_path, manifest=None, lines=()):
        if manifest is not None:
            (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "events.jsonl").write_text("\n".join(lines) + "\n" if lines else "")
        return tmp_path

    def good_manifest(self):
        return {"run_id": "r", "started_at": 0.0, "git": None, "python": "3", "numpy": "1"}

    def test_valid_run(self, tmp_path):
        self.write_run(
            tmp_path,
            manifest=self.good_manifest(),
            lines=[json.dumps(envelope("model_fit", name="x"))],
        )
        assert validate_run_dir(tmp_path) == []

    def test_missing_files(self, tmp_path):
        errors = validate_run_dir(tmp_path)
        assert "manifest.json missing" in errors and "events.jsonl missing" in errors

    def test_manifest_missing_field(self, tmp_path):
        manifest = self.good_manifest()
        del manifest["run_id"]
        self.write_run(tmp_path, manifest=manifest)
        assert any("run_id" in e for e in validate_run_dir(tmp_path))

    def test_bad_json_line_located(self, tmp_path):
        self.write_run(tmp_path, manifest=self.good_manifest(), lines=["{not json"])
        errors = validate_run_dir(tmp_path)
        assert any(e.startswith("events.jsonl:1:") for e in errors)

    def test_non_monotonic_seq(self, tmp_path):
        first = json.dumps({**envelope("model_fit", name="a"), "seq": 5})
        second = json.dumps({**envelope("model_fit", name="b"), "seq": 5})
        self.write_run(tmp_path, manifest=self.good_manifest(), lines=[first, second])
        assert any("not monotonic" in e for e in validate_run_dir(tmp_path))
