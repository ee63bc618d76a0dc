//! Fig. 4: accuracy of CNNs under `bfloat16` approximate multiplication
//! vs the exact `float32` baseline.
//!
//! Substitution: the paper evaluates pretrained ImageNet
//! models; we train small models on deterministic synthetic tasks
//! in-repo, then evaluate the *same weights* under every backend. The
//! reported series has the same shape as the paper's figure: per-model
//! baseline accuracy vs approximate accuracy.

use daism_core::{ApproxFpMul, ExactMul, MultiplierConfig, QuantizedExactMul, ScalarMul};
use daism_dnn::{datasets, models, train, Sequential};
use daism_num::FpFormat;
use std::fmt;

/// Experiment scale: `Quick` for unit tests, `Full` for the binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small datasets / few epochs (seconds, debug-friendly).
    Quick,
    /// The full run the `fig4` binary prints by default (release build).
    Full,
}

/// Accuracy of one model under one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Model name.
    pub model: String,
    /// Backend name (`float32/exact`, `bfloat16/PC3_tr`, …).
    pub backend: String,
    /// Test accuracy in `[0, 1]`.
    pub accuracy: f32,
}

/// The figure: accuracy per model × backend.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// All accuracy entries.
    pub entries: Vec<Entry>,
    /// Model names in evaluation order.
    pub models: Vec<String>,
}

impl Fig4 {
    /// Accuracy of `model` under `backend` (substring match on backend).
    pub fn accuracy(&self, model: &str, backend: &str) -> Option<f32> {
        self.entries
            .iter()
            .find(|e| e.model == model && e.backend.contains(backend))
            .map(|e| e.accuracy)
    }
}

fn backends() -> Vec<Box<dyn ScalarMul>> {
    let mut v: Vec<Box<dyn ScalarMul>> =
        vec![Box::new(ExactMul), Box::new(QuantizedExactMul::new(FpFormat::BF16))];
    for config in MultiplierConfig::ALL {
        v.push(Box::new(ApproxFpMul::new(config, FpFormat::BF16)));
    }
    v
}

fn evaluate_model(
    name: &str,
    model: &mut Sequential,
    data: &datasets::Dataset,
    params: &train::TrainParams,
    entries: &mut Vec<Entry>,
) {
    // Train once, in exact float32 — the paper's models are trained in
    // full precision and only *inference* runs on DAISM in Fig. 4.
    train::fit(model, data, &ExactMul, params);
    for backend in backends() {
        let acc = train::accuracy(model, &data.test_x, &data.test_y, backend.as_ref());
        entries.push(Entry { model: name.to_string(), backend: backend.name(), accuracy: acc });
    }
}

/// Runs the Fig. 4 experiment at the given scale.
pub fn run(scale: Scale) -> Fig4 {
    // The full run uses harder (noisier) tasks so baselines land in the
    // 85-98% band instead of saturating — otherwise the approximate-vs-
    // exact comparison is vacuous.
    let (blob_train, blob_test, img_train, img_test, epochs, blob_spread, img_noise) = match scale {
        Scale::Quick => (200, 80, 120, 60, 4, 0.7, 0.25),
        Scale::Full => (1200, 400, 600, 240, 12, 1.3, 0.65),
    };
    let params = train::TrainParams { epochs, ..Default::default() };
    let mut entries = Vec::new();

    let blobs = datasets::gaussian_blobs_spread(4, 16, blob_train, blob_test, 1001, blob_spread);
    let mut mlp = models::mlp(16, 24, 4, 2);
    evaluate_model("MLP(blobs)", &mut mlp, &blobs, &params, &mut entries);

    let imgs = datasets::shapes_noisy(12, img_train, img_test, 2002, img_noise);
    let mut vgg = models::mini_vgg(12, 4);
    evaluate_model("MiniVGG(shapes)", &mut vgg, &imgs, &params, &mut entries);

    // Residual nets without normalisation layers need a gentler step on
    // noisy data (the skip path doubles the effective gradient scale).
    let resnet_params = train::TrainParams { lr: 0.015, ..params.clone() };
    let mut resnet = models::tiny_resnet(12, 4);
    evaluate_model("TinyResNet(shapes)", &mut resnet, &imgs, &resnet_params, &mut entries);

    Fig4 {
        entries,
        models: vec!["MLP(blobs)".into(), "MiniVGG(shapes)".into(), "TinyResNet(shapes)".into()],
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 4: accuracy under approximate bfloat16 multipliers vs float32 baseline")?;
        writeln!(f, "{:<20} {:<20} {:>9}", "model", "backend", "accuracy")?;
        for e in &self.entries {
            writeln!(f, "{:<20} {:<20} {:>8.1}%", e.model, e.backend, 100.0 * e.accuracy)?;
        }
        writeln!(f)?;
        writeln!(f, "Per-model summary (baseline vs PC3_tr, the paper's configuration):")?;
        for m in &self.models {
            let base = self.accuracy(m, "float32/exact").unwrap_or(0.0);
            let pc3 = self.accuracy(m, "PC3_tr").unwrap_or(0.0);
            writeln!(
                f,
                "  {:<20} float32 {:>5.1}%  ->  bf16 PC3_tr {:>5.1}%  (drop {:+.1} pts)",
                m,
                100.0 * base,
                100.0 * pc3,
                100.0 * (pc3 - base)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_fig4_shape() {
        let f = run(Scale::Quick);
        // Every model has every backend.
        assert_eq!(f.entries.len(), 3 * 7);
        for m in &f.models {
            let base = f.accuracy(m, "float32/exact").unwrap();
            let pc3 = f.accuracy(m, "PC3_tr").unwrap();
            // Models actually learned…
            assert!(base > 0.5, "{m}: baseline {base}");
            // …and PC3_tr stays close to the baseline (Fig. 4's claim:
            // "minimal to no degradation in model accuracy").
            assert!(pc3 > base - 0.25, "{m}: PC3_tr {pc3} vs base {base}");
        }
    }

    #[test]
    fn pc3_no_worse_than_fla_on_average() {
        let f = run(Scale::Quick);
        let avg = |needle: &str| {
            let v: Vec<f32> = f
                .entries
                .iter()
                .filter(|e| e.backend.contains(needle))
                .map(|e| e.accuracy)
                .collect();
            v.iter().sum::<f32>() / v.len() as f32
        };
        // Mean across models: deeper pre-computation never hurts.
        assert!(avg("PC3") >= avg("FLA") - 0.05);
    }

    #[test]
    fn render_contains_summary() {
        let f = run(Scale::Quick);
        let s = f.to_string();
        assert!(s.contains("PC3_tr"));
        assert!(s.contains("drop"));
    }
}
