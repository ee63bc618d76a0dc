//! Accuracy sweep (the Fig. 4 scenario): train CNNs in exact float32,
//! then evaluate the same weights under exact bf16 and every DAISM
//! multiplier configuration.
//!
//! Run with: `cargo run --release --example accuracy_sweep`

use daism::dnn::{datasets, models, train};
use daism::{ApproxFpMul, ExactMul, FpFormat, MultiplierConfig, QuantizedExactMul, ScalarMul};

fn main() {
    let data = datasets::shapes(12, 400, 160, 99);
    println!(
        "dataset: 4-class 12x12 shape images, {} train / {} test",
        data.train_len(),
        data.test_len()
    );

    let mut model = models::mini_vgg(12, 4);
    let params = train::TrainParams { epochs: 8, ..Default::default() };
    println!("training MiniVGG in exact float32 ({} epochs)...", params.epochs);
    let history = train::fit(&mut model, &data, &ExactMul, &params);
    println!(
        "final training loss {:.3}, training accuracy {:.1}%\n",
        history.loss.last().unwrap(),
        100.0 * history.train_acc.last().unwrap()
    );

    let mut backends: Vec<Box<dyn ScalarMul>> =
        vec![Box::new(ExactMul), Box::new(QuantizedExactMul::new(FpFormat::BF16))];
    for config in MultiplierConfig::ALL {
        backends.push(Box::new(ApproxFpMul::new(config, FpFormat::BF16)));
    }

    println!("{:<22} {:>10}", "inference backend", "accuracy");
    for backend in &backends {
        let acc = train::accuracy(&model, &data.test_x, &data.test_y, backend.as_ref());
        println!("{:<22} {:>9.1}%", backend.name(), 100.0 * acc);
    }
    println!("\nThe Fig. 4 claim: the PC3 rows should sit within a few points of float32/exact.");
}
