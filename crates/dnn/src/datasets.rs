//! Deterministic synthetic datasets — the substitution for ImageNet
//! described in the crate docs: small classification tasks whose
//! accuracy under approximate arithmetic can be compared to an exact
//! baseline.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A train/test split with integer class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Training inputs (first dimension = samples).
    pub train_x: Tensor,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Test inputs.
    pub test_x: Tensor,
    /// Test labels.
    pub test_y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Training sample count.
    pub fn train_len(&self) -> usize {
        self.train_y.len()
    }

    /// Test sample count.
    pub fn test_len(&self) -> usize {
        self.test_y.len()
    }
}

/// Isotropic Gaussian clusters in `dim` dimensions — the MLP task.
///
/// Cluster centres are placed deterministically on a scaled hypercube
/// so classes are separable but not trivially so.
pub fn gaussian_blobs(classes: usize, dim: usize, train: usize, test: usize, seed: u64) -> Dataset {
    gaussian_blobs_spread(classes, dim, train, test, seed, 0.7)
}

/// [`gaussian_blobs`] with an explicit noise half-width: larger `spread`
/// makes classes overlap (used by the full-scale Fig. 4 run so the
/// baseline does not saturate at 100 %).
pub fn gaussian_blobs_spread(
    classes: usize,
    dim: usize,
    train: usize,
    test: usize,
    seed: u64,
    spread: f32,
) -> Dataset {
    assert!(classes >= 2 && dim >= 1);
    assert!(spread > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centres = Vec::with_capacity(classes);
    for c in 0..classes {
        let centre: Vec<f32> = (0..dim)
            .map(|d| {
                // Deterministic corner-ish placement plus jitter.
                let corner = if (c >> (d % classes.max(1))) & 1 == 1 { 1.0 } else { -1.0 };
                corner + 0.3 * rng.gen_range(-1.0f32..1.0)
            })
            .collect();
        centres.push(centre);
    }
    let mut make = |count: usize| {
        let mut xs = Vec::with_capacity(count * dim);
        let mut ys = Vec::with_capacity(count);
        for i in 0..count {
            let c = i % classes;
            for &centre in &centres[c] {
                xs.push(centre + rng.gen_range(-spread..spread));
            }
            ys.push(c);
        }
        (Tensor::from_vec(xs, &[count, dim]), ys)
    };
    let (train_x, train_y) = make(train);
    let (test_x, test_y) = make(test);
    Dataset { train_x, train_y, test_x, test_y, classes }
}

/// Grayscale `1×size×size` images of four shapes (square outline, filled
/// diamond, cross, horizontal stripes) with additive noise — the CNN
/// task standing in for ImageNet object classes.
pub fn shapes(size: usize, train: usize, test: usize, seed: u64) -> Dataset {
    shapes_noisy(size, train, test, seed, 0.25)
}

/// [`shapes`] with an explicit additive-noise amplitude.
pub fn shapes_noisy(size: usize, train: usize, test: usize, seed: u64, noise: f32) -> Dataset {
    assert!(size >= 8, "shapes need at least 8x8 images");
    assert!(noise >= 0.0);
    let classes = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut make = |count: usize| {
        let mut xs = vec![0.0f32; count * size * size];
        let mut ys = Vec::with_capacity(count);
        for i in 0..count {
            let c = i % classes;
            let img = &mut xs[i * size * size..(i + 1) * size * size];
            draw_shape(img, size, c, &mut rng);
            for v in img.iter_mut() {
                *v += rng.gen_range(-noise..noise.max(1e-6));
            }
            ys.push(c);
        }
        (Tensor::from_vec(xs, &[count, 1, size, size]), ys)
    };
    let (train_x, train_y) = make(train);
    let (test_x, test_y) = make(test);
    Dataset { train_x, train_y, test_x, test_y, classes }
}

fn draw_shape(img: &mut [f32], size: usize, class: usize, rng: &mut StdRng) {
    let margin = 1 + rng.gen_range(0..(size / 4).max(1));
    let lo = margin;
    let hi = size - 1 - margin;
    let mid = size / 2;
    match class {
        0 => {
            // Square outline.
            for t in lo..=hi {
                img[lo * size + t] = 1.0;
                img[hi * size + t] = 1.0;
                img[t * size + lo] = 1.0;
                img[t * size + hi] = 1.0;
            }
        }
        1 => {
            // Filled diamond around the centre.
            let r = (hi - lo) / 2;
            for i in 0..size {
                for j in 0..size {
                    let d = i.abs_diff(mid) + j.abs_diff(mid);
                    if d <= r {
                        img[i * size + j] = 1.0;
                    }
                }
            }
        }
        2 => {
            // Cross.
            for t in lo..=hi {
                img[t * size + mid] = 1.0;
                img[mid * size + t] = 1.0;
            }
        }
        _ => {
            // Horizontal stripes.
            let mut i = lo;
            while i <= hi {
                for j in lo..=hi {
                    img[i * size + j] = 1.0;
                }
                i += 2;
            }
        }
    }
}

/// Interleaved 2-D spirals — a compact non-linear benchmark for the
/// training-under-approximation experiment.
pub fn spiral(classes: usize, train: usize, test: usize, seed: u64) -> Dataset {
    assert!(classes >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut make = |count: usize| {
        let mut xs = Vec::with_capacity(count * 2);
        let mut ys = Vec::with_capacity(count);
        for i in 0..count {
            let c = i % classes;
            let t = rng.gen_range(0.25f32..1.0);
            let angle = t * 3.5 * std::f32::consts::PI
                + (c as f32) * 2.0 * std::f32::consts::PI / classes as f32;
            let r = t * 2.0;
            xs.push(r * angle.cos() + rng.gen_range(-0.05f32..0.05));
            xs.push(r * angle.sin() + rng.gen_range(-0.05f32..0.05));
            ys.push(c);
        }
        (Tensor::from_vec(xs, &[count, 2]), ys)
    };
    let (train_x, train_y) = make(train);
    let (test_x, test_y) = make(test);
    Dataset { train_x, train_y, test_x, test_y, classes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_shapes_and_determinism() {
        let a = gaussian_blobs(3, 8, 30, 12, 5);
        assert_eq!(a.train_x.shape(), &[30, 8]);
        assert_eq!(a.test_x.shape(), &[12, 8]);
        assert_eq!(a.train_len(), 30);
        assert_eq!(a.classes, 3);
        let b = gaussian_blobs(3, 8, 30, 12, 5);
        assert_eq!(a, b);
        let c = gaussian_blobs(3, 8, 30, 12, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn blobs_balanced_classes() {
        let d = gaussian_blobs(4, 4, 40, 20, 1);
        for c in 0..4 {
            assert_eq!(d.train_y.iter().filter(|&&y| y == c).count(), 10);
        }
    }

    #[test]
    fn shapes_images_have_signal() {
        let d = shapes(12, 8, 4, 3);
        assert_eq!(d.train_x.shape(), &[8, 1, 12, 12]);
        assert_eq!(d.classes, 4);
        // Every image has some bright pixels.
        for i in 0..8 {
            let img = &d.train_x.data()[i * 144..(i + 1) * 144];
            let bright = img.iter().filter(|&&v| v > 0.5).count();
            assert!(bright > 5, "image {i} looks empty");
        }
    }

    #[test]
    fn shapes_classes_are_distinct() {
        // Mean images of different classes must differ substantially.
        let d = shapes(12, 40, 4, 7);
        let mean_img = |class: usize| -> Vec<f32> {
            let mut acc = vec![0.0f32; 144];
            let mut n = 0;
            for (i, &y) in d.train_y.iter().enumerate() {
                if y == class {
                    for (a, v) in acc.iter_mut().zip(&d.train_x.data()[i * 144..(i + 1) * 144]) {
                        *a += v;
                    }
                    n += 1;
                }
            }
            acc.iter().map(|v| v / n as f32).collect()
        };
        let m0 = mean_img(0);
        let m1 = mean_img(1);
        let diff: f32 = m0.iter().zip(&m1).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 10.0, "class means too similar: {diff}");
    }

    #[test]
    fn spiral_is_deterministic() {
        let a = spiral(2, 50, 20, 9);
        let b = spiral(2, 50, 20, 9);
        assert_eq!(a, b);
        assert_eq!(a.train_x.shape(), &[50, 2]);
    }
}
