use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense row-major `f32` tensor with a dynamic shape.
///
/// Deliberately minimal: shape bookkeeping, element access and
/// deterministic initialisation. All arithmetic lives in the layer
/// implementations so that every matrix product runs on a
/// [`GemmBackend`](daism_core::GemmBackend).
///
/// # Examples
///
/// ```
/// use daism_dnn::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3]);
/// t[(1, 2)] = 5.0;
/// assert_eq!(t.data()[5], 5.0);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// An all-zero tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = check_shape(shape);
        Tensor { data: vec![0.0; len], shape: shape.to_vec() }
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let len = check_shape(shape);
        assert_eq!(data.len(), len, "data length {} != shape product {len}", data.len());
        Tensor { data, shape: shape.to_vec() }
    }

    /// Deterministic Gaussian init (Box-Muller over a seeded `StdRng`)
    /// with the given standard deviation — used for Kaiming-style layer
    /// initialisation.
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Self {
        let len = check_shape(shape);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..len)
            .map(|_| {
                let u1: f32 = rng.gen_range(1e-7f32..1.0);
                let u2: f32 = rng.gen_range(0.0f32..1.0);
                std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
            })
            .collect();
        Tensor { data, shape: shape.to_vec() }
    }

    /// The shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor has no elements (never: shapes are
    /// validated non-empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let len = check_shape(shape);
        assert_eq!(self.data.len(), len, "cannot reshape {:?} to {shape:?}", self.shape);
        Tensor { data: self.data.clone(), shape: shape.to_vec() }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&v| f(v)).collect(), shape: self.shape.clone() }
    }

    /// Elementwise sum with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        Tensor {
            data: self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Flat offset of a 4-D index (NCHW order).
    #[inline]
    pub fn offset4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 4);
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Largest-element index along the last axis for each leading row —
    /// the classifier argmax.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2, "argmax_rows needs a 2-D tensor");
        let cols = self.shape[1];
        self.data
            .chunks(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

impl std::ops::Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &self.data[r * self.shape[1] + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        &mut self.data[r * self.shape[1] + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?} ({} elements)", self.shape, self.len())
    }
}

fn check_shape(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "tensor shape cannot be empty");
    assert!(shape.iter().all(|&d| d > 0), "tensor shape {shape:?} has a zero dimension");
    shape.iter().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.len(), 12);
        t[(2, 3)] = 7.0;
        assert_eq!(t[(2, 3)], 7.0);
        assert_eq!(t.data()[11], 7.0);
    }

    #[test]
    fn from_vec_validates_length() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_bad_length() {
        let _ = Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dim_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn randn_is_deterministic_and_scaled() {
        let a = Tensor::randn(&[1000], 0.5, 42);
        let b = Tensor::randn(&[1000], 0.5, 42);
        assert_eq!(a, b);
        let c = Tensor::randn(&[1000], 0.5, 43);
        assert_ne!(a, c);
        let var: f32 = a.data().iter().map(|v| v * v).sum::<f32>() / 1000.0;
        assert!((var.sqrt() - 0.5).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    fn map_and_add() {
        let t = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let relu = t.map(|v| v.max(0.0));
        assert_eq!(relu.data(), &[1.0, 0.0]);
        let s = t.add(&t);
        assert_eq!(s.data(), &[2.0, -4.0]);
    }

    #[test]
    #[allow(clippy::identity_op)] // keep the (n*C + c)*H... formula legible
    fn offset4_nchw() {
        let t = Tensor::zeros(&[2, 3, 4, 5]);
        assert_eq!(t.offset4(0, 0, 0, 0), 0);
        assert_eq!(t.offset4(1, 2, 3, 4), ((1 * 3 + 2) * 4 + 3) * 5 + 4);
        assert_eq!(t.offset4(1, 0, 0, 0), 60);
    }

    #[test]
    fn argmax_rows_finds_maxima() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.5, 0.2, 0.3], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }
}
