use crate::{Result, SeedStream, Shape, TensorError};
use serde::{Deserialize, Serialize};

/// A dense, row-major, owning `f32` tensor.
///
/// `Tensor` is used for parameters, gradients, optimizer state and anything
/// that crosses a serialization boundary. Hot-path math operates on the raw
/// slices returned by [`Tensor::data`] / [`Tensor::data_mut`] via the free
/// functions in [`crate::ops`].
///
/// ```
/// use photon_tensor::Tensor;
/// let t = Tensor::zeros(vec![2, 4]);
/// assert_eq!(t.numel(), 8);
/// assert_eq!(t.shape().dims(), &[2, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let data = vec![0.0; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let data = vec![value; shape.numel()];
        Tensor { shape, data }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the element count implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with entries drawn from `N(0, std^2)`.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut SeedStream) -> Self {
        let mut t = Tensor::zeros(shape);
        crate::normal_fill(t.data_mut(), 0.0, std, rng);
        t
    }

    /// Returns the shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    /// Returns [`TensorError::InvalidReshape`] if element counts differ.
    pub fn reshape(&mut self, shape: impl Into<Shape>) -> Result<()> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(TensorError::InvalidReshape {
                numel: self.data.len(),
                requested: shape.numel(),
            });
        }
        self.shape = shape;
        Ok(())
    }

    /// Sets every element to zero (used to reset gradient buffers).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Element at a 2-D index. Convenience for tests and small models.
    ///
    /// # Panics
    /// Panics if the tensor is not rank-2 or the index is out of bounds.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.rank(), 2, "at2 requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        self.data[r * cols + c]
    }

    /// In-place element-wise addition of another tensor.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        crate::ops::add_inplace(&mut self.data, &other.data);
        Ok(())
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy_assign(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other)?;
        crate::ops::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// In-place scaling: `self *= alpha`.
    pub fn scale_assign(&mut self, alpha: f32) {
        crate::ops::scale(alpha, &mut self.data);
    }

    /// L2 norm of the tensor viewed as a flat vector.
    pub fn l2_norm(&self) -> f32 {
        crate::ops::l2_norm(&self.data)
    }

    fn check_same_shape(&self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(())
    }
}

impl Default for Tensor {
    /// The default tensor is a scalar zero.
    fn default() -> Self {
        Tensor::zeros(vec![1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Tensor::full(vec![2, 3], 1.5);
        assert_eq!(t.numel(), 6);
        assert!(t.data().iter().all(|&v| v == 1.5));
        assert_eq!(t.at2(1, 2), 1.5);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        t.reshape(vec![3, 2]).unwrap();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at2(2, 1), 5.0);
        assert!(t.reshape(vec![7]).is_err());
    }

    #[test]
    fn arithmetic_helpers() {
        let mut a = Tensor::from_vec(vec![3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![1., 1., 1.]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[2., 3., 4.]);
        a.axpy_assign(2.0, &b).unwrap();
        assert_eq!(a.data(), &[4., 5., 6.]);
        a.scale_assign(0.5);
        assert_eq!(a.data(), &[2., 2.5, 3.]);
        let c = Tensor::zeros(vec![2]);
        assert!(a.add_assign(&c).is_err());
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = SeedStream::new(42);
        let mut r2 = SeedStream::new(42);
        let a = Tensor::randn(vec![16], 1.0, &mut r1);
        let b = Tensor::randn(vec![16], 1.0, &mut r2);
        assert_eq!(a, b);
        let mut r3 = SeedStream::new(43);
        let c = Tensor::randn(vec![16], 1.0, &mut r3);
        assert_ne!(a, c);
    }

    #[test]
    fn fill_zero_resets() {
        let mut rng = SeedStream::new(1);
        let mut t = Tensor::randn(vec![8], 1.0, &mut rng);
        t.fill_zero();
        assert!(t.data().iter().all(|&v| v == 0.0));
    }
}
