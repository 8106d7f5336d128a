//! # photon-tensor
//!
//! A small, dependency-light CPU tensor library underpinning the Photon-RS
//! federated LLM pre-training stack.
//!
//! The design philosophy follows high-performance single-file trainers such
//! as llm.c: tensors are dense, row-major, `f32` buffers; the hot paths are
//! free functions over slices (so layers can operate on pre-allocated
//! activation buffers without bookkeeping overhead); and [`Tensor`] is a thin
//! owning wrapper used for parameters, gradients and serialization.
//!
//! ## Quick example
//!
//! ```
//! use photon_tensor::{Tensor, ops};
//!
//! // (2x3) * (3x2) = (2x2)
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
//! let b = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]).unwrap();
//! let mut c = Tensor::zeros(vec![2, 2]);
//! ops::gemm(ops::Gemm::new(2, 3, 2), a.data(), b.data(), c.data_mut());
//! assert_eq!(c.data(), &[4., 5., 10., 11.]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod dtype;
mod error;
mod init;
pub mod ops;
mod ser;
mod shape;
mod tensor;

pub use dtype::{bf16_from_f32, bf16_to_f32, Dtype};
pub use error::TensorError;
pub use init::{normal_fill, trunc_normal_fill, uniform_fill, SeedStream, SAMPLE_DENSE_MAX};
pub use ser::{
    bf16s_from_le, f32s_from_le, put_bf16s_le, put_f32s_le, read_bf16_slice, read_f32_slice,
    read_tensor, write_bf16_slice, write_f32_slice, write_tensor,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
