//! # photon-tensor
//!
//! The dense CPU kernels underpinning the Photon-RS federated LLM
//! pre-training stack.
//!
//! The design philosophy follows high-performance single-file trainers such
//! as llm.c: every buffer is a dense, row-major `f32` slice, and the hot
//! paths are free functions over slices, so layers operate on pre-allocated
//! activation buffers without bookkeeping overhead. The model, optimizers,
//! checkpoints and wire codec all hold plain `Vec<f32>`s.
//!
//! ## Quick example
//!
//! ```
//! use photon_tensor::ops;
//!
//! // (2x3) * (3x2) = (2x2)
//! let a = vec![1., 2., 3., 4., 5., 6.];
//! let b = vec![1., 0., 0., 1., 1., 1.];
//! let mut c = vec![0.0f32; 4];
//! ops::gemm(ops::Gemm::new(2, 3, 2), &a, &b, &mut c);
//! assert_eq!(c, [4., 5., 10., 11.]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod dtype;
mod error;
mod init;
pub mod ops;
mod ser;

pub use dtype::{bf16_from_f32, bf16_to_f32, Dtype};
pub use error::TensorError;
pub use init::{normal_fill, trunc_normal_fill, uniform_fill, SeedStream};
pub use ser::{
    bf16s_from_le, f32s_from_le, put_bf16s_le, put_f32s_le, read_bf16_slice, read_f32_slice,
    write_bf16_slice, write_f32_slice,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
