//! Hot-path numeric kernels operating on raw `f32` slices.
//!
//! These free functions are the compute substrate for the neural-network
//! layers in `photon-nn`. They take slices so layers can run over
//! pre-allocated, reused activation buffers with zero per-step allocation.

mod elementwise;
mod gemm;
pub mod pool;
mod reduce;
mod window;

pub use elementwise::{add_bias_rows, add_inplace, axpy, scale};
pub(crate) use gemm::{drive, Tile};
pub use gemm::{gemm, gemm_auto, gemm_serial, par_gemm, Gemm};
pub use reduce::{argmax, dot, l2_norm, max_abs_diff, mean, sum};
pub use window::Window;
