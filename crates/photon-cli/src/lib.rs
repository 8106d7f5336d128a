//! Library surface of the `photon` CLI, exposed so integration tests can
//! drive the command implementations directly.

#![deny(unsafe_code)]

pub mod args;
pub mod commands;
pub mod options;
