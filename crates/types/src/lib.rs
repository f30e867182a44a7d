//! # cartcomm-types — derived datatypes for zero-copy collective communication
//!
//! The Cartesian collective algorithms of Träff & Hunold (ICPP 2019) avoid
//! explicit packing of data blocks by describing the blocks of every
//! communication round with an MPI *derived datatype* and letting the
//! communication layer gather/scatter directly between user buffers and the
//! wire. This crate is a from-scratch reimplementation of the part of the
//! MPI datatype machinery those algorithms need:
//!
//! * [`Datatype`] — an immutable, reference-counted layout tree built with
//!   MPI-like constructors (`contiguous`, `vector`, `hvector`, `indexed`,
//!   `hindexed`, `indexed_block`, `structured`, `subarray`, `resized`),
//! * [`FlatType`] — a *committed* datatype: its coalesced byte [`Span`]s in
//!   type-map order, its size and its bounds, and nothing else,
//! * [`pack`] and [`kernel`] — single-copy gather/scatter between buffers
//!   and wire representation, the zero-copy execution primitive of
//!   Listing 5.
//!
//! The paper's `TypeApp` — appending one block per neighbor while a round
//! is scheduled — builds no datatype here: the schedule compiler
//! (`cartcomm`'s `compile.rs`, `SpanProgram::push`) appends each block's
//! resolved spans to its span program directly.
//!
//! All displacements are byte displacements relative to the start of the
//! buffer passed at communication time (the analogue of `MPI_BOTTOM` +
//! absolute addresses in the paper's C library is not needed in safe Rust;
//! buffer-relative displacements are equally expressive here).

pub mod datatype;
pub mod error;
pub mod flat;
pub mod kernel;
pub mod pack;
pub mod primitive;
pub mod redop;

pub use datatype::Datatype;
pub use error::{TypeError, TypeResult};
pub use flat::{FlatType, Span};
pub use kernel::{accumulate_spans, gather_spans, scatter_spans, PackSpan};
pub use pack::{gather, gather_append, scatter};
pub use primitive::{cast_slice, cast_slice_mut, Pod, Primitive};
pub use redop::{RedOp, Reducer};
