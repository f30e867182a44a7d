//! # cartcomm-topo — process topologies for Cartesian Collective Communication
//!
//! Implements the topology layer of Träff & Hunold (ICPP 2019):
//!
//! * [`CartTopology`] — a d-dimensional mesh or torus of `p` processes with
//!   per-dimension sizes and periodicity, rank ↔ coordinate conversion, and
//!   the relative-coordinate helper functions of Listing 2
//!   (`Cart_relative_rank`, `Cart_relative_shift`, `Cart_relative_coord`).
//! * [`RelNeighborhood`] — a *t-neighborhood*: an ordered list of relative
//!   coordinate offset vectors, with the per-dimension census (the paper's
//!   `C_k`), non-zero counts (`z_i`), and stencil generators for the
//!   evaluation's neighborhood families (§4.1.1: parameters `d`, `n`, `f`).
//! * [`DistGraphTopology`] — the general, unstructured neighbor lists that
//!   MPI's distributed-graph topologies describe; used by the baseline
//!   neighborhood collectives and by the §2.2 reconstruction check that
//!   detects when a distributed graph is in fact Cartesian.
//! * [`dims_create`] — balanced factorization of `p` into `d` dimension
//!   sizes (the `MPI_Dims_create` counterpart used by examples/benchmarks).

pub mod cart;
pub mod dims;
pub mod distgraph;
pub mod neighborhood;
pub mod remap;

pub use cart::CartTopology;
pub use dims::dims_create;
pub use distgraph::DistGraphTopology;
pub use neighborhood::{Offset, RelNeighborhood};
pub use remap::{brick_permutation, traffic_summary, TrafficSummary};

/// Errors raised during topology construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoError {
    /// Dimension sizes do not multiply to the number of processes.
    SizeMismatch { product: usize, processes: usize },
    /// A dimension size was zero.
    ZeroDimension { dim: usize },
    /// The dimension sizes multiply past `usize::MAX`: no rank count.
    RankOverflow,
    /// Offset vector has the wrong number of coordinates.
    DimensionMismatch { expected: usize, actual: usize },
    /// A neighborhood was empty where a non-empty one is required.
    EmptyNeighborhood,
    /// Mismatched weights list.
    WeightMismatch { expected: usize, actual: usize },
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoError::SizeMismatch { product, processes } => write!(
                f,
                "dimension sizes multiply to {product}, but there are {processes} processes"
            ),
            TopoError::ZeroDimension { dim } => write!(f, "dimension {dim} has size zero"),
            TopoError::RankOverflow => write!(f, "dimension sizes multiply past usize::MAX"),
            TopoError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "offset has {actual} coordinates, topology has {expected}"
                )
            }
            TopoError::EmptyNeighborhood => write!(f, "neighborhood is empty"),
            TopoError::WeightMismatch { expected, actual } => {
                write!(f, "{actual} weights for {expected} neighbors")
            }
        }
    }
}

impl std::error::Error for TopoError {}

/// Result alias for topology operations.
pub type TopoResult<T> = Result<T, TopoError>;
